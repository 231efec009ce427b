#include "trace_out.hpp"

#include <cstdio>
#include <stdexcept>

#include "stats.hpp"

namespace perfbench {

void SetPassP50(LayerValues* layers,
                const std::map<std::string, std::vector<double>>& ms_by_pass) {
  static const std::pair<const char*, const char*> kMetricOf[] = {
      {"parse", "frontend.parse_ms"},
      {"lower", "codegen.lower_ms"},
      {"emit", "codegen.emit_ms"},
      {"estimate", "hwmodel.estimate_ms"},
      {"select_config", "hwmodel.select_config_ms"},
      {"bytecode", "sim.bytecode_compile_ms"},
      {"fuse", "compiler.fuse_ms"}};
  for (const auto& [pass, metric] : kMetricOf) {
    auto it = ms_by_pass.find(pass);
    if (it != ms_by_pass.end() && !it->second.empty())
      layers->Set(metric, Median(it->second));
  }
}

CacheCounters ReadCacheCounters(const hipacc::sim::TraceSink& sink) {
  CacheCounters c;
  c.hits = sink.counter("cache_hit.frontend") + sink.counter("cache_hit.target");
  c.misses =
      sink.counter("cache_miss.frontend") + sink.counter("cache_miss.target");
  return c;
}

double HitRatio(const CacheCounters& before, const CacheCounters& after) {
  const double hits = static_cast<double>(after.hits - before.hits);
  const double lookups =
      hits + static_cast<double>(after.misses - before.misses);
  return lookups > 0.0 ? hits / lookups : 0.0;
}

void WriteTraceArtifacts(const RunArgs& args,
                         const hipacc::sim::TraceSink& sink,
                         const Ledger& ledger, Record* record) {
  const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed);
  const std::vector<LayerRow> rows = ledger.LayerTable();
  const std::string table = FormatLayerTable(rows);
  record->set_layer_table(LayerTableJson(rows));
  std::printf("per-layer self time (traced section):\n%s", table.c_str());
  const hipacc::Status trace = sink.WriteChromeTrace(stem + ".trace.json");
  const hipacc::Status text =
      hipacc::support::WriteFile(stem + ".layers.txt", table);
  if (!trace.ok() || !text.ok())
    std::fprintf(stderr, "warning: trace artifacts not written: %s %s\n",
                 trace.ToString().c_str(), text.ToString().c_str());
}

void Require(Record* record, const hipacc::Status& status, const char* what) {
  record->Check(status.ok(), std::string(what) + ": " + status.ToString());
  if (!status.ok()) throw std::runtime_error(std::string(what) + " failed");
}

}  // namespace perfbench
