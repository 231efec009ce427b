// Pipeline benchmark: the paper's motivating multiresolution (Laplacian
// pyramid) filter (Section III-A), eager per-stage execution vs the pipeline
// graph runtime. Both paths run the identical kernels; the graph wins by
// fusing each point-wise detail/collect stage into its expand convolution,
// recycling intermediate buffers through the pool, and keeping pixels in
// device images between stages instead of round-tripping host copies. The
// outputs must be bit-identical (the benchmark fails otherwise), so the
// speedup is pure scheduling.
#include <cstdio>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "image/metrics.hpp"
#include "image/synthetic.hpp"
#include "ops/pyramid.hpp"
#include "sim/trace.hpp"
#include "support/stopwatch.hpp"
#include "support/string_utils.hpp"

using namespace hipacc;

namespace {

Result<ast::BoundaryMode> ParseMode(const std::string& name) {
  if (name == "undefined") return ast::BoundaryMode::kUndefined;
  if (name == "clamp") return ast::BoundaryMode::kClamp;
  if (name == "repeat") return ast::BoundaryMode::kRepeat;
  if (name == "mirror") return ast::BoundaryMode::kMirror;
  if (name == "constant") return ast::BoundaryMode::kConstant;
  return Status::Invalid("unknown boundary mode '" + name +
                         "' (undefined|clamp|repeat|mirror|constant|all)");
}

}  // namespace

int main(int argc, char** argv) {
  int size = 1024;
  int levels = 3;
  int repeat = 3;
  std::string mode_name = "all";
  std::string json_out = "BENCH_pipeline.json";
  std::string trace_out;

  support::CliParser cli = bench::MakeBenchCli(
      "pipeline_multires",
      "multiresolution filter: eager per-stage vs pipeline graph runtime");
  cli.Int("size", &size, "N", "square image extent (default 1024)");
  cli.Int("levels", &levels, "N", "pyramid levels (default 3)");
  cli.Int("repeat", &repeat, "N", "timed runs per variant (default 3)");
  cli.String("mode", &mode_name, "MODE",
             "boundary mode to benchmark, or 'all' (default)");
  cli.String("json-out", &json_out, "FILE",
             "BENCH_*.json report path (default BENCH_pipeline.json)");
  cli.String("trace-out", &trace_out, "FILE",
             "Chrome trace_event timeline of the graph runs");
  if (const int code = cli.HandleArgs(argc, argv); code >= 0) return code;

  std::vector<std::pair<std::string, ast::BoundaryMode>> modes;
  if (mode_name == "all") {
    modes = {{"undefined", ast::BoundaryMode::kUndefined},
             {"clamp", ast::BoundaryMode::kClamp},
             {"repeat", ast::BoundaryMode::kRepeat},
             {"mirror", ast::BoundaryMode::kMirror},
             {"constant", ast::BoundaryMode::kConstant}};
  } else {
    Result<ast::BoundaryMode> mode = ParseMode(mode_name);
    if (!mode.ok()) {
      std::fprintf(stderr, "error: %s\n", mode.status().ToString().c_str());
      return 2;
    }
    modes = {{mode_name, mode.value()}};
  }

  const std::vector<float> gains = {2.5f, 1.8f, 1.2f};
  const HostImage<float> input =
      MakeAngiogramPhantom(size, size, 0.02f, 3);

  sim::TraceSink trace;
  bench::Table table({"eager_ms", "graph_ms", "speedup", "max_diff"});
  double worst_speedup = 1e9;

  for (const auto& [name, mode] : modes) {
    // Correctness first: the graph output must match the eager reference
    // bit for bit.
    const HostImage<float> eager_out =
        ops::MultiresolutionFilterEager(input, levels, gains, mode);
    runtime::GraphOptions gopts;
    gopts.run.trace = &trace;
    gopts.fuse = bench::Tuning().fuse;
    std::vector<compiler::CandidateDecision> decisions;
    if (bench::Tuning().explain_fusion) gopts.explain = &decisions;
    Result<HostImage<float>> graph_out =
        ops::MultiresolutionFilterGraph(input, levels, gains, mode, gopts);
    if (!graph_out.ok()) {
      std::fprintf(stderr, "error: graph run (%s): %s\n", name.c_str(),
                   graph_out.status().ToString().c_str());
      return 1;
    }
    const double diff = MaxAbsDiff(eager_out, graph_out.value());
    if (diff != 0.0) {
      std::fprintf(stderr,
                   "error: graph output differs from eager (%s): max |d| = "
                   "%g\n",
                   name.c_str(), diff);
      return 1;
    }

    double eager_ms = 1e300, graph_ms = 1e300;
    for (int r = 0; r < repeat; ++r) {
      Stopwatch sw;
      (void)ops::MultiresolutionFilterEager(input, levels, gains, mode);
      eager_ms = std::min(eager_ms, sw.ElapsedMs());
    }
    // One persistent graph across the timed runs: repeated Run() calls hit
    // the compilation cache and reuse every pooled buffer.
    runtime::PipelineGraph graph;
    ops::BuildMultiresolutionGraph(graph, size, size, levels, gains, mode);
    HostImage<float> out(size, size);
    for (int r = 0; r < repeat; ++r) {
      Stopwatch sw;
      const Status run = graph.Run({{"g0", &input}}, {{"r0", &out}}, gopts);
      if (!run.ok()) {
        std::fprintf(stderr, "error: %s\n", run.ToString().c_str());
        return 1;
      }
      graph_ms = std::min(graph_ms, sw.ElapsedMs());
    }
    if (bench::Tuning().explain_fusion) {
      std::printf("%s:\n", name.c_str());
      bench::PrintFusionDecisions(decisions);
    }

    const double speedup = eager_ms / graph_ms;
    worst_speedup = std::min(worst_speedup, speedup);
    table.Row(name);
    table.Cell(eager_ms);
    table.Cell(graph_ms);
    table.Cell(StrFormat("%.2fx", speedup));
    table.Cell(0.0);
  }

  const std::string title = StrFormat(
      "Multiresolution pipeline, %dx%d, %d levels: eager vs graph runtime",
      size, size, levels);
  std::printf("%s\n", table.Render(title).c_str());
  std::printf(
      "graph counters: stages %lld, fused edges %lld, host launches %lld, "
      "sim launches %lld, pool allocs %lld, pool reuses %lld\n",
      static_cast<long long>(trace.counter("graph.stages")),
      static_cast<long long>(trace.counter("graph.fused_edges")),
      static_cast<long long>(trace.counter("graph.launches.host")),
      static_cast<long long>(trace.counter("graph.launches.sim")),
      static_cast<long long>(trace.counter("bufpool.alloc")),
      static_cast<long long>(trace.counter("bufpool.reuse")));

  if (!json_out.empty()) {
    support::Json doc = table.ToJson(title);
    support::Json counters = support::Json::Object();
    for (const char* key :
         {"graph.stages", "graph.fused_edges", "graph.fused.point",
          "graph.fused.horizontal", "graph.fused.halo",
          "fuse.rejected.legality", "fuse.rejected.profitability",
          "graph.launches.host", "graph.launches.sim", "graph.runs",
          "bufpool.alloc", "bufpool.reuse", "bufpool.peak_bytes"})
      counters[key] = static_cast<double>(trace.counter(key));
    doc["counters"] = std::move(counters);
    const Status written =
        support::WriteFile(json_out, doc.Dump(2) + "\n");
    if (!written.ok()) {
      std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
      return 1;
    }
  }
  if (!trace_out.empty()) {
    const Status written = trace.WriteChromeTrace(trace_out);
    if (!written.ok()) {
      std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
      return 1;
    }
  }
  if (worst_speedup < 1.0) {
    std::fprintf(stderr, "warning: graph slower than eager (%.2fx)\n",
                 worst_speedup);
  }
  return 0;
}
