#include "common/table.hpp"

#include <algorithm>
#include <cstdio>

#include "support/cache_dir_flag.hpp"
#include "support/string_utils.hpp"

namespace hipacc::bench {

BenchTuning& Tuning() {
  static BenchTuning tuning;
  return tuning;
}

support::CliParser MakeBenchCli(std::string program, std::string summary) {
  support::CliParser cli(std::move(program), std::move(summary));
  support::RegisterCacheDirFlag(cli);
  cli.Value("ppt", "N|auto",
            "pixels per thread for generated kernels (auto = heuristic "
            "sweep; default: bench-specific)",
            [](const std::string& value) -> Status {
              if (value == "auto") {
                Tuning().ppt = 0;
                return Status::Ok();
              }
              int n = 0;
              if (std::sscanf(value.c_str(), "%d", &n) != 1 || n < 1 ||
                  n > 32)
                return Status::Invalid("--ppt expects 1..32 or auto, got '" +
                                       value + "'");
              Tuning().ppt = n;
              return Status::Ok();
            });
  cli.Switch("no-separate",
             "keep separable convolutions as direct 2D stages in "
             "graph-based benches",
             []() -> Status {
               Tuning().separate = false;
               return Status::Ok();
             });
  cli.Value("fuse", "off|point|horizontal|halo|all",
            "fusion kinds the graph planner may apply (default: all)",
            [](const std::string& value) -> Status {
              Result<compiler::FusionMode> mode =
                  compiler::ParseFusionMode(value);
              if (!mode.ok()) return mode.status();
              Tuning().fuse = mode.value();
              return Status::Ok();
            });
  cli.Switch("explain-fusion",
             "print every fusion candidate the planner examined "
             "(accept/reject, reason, modelled score)",
             []() -> Status {
               Tuning().explain_fusion = true;
               return Status::Ok();
             });
  return cli;
}

void PrintFusionDecisions(
    std::vector<compiler::CandidateDecision> decisions) {
  compiler::DedupeDecisions(&decisions);
  std::printf("fusion candidates (%zu examined):\n", decisions.size());
  for (const compiler::CandidateDecision& d : decisions) {
    const char* verdict = d.accepted ? "accepted"
                          : d.legal  ? "rejected (profitability)"
                                     : "rejected (legality)";
    std::printf("  [%-10s] %s -> %s: %s — %s", to_string(d.kind),
                d.producer.c_str(), d.consumer.c_str(), verdict,
                d.reason.c_str());
    if (d.legal)
      std::printf(" (%s score %.4f %s)", to_string(d.model), d.score,
                  compiler::ScoreUnits(d.model));
    std::printf("\n");
  }
}

void Table::Row(const std::string& label) {
  rows_.push_back({label, {}, {}});
}

void Table::Cell(double ms) {
  rows_.back().rendered.push_back(StrFormat("%.2f", ms));
  rows_.back().values.emplace_back(ms);
}

void Table::Cell(const std::string& text) {
  rows_.back().rendered.push_back(text);
  // Typed sentinel for the JSON form: consumers check "status" instead of
  // pattern-matching magic strings, and "ms" is null rather than absent so
  // every cell has the same shape.
  support::Json cell = support::Json::Object();
  cell["ms"] = support::Json();
  cell["status"] = text;
  rows_.back().values.push_back(std::move(cell));
}

std::string Table::Render(const std::string& title) const {
  size_t label_width = 8;
  for (const TableRow& row : rows_)
    label_width = std::max(label_width, row.label.size());
  std::vector<size_t> widths(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    widths[c] = columns_[c].size();
    for (const TableRow& row : rows_)
      if (c < row.rendered.size())
        widths[c] = std::max(widths[c], row.rendered[c].size());
  }

  std::string out = title + "\n";
  std::string header(label_width, ' ');
  for (size_t c = 0; c < columns_.size(); ++c) {
    header += "  ";
    header += std::string(widths[c] - columns_[c].size(), ' ') + columns_[c];
  }
  out += header + "\n";
  out += std::string(header.size(), '-') + "\n";
  for (const TableRow& row : rows_) {
    std::string line = row.label + std::string(label_width - row.label.size(), ' ');
    for (size_t c = 0; c < row.rendered.size(); ++c) {
      line += "  ";
      line += std::string(widths[c] >= row.rendered[c].size()
                              ? widths[c] - row.rendered[c].size()
                              : 0,
                          ' ') +
              row.rendered[c];
    }
    out += line + "\n";
  }
  return out;
}

support::Json Table::ToJson(const std::string& title) const {
  support::Json doc = support::Json::Object();
  doc["title"] = title;
  support::Json columns = support::Json::Array();
  for (const std::string& column : columns_) columns.push_back(column);
  doc["columns"] = std::move(columns);
  support::Json rows = support::Json::Array();
  for (const TableRow& row : rows_) {
    support::Json r = support::Json::Object();
    r["label"] = row.label;
    support::Json cells = support::Json::Array();
    for (const support::Json& value : row.values) cells.push_back(value);
    r["cells"] = std::move(cells);
    rows.push_back(std::move(r));
  }
  doc["rows"] = std::move(rows);
  return doc;
}

Status Table::WriteJson(const std::string& path,
                        const std::string& title) const {
  return support::WriteFile(path, ToJson(title).Dump(2) + "\n");
}

}  // namespace hipacc::bench
