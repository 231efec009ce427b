// Minimal fixed-width table printer for the benchmark harnesses, matching
// the layout of the paper's tables (variants as rows, boundary modes as
// columns, "crash"/"n/a" cells). Tables also serialise to the BENCH_*.json
// schema so sweeps are machine-readable: numeric cells stay numbers, text
// cells become {"ms": null, "status": "..."} sentinels.
#pragma once

#include <string>
#include <vector>

#include "compiler/fusion_planner.hpp"
#include "support/cli.hpp"
#include "support/json.hpp"

namespace hipacc::bench {

/// Process-wide tuning knobs shared by every benchmark binary, set from the
/// common flags MakeBenchCli registers.
struct BenchTuning {
  /// --ppt=N|auto: pixels per thread for generated kernels. -1 = flag not
  /// given (each bench keeps its own default), 0 = auto (the compiler's
  /// heuristic sweep picks per device), otherwise the forced value.
  int ppt = -1;
  /// --no-separate clears this: rewrite rank-1 convolution stages into
  /// row + column passes where the bench runs a pipeline graph.
  bool separate = true;
  /// --fuse=off|point|horizontal|halo|all: candidate kinds the fusion
  /// planner may apply in graph-based benches (default: all).
  compiler::FusionMode fuse = compiler::FusionMode::kAll;
  /// --explain-fusion: print every fusion candidate the planner examined
  /// (accept/reject, reason, modelled score) after the graph runs.
  bool explain_fusion = false;
};
BenchTuning& Tuning();

/// CliParser preloaded with the flags every benchmark binary shares
/// (--cache-dir, --ppt, --no-separate, --fuse,
/// --explain-fusion); a binary registers its extra flags on the returned
/// parser, then calls HandleArgs(). Creating the parser enables the
/// persistent cache at its default location; --cache-dir=off opts out.
support::CliParser MakeBenchCli(std::string program, std::string summary);

/// The --explain-fusion report: dedupes and prints one line per examined
/// fusion candidate (kind, stages, verdict, reason, and the score with the
/// cost model that produced it, in that model's units).
void PrintFusionDecisions(std::vector<compiler::CandidateDecision> decisions);

class Table {
 public:
  explicit Table(std::vector<std::string> columns)
      : columns_(std::move(columns)) {}

  /// Starts a new row with the given label.
  void Row(const std::string& label);
  /// Appends a numeric cell (milliseconds) to the current row.
  void Cell(double ms);
  /// Appends a text cell ("crash", "n/a").
  void Cell(const std::string& text);

  /// Renders with aligned columns; `title` is printed first.
  std::string Render(const std::string& title) const;

  /// {"title", "columns": [...], "rows": [{"label", "cells": [...]}]} where
  /// each cell is a number (ms) or, for non-numeric results, the typed
  /// sentinel {"ms": null, "status": "crash"|"n/a"|...} — no magic strings
  /// in numeric positions.
  support::Json ToJson(const std::string& title) const;

  /// Serialises ToJson(title) to `path` (pretty-printed, trailing newline).
  Status WriteJson(const std::string& path, const std::string& title) const;

 private:
  std::vector<std::string> columns_;
  struct TableRow {
    std::string label;
    std::vector<std::string> rendered;  ///< fixed-width text form
    std::vector<support::Json> values;  ///< typed form for ToJson
  };
  std::vector<TableRow> rows_;
};

}  // namespace hipacc::bench
