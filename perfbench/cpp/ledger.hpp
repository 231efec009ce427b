// Per-layer ledger over a sim::TraceSink: links the spans the benchmark
// records around each public call (category "bench") with the program's own
// spans into trees, and charges each span's self time — its duration minus
// the union of its children — to the layer that recorded it.
//
// Spans nest by time containment on the same trace lane (tid), except that
// two spans of one kind (NestingKind) never nest: on one lane they are
// concurrent siblings, such as a frame's parallel stages or the passes of
// kernels compiled at once. The benchmark gives its per-frame / per-run /
// per-compile spans the lane the program uses for that unit of work (a
// streaming frame's epoch), so the program's spans become children of the
// benchmark's. Spans from other lanes (exploration workers) are parented to
// the innermost benchmark span that contains them in time.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "support/json.hpp"

namespace perfbench {

struct Span {
  std::string name;
  std::string category;
  std::string layer;  ///< see LayerOf
  double start_ms = 0.0;
  double dur_ms = 0.0;
  int tid = 0;
  hipacc::support::Json args;
  int parent = -1;  ///< index into Ledger::spans; -1 for roots
  double self_ms = 0.0;

  double end_ms() const { return start_ms + dur_ms; }
};

/// Layer of a span, named after the repository's modules: "bench" for the
/// benchmark's own spans, "runtime" for graph/stream execution, the
/// compiler pass's module for compile spans (parse -> frontend, lower/emit
/// -> codegen, estimate/select_config -> hwmodel, bytecode -> sim, fuse ->
/// compiler), "sim" for simulated launches, "compiler" for exploration.
std::string LayerOf(const std::string& category, const std::string& name,
                    const hipacc::support::Json& args);

/// Kind of span for nesting: the category and the first word of the name
/// ("graph stage", "sim launch"); every compile-pass span is one kind.
std::string NestingKind(const std::string& category, const std::string& name);

struct LayerRow {
  std::string layer;
  long long spans = 0;
  double total_ms = 0.0;  ///< summed span durations (children included)
  double self_ms = 0.0;   ///< summed self times
};

class Ledger {
 public:
  /// Builds from TraceSink::ToJson() output ({"events": [...],
  /// "counters": {...}}); instant events (zero duration) are ignored.
  static Ledger FromTraceJson(const hipacc::support::Json& doc);

  const std::vector<Span>& spans() const { return spans_; }
  long long counter(const std::string& name) const;
  /// Sum of every counter whose name starts with `prefix`.
  long long counter_prefix_sum(const std::string& prefix) const;

  /// Self and total time per layer, in first-seen order of the layers.
  std::vector<LayerRow> LayerTable() const;

 private:
  void Link();

  std::vector<Span> spans_;
  std::map<std::string, long long> counters_;
};

/// Renders the layer table as aligned text (one row per layer plus a
/// total), for the run's stdout and the written table file.
std::string FormatLayerTable(const std::vector<LayerRow>& rows);

/// The same table as JSON: [{"layer", "spans", "total_ms", "self_ms"}].
hipacc::support::Json LayerTableJson(const std::vector<LayerRow>& rows);

}  // namespace perfbench
