// One run's result record. Wall-clock metrics and exact metrics (modelled
// device times, counts) are kept in separate sections so no report mixes
// them: wall metrics are compared within a bound, exact ones must be equal.
#pragma once

#include <string>
#include <vector>

#include "support/json.hpp"

namespace perfbench {

enum class Kind { kWall, kExact };

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  Kind kind = Kind::kWall;
  /// Workload-specific name of a generic end-to-end metric (frames_per_s
  /// for throughput_per_s on isp_stream); empty when the name says it all.
  std::string alias;
  long long samples = 0;  ///< samples behind a timing; 0 for other values
};

class Record {
 public:
  Record(std::string workload, unsigned long long seed, int seconds,
         bool trace);

  void Add(Metric metric);
  /// Counts one checked operation; `error` non-empty marks it failed.
  void Check(bool ok, const std::string& error);

  bool correct() const { return failed_ == 0 && attempted_ > 0; }
  long long attempted() const { return attempted_; }
  long long failed() const { return failed_; }
  const std::vector<Metric>& metrics() const { return metrics_; }

  /// {"workload", "seed", "seconds", "trace", "correct", "attempted",
  ///  "failed", "error_rate", "failures": [...],
  ///  "wall": {name: {value, unit, alias?, samples?}},
  ///  "exact": {name: {...}}, "layer_table": [...]}
  hipacc::support::Json ToJson() const;
  /// Human-readable report: wall and exact sections, one metric a line.
  std::string Report() const;

  void set_layer_table(hipacc::support::Json table) {
    layer_table_ = std::move(table);
  }

 private:
  std::string workload_;
  unsigned long long seed_ = 0;
  int seconds_ = 0;
  bool trace_ = false;
  long long attempted_ = 0;
  long long failed_ = 0;
  std::vector<std::string> failures_;
  std::vector<Metric> metrics_;
  hipacc::support::Json layer_table_;
};

}  // namespace perfbench
