// Shared plumbing of the workloads: run arguments, input seeds, timing
// helpers, and the per-layer metrics a traced run reports.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "record.hpp"

namespace perfbench {

struct RunArgs {
  std::string workload;
  unsigned long long seed = 0;
  int seconds = 10;
  bool trace = false;
  /// Self-test hook: perturb one reference value so the run must fail.
  bool corrupt_reference = false;
  std::string repo_root = ".";  ///< checkout root (examples/kernels lives here)
  std::string out_dir = ".";    ///< where the Chrome trace and layer table go
};

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// hipacc::MakeNoiseImage seed of a run's input number `salt` (< 64), so
/// every input of every run seed draws its own noise.
inline std::uint64_t InputSeed(unsigned long long seed, unsigned salt) {
  return seed * 64 + salt;
}

/// Adds a latency sample set as the workload's p50 and tail end-to-end
/// metrics. `tail_p` is the workload's fixed tail percentile; the sample
/// must be large enough for it (GuardedPercentile), else the run fails.
void AddLatency(Record* record, const std::vector<double>& samples_ms,
                double tail_p, const std::string& p50_alias,
                const std::string& tail_alias);

void AddEndToEnd(Record* record, const std::string& name, double value,
                 const std::string& unit, const std::string& alias,
                 long long samples = 0);

/// The per-layer metrics of a traced run: the names and units
/// BENCHMARK.json's per_layer list gives, in its order. A layer a workload
/// does not exercise reads an exact 0.
class LayerValues {
 public:
  /// Reads the per_layer list of the BENCHMARK.json at `path`; throws
  /// std::runtime_error when it cannot.
  explicit LayerValues(const std::string& path);

  bool Lists(const std::string& name) const;
  /// Sets a wall-clock value. Throws on a name the list lacks, so a typo
  /// cannot silently report 0.
  void Set(const std::string& name, double value);
  /// Sets an exact value (a count, or a ratio of counts).
  void SetExact(const std::string& name, double value);
  /// Appends every listed metric to the record.
  void EmitInto(Record* record) const;

 private:
  struct Entry {
    std::string name;
    std::string unit;
    Kind kind = Kind::kExact;
    double value = 0.0;
  };
  Entry& Find(const std::string& name);

  std::vector<Entry> entries_;
};

void RunIspStream(const RunArgs& args, Record* record);
void RunKernelTune(const RunArgs& args, Record* record);

}  // namespace perfbench
