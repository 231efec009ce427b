// Sample statistics and process-resource probes shared by the benchmark's
// workloads. Everything here is pure arithmetic over samples the caller
// measured, except ReadUsage(), which wraps getrusage(2).
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// Linearly interpolated percentile (p in [0, 100]) of `samples`, the
/// definition numpy uses by default. Requires a non-empty sample.
double Percentile(std::vector<double> samples, double p);

double Median(const std::vector<double>& samples);

/// Percentile that is only reported when at least `kTailSamples` samples
/// lie beyond it: p95 needs 200 samples, p99 needs 1,000. nullopt when the
/// sample is too small for `p` to mean anything.
constexpr double kTailSamples = 10.0;
std::optional<double> GuardedPercentile(const std::vector<double>& samples,
                                        double p);

/// Smallest sample count for which GuardedPercentile(p) reports a value.
std::size_t MinSamplesFor(double p);

/// Largest |a - b| over two equally sized images (infinity on a size
/// mismatch or when either holds a NaN).
double MaxAbsDiff(const std::vector<float>& a, const std::vector<float>& b);

/// Geometric mean; every value must be > 0.
double Geomean(const std::vector<double>& values);

/// The slice of getrusage(RUSAGE_SELF) the benchmark reports.
struct Usage {
  double max_rss_mb = 0.0;      ///< peak resident set, whole process
  long long voluntary_ctx = 0;  ///< ru_nvcsw
  long long involuntary_ctx = 0;  ///< ru_nivcsw

  long long context_switches() const {
    return voluntary_ctx + involuntary_ctx;
  }
};

Usage ReadUsage();

/// Counter growth from `before` to `after`. max_rss_mb is not a counter: the
/// delta keeps `after`'s peak.
Usage UsageDelta(const Usage& before, const Usage& after);

}  // namespace perfbench
