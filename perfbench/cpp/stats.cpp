#include "stats.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace perfbench {

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) throw std::invalid_argument("percentile of no samples");
  std::sort(samples.begin(), samples.end());
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double Median(const std::vector<double>& samples) {
  return Percentile(samples, 50.0);
}

std::size_t MinSamplesFor(double p) {
  if (p <= 50.0) return 1;
  // n * (1 - p/100) >= kTailSamples, computed in integer hundredths so
  // p95 -> 200 and p99 -> 1000 exactly.
  const long long beyond_hundredths = std::llround((100.0 - p) * 100.0);
  const long long needed = static_cast<long long>(kTailSamples) * 10000;
  return static_cast<std::size_t>((needed + beyond_hundredths - 1) /
                                  beyond_hundredths);
}

std::optional<double> GuardedPercentile(const std::vector<double>& samples,
                                        double p) {
  if (samples.empty() || samples.size() < MinSamplesFor(p)) return std::nullopt;
  return Percentile(samples, p);
}

double Geomean(const std::vector<double>& values) {
  if (values.empty()) throw std::invalid_argument("geomean of no values");
  double log_sum = 0.0;
  for (const double v : values) {
    if (!(v > 0.0)) throw std::invalid_argument("geomean needs values > 0");
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double MaxAbsDiff(const std::vector<float>& a, const std::vector<float>& b) {
  if (a.size() != b.size()) return std::numeric_limits<double>::infinity();
  double worst = 0.0;
  for (std::size_t k = 0; k < a.size(); ++k) {
    const double d = std::fabs(static_cast<double>(a[k]) - b[k]);
    if (std::isnan(d)) return std::numeric_limits<double>::infinity();
    worst = std::max(worst, d);
  }
  return worst;
}

Usage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage usage;
  usage.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  usage.voluntary_ctx = ru.ru_nvcsw;
  usage.involuntary_ctx = ru.ru_nivcsw;
  return usage;
}

Usage UsageDelta(const Usage& before, const Usage& after) {
  Usage delta;
  delta.max_rss_mb = after.max_rss_mb;
  delta.voluntary_ctx = after.voluntary_ctx - before.voluntary_ctx;
  delta.involuntary_ctx = after.involuntary_ctx - before.involuntary_ctx;
  return delta;
}

}  // namespace perfbench
