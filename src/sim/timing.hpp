// Analytical timing model: converts the simulator's warp-level metrics
// into a modelled kernel time on a device. The model is a simplified
// MWP/CWP-style bound (Hong & Kim, ISCA'09): kernel time is the maximum of
// the compute-throughput bound, the memory-bandwidth bound, and the exposed
// memory latency given the occupancy-determined warp concurrency — plus a
// fixed launch overhead.
//
// For streaming workloads the single number is not enough: a frame pipeline
// issues host-to-device uploads, kernel launches, and device-to-host
// downloads that real hardware services on *independent queues* (CUDA
// streams / OpenCL command queues with a copy engine). StreamTimeline below
// models that: three per-queue availability timelines with explicit
// dependencies, so frame k+1's upload overlaps frame k's compute — or, in
// serial mode, everything collapses onto one timeline, reproducing the old
// summed-launches accounting the streaming bench compares against.
#pragma once

#include "hwmodel/device_spec.hpp"
#include "hwmodel/occupancy.hpp"
#include "sim/metrics.hpp"

namespace hipacc::sim {

/// Breakdown of the modelled time (reported by benches and tests).
struct TimingBreakdown {
  double compute_cycles = 0.0;   ///< per-"wall" compute bound
  double bandwidth_cycles = 0.0; ///< DRAM bandwidth bound
  double latency_cycles = 0.0;   ///< exposed latency bound
  double total_ms = 0.0;
};

/// Fixed per-launch host/driver overhead in ms.
inline constexpr double kLaunchOverheadMs = 0.005;

/// Models the execution time of a kernel whose *whole-grid* metrics are
/// `metrics`, launched with `occupancy` resident warps per SIMD unit.
/// `issue_scale` multiplies the compute bound (toolchain quality factor,
/// e.g. DeviceSpec::opencl_issue_overhead for OpenCL-compiled kernels).
TimingBreakdown ModelTime(const Metrics& metrics, const hw::DeviceSpec& device,
                          const hw::OccupancyResult& occupancy,
                          double issue_scale = 1.0);

/// Fixed per-transfer host/driver overhead in ms (DMA setup, ring-buffer
/// doorbell) — considerably cheaper than a kernel launch.
inline constexpr double kCopyOverheadMs = 0.002;

/// Models one host<->device copy of `bytes` over the interconnect
/// (DeviceSpec::pcie_bandwidth_gbps) plus the fixed transfer overhead.
double ModelCopyMs(long long bytes, const hw::DeviceSpec& device);

/// The device-side queues a streaming frame pipeline occupies. Compute and
/// the two DMA directions run concurrently on real hardware; modelling them
/// separately is what makes copy/compute overlap visible.
enum class StreamQueue { kCompute = 0, kCopyH2D = 1, kCopyD2H = 2 };

inline constexpr int kStreamQueueCount = 3;

const char* to_string(StreamQueue queue) noexcept;

/// Per-queue availability timelines with explicit dependencies. Operations
/// are enqueued in submission order; each starts at
/// max(ready_ms, queue-available time) and occupies its queue for its
/// duration. In serial mode (overlap == false) every operation shares one
/// availability timeline regardless of its queue — the pre-streaming model
/// where launches and copies simply sum — while per-queue busy time is still
/// attributed, so utilisation reports stay comparable across modes.
class StreamTimeline {
 public:
  explicit StreamTimeline(bool overlap) : overlap_(overlap) {}

  /// Schedules one operation; returns its completion time in ms. `ready_ms`
  /// encodes dependencies (max over the completion times of everything this
  /// operation waits on).
  double Enqueue(StreamQueue queue, double ready_ms, double duration_ms);

  /// Completion time of the latest operation scheduled so far (makespan).
  double finish_ms() const noexcept { return finish_ms_; }
  /// Total time `queue` spent executing operations.
  double busy_ms(StreamQueue queue) const noexcept {
    return busy_[static_cast<int>(queue)];
  }
  /// busy_ms / finish_ms — the occupancy a profiler timeline would show.
  double utilisation(StreamQueue queue) const noexcept {
    return finish_ms_ > 0.0 ? busy_ms(queue) / finish_ms_ : 0.0;
  }
  long long op_count() const noexcept { return ops_; }
  bool overlap() const noexcept { return overlap_; }

 private:
  bool overlap_ = true;
  double avail_[kStreamQueueCount] = {0.0, 0.0, 0.0};
  double busy_[kStreamQueueCount] = {0.0, 0.0, 0.0};
  double finish_ms_ = 0.0;
  long long ops_ = 0;
};

}  // namespace hipacc::sim
