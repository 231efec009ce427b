// Simulator driver: functional execution (every block, exact output) and
// sampled measurement (a few blocks per boundary region executed, metrics
// extrapolated by region population, then run through the timing model).
// Sampling is exact for our kernels because every block within one region
// executes the same instruction stream — only cache behaviour varies
// slightly at the image edges, which the per-region samples capture.
//
// Both run through one launch driver (Run), parameterised by the function
// that executes one thread block. Run validates the launch, bindings
// included (CheckBindings), before any block runs, so a block function
// never meets an unbound or read-only buffer. Execute runs the launch's
// register programs on the engine the options select: the bytecode VM
// (vm.hpp) or the native tier (jit/). Measure observes rather than
// computes: it runs the VM's model-only walk, which skips the values no
// address, mask or loop bound reads (Insn::observed) and writes no pixel,
// so its metrics equal a full run's. Tests pass a reference executor.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "codegen/resource_estimator.hpp"
#include "sim/launch.hpp"
#include "sim/options.hpp"
#include "sim/timing.hpp"

namespace hipacc::sim {

class TraceSink;

struct LaunchStats {
  Metrics metrics;              ///< whole-grid (exact or extrapolated)
  TimingBreakdown timing;       ///< modelled time
  hw::OccupancyResult occupancy;
  hw::RegionGrid region_grid;
  bool sampled = false;
};

/// Executes thread block (bx, by) of a validated launch, adding its metrics
/// to `metrics` and its dispatched instruction count to `executed_insns`.
using BlockFn = std::function<Status(
    const Launch& launch, const hw::DeviceSpec& device, int bx, int by,
    Metrics* metrics, std::uint64_t* executed_insns)>;

class Simulator {
 public:
  explicit Simulator(hw::DeviceSpec device, SimulatorOptions options = {})
      : device_(std::move(device)), options_(options) {}

  const SimulatorOptions& options() const noexcept { return options_; }

  const hw::DeviceSpec& device() const noexcept { return device_; }

  /// Attaches an observability sink: every Execute/Measure records a span
  /// with its configuration, metrics, and timing breakdown. `tid` labels the
  /// logical lane in the trace (exploration worker id). The sink must
  /// outlive the simulator; pass nullptr to detach. Launches themselves
  /// stay thread-safe, but set_trace must not race with in-flight launches.
  void set_trace(TraceSink* sink, int tid = 0) noexcept {
    trace_ = sink;
    trace_tid_ = tid;
  }
  TraceSink* trace() const noexcept { return trace_; }

  /// Validates the launch against device limits (configs exceeding the
  /// hardware model's resources fail like a real kernel-launch error),
  /// requires its register programs and checks its bindings
  /// (CheckBindings).
  Status Validate(const Launch& launch) const;

  /// Executes every block of the grid (host-parallel), producing the exact
  /// output image and exact whole-grid metrics.
  Result<LaunchStats> Execute(const Launch& launch) const {
    return Run(launch, nullptr, std::nullopt);
  }

  /// Executes up to `samples_per_region` blocks of each populated region
  /// on the VM's model-only walk and extrapolates. Writes no output pixel.
  Result<LaunchStats> Measure(const Launch& launch,
                              int samples_per_region = 3) const {
    return Run(launch, nullptr, samples_per_region);
  }

  /// The launch driver behind Execute (`samples_per_region` unset: every
  /// block) and Measure: validates, runs `block` on the chosen blocks, models
  /// the time and records the trace span. A null `block` runs the launch's
  /// programs: sampled, on the VM's model-only walk; otherwise on the engine
  /// options() selects.
  Result<LaunchStats> Run(const Launch& launch, const BlockFn& block,
                          std::optional<int> samples_per_region) const;

 private:
  hw::OccupancyResult Occupancy(const Launch& launch) const;
  double IssueScale(const Launch& launch) const;
  const hw::KernelResources& Resources(const Launch& launch) const;

  hw::DeviceSpec device_;
  SimulatorOptions options_;
  TraceSink* trace_ = nullptr;
  int trace_tid_ = 0;
  /// Resource estimation walks the kernel IR; launches of the same kernel
  /// (every exploration candidate) reuse the walk. Guarded by the caller's
  /// single-threaded use of one Simulator per measurement lane.
  mutable const ast::DeviceKernel* resources_kernel_ = nullptr;
  mutable hw::KernelResources resources_cache_;
};

}  // namespace hipacc::sim
