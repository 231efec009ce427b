// Configuration exploration (paper Section V-D / Figure 4): times every
// valid configuration of a compiled kernel on the simulated device. The
// paper JIT-compiles each configuration with substituted macros; here each
// configuration re-launches the kernel's register programs with different
// region constants, in the simulator's sampled Measure (the VM's model-only
// walk, which writes no pixel).
//
// The sweep is embarrassingly parallel across candidates: each worker owns a
// full measurement lane (its own SimulatedExecutable and simulator state),
// candidates are dealt round-robin, and results are merged by candidate
// index — so the output is bit-identical for any worker count, including
// the serial path.
//
// A sweep is also the profile store's only writer: with
// ExploreOptions::profiles set, its best point becomes the entry for the
// kernel's ppt in the kernel's profile record (compiler/profile.hpp), and
// the process's later compiles pick their configuration from that record.
#pragma once

#include <vector>

#include "compiler/executable.hpp"
#include "support/json.hpp"

namespace hipacc::compiler {

class ProfileStore;

struct ExplorePoint {
  hw::KernelConfig config;
  /// Pixels per thread the measured kernel was compiled with (1 unless the
  /// caller sweeps the PPT axis by recompiling per value).
  int ppt = 1;
  double occupancy = 0.0;
  long long border_threads = 0;
  double ms = 0.0;
  sim::TimingBreakdown timing;  ///< modelled-time breakdown behind `ms`
};

/// Tuning knobs for ExploreConfigurations. The defaults reproduce Figure 4
/// deterministically on any machine.
struct ExploreOptions {
  /// Measurement workers (0 = hardware concurrency). Results are identical
  /// for every value; only wall-clock time changes.
  int jobs = 1;
  /// Optional observability sink: records the prune decision, every
  /// simulated candidate launch (per worker lane), and the merge.
  sim::TraceSink* trace = nullptr;
  /// Optional profile sink: the sweep's best point becomes the entry for
  /// the kernel's ppt in its profile record, which later compiles pick from
  /// (compiler/profile.hpp).
  ProfileStore* profiles = nullptr;
};

/// Measures every valid configuration. Obviously-invalid candidates (failed
/// occupancy, degenerate boundary tiling) are pruned by the hardware model
/// before any simulation. Points are returned sorted by thread count
/// then block_x (the layout of Figure 4's x axis).
Result<std::vector<ExplorePoint>> ExploreConfigurations(
    const CompiledKernel& kernel, const hw::DeviceSpec& device,
    const runtime::BindingSet& bindings, const ExploreOptions& options = {});

/// Structured form of one exploration point:
/// {"config": {block_x, block_y, threads}, "occupancy", "border_threads",
///  "ms", "timing": {...}}.
support::Json ExplorePointJson(const ExplorePoint& point);

/// The BENCH_*.json document the Figure 4 bench and the tests share:
/// {"kernel", "device", "backend", "image": {width, height},
///  "points": [ExplorePointJson...]}.
support::Json ExploreReportJson(const CompiledKernel& kernel,
                                const hw::DeviceSpec& device, int image_width,
                                int image_height,
                                const std::vector<ExplorePoint>& points);

/// One stage of a fusion candidate handed to ExploreFusionCandidate: a
/// compiled kernel plus the bindings its sweep launches with.
struct FusionSweepStage {
  const CompiledKernel* kernel = nullptr;
  const runtime::BindingSet* bindings = nullptr;
};

/// Full-sweep scoring of one fusion candidate: the Figure 4 exploration is
/// run for the fused kernel AND for each stage it replaces, and the best
/// point of each side is compared. This answers a sharper question than the
/// planner's closed-form profitability model — "is the fused kernel faster
/// at its own best configuration than the stages at theirs?" — at sweep
/// cost, so it backs the model's verdicts rather than replacing them.
struct FusionSweep {
  std::vector<ExplorePoint> fused;  ///< swept points of the fused kernel
  /// Swept points per replaced stage, in argument order.
  std::vector<std::vector<ExplorePoint>> stages;
  double best_fused_ms = 0.0;    ///< min over `fused` (includes overhead)
  double best_unfused_ms = 0.0;  ///< sum of per-stage minima
  double speedup = 0.0;          ///< best_unfused_ms / best_fused_ms
};

/// Sweeps a fusion candidate: the fused kernel against the stages it
/// replaces, each over its full valid configuration space. Fails if any
/// sweep returns no measurable point.
Result<FusionSweep> ExploreFusionCandidate(
    const FusionSweepStage& fused, const std::vector<FusionSweepStage>& stages,
    const hw::DeviceSpec& device, const ExploreOptions& options = {});

/// Structured form of a fusion sweep:
/// {"best_fused_ms", "best_unfused_ms", "speedup",
///  "fused": [ExplorePointJson...], "stages": [[...], ...]}.
support::Json FusionSweepJson(const FusionSweep& sweep);

}  // namespace hipacc::compiler
