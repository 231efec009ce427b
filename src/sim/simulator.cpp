#include "sim/simulator.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "sim/bytecode.hpp"
#include "sim/jit/cache.hpp"
#include "sim/jit/native_runner.hpp"
#include "sim/trace.hpp"
#include "sim/vm.hpp"
#include "support/parallel_for.hpp"
#include "support/string_utils.hpp"

namespace hipacc::sim {
namespace {

/// The block function of a validated launch on the product engines, over
/// the launch's bindings resolved once. A sampled launch runs the VM's
/// model-only walk whatever the engine: Measure observes, Execute computes.
/// Execute runs the native warp functions when engine == kNative and the
/// program set has a native program, else the bytecode VM.
BlockFn ResolveExecutor(const Launch& launch, const SimulatorOptions& options,
                        bool sampled, TraceSink* trace) {
  const ProgramSet& programs = *launch.programs;
  LaunchBindings bindings = ResolveBindings(programs, launch);
  const jit::NativeProgram* native =
      options.engine == ExecEngine::kNative && !sampled
          ? jit::AcquireNative(programs, trace)
          : nullptr;
  if (trace)
    trace->IncrementCounter(native ? "sim.launch.native"
                                   : "sim.launch.bytecode");
  if (native)
    return [bindings = std::move(bindings), native](
               const Launch& l, const hw::DeviceSpec& device, int bx, int by,
               Metrics* metrics, std::uint64_t* executed_insns) {
      return jit::RunBlockNative(l, bindings, *native, device, bx, by,
                                 metrics, executed_insns);
    };
  return [bindings = std::move(bindings), sampled](
             const Launch& l, const hw::DeviceSpec& device, int bx, int by,
             Metrics* metrics, std::uint64_t* executed_insns) {
    return RunBlockBytecode(l, bindings, device, bx, by, metrics,
                            executed_insns, /*model_only=*/sampled);
  };
}

/// Runs every block of the grid, rows spread over the host's cores.
Result<Metrics> RunEveryBlock(const Launch& launch,
                              const hw::DeviceSpec& device,
                              const hw::GridDim& grid, const BlockFn& block,
                              std::uint64_t* executed_insns) {
  std::mutex merge_mutex;
  Metrics total;
  Status first_error = Status::Ok();
  ParallelFor(0, grid.blocks_y, [&](int by) {
    Metrics row_metrics;
    std::uint64_t row_insns = 0;
    Status row_status = Status::Ok();
    for (int bx = 0; bx < grid.blocks_x && row_status.ok(); ++bx)
      row_status = block(launch, device, bx, by, &row_metrics, &row_insns);
    const std::lock_guard<std::mutex> lock(merge_mutex);
    total += row_metrics;
    *executed_insns += row_insns;
    if (!row_status.ok() && first_error.ok()) first_error = row_status;
  });
  HIPACC_RETURN_IF_ERROR(first_error);
  return total;
}

/// Runs up to `samples_per_region` blocks of each populated boundary region
/// and scales each region's metrics by its block population.
Result<Metrics> RunSampledBlocks(const Launch& launch,
                                 const hw::DeviceSpec& device,
                                 const hw::RegionGrid& rg,
                                 int samples_per_region, const BlockFn& block,
                                 std::uint64_t* executed_insns) {
  const hw::GridDim grid = rg.grid;

  // Count blocks per region and pick up to `samples_per_region` sample
  // positions spread across each region.
  struct RegionSample {
    long long population = 0;
    std::vector<std::pair<int, int>> samples;
  };
  std::map<ast::Region, RegionSample> regions;
  // Representative coordinates: scan the grid border bands exhaustively is
  // too expensive; instead enumerate candidate rows/cols per band.
  auto band_coords = [](int band_lo, int band_hi_start,
                        int size) -> std::vector<int> {
    std::vector<int> coords;
    for (int i = 0; i < band_lo && i < size; ++i) coords.push_back(i);
    for (int i = std::max(0, band_hi_start); i < size; ++i) coords.push_back(i);
    // Interior representatives: near the start, middle, end.
    const int lo = band_lo;
    const int hi = std::max(lo, band_hi_start - 1);
    coords.push_back(std::min(size - 1, lo));
    coords.push_back(std::min(size - 1, (lo + hi) / 2));
    coords.push_back(std::min(size - 1, hi));
    return coords;
  };
  const std::vector<int> xs =
      band_coords(rg.band_left, grid.blocks_x - rg.band_right, grid.blocks_x);
  const std::vector<int> ys =
      band_coords(rg.band_top, grid.blocks_y - rg.band_bottom, grid.blocks_y);

  // Region populations (exact, computed from the band arithmetic).
  const long long ix = std::max(0, grid.blocks_x - rg.band_left - rg.band_right);
  const long long iy = std::max(0, grid.blocks_y - rg.band_top - rg.band_bottom);
  auto population = [&](ast::Region region) -> long long {
    using R = ast::Region;
    switch (region) {
      case R::kTopLeft: return static_cast<long long>(rg.band_left) * rg.band_top;
      case R::kTop: return ix * rg.band_top;
      case R::kTopRight: return static_cast<long long>(rg.band_right) * rg.band_top;
      case R::kLeft: return static_cast<long long>(rg.band_left) * iy;
      case R::kInterior: return ix * iy;
      case R::kRight: return static_cast<long long>(rg.band_right) * iy;
      case R::kBottomLeft: return static_cast<long long>(rg.band_left) * rg.band_bottom;
      case R::kBottom: return ix * rg.band_bottom;
      case R::kBottomRight: return static_cast<long long>(rg.band_right) * rg.band_bottom;
    }
    return 0;
  };

  const bool has_regions = launch.kernel->has_boundary_variants();
  for (const int by : ys) {
    for (const int bx : xs) {
      if (bx < 0 || bx >= grid.blocks_x || by < 0 || by >= grid.blocks_y)
        continue;
      const ast::Region region =
          has_regions ? rg.RegionOf(bx, by) : ast::Region::kInterior;
      RegionSample& rs = regions[region];
      if (static_cast<int>(rs.samples.size()) >= samples_per_region) continue;
      if (std::find(rs.samples.begin(), rs.samples.end(),
                    std::make_pair(bx, by)) != rs.samples.end())
        continue;
      rs.samples.emplace_back(bx, by);
    }
  }

  Metrics total;
  for (auto& [region, rs] : regions) {
    rs.population = has_regions ? population(region) : grid.total();
    if (rs.samples.empty() || rs.population == 0) continue;
    Metrics region_metrics;
    for (const auto& [bx, by] : rs.samples)
      HIPACC_RETURN_IF_ERROR(
          block(launch, device, bx, by, &region_metrics, executed_insns));
    const double scale = static_cast<double>(rs.population) /
                         static_cast<double>(rs.samples.size());
    total += region_metrics.Scaled(scale);
    if (!has_regions) break;  // single-variant kernels: one region suffices
  }
  return total;
}

}  // namespace

double Simulator::IssueScale(const Launch& launch) const {
  double scale = launch.kernel->backend == ast::Backend::kOpenCL
                     ? device_.opencl_issue_overhead
                     : 1.0;
  // VLIW vectorization (Section VIII outlook): packed bundles fill the
  // co-issue lanes that scalar code leaves idle. Real packers reach roughly
  // 60% lane utilisation on image kernels, so the issue cost shrinks by
  // 0.6 * lanes rather than the full lane count.
  if (launch.kernel->vliw_vectorized && device_.vliw_lanes() > 1)
    scale /= 0.6 * device_.vliw_lanes();
  return scale;
}

const hw::KernelResources& Simulator::Resources(const Launch& launch) const {
  if (resources_kernel_ != launch.kernel) {
    resources_cache_ = codegen::EstimateResources(*launch.kernel);
    resources_kernel_ = launch.kernel;
  }
  return resources_cache_;
}

hw::OccupancyResult Simulator::Occupancy(const Launch& launch) const {
  return hw::ComputeOccupancy(device_, launch.config, Resources(launch));
}

Status Simulator::Validate(const Launch& launch) const {
  if (!launch.kernel) return Status::Invalid("launch without kernel");
  if (!launch.programs)
    return Status::Invalid("launch of " + launch.kernel->name +
                           " carries no register programs");
  if (launch.width <= 0 || launch.height <= 0)
    return Status::Invalid("empty iteration space");
  HIPACC_RETURN_IF_ERROR(CheckBindings(launch));
  const hw::OccupancyResult occ = Occupancy(launch);
  if (!occ.valid)
    return Status::Exhausted(StrFormat(
        "kernel launch error on %s: %s", device_.name.c_str(),
        occ.reason.c_str()));
  if (launch.kernel->has_boundary_variants()) {
    const hw::RegionGrid rg = hw::ComputeRegionGrid(
        launch.config, launch.width, launch.height, launch.kernel->bh_window,
        launch.kernel->ppt);
    if (rg.degenerate())
      return Status::Invalid(StrFormat(
          "image %dx%d too small for a %dx%d window with a %dx%d "
          "configuration: boundary regions would overlap (recompile with "
          "uniform guards)",
          launch.width, launch.height, launch.kernel->bh_window.size_x(),
          launch.kernel->bh_window.size_y(), launch.config.block_x,
          launch.config.block_y));
  }
  return Status::Ok();
}

Result<LaunchStats> Simulator::Run(
    const Launch& launch, const BlockFn& block,
    std::optional<int> samples_per_region) const {
  HIPACC_RETURN_IF_ERROR(Validate(launch));
  const double trace_start = trace_ ? trace_->NowMs() : 0.0;
  LaunchStats stats;
  stats.sampled = samples_per_region.has_value();
  stats.occupancy = Occupancy(launch);
  stats.region_grid = hw::ComputeRegionGrid(
      launch.config, launch.width, launch.height, launch.kernel->bh_window,
      launch.kernel->ppt);

  const BlockFn run_block =
      block ? block : ResolveExecutor(launch, options_, stats.sampled, trace_);
  std::uint64_t executed_insns = 0;
  Result<Metrics> total =
      stats.sampled
          ? RunSampledBlocks(launch, device_, stats.region_grid,
                             *samples_per_region, run_block, &executed_insns)
          : RunEveryBlock(launch, device_, stats.region_grid.grid, run_block,
                          &executed_insns);
  HIPACC_RETURN_IF_ERROR(total.status());
  if (trace_ && executed_insns)
    trace_->IncrementCounter("bytecode.executed_insns",
                             static_cast<long long>(executed_insns));
  stats.metrics = total.value();
  stats.timing =
      ModelTime(stats.metrics, device_, stats.occupancy, IssueScale(launch));
  if (trace_)
    trace_->RecordLaunch(launch.kernel->name, launch.config, stats,
                         trace_start, trace_->NowMs() - trace_start,
                         launch.epoch != 0 ? static_cast<int>(launch.epoch)
                                            : trace_tid_);
  return stats;
}

}  // namespace hipacc::sim
