#include "sim/simulator.hpp"

#include <algorithm>
#include <cstdint>
#include <mutex>

#include "sim/bytecode.hpp"
#include "sim/interpreter.hpp"
#include "sim/jit/cache.hpp"
#include "sim/jit/native_runner.hpp"
#include "sim/trace.hpp"
#include "sim/vm.hpp"
#include "support/parallel_for.hpp"
#include "support/string_utils.hpp"

namespace hipacc::sim {
namespace {

/// The executor one launch runs on, resolved once per launch: native warp
/// functions, the bytecode VM, or (without programs) the AST interpreter.
struct BlockExecutor {
  const ProgramSet* programs = nullptr;
  const jit::NativeProgram* native = nullptr;

  Status Run(const Launch& launch, const hw::DeviceSpec& device, int bx,
             int by, Metrics* metrics, std::uint64_t* executed_insns) const {
    if (native)
      return jit::RunBlockNative(launch, *programs, *native, device, bx, by,
                                 metrics, executed_insns);
    if (programs)
      return RunBlockBytecode(launch, *programs, device, bx, by, metrics,
                              executed_insns);
    return RunBlock(launch, device, bx, by, metrics);
  }
};

/// With engine == kNative, a launch runs native code once the tier is hot
/// and the launch's bindings pass the warp functions' check; otherwise it
/// runs on the VM (counted as jit.vm).
BlockExecutor ResolveExecutor(const Launch& launch, const ProgramSet* programs,
                              const SimulatorOptions& options,
                              TraceSink* trace) {
  BlockExecutor exec;
  exec.programs = programs;
  if (programs && options.engine == ExecEngine::kNative) {
    if (jit::NativeBindingsHold(*programs, launch))
      exec.native = jit::AcquireNative(*programs, options.jit_threshold, trace);
    else if (trace)
      trace->IncrementCounter("jit.vm");
  }
  if (trace)
    trace->IncrementCounter(exec.native ? "sim.launch.native"
                            : programs  ? "sim.launch.bytecode"
                                        : "sim.launch.ast");
  return exec;
}

}  // namespace

const ProgramSet* Simulator::PreparePrograms(const Launch& launch) const {
  if (options_.engine == ExecEngine::kAst) return nullptr;
  if (launch.programs) return launch.programs;
  if (programs_kernel_ != launch.kernel) {
    programs_kernel_ = launch.kernel;
    programs_cache_.reset();
    Result<std::shared_ptr<const ProgramSet>> compiled =
        CompileToBytecode(*launch.kernel);
    if (compiled.ok()) {
      programs_cache_ = std::move(compiled).take();
      if (trace_) {
        trace_->IncrementCounter("bytecode.programs",
                                 static_cast<long long>(
                                     programs_cache_->programs.size()));
        trace_->IncrementCounter("bytecode.instructions",
                                 programs_cache_->total_instructions);
        trace_->IncrementCounter(
            "bytecode.compile_us",
            static_cast<long long>(programs_cache_->compile_ms * 1000.0));
      }
    } else if (trace_) {
      trace_->IncrementCounter("bytecode.fallback");
    }
  }
  return programs_cache_.get();
}

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
  if (launch.width <= 0 || launch.height <= 0)
    return Status::Invalid("empty iteration space");
  for (const auto& buf : launch.kernel->buffers) {
    if (!launch.FindBuffer(buf.name))
      return Status::Invalid("buffer not bound: " + buf.name);
  }
  for (const auto& mask : launch.kernel->const_masks) {
    const auto it = launch.const_masks.find(mask.name);
    if (it == launch.const_masks.end())
      return Status::Invalid("constant mask not bound: " + mask.name);
    if (static_cast<int>(it->second.size()) != mask.size_x * mask.size_y)
      return Status::Invalid("constant mask size mismatch: " + mask.name);
  }
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

Result<LaunchStats> Simulator::Execute(const Launch& launch) const {
  HIPACC_RETURN_IF_ERROR(Validate(launch));
  const double trace_start = trace_ ? trace_->NowMs() : 0.0;
  LaunchStats stats;
  stats.occupancy = Occupancy(launch);
  stats.region_grid = hw::ComputeRegionGrid(
      launch.config, launch.width, launch.height, launch.kernel->bh_window,
      launch.kernel->ppt);

  const BlockExecutor exec =
      ResolveExecutor(launch, PreparePrograms(launch), options_, trace_);
  const hw::GridDim grid = stats.region_grid.grid;
  std::mutex merge_mutex;
  Metrics total;
  std::uint64_t executed_insns = 0;
  Status first_error = Status::Ok();
  ParallelFor(0, grid.blocks_y, [&](int by) {
    Metrics row_metrics;
    std::uint64_t row_insns = 0;
    Status row_status = Status::Ok();
    for (int bx = 0; bx < grid.blocks_x && row_status.ok(); ++bx)
      row_status =
          exec.Run(launch, device_, bx, by, &row_metrics, &row_insns);
    const std::lock_guard<std::mutex> lock(merge_mutex);
    total += row_metrics;
    executed_insns += row_insns;
    if (!row_status.ok() && first_error.ok()) first_error = row_status;
  });
  HIPACC_RETURN_IF_ERROR(first_error);
  if (trace_ && executed_insns)
    trace_->IncrementCounter("bytecode.executed_insns",
                             static_cast<long long>(executed_insns));
  stats.metrics = total;
  stats.timing = ModelTime(total, device_, stats.occupancy, IssueScale(launch));
  if (trace_)
    trace_->RecordLaunch(launch.kernel->name, launch.config, stats,
                         trace_start, trace_->NowMs() - trace_start,
                         launch.epoch != 0 ? static_cast<int>(launch.epoch)
                                            : trace_tid_);
  return stats;
}

Result<LaunchStats> Simulator::Measure(const Launch& launch,
                                       int samples_per_region) const {
  HIPACC_RETURN_IF_ERROR(Validate(launch));
  const double trace_start = trace_ ? trace_->NowMs() : 0.0;
  LaunchStats stats;
  stats.sampled = true;
  stats.occupancy = Occupancy(launch);
  stats.region_grid = hw::ComputeRegionGrid(
      launch.config, launch.width, launch.height, launch.kernel->bh_window,
      launch.kernel->ppt);
  const hw::RegionGrid& rg = stats.region_grid;
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
  auto band_coords = [](int band_lo, int band_hi_start, int count,
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
    (void)count;
    return coords;
  };
  const std::vector<int> xs = band_coords(
      rg.band_left, grid.blocks_x - rg.band_right, 3, grid.blocks_x);
  const std::vector<int> ys = band_coords(
      rg.band_top, grid.blocks_y - rg.band_bottom, 3, grid.blocks_y);

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

  const BlockExecutor exec =
      ResolveExecutor(launch, PreparePrograms(launch), options_, trace_);
  std::uint64_t executed_insns = 0;
  Metrics total;
  for (auto& [region, rs] : regions) {
    rs.population = has_regions ? population(region) : grid.total();
    if (rs.samples.empty() || rs.population == 0) continue;
    Metrics region_metrics;
    for (const auto& [bx, by] : rs.samples)
      HIPACC_RETURN_IF_ERROR(exec.Run(launch, device_, bx, by,
                                      &region_metrics, &executed_insns));
    const double scale = static_cast<double>(rs.population) /
                         static_cast<double>(rs.samples.size());
    total += region_metrics.Scaled(scale);
    if (!has_regions) break;  // single-variant kernels: one region suffices
  }
  if (trace_ && executed_insns)
    trace_->IncrementCounter("bytecode.executed_insns",
                             static_cast<long long>(executed_insns));
  stats.metrics = total;
  stats.timing = ModelTime(total, device_, stats.occupancy, IssueScale(launch));
  if (trace_)
    trace_->RecordLaunch(launch.kernel->name, launch.config, stats,
                         trace_start, trace_->NowMs() - trace_start,
                         launch.epoch != 0 ? static_cast<int>(launch.epoch)
                                            : trace_tid_);
  return stats;
}

}  // namespace hipacc::sim
