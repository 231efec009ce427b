#include "compiler/explore.hpp"

#include <algorithm>
#include <optional>
#include <thread>

#include "compiler/profile.hpp"
#include "support/parallel_for.hpp"

namespace hipacc::compiler {
namespace {

/// Blocks Measure interprets per boundary region for each candidate.
/// Within one region every block executes the same instruction stream (the
/// region variants exist precisely so that holds), so one sample suffices.
constexpr int kSamplesPerRegion = 1;

/// Coarse hardware-model prune (no interpreter work): a candidate that the
/// occupancy calculator already rejected never reaches ExploreConfigs, and
/// one whose boundary tiling is degenerate (opposite guard bands overlap)
/// would only fail launch validation after building the launch. Both are
/// decided from arithmetic alone.
bool PrunedByRegionGrid(const CompiledKernel& kernel,
                        const hw::KernelConfig& config, int width,
                        int height) {
  if (!kernel.device_ir.has_boundary_variants()) return false;
  return hw::ComputeRegionGrid(config, width, height,
                               kernel.device_ir.bh_window,
                               kernel.device_ir.ppt)
      .degenerate();
}

}  // namespace

Result<std::vector<ExplorePoint>> ExploreConfigurations(
    const CompiledKernel& kernel, const hw::DeviceSpec& device,
    const runtime::BindingSet& bindings, const ExploreOptions& options) {
  if (!bindings.output()) return Status::Invalid("no output image bound");
  const int width = bindings.output()->width();
  const int height = bindings.output()->height();
  const double trace_start = options.trace ? options.trace->NowMs() : 0.0;

  hw::HeuristicInput input;
  input.device = device;
  input.resources = kernel.resources;
  input.border_handling = kernel.device_ir.has_boundary_variants();
  input.window = kernel.device_ir.bh_window;
  input.image_width = width;
  input.image_height = height;

  // Candidate enumeration already applies the occupancy-calculator prune;
  // the region-grid prune removes launch-time failures before any
  // interpreter work.
  const std::vector<hw::HeuristicChoice> all = hw::ExploreConfigs(input);
  std::vector<const hw::HeuristicChoice*> candidates;
  candidates.reserve(all.size());
  for (const hw::HeuristicChoice& choice : all)
    if (!PrunedByRegionGrid(kernel, choice.config, width, height))
      candidates.push_back(&choice);

  const int pruned = static_cast<int>(all.size() - candidates.size());
  unsigned jobs = options.jobs > 0
                      ? static_cast<unsigned>(options.jobs)
                      : std::max(1u, std::thread::hardware_concurrency());
  jobs = std::min<unsigned>(
      std::max(1u, jobs),
      std::max<size_t>(1, candidates.size()));

  // Candidates are dealt round-robin so the per-worker load is balanced
  // (enumeration order grows with thread count, i.e. with cost). Each slot
  // is written by exactly one worker; merging by index keeps the result
  // independent of scheduling.
  std::vector<std::optional<ExplorePoint>> slots(candidates.size());
  const auto measure_lane = [&](int worker) {
    // Private measurement lane: own simulator state. Measure writes no
    // pixel, so every lane shares the caller's images.
    SimulatedExecutable exe(kernel, device);
    exe.set_trace(options.trace, worker);
    for (size_t i = static_cast<size_t>(worker); i < candidates.size();
         i += jobs) {
      const hw::HeuristicChoice& candidate = *candidates[i];
      Result<sim::LaunchStats> stats = exe.Measure(
          bindings, candidate.config, kSamplesPerRegion);
      if (!stats.ok()) continue;  // invalid at launch time: skip, like nvcc
      ExplorePoint point;
      point.config = candidate.config;
      point.ppt = kernel.device_ir.ppt;
      point.occupancy = candidate.occupancy.occupancy;
      point.border_threads = candidate.border_threads;
      point.ms = stats.value().timing.total_ms;
      point.timing = stats.value().timing;
      slots[i] = point;
    }
  };
  if (jobs <= 1)
    measure_lane(0);
  else
    ParallelFor(0, static_cast<int>(jobs), measure_lane, jobs);

  std::vector<ExplorePoint> points;
  points.reserve(slots.size());
  for (const std::optional<ExplorePoint>& slot : slots)
    if (slot) points.push_back(*slot);
  // (threads, block_x) determines block_y, so this order is total and the
  // output is reproducible regardless of measurement order.
  std::sort(points.begin(), points.end(),
            [](const ExplorePoint& a, const ExplorePoint& b) {
              if (a.config.threads() != b.config.threads())
                return a.config.threads() < b.config.threads();
              return a.config.block_x < b.config.block_x;
            });
  // The sweep's best point replaces the record's entry for this ppt. The
  // points are in (threads, block_x) order, so the first minimum already
  // breaks ties the way the pick does.
  if (options.profiles != nullptr && !points.empty() &&
      !kernel.source_fingerprint.empty()) {
    const ExplorePoint& best =
        *std::min_element(points.begin(), points.end(),
                          [](const ExplorePoint& a, const ExplorePoint& b) {
                            return a.ms < b.ms;
                          });
    options.profiles->Record(
        MakeProfileKey(kernel.source_fingerprint, kernel.codegen, device, width,
                       height),
        ProfileEntry{best.config, best.ppt, best.ms});
  }

  if (options.trace) {
    support::Json args = support::Json::Object();
    args["candidates"] = static_cast<long long>(all.size());
    args["pruned"] = pruned;
    args["measured"] = static_cast<long long>(points.size());
    args["jobs"] = static_cast<long long>(jobs);
    args["samples_per_region"] = kSamplesPerRegion;
    options.trace->AddSpan("explore " + kernel.decl.name, "explore",
                           trace_start,
                           options.trace->NowMs() - trace_start,
                           std::move(args));
  }
  return points;
}

Result<FusionSweep> ExploreFusionCandidate(
    const FusionSweepStage& fused, const std::vector<FusionSweepStage>& stages,
    const hw::DeviceSpec& device, const ExploreOptions& options) {
  if (!fused.kernel || !fused.bindings)
    return Status::Invalid("fused stage is missing a kernel or bindings");
  if (stages.empty())
    return Status::Invalid("a fusion candidate replaces at least one stage");

  const auto best_ms = [](const std::vector<ExplorePoint>& points) {
    double best = points.front().ms;
    for (const ExplorePoint& p : points) best = std::min(best, p.ms);
    return best;
  };

  FusionSweep sweep;
  Result<std::vector<ExplorePoint>> fused_points =
      ExploreConfigurations(*fused.kernel, device, *fused.bindings, options);
  HIPACC_RETURN_IF_ERROR(fused_points.status());
  if (fused_points.value().empty())
    return Status::Invalid("fused kernel '" + fused.kernel->decl.name +
                           "' has no measurable configuration");
  sweep.fused = std::move(fused_points).take();
  sweep.best_fused_ms = best_ms(sweep.fused);

  for (const FusionSweepStage& stage : stages) {
    if (!stage.kernel || !stage.bindings)
      return Status::Invalid("a replaced stage is missing a kernel or "
                             "bindings");
    Result<std::vector<ExplorePoint>> points =
        ExploreConfigurations(*stage.kernel, device, *stage.bindings, options);
    HIPACC_RETURN_IF_ERROR(points.status());
    if (points.value().empty())
      return Status::Invalid("stage '" + stage.kernel->decl.name +
                             "' has no measurable configuration");
    sweep.best_unfused_ms += best_ms(points.value());
    sweep.stages.push_back(std::move(points).take());
  }
  sweep.speedup = sweep.best_unfused_ms / sweep.best_fused_ms;
  return sweep;
}

support::Json FusionSweepJson(const FusionSweep& sweep) {
  support::Json doc = support::Json::Object();
  doc["best_fused_ms"] = sweep.best_fused_ms;
  doc["best_unfused_ms"] = sweep.best_unfused_ms;
  doc["speedup"] = sweep.speedup;
  support::Json fused = support::Json::Array();
  for (const ExplorePoint& p : sweep.fused) fused.push_back(ExplorePointJson(p));
  doc["fused"] = std::move(fused);
  support::Json stages = support::Json::Array();
  for (const std::vector<ExplorePoint>& stage : sweep.stages) {
    support::Json points = support::Json::Array();
    for (const ExplorePoint& p : stage) points.push_back(ExplorePointJson(p));
    stages.push_back(std::move(points));
  }
  doc["stages"] = std::move(stages);
  return doc;
}

support::Json ExplorePointJson(const ExplorePoint& point) {
  support::Json j = support::Json::Object();
  j["config"] = sim::ConfigJson(point.config);
  j["ppt"] = point.ppt;
  j["occupancy"] = point.occupancy;
  j["border_threads"] = point.border_threads;
  j["ms"] = point.ms;
  j["timing"] = sim::TimingJson(point.timing);
  return j;
}

support::Json ExploreReportJson(const CompiledKernel& kernel,
                                const hw::DeviceSpec& device, int image_width,
                                int image_height,
                                const std::vector<ExplorePoint>& points) {
  support::Json doc = support::Json::Object();
  doc["kernel"] = kernel.decl.name;
  doc["device"] = device.name;
  doc["backend"] = to_string(kernel.device_ir.backend);
  support::Json image = support::Json::Object();
  image["width"] = image_width;
  image["height"] = image_height;
  doc["image"] = std::move(image);
  support::Json heuristic = support::Json::Object();
  heuristic["config"] = sim::ConfigJson(kernel.config.config);
  heuristic["occupancy"] = kernel.config.occupancy.occupancy;
  heuristic["border_threads"] = kernel.config.border_threads;
  doc["heuristic"] = std::move(heuristic);
  support::Json array = support::Json::Array();
  for (const ExplorePoint& point : points)
    array.push_back(ExplorePointJson(point));
  doc["points"] = std::move(array);
  return doc;
}

}  // namespace hipacc::compiler
