// Reproduces Figure 4: configuration-space exploration for the bilateral
// filter (13x13 window) on a 4096x4096 image, Tesla C2050, CUDA backend.
// Prints one point per (threads, tiling, pixels-per-thread) configuration —
// execution time vs block size — plus the configuration Algorithm 2 selects
// and the measured optimum. The paper's heuristic pick (32x6) is optimal
// there; ours must be optimal or within ~10% (Section VI-B). The PPT axis
// extends the paper's space: each candidate is recompiled per value, so the
// sweep covers (block config) x (pixels per thread).
//
// The sweep doubles as a profile source: each PPT's best point is recorded
// into a ProfileStore, a second compile picks from that record, and the
// report states the heuristic-vs-learned gap — how far Algorithm 2's pick
// and the learned pick each sit above the exploration optimum.
//
//   --explore-jobs=N   parallel measurement workers (0 = all cores);
//                      results are identical for every N, only wall-clock
//                      changes
//   --ppt=N|auto       restrict the sweep to one PPT value (default: sweep
//                      1, 2, 4, 8)
//   --check-reselect   exit non-zero unless the learned pick's gap to the
//                      measured optimum is <= the heuristic's gap
//   --json-out=FILE    BENCH_*.json report path (default BENCH_fig4.json)
//   --trace-out=FILE   Chrome trace_event timeline (chrome://tracing)
#include <cstdio>
#include <string>

#include "common/table.hpp"
#include "compiler/explore.hpp"
#include "compiler/profile.hpp"
#include "hwmodel/device_db.hpp"
#include "ops/kernel_sources.hpp"
#include "sim/trace.hpp"
#include "support/stopwatch.hpp"

int main(int argc, char** argv) {
  using namespace hipacc;
  const int n = 4096;
  const int sigma_d = 3, sigma_r = 5;
  const hw::DeviceSpec device = hw::TeslaC2050();

  compiler::ExploreOptions eopts;
  std::string json_out = "BENCH_fig4.json";
  std::string trace_out;
  bool check_reselect = false;
  support::CliParser cli = bench::MakeBenchCli(
      "fig4_config_exploration",
      "Figure 4: configuration-space exploration, bilateral 13x13");
  cli.Int("explore-jobs", &eopts.jobs, "N",
          "parallel measurement workers (0 = all cores)");
  cli.Bool("check-reselect", &check_reselect,
           "fail unless the profile-guided pick's gap to the measured "
           "optimum is <= the heuristic's gap");
  cli.String("json-out", &json_out, "FILE", "BENCH_*.json report path");
  cli.String("trace-out", &trace_out, "FILE",
             "Chrome trace_event timeline (chrome://tracing)");
  if (const int code = cli.HandleArgs(argc, argv); code >= 0) return code;
  sim::TraceSink trace;
  if (!trace_out.empty()) eopts.trace = &trace;
  Stopwatch wall;

  frontend::KernelSource source =
      ops::BilateralMaskSource(sigma_d, ast::BoundaryMode::kClamp);
  compiler::CompileOptions copts;
  copts.codegen.backend = ast::Backend::kCuda;
  copts.device = device;
  copts.image_width = n;
  copts.image_height = n;
  if (!trace_out.empty()) copts.trace = &trace;

  // The heuristic pick: pixels_per_thread=0 runs the Algorithm 2 extension
  // that scores (block config x PPT) jointly and keeps the best.
  compiler::CompileOptions auto_opts = copts;
  auto_opts.codegen.pixels_per_thread = 0;
  Result<compiler::CompiledKernel> compiled =
      compiler::Compile(source, auto_opts);
  if (!compiled.ok()) {
    std::fprintf(stderr, "compile failed: %s\n",
                 compiled.status().ToString().c_str());
    return 1;
  }
  const compiler::CompiledKernel& kernel = compiled.value();

  dsl::Image<float> in(n, n), out(n, n);
  runtime::BindingSet bindings;
  bindings.Input("Input", in).Output(out).Scalar("sigma_d", sigma_d).Scalar(
      "sigma_r", sigma_r);

  // Sweep the PPT axis by recompiling per value; each compile's valid
  // configuration set is explored independently and the points merged.
  // Each sub-sweep's best point also lands in the profile store, which the
  // learned pick below reads.
  compiler::ProfileStore profiles;
  eopts.profiles = &profiles;
  std::vector<int> ppt_values = {1, 2, 4, 8};
  if (bench::Tuning().ppt > 0) ppt_values = {bench::Tuning().ppt};
  std::vector<compiler::ExplorePoint> points;
  for (const int ppt : ppt_values) {
    compiler::CompileOptions popts = copts;
    popts.codegen.pixels_per_thread = ppt;
    Result<compiler::CompiledKernel> variant =
        compiler::Compile(source, popts);
    if (!variant.ok()) {
      std::fprintf(stderr, "compile (ppt=%d) failed: %s\n", ppt,
                   variant.status().ToString().c_str());
      return 1;
    }
    Result<std::vector<compiler::ExplorePoint>> swept =
        compiler::ExploreConfigurations(variant.value(), device, bindings,
                                        eopts);
    if (!swept.ok()) {
      std::fprintf(stderr, "exploration (ppt=%d) failed: %s\n", ppt,
                   swept.status().ToString().c_str());
      return 1;
    }
    points.insert(points.end(), swept.value().begin(), swept.value().end());
  }
  const double wall_ms = wall.ElapsedMs();

  std::printf(
      "Figure 4: configuration space exploration, bilateral filter 13x13,\n"
      "4096x4096 image, Tesla C2050 (CUDA). One line per configuration\n"
      "(block size x pixels per thread).\n\n");
  std::printf("%8s  %6s  %6s  %4s  %9s  %14s  %10s\n", "threads", "blk_x",
              "blk_y", "ppt", "occupancy", "border_threads", "time_ms");
  const compiler::ExplorePoint* best = nullptr;
  for (const auto& p : points) {
    std::printf("%8d  %6d  %6d  %4d  %8.0f%%  %14lld  %10.2f\n",
                p.config.threads(), p.config.block_x, p.config.block_y, p.ppt,
                100.0 * p.occupancy, p.border_threads, p.ms);
    if (!best || p.ms < best->ms) best = &p;
  }

  const auto find_point =
      [&points](const hw::KernelConfig& config,
                int ppt) -> const compiler::ExplorePoint* {
    for (const auto& p : points)
      if (p.config == config && p.ppt == ppt) return &p;
    return nullptr;
  };

  std::printf("\nHeuristic (Algorithm 2) selected: %dx%d, ppt %d\n",
              kernel.config.config.block_x, kernel.config.config.block_y,
              kernel.device_ir.ppt);
  const compiler::ExplorePoint* heuristic_point =
      find_point(kernel.config.config, kernel.device_ir.ppt);
  if (best) {
    std::printf("Exploration optimum: %dx%d ppt %d at %.2f ms\n",
                best->config.block_x, best->config.block_y, best->ppt,
                best->ms);
    if (heuristic_point)
      std::printf(
          "Heuristic pick measured at %.2f ms (%.1f%% above optimum)\n",
          heuristic_point->ms, 100.0 * (heuristic_point->ms / best->ms - 1.0));
  }

  // The learned pick: recompile with the profile record this very sweep
  // just wrote, so select_config installs the fastest point swept.
  compiler::CompileOptions learned_opts = auto_opts;
  learned_opts.profiles = &profiles;
  Result<compiler::CompiledKernel> learned =
      compiler::Compile(source, learned_opts);
  double heuristic_gap = -1.0, learned_gap = -1.0;
  const compiler::ExplorePoint* learned_point = nullptr;
  if (!learned.ok()) {
    std::fprintf(stderr, "reselection compile failed: %s\n",
                 learned.status().ToString().c_str());
    return 1;
  }
  learned_point = find_point(learned.value().config.config,
                             learned.value().device_ir.ppt);
  std::printf("Profile-guided reselection: %dx%d, ppt %d\n",
              learned.value().config.config.block_x,
              learned.value().config.config.block_y,
              learned.value().device_ir.ppt);
  if (best && heuristic_point) heuristic_gap = heuristic_point->ms / best->ms - 1.0;
  if (best && learned_point) learned_gap = learned_point->ms / best->ms - 1.0;
  if (learned_point && best)
    std::printf(
        "Learned pick measured at %.2f ms (%.1f%% above optimum; heuristic "
        "gap %.1f%%)\n",
        learned_point->ms, 100.0 * learned_gap,
        heuristic_gap >= 0.0 ? 100.0 * heuristic_gap : -1.0);
  std::printf("Exploration wall-clock: %.0f ms (%d jobs)\n", wall_ms,
              eopts.jobs);

  if (check_reselect) {
    if (learned_gap < 0.0) {
      std::fprintf(stderr,
                   "FAIL: learned pick was never measured by the sweep\n");
      return 1;
    }
    if (heuristic_gap >= 0.0 && learned_gap > heuristic_gap + 1e-12) {
      std::fprintf(stderr,
                   "FAIL: learned gap %.2f%% above heuristic gap %.2f%%\n",
                   100.0 * learned_gap, 100.0 * heuristic_gap);
      return 1;
    }
  }

  if (!json_out.empty()) {
    support::Json doc =
        compiler::ExploreReportJson(kernel, device, n, n, points);
    doc["bench"] = "fig4_config_exploration";
    doc["jobs"] = eopts.jobs;
    doc["wall_ms"] = wall_ms;
    support::Json reselect = support::Json::Object();
    support::Json learned_pick = support::Json::Object();
    learned_pick["config"] = sim::ConfigJson(learned.value().config.config);
    learned_pick["ppt"] = learned.value().device_ir.ppt;
    reselect["learned"] = std::move(learned_pick);
    reselect["heuristic_gap"] = heuristic_gap;
    reselect["learned_gap"] = learned_gap;
    doc["reselect"] = std::move(reselect);
    const Status written = support::WriteFile(json_out, doc.Dump(2) + "\n");
    if (!written.ok())
      std::fprintf(stderr, "warning: %s\n", written.ToString().c_str());
    else
      std::fprintf(stderr, "wrote %s\n", json_out.c_str());
  }
  if (!trace_out.empty()) {
    const Status written = trace.WriteChromeTrace(trace_out);
    if (!written.ok())
      std::fprintf(stderr, "warning: %s\n", written.ToString().c_str());
    else
      std::fprintf(stderr, "wrote %s\n", trace_out.c_str());
  }
  return 0;
}
