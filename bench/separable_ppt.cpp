// Separable decomposition + pixels-per-thread: the PR 5 headline bench.
// 5x5 Gaussian on a 1024x1024 image, Tesla C2050: the generated separable
// row+column pair at the heuristic-chosen PPT must beat the direct 2D
// kernel by >= 1.5x and land within 10% of (or beat) the hand-written
// OpenCV-like separable baseline at its native PPT=8 mapping.
//
//   --ppt=N|auto       PPT for the generated kernels (default auto)
//   --no-separate      functional graph run keeps the direct 2D stage
//   --size=N           square image extent (default 1024)
//   --window=N         Gaussian window (default 5)
//   --json-out=FILE    BENCH_*.json report path (default BENCH_separable.json)
#include <cstdio>
#include <string>

#include "baselines/opencv_like.hpp"
#include "common/table.hpp"
#include "compiler/executable.hpp"
#include "compiler/separate.hpp"
#include "hwmodel/device_db.hpp"
#include "image/metrics.hpp"
#include "image/synthetic.hpp"
#include "ops/kernel_sources.hpp"
#include "ops/masks.hpp"
#include "runtime/graph.hpp"
#include "sim/trace.hpp"
#include "support/string_utils.hpp"

namespace {

struct Measured {
  double ms = 0.0;
  int ppt = 1;
  hipacc::hw::KernelConfig config;
};

/// Compiles `source` with the requested pixels-per-thread (0 = heuristic
/// sweep) and returns the modelled kernel time under the heuristic-chosen
/// configuration.
hipacc::Result<Measured> MeasureGenerated(
    const hipacc::frontend::KernelSource& source,
    const hipacc::hw::DeviceSpec& device, int n, int ppt,
    hipacc::sim::TraceSink* trace) {
  using namespace hipacc;
  compiler::CompileOptions copts;
  copts.codegen.backend = ast::Backend::kCuda;
  copts.codegen.pixels_per_thread = ppt;
  copts.device = device;
  copts.image_width = n;
  copts.image_height = n;
  copts.trace = trace;
  Result<compiler::CompiledKernel> compiled = compiler::Compile(source, copts);
  if (!compiled.ok()) return compiled.status();
  Measured m;
  m.ppt = compiled.value().device_ir.ppt;
  m.config = compiled.value().config.config;
  dsl::Image<float> in(n, n), out(n, n);
  runtime::BindingSet bindings;
  bindings.Input(source.accessors.front().name, in).Output(out);
  compiler::SimulatedExecutable exe(std::move(compiled).take(), device);
  Result<sim::LaunchStats> stats = exe.Measure(bindings);
  if (!stats.ok()) return stats.status();
  m.ms = stats.value().timing.total_ms;
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hipacc;
  int n = 1024;
  int window = 5;
  std::string json_out = "BENCH_separable.json";
  support::CliParser cli = bench::MakeBenchCli(
      "separable_ppt",
      "separable Gaussian vs direct 2D vs OpenCV-like, with PPT selection");
  cli.Int("size", &n, "N", "square image extent (default 1024)");
  cli.Int("window", &window, "N", "Gaussian window size (default 5)");
  cli.String("json-out", &json_out, "FILE", "BENCH_*.json report path");
  if (const int code = cli.HandleArgs(argc, argv); code >= 0) return code;

  const hw::DeviceSpec device = hw::TeslaC2050();
  const float sigma = 0.5f * static_cast<float>(window);
  const frontend::KernelSource source =
      ops::GaussianSource(window, sigma, ast::BoundaryMode::kClamp);
  sim::TraceSink trace;

  // Direct 2D convolution, the framework's pre-separation output.
  Result<Measured> direct = MeasureGenerated(source, device, n, 1, &trace);
  if (!direct.ok()) {
    std::fprintf(stderr, "direct compile failed: %s\n",
                 direct.status().ToString().c_str());
    return 1;
  }

  // The tentpole path: rank-1 factorization splits the stage, and each 1D
  // pass is compiled at --ppt (default: the heuristic sweep's pick).
  std::optional<compiler::SeparatedStages> sep =
      compiler::SeparateConvolution(source);
  if (!sep) {
    std::fprintf(stderr, "error: %dx%d Gaussian did not separate\n", window,
                 window);
    return 1;
  }
  const int requested_ppt =
      bench::Tuning().ppt < 0 ? 0 : bench::Tuning().ppt;
  Result<Measured> row =
      MeasureGenerated(sep->row, device, n, requested_ppt, &trace);
  Result<Measured> col =
      MeasureGenerated(sep->col, device, n, requested_ppt, &trace);
  if (!row.ok() || !col.ok()) {
    std::fprintf(stderr, "separable compile failed: %s\n",
                 (row.ok() ? col : row).status().ToString().c_str());
    return 1;
  }
  const double sep_ms = row.value().ms + col.value().ms;

  // OpenCV-like separable baseline (Section VI-A3) at both mappings.
  const std::vector<float> mask1d = ops::GaussianMask1D(window, sigma);
  baselines::OpenCvLikeEngine engine(device, ast::Backend::kCuda);
  Result<baselines::SeparableTiming> opencv8 = engine.Measure(
      n, n, mask1d, ast::BoundaryMode::kClamp, 8, hw::KernelConfig{128, 1});
  Result<baselines::SeparableTiming> opencv1 = engine.Measure(
      n, n, mask1d, ast::BoundaryMode::kClamp, 1, hw::KernelConfig{128, 1});
  if (!opencv8.ok() || !opencv1.ok()) {
    std::fprintf(stderr, "baseline failed: %s\n",
                 (opencv8.ok() ? opencv1 : opencv8).status().ToString().c_str());
    return 1;
  }

  // Functional cross-check through the pipeline graph: the separated run
  // must match the direct stage (up to factorization rounding), and the
  // graph emits the separate.edges counter the CI smoke asserts on.
  const HostImage<float> input = MakeNoiseImage(n, n, 11);
  HostImage<float> direct_out(n, n), graph_out(n, n);
  double max_diff = 0.0;
  {
    runtime::PipelineGraph direct_graph;
    direct_graph.Source("in", n, n)
        .Kernel("gauss", source, {{"Input", "in"}})
        .Output("gauss");
    runtime::GraphOptions gopts;
    gopts.fuse = bench::Tuning().fuse;
    const Status st =
        direct_graph.Run({{"in", &input}}, {{"gauss", &direct_out}}, gopts);
    if (!st.ok()) {
      std::fprintf(stderr, "graph run failed: %s\n", st.ToString().c_str());
      return 1;
    }
    runtime::PipelineGraph sep_graph;
    sep_graph.Source("in", n, n)
        .Kernel("gauss", source, {{"Input", "in"}})
        .Output("gauss");
    runtime::GraphOptions sopts;
    sopts.separate = bench::Tuning().separate;
    sopts.fuse = bench::Tuning().fuse;
    sopts.run.trace = &trace;
    const Status ss =
        sep_graph.Run({{"in", &input}}, {{"gauss", &graph_out}}, sopts);
    if (!ss.ok()) {
      std::fprintf(stderr, "separated graph run failed: %s\n",
                   ss.ToString().c_str());
      return 1;
    }
    max_diff = MaxAbsDiff(direct_out, graph_out);
  }

  bench::Table table({"time_ms", "config", "ppt"});
  const auto add = [&table](const std::string& label, double ms,
                            const hw::KernelConfig& config, int ppt) {
    table.Row(label);
    table.Cell(ms);
    table.Cell(StrFormat("%dx%d", config.block_x, config.block_y));
    table.Cell(StrFormat("%d", ppt));
  };
  add("Direct 2D (gen)", direct.value().ms, direct.value().config,
      direct.value().ppt);
  add(StrFormat("Separable row (gen)"), row.value().ms, row.value().config,
      row.value().ppt);
  add(StrFormat("Separable col (gen)"), col.value().ms, col.value().config,
      col.value().ppt);
  add("Separable total (gen)", sep_ms, row.value().config, row.value().ppt);
  add("OpenCV-like PPT=8", opencv8.value().total_ms, hw::KernelConfig{128, 1},
      8);
  add("OpenCV-like PPT=1", opencv1.value().total_ms, hw::KernelConfig{128, 1},
      1);
  std::printf("%s\n",
              table
                  .Render(StrFormat(
                      "Separable Gaussian %dx%d, %dx%d image, %s (CUDA)",
                      window, window, n, n, device.name.c_str()))
                  .c_str());

  const double speedup = direct.value().ms / sep_ms;
  const double vs_opencv8 = sep_ms / opencv8.value().total_ms;
  std::printf("separable vs direct 2D:      %.2fx faster\n", speedup);
  std::printf("separable vs OpenCV PPT=8:   %.2fx the baseline's time\n",
              vs_opencv8);
  std::printf("graph output max |diff|:     %.2e (separate=%s)\n", max_diff,
              bench::Tuning().separate ? "on" : "off");
  std::printf("separate.edges counter:      %lld\n",
              trace.counter("separate.edges"));
  std::printf("ppt.selected counter:        %lld\n",
              trace.counter("ppt.selected"));

  if (!json_out.empty()) {
    support::Json doc = support::Json::Object();
    doc["bench"] = "separable_ppt";
    doc["device"] = device.name;
    doc["backend"] = "cuda";
    support::Json image = support::Json::Object();
    image["width"] = n;
    image["height"] = n;
    doc["image"] = std::move(image);
    doc["window"] = window;
    doc["direct_ms"] = direct.value().ms;
    doc["separable_row_ms"] = row.value().ms;
    doc["separable_col_ms"] = col.value().ms;
    doc["separable_ms"] = sep_ms;
    doc["separable_ppt"] = row.value().ppt;
    doc["opencv_ppt8_ms"] = opencv8.value().total_ms;
    doc["opencv_ppt1_ms"] = opencv1.value().total_ms;
    doc["speedup_vs_direct"] = speedup;
    doc["relative_to_opencv_ppt8"] = vs_opencv8;
    doc["graph_max_abs_diff"] = max_diff;
    support::Json counters = support::Json::Object();
    counters["separate.edges"] = trace.counter("separate.edges");
    counters["ppt.selected"] = trace.counter("ppt.selected");
    doc["counters"] = std::move(counters);
    doc["table"] = table.ToJson("separable_ppt");
    const Status written = support::WriteFile(json_out, doc.Dump(2) + "\n");
    if (!written.ok())
      std::fprintf(stderr, "warning: %s\n", written.ToString().c_str());
    else
      std::fprintf(stderr, "wrote %s\n", json_out.c_str());
  }
  return 0;
}
