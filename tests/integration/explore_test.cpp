// Configuration exploration (Section V-D) and retargeting: the exploration
// must cover all valid configurations, agree with the heuristic's pick,
// produce bit-identical results for any worker count, serialise to the
// BENCH_*.json schema, and a recompile for another device must re-select
// the configuration.
#include <gtest/gtest.h>

#include <cstdio>

#include "compiler/cache.hpp"
#include "compiler/explore.hpp"
#include "compiler/fusion.hpp"
#include "ops/kernel_sources.hpp"
#include "ops/masks.hpp"
#include "sim/trace.hpp"

namespace hipacc {
namespace {

compiler::CompiledKernel CompileBilateral(const hw::DeviceSpec& device,
                                          int n) {
  frontend::KernelSource source =
      ops::BilateralMaskSource(1, ast::BoundaryMode::kClamp);
  compiler::CompileOptions options;
  options.device = device;
  options.image_width = n;
  options.image_height = n;
  auto compiled = compiler::Compile(source, options);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  return std::move(compiled).take();
}

TEST(ExploreTest, CoversConfigurationSpace) {
  const int n = 512;
  const hw::DeviceSpec device = hw::TeslaC2050();
  const compiler::CompiledKernel kernel = CompileBilateral(device, n);
  dsl::Image<float> in(n, n), out(n, n);
  runtime::BindingSet bindings;
  bindings.Input("Input", in).Output(out).Scalar("sigma_d", 1).Scalar(
      "sigma_r", 4);
  auto points = compiler::ExploreConfigurations(kernel, device, bindings);
  ASSERT_TRUE(points.ok()) << points.status().ToString();
  EXPECT_GT(points.value().size(), 50u);
  // Sorted by thread count, then block_x; all times positive; multiple
  // tilings per thread count (Figure 4's "multiple points").
  int tilings_of_256 = 0;
  for (size_t i = 0; i < points.value().size(); ++i) {
    const auto& p = points.value()[i];
    EXPECT_GT(p.ms, 0.0);
    EXPECT_GT(p.occupancy, 0.0);
    if (p.config.threads() == 256) ++tilings_of_256;
    if (i > 0) {
      const auto& prev = points.value()[i - 1];
      EXPECT_LE(prev.config.threads(), p.config.threads());
    }
  }
  EXPECT_GE(tilings_of_256, 3);
}

TEST(ExploreTest, HeuristicPickNearOptimum) {
  const int n = 512;
  const hw::DeviceSpec device = hw::TeslaC2050();
  const compiler::CompiledKernel kernel = CompileBilateral(device, n);
  dsl::Image<float> in(n, n), out(n, n);
  runtime::BindingSet bindings;
  bindings.Input("Input", in).Output(out).Scalar("sigma_d", 1).Scalar(
      "sigma_r", 4);
  auto points = compiler::ExploreConfigurations(kernel, device, bindings);
  ASSERT_TRUE(points.ok());
  double best = 1e30, picked = -1.0;
  for (const auto& p : points.value()) {
    best = std::min(best, p.ms);
    if (p.config == kernel.config.config) picked = p.ms;
  }
  ASSERT_GT(picked, 0.0) << "heuristic pick missing from the exploration";
  // "the configurations selected by our heuristic are typically within 10%
  // of the best configuration" (Section VI-B).
  EXPECT_LE(picked / best, 1.10);
}

TEST(ExploreTest, ResultsAreIdenticalForAnyWorkerCount) {
  const int n = 512;
  const hw::DeviceSpec device = hw::TeslaC2050();
  const compiler::CompiledKernel kernel = CompileBilateral(device, n);
  dsl::Image<float> in(n, n), out(n, n);
  runtime::BindingSet bindings;
  bindings.Input("Input", in).Output(out).Scalar("sigma_d", 1).Scalar(
      "sigma_r", 4);

  compiler::ExploreOptions serial;
  serial.jobs = 1;
  auto reference = compiler::ExploreConfigurations(kernel, device, bindings,
                                                   serial);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_FALSE(reference.value().empty());

  // jobs=4 forces round-robin dealing across lanes; jobs=0 resolves to the
  // machine's core count (1 on a single-core runner, still a distinct path).
  for (const int jobs : {4, 0}) {
    compiler::ExploreOptions options;
    options.jobs = jobs;
    auto points = compiler::ExploreConfigurations(kernel, device, bindings,
                                                  options);
    ASSERT_TRUE(points.ok()) << points.status().ToString();
    ASSERT_EQ(points.value().size(), reference.value().size())
        << "jobs=" << jobs;
    for (size_t i = 0; i < points.value().size(); ++i) {
      const compiler::ExplorePoint& got = points.value()[i];
      const compiler::ExplorePoint& want = reference.value()[i];
      EXPECT_EQ(got.config, want.config) << "jobs=" << jobs << " i=" << i;
      // Bit-equal, not approximately equal: the parallel path must replay
      // the exact serial computation.
      EXPECT_EQ(got.ms, want.ms) << "jobs=" << jobs << " i=" << i;
      EXPECT_EQ(got.occupancy, want.occupancy) << "jobs=" << jobs << " i=" << i;
      EXPECT_EQ(got.border_threads, want.border_threads)
          << "jobs=" << jobs << " i=" << i;
      EXPECT_EQ(got.timing.total_ms, want.timing.total_ms)
          << "jobs=" << jobs << " i=" << i;
    }
  }
}

TEST(ExploreTest, MoreSamplesPerRegionStillCoversAllPoints) {
  // The sweep measures one block per region; every point it returns also
  // measures at three, close to the one-sample time.
  const int n = 256;
  const hw::DeviceSpec device = hw::TeslaC2050();
  const compiler::CompiledKernel kernel = CompileBilateral(device, n);
  dsl::Image<float> in(n, n), out(n, n);
  runtime::BindingSet bindings;
  bindings.Input("Input", in).Output(out).Scalar("sigma_d", 1).Scalar(
      "sigma_r", 4);
  auto points = compiler::ExploreConfigurations(kernel, device, bindings);
  ASSERT_TRUE(points.ok()) << points.status().ToString();
  ASSERT_FALSE(points.value().empty());
  const compiler::SimulatedExecutable exe(kernel, device);
  for (const compiler::ExplorePoint& point : points.value()) {
    Result<sim::LaunchStats> one = exe.Measure(bindings, point.config, 1);
    Result<sim::LaunchStats> three = exe.Measure(bindings, point.config, 3);
    ASSERT_TRUE(one.ok() && three.ok());
    EXPECT_EQ(one.value().timing.total_ms, point.ms);
    // Sampling depth shifts the extrapolated time somewhat (boundary
    // regions weigh heavily at 256x256) but must stay the same order of
    // magnitude: every block in a region runs the same instruction stream.
    EXPECT_NEAR(point.ms, three.value().timing.total_ms,
                0.30 * three.value().timing.total_ms);
  }
}

TEST(ExploreTest, TraceSinkSeesEveryMeasuredCandidate) {
  const int n = 256;
  const hw::DeviceSpec device = hw::TeslaC2050();
  const compiler::CompiledKernel kernel = CompileBilateral(device, n);
  dsl::Image<float> in(n, n), out(n, n);
  runtime::BindingSet bindings;
  bindings.Input("Input", in).Output(out).Scalar("sigma_d", 1).Scalar(
      "sigma_r", 4);
  sim::TraceSink trace;
  compiler::ExploreOptions options;
  options.jobs = 2;
  options.trace = &trace;
  auto points = compiler::ExploreConfigurations(kernel, device, bindings,
                                                options);
  ASSERT_TRUE(points.ok());
  size_t launches = 0;
  bool saw_summary = false;
  const support::Json doc = trace.ToJson();
  for (const auto& event : doc.Find("events")->elements()) {
    const std::string& name = event.Find("name")->string_value();
    if (name.rfind("launch ", 0) == 0) ++launches;
    if (name.rfind("explore ", 0) == 0) {
      saw_summary = true;
      EXPECT_EQ(event.Find("args")->Find("jobs")->int_value(), 2);
      EXPECT_EQ(
          static_cast<size_t>(
              event.Find("args")->Find("measured")->int_value()),
          points.value().size());
    }
  }
  EXPECT_EQ(launches, points.value().size());
  EXPECT_TRUE(saw_summary);
}

TEST(ExploreTest, ReportJsonMatchesBenchSchema) {
  // The schema contract for BENCH_fig4.json: whatever the bench writes, a
  // consumer must find config/ms/occupancy per point plus the header fields.
  const int n = 256;
  const hw::DeviceSpec device = hw::TeslaC2050();
  const compiler::CompiledKernel kernel = CompileBilateral(device, n);
  dsl::Image<float> in(n, n), out(n, n);
  runtime::BindingSet bindings;
  bindings.Input("Input", in).Output(out).Scalar("sigma_d", 1).Scalar(
      "sigma_r", 4);
  auto points = compiler::ExploreConfigurations(kernel, device, bindings);
  ASSERT_TRUE(points.ok());

  support::Json doc = compiler::ExploreReportJson(kernel, device, n, n,
                                                  points.value());
  const std::string path = ::testing::TempDir() + "/BENCH_fig4_test.json";
  ASSERT_TRUE(support::WriteFile(path, doc.Dump(2) + "\n").ok());
  auto text = support::ReadFile(path);
  ASSERT_TRUE(text.ok());
  auto parsed = support::Json::Parse(text.value());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  std::remove(path.c_str());

  const support::Json& report = parsed.value();
  EXPECT_EQ(report.Find("kernel")->string_value(), "bilateral_mask");
  EXPECT_EQ(report.Find("device")->string_value(), device.name);
  EXPECT_EQ(report.Find("backend")->string_value(), "CUDA");
  EXPECT_EQ(report.Find("image")->Find("width")->int_value(), n);
  EXPECT_EQ(report.Find("image")->Find("height")->int_value(), n);
  const support::Json* heuristic = report.Find("heuristic");
  ASSERT_NE(heuristic, nullptr);
  EXPECT_EQ(heuristic->Find("config")->Find("block_x")->int_value(),
            kernel.config.config.block_x);
  const support::Json* out_points = report.Find("points");
  ASSERT_NE(out_points, nullptr);
  ASSERT_EQ(out_points->size(), points.value().size());
  for (const support::Json& point : out_points->elements()) {
    const support::Json* config = point.Find("config");
    ASSERT_NE(config, nullptr);
    EXPECT_EQ(config->Find("threads")->int_value(),
              config->Find("block_x")->int_value() *
                  config->Find("block_y")->int_value());
    ASSERT_NE(point.Find("ms"), nullptr);
    EXPECT_GT(point.Find("ms")->number_value(), 0.0);
    ASSERT_NE(point.Find("occupancy"), nullptr);
    EXPECT_GT(point.Find("occupancy")->number_value(), 0.0);
    ASSERT_NE(point.Find("border_threads"), nullptr);
    ASSERT_NE(point.Find("timing"), nullptr);
  }
}

TEST(RetargetTest, ReSelectsPerDevice) {
  // The second compile of the kernel, for another device through the same
  // cache, reuses the lowered IR (a frontend hit) and re-selects the
  // configuration for its device.
  const int n = 1024;
  const frontend::KernelSource source =
      ops::BilateralMaskSource(1, ast::BoundaryMode::kClamp);
  compiler::CompilationCache cache;
  compiler::CompileOptions options;
  options.device = hw::TeslaC2050();
  options.image_width = n;
  options.image_height = n;
  options.cache = &cache;
  ASSERT_TRUE(compiler::Compile(source, options).ok());

  options.device = hw::RadeonHd5870();
  auto on_amd = compiler::Compile(source, options);
  ASSERT_TRUE(on_amd.ok()) << on_amd.status().ToString();
  EXPECT_EQ(cache.stats().frontend_hits, 1);
  // AMD wavefronts are 64 wide; the border tiling uses the SIMD width in x.
  EXPECT_EQ(on_amd.value().config.config.block_x, 64);
  EXPECT_LE(on_amd.value().config.config.threads(), 256);
}

TEST(RetargetTest, BackendSwitchChangesEmittedSource) {
  const compiler::CompiledKernel cuda = CompileBilateral(hw::TeslaC2050(), 256);
  EXPECT_NE(cuda.source.find("__global__"), std::string::npos);

  compiler::CompileOptions opencl_options;
  opencl_options.codegen.backend = ast::Backend::kOpenCL;
  opencl_options.device = hw::TeslaC2050();
  opencl_options.image_width = 256;
  opencl_options.image_height = 256;
  auto opencl = compiler::Compile(
      ops::BilateralMaskSource(1, ast::BoundaryMode::kClamp), opencl_options);
  ASSERT_TRUE(opencl.ok());
  EXPECT_NE(opencl.value().source.find("__kernel"), std::string::npos);
  EXPECT_EQ(opencl.value().source.find("__global__"), std::string::npos);
}

TEST(ExploreTest, FusionCandidateSweepScoresFusedVsUnfused) {
  const int n = 64;
  const hw::DeviceSpec device = hw::TeslaC2050();
  const frontend::KernelSource a = ops::ConvolutionSource(
      "sobel_x", 3, 3, ops::SobelMaskX(), ast::BoundaryMode::kClamp);
  const frontend::KernelSource b = ops::ConvolutionSource(
      "sobel_y", 3, 3, ops::SobelMaskY(), ast::BoundaryMode::kClamp);
  auto fused_src = compiler::FuseHorizontal(a, "Input", b, "Input", "gy");
  ASSERT_TRUE(fused_src.ok()) << fused_src.status().ToString();

  const auto compile = [&](const frontend::KernelSource& source) {
    compiler::CompileOptions options;
    options.device = device;
    options.image_width = options.image_height = n;
    options.codegen.border = codegen::BorderPolicy::kUniform;
    auto compiled = compiler::Compile(source, options);
    EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
    return std::move(compiled).take();
  };
  const compiler::CompiledKernel ka = compile(a);
  const compiler::CompiledKernel kb = compile(b);
  const compiler::CompiledKernel kf = compile(fused_src.value());

  dsl::Image<float> in(n, n), gx(n, n), gy(n, n);
  runtime::BindingSet ba, bb, bf;
  ba.Input("Input", in).Output(gx);
  bb.Input("Input", in).Output(gy);
  bf.Input("Input", in).Output(gx).Output("gy", gy);

  auto sweep = compiler::ExploreFusionCandidate(
      {&kf, &bf}, {{&ka, &ba}, {&kb, &bb}}, device);
  ASSERT_TRUE(sweep.ok()) << sweep.status().ToString();
  EXPECT_FALSE(sweep.value().fused.empty());
  ASSERT_EQ(sweep.value().stages.size(), 2u);
  EXPECT_GT(sweep.value().best_fused_ms, 0.0);
  EXPECT_GT(sweep.value().best_unfused_ms, 0.0);
  // One launch instead of two: at this extent the fused kernel's best
  // configuration must beat the stages at theirs.
  EXPECT_GT(sweep.value().speedup, 1.0);

  const support::Json doc = compiler::FusionSweepJson(sweep.value());
  ASSERT_NE(doc.Find("speedup"), nullptr);
  EXPECT_EQ(doc.Find("speedup")->number_value(), sweep.value().speedup);

  // Degenerate inputs are rejected.
  EXPECT_FALSE(compiler::ExploreFusionCandidate({&kf, &bf}, {}, device).ok());
  EXPECT_FALSE(
      compiler::ExploreFusionCandidate({nullptr, &bf}, {{&ka, &ba}}, device)
          .ok());
}

TEST(CompileTest, ForcedInvalidConfigIsLaunchError) {
  frontend::KernelSource source =
      ops::BilateralMaskSource(1, ast::BoundaryMode::kClamp);
  compiler::CompileOptions options;
  options.device = hw::RadeonHd5870();  // 256-thread block limit
  options.image_width = options.image_height = 512;
  options.forced_config = hw::KernelConfig{512, 1};
  const auto compiled = compiler::Compile(source, options);
  ASSERT_FALSE(compiled.ok());
  EXPECT_EQ(compiled.status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace hipacc
