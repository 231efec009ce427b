// Host executor row bands: a prepared launch writes exactly the rows it is
// asked for, and any cut of its rows into bands — including cuts through
// the top and bottom border bands of a nine-region kernel — writes the same
// pixels as one band over every row. The frame loop runs disjoint bands of
// one launch on different workers, so both properties are what makes that
// safe and bit-identical. Halo-fused kernels, which the graph runtime keeps
// off the host, are held to the simulator here directly.
#include "runtime/host_exec.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "compiler/driver.hpp"
#include "compiler/fusion.hpp"
#include "image/synthetic.hpp"
#include "ops/isp.hpp"
#include "ops/kernel_sources.hpp"
#include "ops/masks.hpp"
#include "runtime/bindings.hpp"
#include "runtime/run_options.hpp"
#include "sim/bytecode.hpp"
#include "sim/simulator.hpp"

namespace hipacc {
namespace {

constexpr int kWidth = 67, kHeight = 45;
/// Fills the output before a run, so unwritten pixels stand out.
constexpr float kUnwritten = -1234.5f;

/// Boundary modes whose border programs compute values the interior one
/// would not (Clamp matches the interior's safety-net clamp), plus Clamp.
constexpr ast::BoundaryMode kModes[] = {ast::BoundaryMode::kClamp,
                                        ast::BoundaryMode::kMirror,
                                        ast::BoundaryMode::kConstant};

/// A 5x5 Gaussian (halo 2, nine region programs) compiled at
/// kWidth x kHeight.
compiler::CompiledKernel CompileGaussian5(ast::BoundaryMode mode) {
  Result<compiler::CompiledKernel> compiled = compiler::Compile(
      ops::GaussianSource(5, 1.5f, mode),
      runtime::MakeCompileOptions(runtime::RunOptions{}, kWidth, kHeight));
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  return std::move(compiled).take();
}

/// Runs `ck` over `input` as the bands [cuts[i], cuts[i+1]) and returns the
/// output pixels.
HostImage<float> RunBands(const compiler::CompiledKernel& ck,
                          dsl::Image<float>& input,
                          const std::vector<int>& cuts) {
  dsl::Image<float> out(kWidth, kHeight);
  out.CopyFrom(HostImage<float>(kWidth, kHeight, kUnwritten));
  runtime::BindingSet bindings;
  bindings.Input("Input", input).Output(out);
  Result<runtime::LaunchHolder> holder =
      runtime::BuildLaunch(ck.device_ir, ck.config.config, bindings);
  EXPECT_TRUE(holder.ok()) << holder.status().ToString();
  holder.value().launch.programs = ck.bytecode.get();
  Result<runtime::HostLaunch> host = runtime::HostLaunch::Prepare(
      holder.value().launch, ck.device_ir.bh_window.half_x,
      ck.device_ir.bh_window.half_y);
  EXPECT_TRUE(host.ok()) << host.status().ToString();
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i)
    host.value().RunRows(cuts[i], cuts[i + 1]);
  return out.getData();
}

TEST(HostLaunchTest, BandWritesOnlyItsRows) {
  dsl::Image<float> input(kWidth, kHeight);
  input.CopyFrom(MakeNoiseImage(kWidth, kHeight, 7));
  for (const ast::BoundaryMode mode : kModes) {
    const compiler::CompiledKernel ck = CompileGaussian5(mode);
    ASSERT_EQ(ck.device_ir.bh_window.half_y, 2);
    const HostImage<float> whole = RunBands(ck, input, {0, kHeight});
    // Rows 1..43 cross the top border band, the interior and the bottom
    // one.
    const HostImage<float> band = RunBands(ck, input, {1, kHeight - 1});
    for (int y = 0; y < kHeight; ++y) {
      for (int x = 0; x < kWidth; ++x) {
        if (y == 0 || y == kHeight - 1)
          ASSERT_EQ(band(x, y), kUnwritten) << x << "," << y;
        else
          ASSERT_EQ(band(x, y), whole(x, y)) << x << "," << y;
      }
    }
  }
}

TEST(HostLaunchTest, AnyRowCutMatchesOneBand) {
  dsl::Image<float> input(kWidth, kHeight);
  input.CopyFrom(MakeNoiseImage(kWidth, kHeight, 7));
  std::vector<int> every_row;
  for (int y = 0; y <= kHeight; ++y) every_row.push_back(y);
  const std::vector<std::vector<int>> cuts = {
      {0, 1, 3, 22, 42, 44, kHeight},  // through both border bands
      {0, 2, 43, kHeight},             // on the border band edges
      {0, 16, 32, kHeight},            // the frame loop's 16-row floor
      every_row,
  };
  for (const ast::BoundaryMode mode : kModes) {
    const compiler::CompiledKernel ck = CompileGaussian5(mode);
    ASSERT_GT(ck.bytecode->programs.size(), 1u);
    const HostImage<float> whole = RunBands(ck, input, {0, kHeight});
    for (const std::vector<int>& cut : cuts) {
      const HostImage<float> banded = RunBands(ck, input, cut);
      EXPECT_EQ(banded, whole) << "mode " << static_cast<int>(mode) << ", "
                               << cut.size() - 1 << " bands";
    }
  }
}

TEST(HostLaunchTest, ReadOnlyOutputFailsPrepareLikeValidate) {
  // Prepare makes Simulator::Validate's binding check: a launch with a
  // read-only output fails before any row runs, with the simulator's
  // status.
  const compiler::CompiledKernel ck =
      CompileGaussian5(ast::BoundaryMode::kClamp);
  dsl::Image<float> input(kWidth, kHeight), out(kWidth, kHeight);
  runtime::BindingSet bindings;
  bindings.Input("Input", input).Output(out);
  Result<runtime::LaunchHolder> holder =
      runtime::BuildLaunch(ck.device_ir, ck.config.config, bindings);
  ASSERT_TRUE(holder.ok()) << holder.status().ToString();
  sim::Launch& launch = holder.value().launch;
  launch.programs = ck.bytecode.get();
  for (sim::BufferBinding& buf : launch.buffers) buf.writable = false;
  const Status validated =
      sim::Simulator(runtime::RunOptions().device).Validate(launch);
  ASSERT_FALSE(validated.ok());
  const Result<runtime::HostLaunch> host = runtime::HostLaunch::Prepare(
      launch, ck.device_ir.bh_window.half_x, ck.device_ir.bh_window.half_y);
  ASSERT_FALSE(host.ok());
  EXPECT_EQ(host.status().ToString(), validated.ToString());
}

TEST(HostLaunchTest, HaloFusedKernelMatchesTheSimulator) {
  // The graph runtime's host model declines halo fusion, so no shipped
  // graph sends a halo-fused kernel to the host. Hold the executor to the
  // simulator on such kernels directly: the ISP's RGB->Y matrix inlined
  // into its 3x3 Gaussian, and a Gaussian inlined into a Laplacian.
  const std::vector<std::pair<std::string, double>> scalars = {
      {"c_r", 0.299}, {"c_g", 0.587}, {"c_b", 0.114}, {"bias", 0.0}};
  for (const ast::BoundaryMode mode :
       {ast::BoundaryMode::kClamp, ast::BoundaryMode::kMirror}) {
    const Result<frontend::KernelSource> luma = compiler::FuseHalo(
        ops::ColorMatrixSource("rgb2y"), ops::GaussianSource(3, 0.8f, mode),
        "Input", kWidth, kHeight);
    const Result<frontend::KernelSource> edges = compiler::FuseHalo(
        ops::GaussianConvolveSource(3, 1.0f, mode),
        ops::ConvolutionSource("laplacian", 3, 3, ops::LaplacianMask3(), mode),
        "Input", kWidth, kHeight);
    // The luma kernel resolves its border reads in its body (one program);
    // the Laplacian keeps nine region programs over a 2-pixel halo.
    const std::pair<const Result<frontend::KernelSource>*, std::size_t>
        cases[] = {{&luma, 1}, {&edges, 9}};
    for (const auto& [fused, programs] : cases) {
      ASSERT_TRUE(fused->ok()) << fused->status().ToString();
      Result<compiler::CompiledKernel> compiled = compiler::Compile(
          fused->value(),
          runtime::MakeCompileOptions(runtime::RunOptions{}, kWidth, kHeight));
      ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
      const compiler::CompiledKernel& ck = compiled.value();
      ASSERT_EQ(ck.bytecode->programs.size(), programs);

      std::vector<dsl::Image<float>> inputs;
      inputs.reserve(ck.decl.accessors.size());
      for (std::size_t i = 0; i < ck.decl.accessors.size(); ++i) {
        inputs.emplace_back(kWidth, kHeight);
        inputs.back().CopyFrom(
            MakeNoiseImage(kWidth, kHeight, 11 + i));
      }
      HostImage<float> outputs[2];
      for (const bool on_host : {true, false}) {
        dsl::Image<float> out(kWidth, kHeight);
        runtime::BindingSet bindings;
        for (std::size_t i = 0; i < inputs.size(); ++i)
          bindings.Input(ck.decl.accessors[i].name, inputs[i]);
        bindings.Output(out);
        for (const ast::ParamInfo& param : ck.decl.params)
          for (const auto& [name, value] : scalars)
            if (name == param.name) bindings.Scalar(name, value);
        Result<runtime::LaunchHolder> holder =
            runtime::BuildLaunch(ck.device_ir, ck.config.config, bindings);
        ASSERT_TRUE(holder.ok()) << holder.status().ToString();
        sim::Launch& launch = holder.value().launch;
        launch.programs = ck.bytecode.get();
        if (on_host) {
          ASSERT_TRUE(runtime::HostLaunch::Supports(
                          *ck.bytecode, kWidth, kHeight,
                          ck.device_ir.bh_window.half_x,
                          ck.device_ir.bh_window.half_y)
                          .ok());
          Result<runtime::HostLaunch> host = runtime::HostLaunch::Prepare(
              launch, ck.device_ir.bh_window.half_x,
              ck.device_ir.bh_window.half_y);
          ASSERT_TRUE(host.ok()) << host.status().ToString();
          host.value().RunRows(0, kHeight);
        } else {
          const Result<sim::LaunchStats> stats =
              sim::Simulator(runtime::RunOptions().device).Execute(launch);
          ASSERT_TRUE(stats.ok()) << stats.status().ToString();
        }
        outputs[on_host] = out.getData();
      }
      EXPECT_EQ(outputs[0], outputs[1])
          << ck.decl.name << ", mode " << static_cast<int>(mode);
    }
  }
}

}  // namespace
}  // namespace hipacc
