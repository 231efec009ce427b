// Boundary index resolution — the semantics behind Table I and Figure 2.
// Property-style parameterized sweeps plus the exact expansions of the
// paper's figure, randomized property tests over (coordinate, extent)
// pairs, and an end-to-end check that Undefined-mode kernels only fire
// oob_violations where the stencil actually leaves the image.
#include "dsl/boundary.hpp"

#include <gtest/gtest.h>

#include "compiler/executable.hpp"
#include "hwmodel/device_db.hpp"
#include "ops/kernel_sources.hpp"
#include "sim/vm.hpp"
#include "support/rng.hpp"

namespace hipacc::dsl {
namespace {

using ast::BoundaryMode;

TEST(BoundaryTest, InRangeIsIdentityForAllModes) {
  for (const BoundaryMode mode :
       {BoundaryMode::kUndefined, BoundaryMode::kClamp, BoundaryMode::kRepeat,
        BoundaryMode::kMirror, BoundaryMode::kConstant}) {
    for (int c = 0; c < 7; ++c) EXPECT_EQ(ResolveBoundaryIndex(c, 7, mode), c);
  }
}

TEST(BoundaryTest, ClampPinsToEdges) {
  EXPECT_EQ(ResolveBoundaryIndex(-1, 4, BoundaryMode::kClamp), 0);
  EXPECT_EQ(ResolveBoundaryIndex(-100, 4, BoundaryMode::kClamp), 0);
  EXPECT_EQ(ResolveBoundaryIndex(4, 4, BoundaryMode::kClamp), 3);
  EXPECT_EQ(ResolveBoundaryIndex(99, 4, BoundaryMode::kClamp), 3);
}

TEST(BoundaryTest, RepeatIsPeriodic) {
  // Figure 2b row above the image shows M N O P continuing from the bottom.
  EXPECT_EQ(ResolveBoundaryIndex(-1, 4, BoundaryMode::kRepeat), 3);
  EXPECT_EQ(ResolveBoundaryIndex(-4, 4, BoundaryMode::kRepeat), 0);
  EXPECT_EQ(ResolveBoundaryIndex(-5, 4, BoundaryMode::kRepeat), 3);
  EXPECT_EQ(ResolveBoundaryIndex(4, 4, BoundaryMode::kRepeat), 0);
  EXPECT_EQ(ResolveBoundaryIndex(9, 4, BoundaryMode::kRepeat), 1);
}

TEST(BoundaryTest, MirrorDuplicatesBorderPixel) {
  // Figure 2d: -1 -> 0, -2 -> 1, -3 -> 2; n -> n-1, n+1 -> n-2.
  EXPECT_EQ(ResolveBoundaryIndex(-1, 4, BoundaryMode::kMirror), 0);
  EXPECT_EQ(ResolveBoundaryIndex(-2, 4, BoundaryMode::kMirror), 1);
  EXPECT_EQ(ResolveBoundaryIndex(-3, 4, BoundaryMode::kMirror), 2);
  EXPECT_EQ(ResolveBoundaryIndex(4, 4, BoundaryMode::kMirror), 3);
  EXPECT_EQ(ResolveBoundaryIndex(5, 4, BoundaryMode::kMirror), 2);
  EXPECT_EQ(ResolveBoundaryIndex(7, 4, BoundaryMode::kMirror), 0);
}

TEST(BoundaryTest, MirrorFarOutOfBoundsReflectsRepeatedly) {
  // Period 2n: -n-1 reflects back inward.
  EXPECT_EQ(ResolveBoundaryIndex(-5, 4, BoundaryMode::kMirror), 3);  // 2nd bounce
  EXPECT_EQ(ResolveBoundaryIndex(8, 4, BoundaryMode::kMirror), 0);
  EXPECT_EQ(ResolveBoundaryIndex(-8, 4, BoundaryMode::kMirror), 0);
}

TEST(BoundaryTest, ConstantSignalsSubstitution) {
  EXPECT_EQ(ResolveBoundaryIndex(-1, 4, BoundaryMode::kConstant), -1);
  EXPECT_EQ(ResolveBoundaryIndex(4, 4, BoundaryMode::kConstant), -1);
  EXPECT_EQ(ResolveBoundaryIndex(2, 4, BoundaryMode::kConstant), 2);
}

TEST(BoundaryTest, UndefinedClampsAsSafetyNet) {
  EXPECT_EQ(ResolveBoundaryIndex(-3, 4, BoundaryMode::kUndefined), 0);
  EXPECT_EQ(ResolveBoundaryIndex(6, 4, BoundaryMode::kUndefined), 3);
}

// Property sweep: every resolving mode maps any coordinate into [0, n).
struct SweepParam {
  BoundaryMode mode;
  int n;
};

class BoundarySweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(BoundarySweepTest, AlwaysLandsInRange) {
  const auto [mode, n] = GetParam();
  for (int c = -3 * n; c <= 3 * n; ++c) {
    const int r = ResolveBoundaryIndex(c, n, mode);
    ASSERT_GE(r, 0) << "c=" << c << " n=" << n;
    ASSERT_LT(r, n) << "c=" << c << " n=" << n;
  }
}

TEST_P(BoundarySweepTest, MirrorIsSymmetricAroundEdges) {
  const auto [mode, n] = GetParam();
  if (mode != BoundaryMode::kMirror) return;
  for (int k = 0; k < n; ++k) {
    // Reflection about the left edge: -1-k maps like k.
    EXPECT_EQ(ResolveBoundaryIndex(-1 - k, n, mode),
              ResolveBoundaryIndex(k, n, mode));
    // Reflection about the right edge: n+k maps like n-1-k.
    EXPECT_EQ(ResolveBoundaryIndex(n + k, n, mode),
              ResolveBoundaryIndex(n - 1 - k, n, mode));
  }
}

TEST_P(BoundarySweepTest, RepeatHasPeriodN) {
  const auto [mode, n] = GetParam();
  if (mode != BoundaryMode::kRepeat) return;
  for (int c = -2 * n; c < 2 * n; ++c)
    EXPECT_EQ(ResolveBoundaryIndex(c, n, mode),
              ResolveBoundaryIndex(c + n, n, mode));
}

std::vector<SweepParam> SweepParams() {
  std::vector<SweepParam> params;
  for (const BoundaryMode mode : {BoundaryMode::kClamp, BoundaryMode::kRepeat,
                                  BoundaryMode::kMirror, BoundaryMode::kUndefined})
    for (const int n : {1, 2, 3, 7, 16, 61}) params.push_back({mode, n});
  return params;
}

INSTANTIATE_TEST_SUITE_P(ModesAndSizes, BoundarySweepTest,
                         ::testing::ValuesIn(SweepParams()),
                         [](const auto& info) {
                           return std::string(to_string(info.param.mode)) +
                                  "_n" + std::to_string(info.param.n);
                         });

// Randomized property sweeps: the exhaustive tests above cover small
// extents; these sample the full (coordinate, extent) space with the
// repo's deterministic RNG, so failures reproduce byte-for-byte.
TEST(BoundaryPropertyTest, ResolvingModesAlwaysLandInRange) {
  Rng rng(0xB0DA12u);
  for (int trial = 0; trial < 5000; ++trial) {
    const int n = rng.NextInt(1, 4096);
    const int c = rng.NextInt(-3 * n - 7, 4 * n + 7);
    for (const BoundaryMode mode :
         {BoundaryMode::kClamp, BoundaryMode::kRepeat, BoundaryMode::kMirror,
          BoundaryMode::kUndefined}) {
      const int r = ResolveBoundaryIndex(c, n, mode);
      ASSERT_GE(r, 0) << to_string(mode) << " c=" << c << " n=" << n;
      ASSERT_LT(r, n) << to_string(mode) << " c=" << c << " n=" << n;
    }
    // Constant either passes an in-range index through or signals -1.
    const int rc = ResolveBoundaryIndex(c, n, BoundaryMode::kConstant);
    if (c >= 0 && c < n)
      ASSERT_EQ(rc, c);
    else
      ASSERT_EQ(rc, -1);
  }
}

TEST(BoundaryPropertyTest, InRangeCoordinatesAreUntouched) {
  Rng rng(0x1DF00Du);
  for (int trial = 0; trial < 5000; ++trial) {
    const int n = rng.NextInt(1, 4096);
    const int c = rng.NextInt(0, n - 1);
    for (const BoundaryMode mode :
         {BoundaryMode::kUndefined, BoundaryMode::kClamp,
          BoundaryMode::kRepeat, BoundaryMode::kMirror,
          BoundaryMode::kConstant})
      ASSERT_EQ(ResolveBoundaryIndex(c, n, mode), c)
          << to_string(mode) << " c=" << c << " n=" << n;
  }
}

TEST(BoundaryPropertyTest, MirrorReflectionAcrossEachEdgeIsASymmetry) {
  // The border-duplicating mirror extension is symmetric about both image
  // edges, including multi-bounce coordinates: reflecting any coordinate
  // across an edge (x <-> -1-x on the left, x <-> 2n-1-x on the right)
  // resolves to the same pixel.
  Rng rng(0x314159u);
  for (int trial = 0; trial < 5000; ++trial) {
    const int n = rng.NextInt(1, 2048);
    const int d = rng.NextInt(1, 3 * n);
    ASSERT_EQ(ResolveBoundaryIndex(-d, n, BoundaryMode::kMirror),
              ResolveBoundaryIndex(d - 1, n, BoundaryMode::kMirror))
        << "left edge, d=" << d << " n=" << n;
    ASSERT_EQ(ResolveBoundaryIndex(n - 1 + d, n, BoundaryMode::kMirror),
              ResolveBoundaryIndex(n - d, n, BoundaryMode::kMirror))
        << "right edge, d=" << d << " n=" << n;
  }
}

TEST(BoundaryPropertyTest, RepeatShiftsByWholePeriods) {
  Rng rng(0xCAFEu);
  for (int trial = 0; trial < 5000; ++trial) {
    const int n = rng.NextInt(1, 2048);
    const int c = rng.NextInt(-2 * n, 2 * n);
    const int periods = rng.NextInt(-3, 3);
    ASSERT_EQ(ResolveBoundaryIndex(c, n, BoundaryMode::kRepeat),
              ResolveBoundaryIndex(c + periods * n, n, BoundaryMode::kRepeat))
        << "c=" << c << " n=" << n << " periods=" << periods;
  }
}

// End-to-end: an Undefined-mode kernel counts oob_violations only for
// blocks whose stencil actually leaves the image. Interior blocks are the
// reason Table II's generated kernels survive: the region-specialised
// interior variant performs no boundary handling yet never reads OOB.
TEST(BoundaryOobTest, UndefinedFiresOnlyWhereTheStencilLeavesTheImage) {
  const int n = 128;
  const hw::DeviceSpec device = hw::TeslaC2050();
  frontend::KernelSource source =
      ops::BilateralMaskSource(1, BoundaryMode::kUndefined);  // 5x5 window
  compiler::CompileOptions options;
  options.device = device;
  options.image_width = n;
  options.image_height = n;
  // A fixed 32x4 configuration gives a 4x32 grid, so interior and corner
  // blocks both exist regardless of what the heuristic would pick.
  options.forced_config = hw::KernelConfig{32, 4};
  auto compiled = compiler::Compile(source, options);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();

  dsl::Image<float> in(n, n), out(n, n);
  runtime::BindingSet bindings;
  bindings.Input("Input", in).Output(out).Scalar("sigma_d", 1).Scalar(
      "sigma_r", 4);
  auto holder = runtime::BuildLaunch(compiled.value().device_ir,
                                     compiled.value().config.config, bindings);
  ASSERT_TRUE(holder.ok()) << holder.status().ToString();
  const sim::Launch& launch = holder.value().launch;
  const int grid_x = (n + launch.config.block_x - 1) / launch.config.block_x;
  const int grid_y = (n + launch.config.block_y - 1) / launch.config.block_y;
  ASSERT_GE(grid_x, 3);
  ASSERT_GE(grid_y, 3);

  const sim::LaunchBindings bound =
      sim::ResolveBindings(*compiled.value().bytecode, launch);
  sim::Metrics interior;
  ASSERT_TRUE(sim::RunBlockBytecode(launch, bound, device, grid_x / 2,
                                    grid_y / 2, &interior, nullptr)
                  .ok());
  EXPECT_EQ(interior.oob_violations, 0u);
  EXPECT_GT(interior.global_read_instrs, 0u);

  sim::Metrics corner;
  ASSERT_TRUE(
      sim::RunBlockBytecode(launch, bound, device, 0, 0, &corner, nullptr)
          .ok());
  EXPECT_GT(corner.oob_violations, 0u);
}

TEST(BoundaryOobTest, GuardedModesNeverFireAnywhere) {
  const int n = 96;
  const hw::DeviceSpec device = hw::TeslaC2050();
  for (const BoundaryMode mode : {BoundaryMode::kClamp, BoundaryMode::kMirror,
                                  BoundaryMode::kRepeat,
                                  BoundaryMode::kConstant}) {
    frontend::KernelSource source = ops::BilateralMaskSource(1, mode);
    compiler::CompileOptions options;
    options.device = device;
    options.image_width = n;
    options.image_height = n;
    auto compiled = compiler::Compile(source, options);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    dsl::Image<float> in(n, n), out(n, n);
    runtime::BindingSet bindings;
    bindings.Input("Input", in).Output(out).Scalar("sigma_d", 1).Scalar(
        "sigma_r", 4);
    compiler::SimulatedExecutable exe(std::move(compiled).take(), device);
    auto stats = exe.Run(bindings);  // full grid, exact metrics
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats.value().metrics.oob_violations, 0u) << to_string(mode);
  }
}

}  // namespace
}  // namespace hipacc::dsl
