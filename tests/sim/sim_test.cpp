// Simulator and timing model: hand-built device kernels executed on the
// simulated device, divergence, sampled-vs-full agreement, launch
// validation, and timing-model monotonicity.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <optional>

#include "dsl/image.hpp"
#include "hwmodel/device_db.hpp"
#include "oracle/interpreter.hpp"
#include "sim/bytecode.hpp"
#include "sim/simulator.hpp"

namespace hipacc::sim {
namespace {

using namespace hipacc::ast;

ExprPtr Gx() { return ast::ThreadIndex(ThreadIndexKind::kGlobalIdX); }
ExprPtr Gy() { return ast::ThreadIndex(ThreadIndexKind::kGlobalIdY); }

/// out[x, y] = in[x, y] * 2 + 1
DeviceKernel MakeScaleKernel() {
  DeviceKernel dk;
  dk.name = "scale";
  dk.buffers = {{"IN", MemSpace::kGlobal, false},
                {"_out", MemSpace::kGlobal, true}};
  ExprPtr read = ast::MemRead(MemSpace::kGlobal, "IN", Gx(), Gy(),
                              BoundaryMode::kUndefined, {});
  ExprPtr value = Binary(BinaryOp::kAdd,
                         Binary(BinaryOp::kMul, read, FloatLit(2.0)),
                         FloatLit(1.0));
  dk.variants = {{Region::kInterior,
                  Block({ast::MemWrite(MemSpace::kGlobal, "_out", Gx(), Gy(),
                                       value)})}};
  return dk;
}

/// The register programs every launch carries.
std::shared_ptr<const ProgramSet> Programs(const DeviceKernel& kernel) {
  Result<std::shared_ptr<const ProgramSet>> compiled =
      CompileToBytecode(kernel);
  HIPACC_CHECK(compiled.ok());
  return std::move(compiled).take();
}

Launch MakeLaunch(const DeviceKernel& kernel, const ProgramSet& programs,
                  dsl::Image<float>& in, dsl::Image<float>& out,
                  hw::KernelConfig config) {
  Launch launch;
  launch.kernel = &kernel;
  launch.programs = &programs;
  launch.config = config;
  launch.width = out.width();
  launch.height = out.height();
  launch.buffers = {{"IN", in.span().data(), in.width(), in.height(),
                     in.stride(), false},
                    {"_out", out.span().data(), out.width(), out.height(),
                     out.stride(), true}};
  return launch;
}

TEST(InterpreterTest, PointKernelComputesEveryPixel) {
  const int n = 37;  // not block aligned
  dsl::Image<float> in(n, n), out(n, n);
  for (int y = 0; y < n; ++y)
    for (int x = 0; x < n; ++x) in.at(x, y) = static_cast<float>(x + y);
  const DeviceKernel kernel = MakeScaleKernel();
  const auto programs = Programs(kernel);
  Simulator sim(hw::TeslaC2050());
  auto stats = sim.Execute(MakeLaunch(kernel, *programs, in, out, {32, 4}));
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  for (int y = 0; y < n; ++y)
    for (int x = 0; x < n; ++x)
      ASSERT_FLOAT_EQ(out.at(x, y), 2.0f * (x + y) + 1.0f);
  EXPECT_EQ(stats.value().metrics.oob_violations, 0u);
  EXPECT_GT(stats.value().metrics.global_read_instrs, 0u);
  EXPECT_GT(stats.value().metrics.global_write_instrs, 0u);
}

TEST(InterpreterTest, DivergentIfUsesLaneMasks) {
  // out = (x % 2 == 0) ? 10 : 20 via an if/else.
  DeviceKernel dk;
  dk.name = "diverge";
  dk.buffers = {{"_out", MemSpace::kGlobal, true}};
  ExprPtr even = Binary(BinaryOp::kEq, Binary(BinaryOp::kMod, Gx(), IntLit(2)),
                        IntLit(0));
  StmtPtr body = Block({
      Decl(ScalarType::kFloat, "v", FloatLit(0.0)),
      If(even, Assign("v", AssignOp::kAssign, FloatLit(10.0)),
         Assign("v", AssignOp::kAssign, FloatLit(20.0))),
      ast::MemWrite(MemSpace::kGlobal, "_out", Gx(), Gy(),
                    VarRef("v", ScalarType::kFloat)),
  });
  dk.variants = {{Region::kInterior, body}};

  const int n = 16;
  dsl::Image<float> dummy(n, n), out(n, n);
  const auto programs = Programs(dk);
  Launch launch;
  launch.kernel = &dk;
  launch.programs = programs.get();
  launch.config = {32, 1};
  launch.width = n;
  launch.height = n;
  launch.buffers = {{"_out", out.span().data(), n, n, out.stride(), true}};
  Simulator sim(hw::TeslaC2050());
  ASSERT_TRUE(sim.Execute(launch).ok());
  for (int y = 0; y < n; ++y)
    for (int x = 0; x < n; ++x)
      ASSERT_FLOAT_EQ(out.at(x, y), x % 2 == 0 ? 10.0f : 20.0f);
}

TEST(InterpreterTest, PerLaneLoopBounds) {
  // out[x, y] = sum over i in [0, x] of 1 -> x + 1 (divergent trip counts).
  DeviceKernel dk;
  dk.name = "tri";
  dk.buffers = {{"_out", MemSpace::kGlobal, true}};
  StmtPtr body = Block({
      Decl(ScalarType::kFloat, "s", FloatLit(0.0)),
      For("i", IntLit(0), Gx(), 1,
          Block({Assign("s", AssignOp::kAddAssign, FloatLit(1.0))})),
      ast::MemWrite(MemSpace::kGlobal, "_out", Gx(), Gy(),
                    VarRef("s", ScalarType::kFloat)),
  });
  dk.variants = {{Region::kInterior, body}};

  const int n = 40;
  dsl::Image<float> out(n, 2);
  const auto programs = Programs(dk);
  Launch launch;
  launch.kernel = &dk;
  launch.programs = programs.get();
  launch.config = {32, 2};
  launch.width = n;
  launch.height = 2;
  launch.buffers = {{"_out", out.span().data(), n, 2, out.stride(), true}};
  Simulator sim(hw::TeslaC2050());
  ASSERT_TRUE(sim.Execute(launch).ok());
  for (int x = 0; x < n; ++x) ASSERT_FLOAT_EQ(out.at(x, 0), x + 1.0f);
}

TEST(SimulatorTest, ValidateRejectsBadLaunches) {
  const DeviceKernel kernel = MakeScaleKernel();
  const auto programs = Programs(kernel);
  dsl::Image<float> in(16, 16), out(16, 16);
  Simulator sim(hw::TeslaC2050());
  {
    // 2048 threads
    Launch launch = MakeLaunch(kernel, *programs, in, out, {32, 64});
    EXPECT_EQ(sim.Validate(launch).code(), StatusCode::kResourceExhausted);
  }
  {
    Launch launch = MakeLaunch(kernel, *programs, in, out, {32, 1});
    launch.buffers.pop_back();  // output unbound
    EXPECT_EQ(sim.Validate(launch).code(), StatusCode::kInvalidArgument);
  }
  {
    Launch launch = MakeLaunch(kernel, *programs, in, out, {32, 1});
    launch.buffers.back().writable = false;  // output bound read-only
    const Status st = sim.Validate(launch);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(st.message().find("_out"), std::string::npos) << st.ToString();
  }
  {
    Launch launch = MakeLaunch(kernel, *programs, in, out, {32, 1});
    launch.width = 0;
    EXPECT_FALSE(sim.Validate(launch).ok());
  }
}

TEST(SimulatorTest, ReadOnlyOutputFailsBeforeAnyBlockRuns) {
  // A launch starts with all its bindings or fails as a launch error: no
  // block function, the oracle's included, sees a read-only output, and
  // every driver returns Validate's status.
  const DeviceKernel kernel = MakeScaleKernel();
  const auto programs = Programs(kernel);
  dsl::Image<float> in(16, 16), out(16, 16);
  Launch launch = MakeLaunch(kernel, *programs, in, out, {32, 1});
  launch.buffers.back().writable = false;
  const Simulator sim(hw::TeslaC2050());
  const Status st = sim.Validate(launch);
  ASSERT_FALSE(st.ok());
  std::atomic<int> blocks{0};
  const BlockFn counted = [&](const Launch& l, const hw::DeviceSpec& device,
                              int bx, int by, Metrics* metrics,
                              std::uint64_t* executed_insns) {
    ++blocks;
    return oracle::RunBlock(l, device, bx, by, metrics, executed_insns);
  };
  for (const std::optional<int> samples :
       {std::optional<int>(), std::optional<int>(3)}) {
    const Result<LaunchStats> run = sim.Run(launch, counted, samples);
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().ToString(), st.ToString());
  }
  EXPECT_EQ(blocks.load(), 0);
  EXPECT_EQ(sim.Execute(launch).status().ToString(), st.ToString());
  EXPECT_EQ(sim.Measure(launch).status().ToString(), st.ToString());
}

TEST(SimulatorTest, LaunchWithoutProgramsFailsValidate) {
  // Every launch carries its register programs; there is no engine that
  // could run the kernel without them.
  const DeviceKernel kernel = MakeScaleKernel();
  const auto programs = Programs(kernel);
  dsl::Image<float> in(16, 16), out(16, 16);
  Launch launch = MakeLaunch(kernel, *programs, in, out, {32, 1});
  launch.programs = nullptr;
  const Simulator sim(hw::TeslaC2050());
  const Status st = sim.Validate(launch);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("register programs"), std::string::npos)
      << st.ToString();
  const Result<LaunchStats> run = sim.Execute(launch);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().ToString(), st.ToString());
  EXPECT_FALSE(sim.Measure(launch).ok());
}

TEST(SimulatorTest, AmdConfigLimitRejected) {
  // "on graphics cards from AMD, the maximal number of threads ... is 256";
  // the same kernel at 512 threads is a launch error there but fine on
  // NVIDIA (Section V-C's motivating example).
  const DeviceKernel kernel = MakeScaleKernel();
  const auto programs = Programs(kernel);
  dsl::Image<float> in(64, 64), out(64, 64);
  const Launch launch = MakeLaunch(kernel, *programs, in, out, {512, 1});
  EXPECT_FALSE(Simulator(hw::RadeonHd5870()).Validate(launch).ok());
  EXPECT_TRUE(Simulator(hw::TeslaC2050()).Validate(launch).ok());
}

TEST(SimulatorTest, SampledMeasureTracksFullExecution) {
  const DeviceKernel kernel = MakeScaleKernel();
  const auto programs = Programs(kernel);
  const int n = 256;
  dsl::Image<float> in(n, n), out(n, n);
  Simulator sim(hw::TeslaC2050());
  auto full = sim.Execute(MakeLaunch(kernel, *programs, in, out, {32, 4}));
  auto sampled = sim.Measure(MakeLaunch(kernel, *programs, in, out, {32, 4}));
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(sampled.ok());
  EXPECT_TRUE(sampled.value().sampled);
  // Uniform kernel: extrapolated counts match the exact ones closely.
  const double full_alu = static_cast<double>(full.value().metrics.alu_ops);
  const double sampled_alu =
      static_cast<double>(sampled.value().metrics.alu_ops);
  EXPECT_NEAR(sampled_alu / full_alu, 1.0, 0.02);
  EXPECT_NEAR(sampled.value().timing.total_ms / full.value().timing.total_ms,
              1.0, 0.05);
}

TEST(TimingModelTest, BoundsAndMonotonicity) {
  const hw::DeviceSpec device = hw::TeslaC2050();
  hw::OccupancyResult occ;
  occ.valid = true;
  occ.active_warps = 48;
  occ.occupancy = 1.0;

  Metrics compute_heavy;
  compute_heavy.alu_ops = 1'000'000;
  const TimingBreakdown base = ModelTime(compute_heavy, device, occ);
  EXPECT_GT(base.total_ms, kLaunchOverheadMs);

  Metrics more = compute_heavy;
  more.alu_ops *= 2;
  EXPECT_GT(ModelTime(more, device, occ).total_ms, base.total_ms);

  // Bandwidth-bound case: many transactions, no compute.
  Metrics memory_heavy;
  memory_heavy.global_transactions = 1'000'000;
  const TimingBreakdown mem = ModelTime(memory_heavy, device, occ);
  EXPECT_GT(mem.bandwidth_cycles, mem.compute_cycles);

  // Lower occupancy exposes more latency.
  hw::OccupancyResult low = occ;
  low.active_warps = 8;
  Metrics latency_heavy;
  latency_heavy.global_transactions = 100'000;
  EXPECT_GT(ModelTime(latency_heavy, device, low).latency_cycles,
            ModelTime(latency_heavy, device, occ).latency_cycles);

  // The OpenCL issue-overhead factor scales compute.
  EXPECT_GT(ModelTime(compute_heavy, device, occ, 1.35).total_ms,
            base.total_ms);
}

TEST(SimulatorTest, DegenerateRegionLaunchRejected) {
  // A 9-region kernel on an image too small for its window/config: rejected
  // with an actionable message instead of silent wrong guards.
  DeviceKernel dk = MakeScaleKernel();
  dk.bh_window = {6, 6};
  dk.variants.clear();
  for (const Region region :
       {Region::kTopLeft, Region::kTop, Region::kTopRight, Region::kLeft,
        Region::kInterior, Region::kRight, Region::kBottomLeft,
        Region::kBottom, Region::kBottomRight})
    dk.variants.push_back(
        {region, Block({ast::MemWrite(MemSpace::kGlobal, "_out", Gx(), Gy(),
                                      FloatLit(0.0))})});
  const auto programs = Programs(dk);
  dsl::Image<float> in(10, 10), out(10, 10);
  const Launch launch = MakeLaunch(dk, *programs, in, out, {128, 1});
  const Status st = Simulator(hw::TeslaC2050()).Validate(launch);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("too small"), std::string::npos);
}

}  // namespace
}  // namespace hipacc::sim
