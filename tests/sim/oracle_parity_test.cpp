// Oracle parity over the full Figure 4 sweep: for every candidate
// configuration hw::ExploreConfigs enumerates for the Figure 4 kernel
// (13x13 bilateral, 4096x4096, Tesla C2050, PPT 1/2/4/8), the sampled
// measurement on the bytecode VM must equal the oracle's — configuration,
// occupancy, border threads, every metric counter and the modelled time —
// and the VM must finish the sweep faster than the oracle. The VM's Measure
// computes only what the model observes (sim::MarkObserved) while the
// oracle computes every value, so the parity also proves the skipped values
// unobservable.
//
// The two sweeps take about 70 s on four cores, so ctest does not register
// this binary; CI runs it as its own step:
//
//   build/tests/sim/oracle_parity_test
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "compiler/driver.hpp"
#include "hwmodel/device_db.hpp"
#include "hwmodel/heuristic.hpp"
#include "ops/kernel_sources.hpp"
#include "oracle/interpreter.hpp"
#include "runtime/bindings.hpp"
#include "support/parallel_for.hpp"
#include "support/stopwatch.hpp"
#include "support/string_utils.hpp"

namespace hipacc {
namespace {

constexpr int kExtent = 4096;
constexpr unsigned kLanes = 4;

struct SweepPoint {
  Status status = Status::Ok();
  sim::LaunchStats stats;
};

/// Measures every candidate (one sample per region, as the exploration
/// does) on `kLanes` lanes, each with its own simulator and output image.
/// Returns the points in candidate order and the sweep's wall-clock.
std::vector<SweepPoint> Sweep(
    const compiler::CompiledKernel& kernel,
    const std::vector<hw::HeuristicChoice>& candidates, dsl::Image<float>& in,
    bool on_oracle, double* wall_ms) {
  std::vector<SweepPoint> points(candidates.size());
  Stopwatch wall;
  ParallelFor(
      0, static_cast<int>(kLanes),
      [&](int lane) {
        dsl::Image<float> out(kExtent, kExtent);
        runtime::BindingSet bindings;
        bindings.Input("Input", in).Output(out).Scalar("sigma_d", 3).Scalar(
            "sigma_r", 5);
        const sim::Simulator simulator(hw::TeslaC2050());
        for (std::size_t i = static_cast<std::size_t>(lane);
             i < candidates.size(); i += kLanes) {
          Result<runtime::LaunchHolder> holder = runtime::BuildLaunch(
              kernel.device_ir, candidates[i].config, bindings);
          HIPACC_CHECK(holder.ok());
          sim::Launch& launch = holder.value().launch;
          launch.programs = kernel.bytecode.get();
          const Result<sim::LaunchStats> stats =
              on_oracle ? oracle::Measure(simulator, launch, 1)
                        : simulator.Measure(launch, 1);
          if (stats.ok())
            points[i].stats = stats.value();
          else
            points[i].status = stats.status();
        }
      },
      kLanes);
  *wall_ms = wall.ElapsedMs();
  return points;
}

TEST(OracleParityTest, Fig4SweepMatchesTheOracleAndTheVmIsFaster) {
  const hw::DeviceSpec device = hw::TeslaC2050();
  dsl::Image<float> in(kExtent, kExtent);
  double vm_ms = 0.0, oracle_ms = 0.0;
  int measured = 0;
  for (const int ppt : {1, 2, 4, 8}) {
    SCOPED_TRACE(StrFormat("ppt %d", ppt));
    compiler::CompileOptions options;
    options.device = device;
    options.image_width = kExtent;
    options.image_height = kExtent;
    options.codegen.pixels_per_thread = ppt;
    Result<compiler::CompiledKernel> compiled = compiler::Compile(
        ops::BilateralMaskSource(3, ast::BoundaryMode::kClamp), options);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    const compiler::CompiledKernel& kernel = compiled.value();

    hw::HeuristicInput input;
    input.device = device;
    input.resources = kernel.resources;
    input.border_handling = kernel.device_ir.has_boundary_variants();
    input.window = kernel.device_ir.bh_window;
    input.image_width = kExtent;
    input.image_height = kExtent;
    const std::vector<hw::HeuristicChoice> candidates =
        hw::ExploreConfigs(input);
    ASSERT_FALSE(candidates.empty());

    double ms = 0.0;
    const std::vector<SweepPoint> vm =
        Sweep(kernel, candidates, in, /*on_oracle=*/false, &ms);
    vm_ms += ms;
    const std::vector<SweepPoint> ref =
        Sweep(kernel, candidates, in, /*on_oracle=*/true, &ms);
    oracle_ms += ms;

    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const hw::KernelConfig& config = candidates[i].config;
      SCOPED_TRACE(StrFormat("config %dx%d", config.block_x, config.block_y));
      ASSERT_EQ(vm[i].status.ToString(), ref[i].status.ToString());
      if (!vm[i].status.ok()) continue;  // pruned by the exploration too
      ++measured;
      const sim::LaunchStats& a = vm[i].stats;
      const sim::LaunchStats& b = ref[i].stats;
      EXPECT_EQ(a.region_grid.config, b.region_grid.config);
      EXPECT_EQ(a.occupancy.occupancy, b.occupancy.occupancy);
      EXPECT_EQ(a.region_grid.BorderThreads(), b.region_grid.BorderThreads());
      EXPECT_EQ(a.metrics.alu_ops, b.metrics.alu_ops);
      EXPECT_EQ(a.metrics.sfu_calls, b.metrics.sfu_calls);
      EXPECT_EQ(a.metrics.global_read_instrs, b.metrics.global_read_instrs);
      EXPECT_EQ(a.metrics.global_write_instrs, b.metrics.global_write_instrs);
      EXPECT_EQ(a.metrics.global_transactions, b.metrics.global_transactions);
      EXPECT_EQ(a.metrics.l1_hits, b.metrics.l1_hits);
      EXPECT_EQ(a.metrics.const_broadcasts, b.metrics.const_broadcasts);
      EXPECT_EQ(a.metrics.const_serialized, b.metrics.const_serialized);
      EXPECT_EQ(a.metrics.oob_violations, b.metrics.oob_violations);
      EXPECT_EQ(a.timing.total_ms, b.timing.total_ms);
    }
  }
  std::printf("%d configurations measured; sweep wall-clock: VM %.0f ms, "
              "oracle %.0f ms (%.2fx)\n",
              measured, vm_ms, oracle_ms, oracle_ms / vm_ms);
  EXPECT_GT(measured, 0);
  EXPECT_LT(vm_ms, oracle_ms);
}

}  // namespace
}  // namespace hipacc
