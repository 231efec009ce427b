// Measure computes only what the model observes: the VM's model-only walk
// skips the value instructions no address, mask or loop bound reads
// (sim::MarkObserved) and writes no pixel. These kernels are the cases where
// values do steer the model — a loop-carried coordinate under a runtime
// bound, a data-dependent branch, a data-dependent address and a coordinate
// set under a mask. Each is swept over every valid configuration at 512x512
// on Tesla C2050 / CUDA and Radeon HD 5870 / OpenCL, and at every point the
// VM's Measure must equal the oracle's (which computes every value): every
// metric counter and the modelled time. A sentinel-filled output must come
// back byte-identical from every VM Measure.
//
// The kernels stay inline: files under examples/kernels/ are a benchmark
// workload.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "compiler/driver.hpp"
#include "hwmodel/device_db.hpp"
#include "hwmodel/heuristic.hpp"
#include "oracle/interpreter.hpp"
#include "runtime/bindings.hpp"
#include "sim/simulator.hpp"
#include "support/rng.hpp"

namespace hipacc {
namespace {

using ast::BoundaryMode;

constexpr int kSize = 512;
constexpr float kSentinel = -7.25f;

frontend::KernelSource Source(const std::string& name, int window,
                              BoundaryMode mode, const std::string& body) {
  frontend::KernelSource source;
  source.name = name;
  ast::AccessorInfo input;
  input.name = "Input";
  input.window = ast::WindowExtent::FromSize(window, window);
  input.boundary = mode;
  source.accessors = {input};
  source.body = body;
  return source;
}

void ExpectMetricsEqual(const sim::Metrics& a, const sim::Metrics& b) {
  EXPECT_EQ(a.alu_ops, b.alu_ops);
  EXPECT_EQ(a.sfu_calls, b.sfu_calls);
  EXPECT_EQ(a.global_read_instrs, b.global_read_instrs);
  EXPECT_EQ(a.global_write_instrs, b.global_write_instrs);
  EXPECT_EQ(a.global_transactions, b.global_transactions);
  EXPECT_EQ(a.l1_hits, b.l1_hits);
  EXPECT_EQ(a.tex_read_instrs, b.tex_read_instrs);
  EXPECT_EQ(a.tex_hits, b.tex_hits);
  EXPECT_EQ(a.tex_transactions, b.tex_transactions);
  EXPECT_EQ(a.const_broadcasts, b.const_broadcasts);
  EXPECT_EQ(a.const_serialized, b.const_serialized);
  EXPECT_EQ(a.smem_accesses, b.smem_accesses);
  EXPECT_EQ(a.smem_conflict_cycles, b.smem_conflict_cycles);
  EXPECT_EQ(a.oob_violations, b.oob_violations);
}

/// Sweeps `source` over every valid configuration of each target and holds
/// the VM's Measure to the oracle's at every point.
void ExpectSweepMatchesOracle(const frontend::KernelSource& source,
                              const runtime::BindingSet& scalars) {
  const struct {
    hw::DeviceSpec device;
    ast::Backend backend;
  } targets[] = {{hw::TeslaC2050(), ast::Backend::kCuda},
                 {hw::RadeonHd5870(), ast::Backend::kOpenCL}};

  dsl::Image<float> in(kSize, kSize);
  Rng rng(0x51CEu);
  HostImage<float> noise(kSize, kSize);
  for (int y = 0; y < kSize; ++y)
    for (int x = 0; x < kSize; ++x) noise(x, y) = rng.NextFloat();
  in.CopyFrom(noise);
  const HostImage<float> sentinel(kSize, kSize, kSentinel);
  dsl::Image<float> vm_out(kSize, kSize), ref_out(kSize, kSize);
  vm_out.CopyFrom(sentinel);
  runtime::BindingSet vm_bindings = scalars;
  vm_bindings.Input("Input", in).Output(vm_out);
  runtime::BindingSet ref_bindings = scalars;
  ref_bindings.Input("Input", in).Output(ref_out);

  for (const auto& target : targets) {
    compiler::CompileOptions options;
    options.device = target.device;
    options.codegen.backend = target.backend;
    options.image_width = kSize;
    options.image_height = kSize;
    Result<compiler::CompiledKernel> compiled =
        compiler::Compile(source, options);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    const compiler::CompiledKernel& kernel = compiled.value();

    hw::HeuristicInput input;
    input.device = target.device;
    input.resources = kernel.resources;
    input.border_handling = kernel.device_ir.has_boundary_variants();
    input.window = kernel.device_ir.bh_window;
    input.image_width = kSize;
    input.image_height = kSize;
    const sim::Simulator simulator(target.device);
    int measured = 0;
    for (const hw::HeuristicChoice& choice : hw::ExploreConfigs(input)) {
      SCOPED_TRACE(source.name + " on " + target.device.name + " at " +
                   std::to_string(choice.config.block_x) + "x" +
                   std::to_string(choice.config.block_y));
      Result<runtime::LaunchHolder> vm_launch =
          runtime::BuildLaunch(kernel.device_ir, choice.config, vm_bindings);
      Result<runtime::LaunchHolder> ref_launch =
          runtime::BuildLaunch(kernel.device_ir, choice.config, ref_bindings);
      ASSERT_TRUE(vm_launch.ok()) << vm_launch.status().ToString();
      ASSERT_TRUE(ref_launch.ok()) << ref_launch.status().ToString();
      vm_launch.value().launch.programs = kernel.bytecode.get();
      ref_launch.value().launch.programs = kernel.bytecode.get();

      const Result<sim::LaunchStats> vm =
          simulator.Measure(vm_launch.value().launch, 1);
      const Result<sim::LaunchStats> ref =
          oracle::Measure(simulator, ref_launch.value().launch, 1);
      ASSERT_EQ(vm.ok(), ref.ok())
          << "vm: " << vm.status().ToString()
          << " oracle: " << ref.status().ToString();
      const HostImage<float> after = vm_out.getData();
      EXPECT_EQ(std::memcmp(after.data(), sentinel.data(),
                            sentinel.size() * sizeof(float)),
                0)
          << "the VM's Measure wrote an output pixel";
      if (!vm.ok()) {
        EXPECT_EQ(vm.status().ToString(), ref.status().ToString());
        continue;
      }
      ExpectMetricsEqual(vm.value().metrics, ref.value().metrics);
      EXPECT_EQ(vm.value().timing.total_ms, ref.value().timing.total_ms);
      ++measured;
    }
    EXPECT_GT(measured, 10) << target.device.name;
  }
}

TEST(MeasureSliceTest, LoopCarriedCoordinateWithRuntimeBound) {
  frontend::KernelSource source =
      Source("loop_carried", 9, BoundaryMode::kClamp, R"(
    float s = 0.0f;
    int off = -4;
    for (int i = 0; i < n; i++) {
      s += Input(off, 0);
      off = off + 2;
    }
    output() = s;
  )");
  source.params = {{"n", ast::ScalarType::kInt}};
  runtime::BindingSet scalars;
  scalars.Scalar("n", 5);
  ExpectSweepMatchesOracle(source, scalars);
}

TEST(MeasureSliceTest, DataDependentBranch) {
  ExpectSweepMatchesOracle(Source("data_branch", 3, BoundaryMode::kClamp, R"(
    float v = Input();
    if (v > 0.5f) {
      output() = Input(1, 0) + Input(0, 1);
    } else {
      output() = v;
    }
  )"),
                           {});
}

TEST(MeasureSliceTest, DataDependentAddress) {
  ExpectSweepMatchesOracle(Source("data_address", 5, BoundaryMode::kClamp, R"(
    int k = (int)(Input() * 4.0f) - 2;
    output() = Input(k, 0);
  )"),
                           {});
}

TEST(MeasureSliceTest, CoordinateSetUnderAMask) {
  ExpectSweepMatchesOracle(Source("masked_coord", 9, BoundaryMode::kMirror, R"(
    int dx = -4;
    if (Input() > 0.5f) {
      dx = 4;
    }
    output() = Input(dx, 0);
  )"),
                           {});
}

}  // namespace
}  // namespace hipacc
