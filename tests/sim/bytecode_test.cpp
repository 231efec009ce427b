// Differential validation of the bytecode execution engine: for every
// example kernel, boundary mode, image extent, and memory-path variant, the
// bytecode VM must be observably indistinguishable from the AST
// interpreter — output pixels bit for bit, every metric counter, and the
// modelled time. Inputs are randomized with the repo's deterministic RNG
// (same generator discipline as the PR 1 boundary property sweeps), so a
// divergence reproduces byte-for-byte.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "compiler/driver.hpp"
#include "ops/kernel_sources.hpp"
#include "ops/masks.hpp"
#include "runtime/bindings.hpp"
#include "sim/bytecode.hpp"
#include "sim/jit/cache.hpp"
#include "sim/jit/toolchain.hpp"
#include "sim/simulator.hpp"
#include "support/rng.hpp"

namespace hipacc {
namespace {

using ast::BoundaryMode;

constexpr BoundaryMode kAllModes[] = {
    BoundaryMode::kUndefined, BoundaryMode::kClamp, BoundaryMode::kRepeat,
    BoundaryMode::kMirror, BoundaryMode::kConstant};

struct EngineRun {
  Status status = Status::Ok();
  std::vector<float> output;
  sim::LaunchStats stats;
};

HostImage<float> RandomInput(int w, int h, Rng& rng) {
  HostImage<float> img(w, h);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x)
      img(x, y) = 4.0f * rng.NextFloat() - 1.0f;  // includes negatives
  return img;
}

EngineRun RunEngine(const compiler::CompiledKernel& kernel,
                    const HostImage<float>& input,
                    const runtime::BindingSet& scalars,
                    sim::ExecEngine engine) {
  EngineRun run;
  dsl::Image<float> in(input.width(), input.height());
  dsl::Image<float> out(input.width(), input.height());
  in.CopyFrom(input);
  runtime::BindingSet bindings = scalars;
  bindings.Input("Input", in).Output(out);
  Result<runtime::LaunchHolder> holder =
      runtime::BuildLaunch(kernel.device_ir, kernel.config.config, bindings);
  if (!holder.ok()) {
    run.status = holder.status();
    return run;
  }
  holder.value().launch.programs = kernel.bytecode.get();
  sim::SimulatorOptions options;
  options.engine = engine;
  options.jit_threshold = 1;  // native runs tier up on the first launch
  sim::Simulator simulator(hw::TeslaC2050(), options);
  Result<sim::LaunchStats> stats =
      simulator.Execute(holder.value().launch);
  if (!stats.ok()) {
    run.status = stats.status();
    return run;
  }
  run.stats = stats.value();
  const HostImage<float>& data = out.getData();
  run.output.assign(data.data(), data.data() + data.size());
  return run;
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

/// Compiles `source` and runs the AST interpreter against `engine` on a
/// fresh randomized input; every observable — pixels (bitwise), metrics,
/// modelled time — must match. Failures (e.g. degenerate region grids at
/// tiny extents) must be identical on both engines too.
void ExpectEngineMatchesAst(const frontend::KernelSource& source, int w,
                            int h, const runtime::BindingSet& scalars,
                            Rng& rng, codegen::CodegenOptions codegen,
                            sim::ExecEngine engine) {
  compiler::CompileOptions options;
  options.codegen = codegen;
  options.device = hw::TeslaC2050();
  options.image_width = w;
  options.image_height = h;
  options.forced_config = hw::KernelConfig{32, 2};
  Result<compiler::CompiledKernel> compiled =
      compiler::Compile(source, options);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  ASSERT_NE(compiled.value().bytecode, nullptr)
      << "bytecode pass fell back for " << source.name;

  const HostImage<float> input = RandomInput(w, h, rng);
  const EngineRun ast = RunEngine(compiled.value(), input, scalars,
                                  sim::ExecEngine::kAst);
  const EngineRun vm = RunEngine(compiled.value(), input, scalars, engine);
  SCOPED_TRACE(source.name + " " + std::to_string(w) + "x" +
               std::to_string(h));
  ASSERT_EQ(ast.status.ok(), vm.status.ok())
      << "ast: " << ast.status.ToString()
      << " vm: " << vm.status.ToString();
  if (!ast.status.ok()) {
    EXPECT_EQ(ast.status.ToString(), vm.status.ToString());
    return;
  }
  ASSERT_EQ(ast.output.size(), vm.output.size());
  EXPECT_EQ(std::memcmp(ast.output.data(), vm.output.data(),
                        ast.output.size() * sizeof(float)),
            0)
      << "output pixels differ";
  ExpectMetricsEqual(ast.stats.metrics, vm.stats.metrics);
  EXPECT_EQ(ast.stats.timing.total_ms, vm.stats.timing.total_ms);
}

void ExpectEnginesAgree(const frontend::KernelSource& source, int w, int h,
                        const runtime::BindingSet& scalars, Rng& rng,
                        codegen::CodegenOptions codegen = {}) {
  ExpectEngineMatchesAst(source, w, h, scalars, rng, codegen,
                         sim::ExecEngine::kBytecode);
}

/// Same differential contract, but for the native tier: the jitted host
/// code (or the VM, for a kernel whose programs do not all fuse) must be
/// observably indistinguishable from the AST interpreter.
void ExpectNativeAgrees(const frontend::KernelSource& source, int w, int h,
                        const runtime::BindingSet& scalars, Rng& rng,
                        codegen::CodegenOptions codegen = {}) {
  ExpectEngineMatchesAst(source, w, h, scalars, rng, codegen,
                         sim::ExecEngine::kNative);
}

// The extents exercise: a single-block grid, a grid with populated border
// bands on a 32x2 configuration, and a larger multi-block interior.
constexpr struct { int w, h; } kExtents[] = {{33, 29}, {73, 41}, {129, 65}};

TEST(BytecodeDifferentialTest, GaussianAllModesAllExtents) {
  Rng rng(0xB0DA12u);
  for (const auto& e : kExtents)
    for (const BoundaryMode mode : kAllModes)
      ExpectEnginesAgree(ops::GaussianSource(5, 1.2f, mode, 0.25f), e.w, e.h,
                         {}, rng);
}

TEST(BytecodeDifferentialTest, SobelAllModesAllExtents) {
  Rng rng(0xB0DA12u);
  for (const auto& e : kExtents)
    for (const BoundaryMode mode : kAllModes)
      ExpectEnginesAgree(
          ops::ConvolutionSource("sobel", 3, 3, ops::SobelMaskX(), mode,
                                 -0.5f),
          e.w, e.h, {}, rng);
}

TEST(BytecodeDifferentialTest, BilateralAllModesAllExtents) {
  Rng rng(0xB0DA12u);
  runtime::BindingSet scalars;
  scalars.Scalar("sigma_d", 1).Scalar("sigma_r", 5);
  for (const auto& e : kExtents)
    for (const BoundaryMode mode : kAllModes) {
      // Both the mask-based (Listing 5) and the recompute-everything
      // (Listing 1) formulations; the latter exercises nested loops with
      // live accumulators and exp() in the inner loop.
      ExpectEnginesAgree(ops::BilateralMaskSource(1, mode), e.w, e.h,
                         scalars, rng);
      ExpectEnginesAgree(ops::BilateralSource(1, mode, 0.5f), e.w, e.h,
                         scalars, rng);
    }
}

TEST(BytecodeDifferentialTest, NonConvolutionOpsAllModes) {
  Rng rng(0xB0DA12u);
  for (const BoundaryMode mode : kAllModes) {
    ExpectEnginesAgree(ops::Median3x3Source(mode), 73, 41, {}, rng);
    ExpectEnginesAgree(ops::ErodeSource(3, mode), 73, 41, {}, rng);
    ExpectEnginesAgree(ops::DilateSource(3, mode), 73, 41, {}, rng);
  }
}

TEST(BytecodeDifferentialTest, PointOperators) {
  Rng rng(0xB0DA12u);
  runtime::BindingSet scale;
  scale.Scalar("scale", 3.0).Scalar("offset", -0.5);
  runtime::BindingSet threshold;
  threshold.Scalar("threshold", 0.5);
  for (const auto& e : kExtents) {
    ExpectEnginesAgree(ops::ScaleOffsetSource(), e.w, e.h, scale, rng);
    ExpectEnginesAgree(ops::ThresholdSource(), e.w, e.h, threshold, rng);
  }
}

TEST(BytecodeDifferentialTest, MemoryPathVariants) {
  Rng rng(0xB0DA12u);
  const frontend::KernelSource source =
      ops::GaussianSource(5, 1.0f, BoundaryMode::kMirror);
  codegen::CodegenOptions smem;
  smem.use_scratchpad = true;
  ExpectEnginesAgree(source, 73, 41, {}, rng, smem);

  codegen::CodegenOptions tex;
  tex.texture = codegen::TexturePolicy::kLinear;
  ExpectEnginesAgree(source, 73, 41, {}, rng, tex);

  codegen::CodegenOptions hwbh;
  hwbh.texture = codegen::TexturePolicy::kArray2D;
  ExpectEnginesAgree(ops::GaussianSource(5, 1.0f, BoundaryMode::kClamp), 73,
                     41, {}, rng, hwbh);

  codegen::CodegenOptions global_masks;
  global_masks.masks_in_constant_memory = false;
  ExpectEnginesAgree(source, 73, 41, {}, rng, global_masks);

  codegen::CodegenOptions uniform;
  uniform.border = codegen::BorderPolicy::kUniform;
  ExpectEnginesAgree(source, 73, 41, {}, rng, uniform);

  codegen::CodegenOptions opencl;
  opencl.backend = ast::Backend::kOpenCL;
  ExpectEnginesAgree(source, 73, 41, {}, rng, opencl);

  codegen::CodegenOptions unopt;
  unopt.scalar_optimizer = false;
  ExpectEnginesAgree(source, 73, 41, {}, rng, unopt);

  codegen::CodegenOptions intrinsics;
  intrinsics.use_fast_intrinsics = true;
  runtime::BindingSet scalars;
  scalars.Scalar("sigma_d", 1).Scalar("sigma_r", 5);
  ExpectEnginesAgree(ops::BilateralSource(1, BoundaryMode::kClamp), 73, 41,
                     scalars, rng, intrinsics);
}

TEST(BytecodeDifferentialTest, ConvolveUnrolledFormulation) {
  // Listing 9's convolve() syntax: fully unrolled taps with folded
  // coefficients — the heaviest constant-folding path in the compiler.
  Rng rng(0xB0DA12u);
  for (const BoundaryMode mode : kAllModes)
    ExpectEnginesAgree(ops::GaussianConvolveSource(3, 1.0f, mode, 1.0f), 73,
                       41, {}, rng);
}

// --- Native tier ---------------------------------------------------------
// The same differential contract, with the native tier as the engine under
// test. Each run tiers up on its first launch (threshold 1), so the
// generated host code — not the VM — produces the compared pixels whenever
// a toolchain is present and the kernel's programs fuse; kernels that do
// not fuse (the scalar-sigma bilateral's runtime-bounded loops) run on the
// VM and never reach the toolchain. Without a toolchain the engine must
// degrade to the VM and still agree, which is exactly what
// MissingToolchainStillAgrees pins down.

TEST(NativeDifferentialTest, GaussianAllModesAllExtents) {
  if (!sim::jit::ToolchainAvailable())
    GTEST_SKIP() << "no host toolchain in this environment";
  Rng rng(0x7A17B0u);
  for (const auto& e : kExtents)
    for (const BoundaryMode mode : kAllModes)
      ExpectNativeAgrees(ops::GaussianSource(5, 1.2f, mode, 0.25f), e.w,
                         e.h, {}, rng);
}

TEST(NativeDifferentialTest, SobelAndBilateralAllModes) {
  if (!sim::jit::ToolchainAvailable())
    GTEST_SKIP() << "no host toolchain in this environment";
  Rng rng(0x7A17B0u);
  runtime::BindingSet scalars;
  scalars.Scalar("sigma_d", 1).Scalar("sigma_r", 5);
  for (const BoundaryMode mode : kAllModes) {
    ExpectNativeAgrees(
        ops::ConvolutionSource("sobel", 3, 3, ops::SobelMaskX(), mode,
                               -0.5f),
        73, 41, {}, rng);
    ExpectNativeAgrees(ops::BilateralMaskSource(1, mode), 49, 27, scalars,
                       rng);
  }
}

TEST(NativeDifferentialTest, PixelsPerThreadMatrix) {
  if (!sim::jit::ToolchainAvailable())
    GTEST_SKIP() << "no host toolchain in this environment";
  // Host-compile time of the fused straight-line code scales with
  // taps x ppt, so the deterministic matrix sticks to a 3x3 stencil and a
  // point chain; wide-stencil ppt=8 coverage lives in the fuzz harness's
  // PptMatrixAgrees, which uses small random masks.
  Rng rng(0x7A17B0u);
  runtime::BindingSet tone;
  tone.Scalar("center", 0.4f).Scalar("weight", 0.7f);
  for (const int ppt : {1, 2, 4}) {
    codegen::CodegenOptions codegen;
    codegen.pixels_per_thread = ppt;
    SCOPED_TRACE("ppt=" + std::to_string(ppt));
    ExpectNativeAgrees(
        ops::ConvolutionSource("sobel", 3, 3, ops::SobelMaskX(),
                               BoundaryMode::kClamp, -0.5f),
        73, 41, {}, rng, codegen);
  }
  for (const int ppt : {2, 4, 8}) {
    codegen::CodegenOptions codegen;
    codegen.pixels_per_thread = ppt;
    SCOPED_TRACE("ppt=" + std::to_string(ppt));
    ExpectNativeAgrees(ops::ToneCurveSource(6), 73, 41, tone, rng, codegen);
  }
}

TEST(NativeDifferentialTest, BackendAndMemoryPathVariants) {
  if (!sim::jit::ToolchainAvailable())
    GTEST_SKIP() << "no host toolchain in this environment";
  Rng rng(0x7A17B0u);
  const frontend::KernelSource source =
      ops::GaussianSource(5, 1.0f, BoundaryMode::kMirror);

  codegen::CodegenOptions smem;
  smem.use_scratchpad = true;
  ExpectNativeAgrees(source, 73, 41, {}, rng, smem);

  codegen::CodegenOptions tex;
  tex.texture = codegen::TexturePolicy::kLinear;
  ExpectNativeAgrees(source, 73, 41, {}, rng, tex);

  codegen::CodegenOptions hwbh;
  hwbh.texture = codegen::TexturePolicy::kArray2D;
  ExpectNativeAgrees(ops::GaussianSource(5, 1.0f, BoundaryMode::kClamp), 73,
                     41, {}, rng, hwbh);

  codegen::CodegenOptions global_masks;
  global_masks.masks_in_constant_memory = false;
  ExpectNativeAgrees(source, 73, 41, {}, rng, global_masks);

  codegen::CodegenOptions uniform;
  uniform.border = codegen::BorderPolicy::kUniform;
  ExpectNativeAgrees(source, 73, 41, {}, rng, uniform);

  codegen::CodegenOptions opencl;
  opencl.backend = ast::Backend::kOpenCL;
  ExpectNativeAgrees(source, 73, 41, {}, rng, opencl);

  codegen::CodegenOptions unopt;
  unopt.scalar_optimizer = false;
  ExpectNativeAgrees(source, 73, 41, {}, rng, unopt);

  codegen::CodegenOptions intrinsics;
  intrinsics.use_fast_intrinsics = true;
  runtime::BindingSet scalars;
  scalars.Scalar("sigma_d", 1).Scalar("sigma_r", 5);
  ExpectNativeAgrees(ops::BilateralSource(1, BoundaryMode::kClamp), 73, 41,
                     scalars, rng, intrinsics);
}

TEST(NativeDifferentialTest, SpecialisedSourcesAllModes) {
  // The device-specialised sources added alongside the native tier:
  // compile-time window baking (bilateral_fixed) and the dispatch-bound
  // point chain (tone_curve). Both lower to fused straight-line native
  // code with live float arithmetic, so they anchor the emitter's
  // arithmetic paths the masked convolutions never reach.
  if (!sim::jit::ToolchainAvailable())
    GTEST_SKIP() << "no host toolchain in this environment";
  Rng rng(0x7A17B0u);
  runtime::BindingSet bilateral;
  bilateral.Scalar("sigma_r", 4);
  runtime::BindingSet tone;
  tone.Scalar("center", 0.4f).Scalar("weight", 0.7f);
  for (const BoundaryMode mode : kAllModes)
    ExpectNativeAgrees(ops::BilateralFixedSource(1, mode, 0.5f), 49, 27,
                       bilateral, rng);
  ExpectNativeAgrees(ops::ToneCurveSource(6), 73, 41, tone, rng);
  ExpectNativeAgrees(ops::ToneCurveSource(3), 33, 29, tone, rng);
}

TEST(NativeDifferentialTest, MissingToolchainStillAgrees) {
  // On a machine with no host compiler the native engine must silently
  // degrade to the VM and remain bit-identical to the AST
  // interpreter — same pixels, metrics, and modelled time.
  sim::jit::JitCache::Instance().ResetForTesting();
  sim::jit::SetToolchainOverrideForTesting("");
  EXPECT_FALSE(sim::jit::ToolchainAvailable());
  Rng rng(0x7A17B0u);
  ExpectNativeAgrees(ops::GaussianSource(5, 1.2f, BoundaryMode::kMirror),
                     73, 41, {}, rng);
  ExpectNativeAgrees(ops::Median3x3Source(BoundaryMode::kClamp), 33, 29, {},
                     rng);
  sim::jit::SetToolchainOverrideForTesting(nullptr);
  sim::jit::JitCache::Instance().ResetForTesting();
}

TEST(BytecodeCompilerTest, ProgramsAreRegionSpecialised) {
  compiler::CompileOptions options;
  options.image_width = 256;
  options.image_height = 256;
  Result<compiler::CompiledKernel> compiled = compiler::Compile(
      ops::GaussianSource(5, 1.0f, BoundaryMode::kMirror), options);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const auto& programs = compiled.value().bytecode;
  ASSERT_NE(programs, nullptr);
  // Region-specialised kernels get one program per border variant.
  EXPECT_EQ(programs->programs.size(),
            compiled.value().device_ir.variants.size());
  EXPECT_GT(programs->total_instructions, 0);
  for (const auto& program : programs->programs) {
    EXPECT_NE(programs->Find(program.region), nullptr);
    EXPECT_GT(program.code.size(), 0u);
    EXPECT_GT(program.num_regs, 0);
  }
}

}  // namespace
}  // namespace hipacc
