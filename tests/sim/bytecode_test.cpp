// Differential validation of the bytecode execution engine: for every
// example kernel, boundary mode, image extent, and memory-path variant, the
// bytecode VM must be observably indistinguishable from the reference
// oracle (a tree-walking interpreter over the device IR, tests/oracle) —
// output pixels bit for bit, every metric counter, and the modelled time.
// Inputs are randomized with the repo's deterministic RNG (same generator
// discipline as the boundary property sweeps), so a divergence reproduces
// byte-for-byte. Also: every shipped kernel compiles to bytecode, and a
// kernel past a program budget fails to compile with the budget named.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "compiler/driver.hpp"
#include "compiler/kernel_file.hpp"
#include "ops/isp.hpp"
#include "ops/kernel_sources.hpp"
#include "ops/masks.hpp"
#include "oracle/interpreter.hpp"
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

/// What runs the blocks of a launch: the oracle or one of the engines.
enum class Runner { kOracle, kBytecode, kNative };

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
                    const runtime::BindingSet& scalars, Runner runner) {
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
  if (runner == Runner::kNative) options.engine = sim::ExecEngine::kNative;
  sim::Simulator simulator(hw::TeslaC2050(), options);
  Result<sim::LaunchStats> stats =
      runner == Runner::kOracle
          ? oracle::Execute(simulator, holder.value().launch)
          : simulator.Execute(holder.value().launch);
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

/// Compiles `source` and runs the oracle against `runner` on a fresh
/// randomized input; every observable — pixels (bitwise), metrics, modelled
/// time — must match. Failures (e.g. degenerate region grids at tiny
/// extents) must be identical on both sides too.
void ExpectEngineMatchesOracle(const frontend::KernelSource& source, int w,
                               int h, const runtime::BindingSet& scalars,
                               Rng& rng, codegen::CodegenOptions codegen,
                               Runner runner) {
  compiler::CompileOptions options;
  options.codegen = codegen;
  options.device = hw::TeslaC2050();
  options.image_width = w;
  options.image_height = h;
  options.forced_config = hw::KernelConfig{32, 2};
  Result<compiler::CompiledKernel> compiled =
      compiler::Compile(source, options);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  ASSERT_NE(compiled.value().bytecode, nullptr);

  const HostImage<float> input = RandomInput(w, h, rng);
  const EngineRun ref =
      RunEngine(compiled.value(), input, scalars, Runner::kOracle);
  const EngineRun vm = RunEngine(compiled.value(), input, scalars, runner);
  SCOPED_TRACE(source.name + " " + std::to_string(w) + "x" +
               std::to_string(h));
  ASSERT_EQ(ref.status.ok(), vm.status.ok())
      << "oracle: " << ref.status.ToString()
      << " engine: " << vm.status.ToString();
  if (!ref.status.ok()) {
    EXPECT_EQ(ref.status.ToString(), vm.status.ToString());
    return;
  }
  ASSERT_EQ(ref.output.size(), vm.output.size());
  EXPECT_EQ(std::memcmp(ref.output.data(), vm.output.data(),
                        ref.output.size() * sizeof(float)),
            0)
      << "output pixels differ";
  ExpectMetricsEqual(ref.stats.metrics, vm.stats.metrics);
  EXPECT_EQ(ref.stats.timing.total_ms, vm.stats.timing.total_ms);
}

void ExpectEnginesAgree(const frontend::KernelSource& source, int w, int h,
                        const runtime::BindingSet& scalars, Rng& rng,
                        codegen::CodegenOptions codegen = {}) {
  ExpectEngineMatchesOracle(source, w, h, scalars, rng, codegen,
                            Runner::kBytecode);
}

/// Same differential contract, but for the native tier: the jitted host
/// code (or the VM, for a kernel whose programs do not all fuse) must be
/// observably indistinguishable from the oracle.
void ExpectNativeAgrees(const frontend::KernelSource& source, int w, int h,
                        const runtime::BindingSet& scalars, Rng& rng,
                        codegen::CodegenOptions codegen = {}) {
  ExpectEngineMatchesOracle(source, w, h, scalars, rng, codegen,
                            Runner::kNative);
}

/// A name redeclared with a new type in a sibling scope: the then-branch's
/// `t` is an int, the else-branch's a float. Each declaration gets its own
/// register; both branches read windowed neighbours, so boundary handling
/// runs in every region variant.
frontend::KernelSource SiblingTypesSource(BoundaryMode mode) {
  frontend::KernelSource source;
  source.name = "sibling_types";
  ast::AccessorInfo input;
  input.name = "Input";
  input.window = ast::WindowExtent::FromSize(3, 3);
  input.boundary = mode;
  input.constant_value = 0.25f;
  source.accessors = {input};
  source.body = R"(
    float r = Input();
    if (r > 0.6f) {
      int t = 2;
      r = r + t * Input(-1, 1);
    } else {
      float t = 0.5f;
      r = r + t * Input(1, -1);
    }
    output() = r;
  )";
  return source;
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

  runtime::BindingSet scalars;
  scalars.Scalar("sigma_d", 1).Scalar("sigma_r", 5);
  ExpectEnginesAgree(ops::BilateralSource(1, BoundaryMode::kClamp), 73, 41,
                     scalars, rng);
}

TEST(BytecodeDifferentialTest, SiblingScopeRedeclarationAllModes) {
  Rng rng(0xB0DA12u);
  for (const auto& e : kExtents)
    for (const BoundaryMode mode : kAllModes)
      ExpectEnginesAgree(SiblingTypesSource(mode), e.w, e.h, {}, rng);
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
// test. A set compiles on its first native launch, so the generated host
// code — not the VM — produces the compared pixels whenever a toolchain is
// present and the kernel's programs fuse; kernels that do not fuse (the
// scalar-sigma bilateral's runtime-bounded loops) run on the VM and never
// reach the toolchain. Without a toolchain the engine must
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

  runtime::BindingSet scalars;
  scalars.Scalar("sigma_d", 1).Scalar("sigma_r", 5);
  ExpectNativeAgrees(ops::BilateralSource(1, BoundaryMode::kClamp), 73, 41,
                     scalars, rng);
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

TEST(NativeDifferentialTest, SiblingScopeRedeclaration) {
  if (!sim::jit::ToolchainAvailable())
    GTEST_SKIP() << "no host toolchain in this environment";
  Rng rng(0x7A17B0u);
  ExpectNativeAgrees(SiblingTypesSource(BoundaryMode::kMirror), 73, 41, {},
                     rng);
}

TEST(NativeDifferentialTest, MissingToolchainStillAgrees) {
  // On a machine with no host compiler the native engine must silently
  // degrade to the VM and remain bit-identical to the oracle — same
  // pixels, metrics, and modelled time.
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

TEST(BytecodeCompilerTest, ShippedCorpusCarriesBytecode) {
  // Every kernel the repository ships compiles to register programs: the
  // ops sources in all five boundary modes, the camera-ISP stages and the
  // example kernel files. There is no engine that runs a kernel without
  // them.
  std::vector<frontend::KernelSource> corpus;
  for (const BoundaryMode mode : kAllModes) {
    corpus.push_back(ops::BilateralSource(2, mode));
    corpus.push_back(ops::BilateralMaskSource(3, mode));
    corpus.push_back(ops::BilateralMaskSource(2, mode, /*static_mask=*/false));
    corpus.push_back(ops::BilateralFixedSource(2, mode));
    corpus.push_back(ops::GaussianSource(5, 1.2f, mode));
    corpus.push_back(ops::GaussianConvolveSource(5, 1.2f, mode));
    corpus.push_back(ops::ConvolutionSource("sobel", 3, 3, ops::SobelMaskX(),
                                            mode));
    corpus.push_back(ops::Median3x3Source(mode));
    corpus.push_back(ops::ErodeSource(3, mode));
    corpus.push_back(ops::DilateSource(3, mode));
    for (const char plane : {'r', 'g', 'b'})
      corpus.push_back(ops::DebayerPlaneSource(plane, mode));
  }
  corpus.push_back(ops::ScaleOffsetSource());
  corpus.push_back(ops::ThresholdSource());
  corpus.push_back(ops::ToneCurveSource(8));
  corpus.push_back(ops::PyramidDetailSource());
  corpus.push_back(ops::PyramidCollectSource());
  corpus.push_back(ops::VignettingApplySource());
  for (const char* matrix : {"rgb2y", "rgb2u", "rgb2v"})
    corpus.push_back(ops::ColorMatrixSource(matrix));
  for (const char* file : {"bilateral.hipacc", "laplacian.hipacc"}) {
    Result<frontend::KernelSource> loaded = compiler::LoadKernelFile(
        std::string(HIPACC_EXAMPLE_KERNELS_DIR) + "/" + file);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    corpus.push_back(std::move(loaded).take());
  }

  compiler::CompileOptions options;
  options.device = hw::TeslaC2050();
  options.image_width = 512;
  options.image_height = 512;
  for (const frontend::KernelSource& source : corpus) {
    SCOPED_TRACE(source.name);
    Result<compiler::CompiledKernel> compiled =
        compiler::Compile(source, options);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    ASSERT_NE(compiled.value().bytecode, nullptr);
    EXPECT_EQ(compiled.value().bytecode->programs.size(),
              compiled.value().device_ir.variants.size());
  }
}

/// `depth` nested divergent ifs around one update; each level holds two
/// mask slots while its body compiles.
frontend::KernelSource NestedIfSource(int depth) {
  frontend::KernelSource source;
  source.name = "nested_ifs";
  ast::AccessorInfo input;
  input.name = "Input";
  input.window = ast::WindowExtent::FromSize(1, 1);
  source.accessors = {input};
  source.body = "float v = Input();\n";
  for (int i = 0; i < depth; ++i) source.body += "if (v > 0.5f) {\n";
  source.body += "v = v + 1.0f;\n";
  for (int i = 0; i < depth; ++i) source.body += "}\n";
  source.body += "output() = v;\n";
  return source;
}

TEST(BytecodeCompilerTest, ControlFlowPastTheMaskBudgetFailsToCompile) {
  // Slot 0 is the warp mask, so 124 nested ifs fit the 250-slot budget and
  // 125 do not. The kernel past it is a compile error naming the budget,
  // not a kernel that runs on another engine.
  compiler::CompileOptions options;
  options.device = hw::TeslaC2050();
  options.image_width = 64;
  options.image_height = 64;
  Result<compiler::CompiledKernel> fits =
      compiler::Compile(NestedIfSource(124), options);
  ASSERT_TRUE(fits.ok()) << fits.status().ToString();
  ASSERT_NE(fits.value().bytecode, nullptr);

  const Result<compiler::CompiledKernel> deep =
      compiler::Compile(NestedIfSource(125), options);
  ASSERT_FALSE(deep.ok());
  EXPECT_EQ(deep.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(deep.status().message().find("kMaxMaskSlots"), std::string::npos)
      << deep.status().ToString();
  EXPECT_NE(deep.status().message().find("nested_ifs"), std::string::npos)
      << deep.status().ToString();
}

// ---- The observed slice (sim::MarkObserved) --------------------------------

/// A hand-assembled instruction: `op` writing `dst` from `a` and `b`.
sim::Insn Make(sim::Op op, std::uint16_t dst = 0, std::uint16_t a = 0,
               std::uint16_t b = 0) {
  sim::Insn i;
  i.op = op;
  i.dst = dst;
  i.a = a;
  i.b = b;
  return i;
}

sim::Insn Const(std::uint16_t dst, double value) {
  sim::Insn i = Make(sim::Op::kConst, dst);
  i.type = ast::ScalarType::kInt;
  i.imm = value;
  return i;
}

/// A global-memory read at (`cx`, `cy`) into `dst`, under mask slot `mask`.
sim::Insn Load(std::uint16_t dst, sim::Coord cx, sim::Coord cy,
               std::uint16_t mask = 0) {
  sim::Insn i = Make(sim::Op::kLoadImage, dst);
  i.cx = cx;
  i.cy = cy;
  i.mask = mask;
  i.buffer = 0;
  return i;
}

sim::Insn Store(std::uint16_t value) {
  sim::Insn i = Make(sim::Op::kStore, 0, value);
  i.cx = sim::Coord{sim::CoordKind::kGidX, 0, 0};
  i.cy = sim::Coord{sim::CoordKind::kGidY, 0, 0};
  i.buffer = 1;
  return i;
}

sim::Coord Reg(std::uint16_t reg) { return {sim::CoordKind::kReg, reg, 0}; }

sim::Program Marked(std::vector<sim::Insn> code, int num_regs,
                    int num_masks) {
  sim::Program prog;
  prog.code = std::move(code);
  prog.num_regs = num_regs;
  prog.num_masks = num_masks;
  sim::MarkObserved(&prog);
  return prog;
}

TEST(ObservedSliceTest, MaskedAssignDoesNotKill) {
  // r1 is -4 in every lane, then 4 in the lanes of mask 1; the load reads
  // both values, so the full kConst stays observed. Kernel-level parity
  // cannot catch a pass that lets kAssign kill: a compiled then-block sits
  // behind a kJumpIfNone whose skip path keeps the variable live.
  const sim::Program prog = Marked(
      {
          Make(sim::Op::kThreadIdx, 0),                  // 0: r0 = gid_x
          Make(sim::Op::kMaskIf, 1, 0, 2),               // 1: split by r0
          Const(1, -4),                                  // 2: r1 = -4
          Const(2, 4),                                   // 3: r2 = 4
          [] {                                           // 4: r1 = r2 (mask 1)
            sim::Insn i = Make(sim::Op::kAssign, 1, 2);
            i.type = ast::ScalarType::kInt;
            i.mask = 1;
            return i;
          }(),
          Load(3, Reg(1), {sim::CoordKind::kGidY, 0, 0}),  // 5
          Store(3),                                      // 6
      },
      4, 3);
  EXPECT_TRUE(prog.code[0].observed);
  EXPECT_TRUE(prog.code[2].observed) << "the masked assign killed r1";
  EXPECT_TRUE(prog.code[3].observed);
  EXPECT_TRUE(prog.code[4].observed);
}

TEST(ObservedSliceTest, BackEdgeKeepsTheCoordinateUpdateObserved) {
  // for (i = 0; i <= 4; i++) { v = Input(off, 0); off = off + 2; }: the
  // update reaches the load only through kLoopInc's back edge.
  sim::Insn head = Make(sim::Op::kLoopHead, 1, 3, 1);  // mask 1, r3 <= r1
  head.jump = 10;
  sim::Insn inc = Make(sim::Op::kLoopInc, 3);
  inc.mask = 1;
  inc.imm = 1.0;
  inc.jump = 4;
  sim::Insn update = Make(sim::Op::kAssign, 2, 6);  // off = r6 (mask 1)
  update.type = ast::ScalarType::kInt;
  update.mask = 1;
  sim::Insn add = Make(sim::Op::kBinary, 6, 2, 5);  // r6 = off + r5
  add.type = ast::ScalarType::kInt;
  add.sub = static_cast<std::uint8_t>(ast::BinaryOp::kAdd);
  const sim::Program prog = Marked(
      {
          Const(0, 0),                               // 0: lo
          Const(1, 4),                               // 1: hi
          Const(2, -4),                              // 2: off = -4
          Make(sim::Op::kLoopInit, 3, 0),            // 3: i = lo
          head,                                      // 4
          Load(4, Reg(2), {sim::CoordKind::kImm, 0, 0}, 1),  // 5
          Const(5, 2),                               // 6
          add,                                       // 7
          update,                                    // 8
          inc,                                       // 9: back to 4
          Store(4),                                  // 10
      },
      7, 2);
  for (std::size_t pc = 0; pc < prog.code.size(); ++pc)
    EXPECT_TRUE(prog.code[pc].observed) << "pc " << pc;
}

TEST(ObservedSliceTest, OnlyAddressesMasksAndLoopBoundsAreRoots) {
  sim::Insn exp = Make(sim::Op::kCall, 7, 0);  // r7 = exp(r0)
  exp.sub = static_cast<std::uint8_t>(sim::VmBuiltin::kExp);
  sim::Insn mul = Make(sim::Op::kBinary, 8, 7, 5);  // r8 = r7 * r5
  mul.sub = static_cast<std::uint8_t>(ast::BinaryOp::kMul);
  sim::Insn head = Make(sim::Op::kLoopHead, 3, 6, 2);  // mask 3, r6 <= r2
  head.jump = 12;
  sim::Insn inc = Make(sim::Op::kLoopInc, 6);
  inc.mask = 3;
  inc.imm = 1.0;
  inc.jump = 10;
  const sim::Program prog = Marked(
      {
          Const(0, 1.5),                                  // 0
          Const(1, 1),                                    // 1
          Const(2, 3),                                    // 2
          Const(3, 0),                                    // 3
          Const(4, 7),                                    // 4
          Make(sim::Op::kMaskIf, 1, 1, 2),                // 5: by r1
          Load(5, Reg(4), {sim::CoordKind::kImm, 0, 0}),  // 6: at (r4, 0)
          exp,                                            // 7
          mul,                                            // 8
          Make(sim::Op::kLoopInit, 6, 3),                 // 9: r6 = r3
          head,                                           // 10
          inc,                                            // 11: back to 10
          Store(8),                                       // 12
      },
      9, 4);
  EXPECT_FALSE(prog.code[0].observed) << "reaches only a stored value";
  EXPECT_TRUE(prog.code[1].observed) << "a kMaskIf condition";
  EXPECT_TRUE(prog.code[2].observed) << "a kLoopHead bound";
  EXPECT_TRUE(prog.code[3].observed) << "a kLoopInit source";
  EXPECT_TRUE(prog.code[4].observed) << "a kReg coordinate";
  EXPECT_FALSE(prog.code[7].observed);
  EXPECT_FALSE(prog.code[8].observed);
  for (const std::size_t pc : {5u, 6u, 9u, 10u, 11u, 12u})
    EXPECT_TRUE(prog.code[pc].observed) << "pc " << pc;
}

/// The last instruction before `pc` in program order that writes `reg`.
const sim::Insn* LastWriter(const sim::Program& prog, std::size_t pc,
                            std::uint16_t reg) {
  while (pc-- > 0) {
    const sim::Insn& I = prog.code[pc];
    if (I.op != sim::Op::kStore && I.op != sim::Op::kMaskIf &&
        I.op != sim::Op::kLoopHead && I.op != sim::Op::kJumpIfNone &&
        I.op != sim::Op::kBarrier && I.op != sim::Op::kAccount &&
        I.dst == reg)
      return &I;
  }
  return nullptr;
}

TEST(ObservedSliceTest, CompiledBilateralObservesItsCoordinatesOnly) {
  // Listing 1 with a runtime sigma_d: the window loops stay loops, so
  // Input(xf, yf) reads register coordinates gid + xf and gid + yf. Every
  // exp weights a value that reaches only the stored pixel.
  compiler::CompileOptions options;
  options.device = hw::TeslaC2050();
  options.image_width = 256;
  options.image_height = 256;
  Result<compiler::CompiledKernel> compiled = compiler::Compile(
      ops::BilateralSource(2, BoundaryMode::kClamp), options);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const sim::Program* prog =
      compiled.value().bytecode->Find(ast::Region::kInterior);
  ASSERT_NE(prog, nullptr);

  int exps = 0;
  int reg_loads = 0;
  for (std::size_t pc = 0; pc < prog->code.size(); ++pc) {
    const sim::Insn& I = prog->code[pc];
    if (I.op == sim::Op::kCall &&
        static_cast<sim::VmBuiltin>(I.sub) == sim::VmBuiltin::kExp) {
      ++exps;
      EXPECT_FALSE(I.observed) << "exp at pc " << pc;
    }
    if (I.op != sim::Op::kLoadImage) continue;
    for (const sim::Coord& c : {I.cx, I.cy}) {
      if (c.kind != sim::CoordKind::kReg) continue;
      ++reg_loads;
      // gid + offset: a kBinary over a kThreadIdx, all of it observed.
      const sim::Insn* sum = LastWriter(*prog, pc, c.reg);
      ASSERT_NE(sum, nullptr) << "pc " << pc;
      EXPECT_EQ(sum->op, sim::Op::kBinary) << "pc " << pc;
      EXPECT_TRUE(sum->observed) << "pc " << pc;
      const std::size_t at = static_cast<std::size_t>(sum - prog->code.data());
      bool from_index = false;
      for (const std::uint16_t operand : {sum->a, sum->b}) {
        const sim::Insn* w = LastWriter(*prog, at, operand);
        if (w && w->op == sim::Op::kThreadIdx) {
          from_index = true;
          EXPECT_TRUE(w->observed) << "pc " << pc;
        }
      }
      EXPECT_TRUE(from_index) << "pc " << pc;
    }
  }
  EXPECT_EQ(exps, 3);
  EXPECT_GE(reg_loads, 2);
}

TEST(OracleParityTest, MeasureMatchesTheOracleOnFig4Configurations) {
  // The Figure 4 kernel (13x13 bilateral, constant mask, Clamp) at 256x256
  // on a few configurations, including 512-thread blocks and PPT 8: the
  // sampled measurement on the VM must equal the oracle's — occupancy,
  // border threads, every metric counter and the modelled time. The full
  // 4096x4096 sweep runs in the oracle_parity_test binary.
  const int n = 256;
  const hw::DeviceSpec device = hw::TeslaC2050();
  dsl::Image<float> in(n, n), out(n, n);
  Rng rng(0xF164u);
  in.CopyFrom(RandomInput(n, n, rng));
  runtime::BindingSet bindings;
  bindings.Input("Input", in).Output(out).Scalar("sigma_d", 3).Scalar(
      "sigma_r", 5);
  int measured_512_ppt8 = 0;
  for (const int ppt : {1, 8}) {
    compiler::CompileOptions options;
    options.device = device;
    options.image_width = n;
    options.image_height = n;
    options.codegen.pixels_per_thread = ppt;
    Result<compiler::CompiledKernel> compiled = compiler::Compile(
        ops::BilateralMaskSource(3, BoundaryMode::kClamp), options);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    for (const hw::KernelConfig config :
         {hw::KernelConfig{32, 4}, hw::KernelConfig{128, 4},
          hw::KernelConfig{32, 16}}) {
      SCOPED_TRACE("ppt " + std::to_string(ppt) + " config " +
                   std::to_string(config.block_x) + "x" +
                   std::to_string(config.block_y));
      Result<runtime::LaunchHolder> holder = runtime::BuildLaunch(
          compiled.value().device_ir, config, bindings);
      ASSERT_TRUE(holder.ok()) << holder.status().ToString();
      holder.value().launch.programs = compiled.value().bytecode.get();
      const sim::Simulator simulator(device);
      const Result<sim::LaunchStats> vm =
          simulator.Measure(holder.value().launch, 1);
      const Result<sim::LaunchStats> ref =
          oracle::Measure(simulator, holder.value().launch, 1);
      ASSERT_TRUE(vm.ok()) << vm.status().ToString();
      ASSERT_TRUE(ref.ok()) << ref.status().ToString();
      EXPECT_EQ(vm.value().region_grid.config, ref.value().region_grid.config);
      EXPECT_EQ(vm.value().occupancy.occupancy,
                ref.value().occupancy.occupancy);
      EXPECT_EQ(vm.value().region_grid.BorderThreads(),
                ref.value().region_grid.BorderThreads());
      ExpectMetricsEqual(vm.value().metrics, ref.value().metrics);
      EXPECT_EQ(vm.value().timing.total_ms, ref.value().timing.total_ms);
      if (ppt == 8 && config.threads() >= 512) ++measured_512_ppt8;
    }
  }
  EXPECT_EQ(measured_512_ppt8, 2);
}

}  // namespace
}  // namespace hipacc
