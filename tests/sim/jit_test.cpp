// Native-tier behaviour tests: compiling on the first native launch, the
// all-or-nothing move of a program set to native code, a launch refused by
// the binding check before any block runs, the process-wide module cache
// (including concurrent exploration lanes sharing one compile), and
// graceful degradation to the VM when the host toolchain is missing or
// broken. Output parity across the whole kernel matrix lives in
// bytecode_test.cpp and differential_fuzz_test.cpp; here the subject is the
// tiering machinery itself.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <optional>
#include <thread>
#include <vector>

#include "compiler/driver.hpp"
#include "ops/kernel_sources.hpp"
#include "ops/masks.hpp"
#include "runtime/bindings.hpp"
#include "sim/jit/cache.hpp"
#include "sim/jit/emit.hpp"
#include "sim/jit/toolchain.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "support/disk_store.hpp"
#include "support/rng.hpp"

namespace hipacc {
namespace {

using ast::BoundaryMode;

/// Restores the real toolchain when a test that overrides it exits (also
/// on assertion failure, so one test cannot poison the rest).
struct ToolchainGuard {
  explicit ToolchainGuard(const char* override_cmd) {
    sim::jit::SetToolchainOverrideForTesting(override_cmd);
  }
  ~ToolchainGuard() { sim::jit::SetToolchainOverrideForTesting(nullptr); }
};

HostImage<float> RandomInput(int w, int h, Rng& rng) {
  HostImage<float> img(w, h);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) img(x, y) = 4.0f * rng.NextFloat() - 1.0f;
  return img;
}

compiler::CompiledKernel CompileGaussian(int w, int h) {
  compiler::CompileOptions options;
  options.device = hw::TeslaC2050();
  options.image_width = w;
  options.image_height = h;
  options.forced_config = hw::KernelConfig{32, 2};
  Result<compiler::CompiledKernel> compiled = compiler::Compile(
      ops::GaussianSource(5, 1.2f, BoundaryMode::kMirror), options);
  HIPACC_CHECK(compiled.ok());
  HIPACC_CHECK(compiled.value().bytecode != nullptr);
  return std::move(compiled).take();
}

/// The scalar-sigma bilateral: its runtime-bounded loops fuse in none of
/// its region programs.
compiler::CompiledKernel CompileBilateral(int w, int h) {
  compiler::CompileOptions options;
  options.device = hw::TeslaC2050();
  options.image_width = w;
  options.image_height = h;
  options.forced_config = hw::KernelConfig{32, 2};
  Result<compiler::CompiledKernel> compiled = compiler::Compile(
      ops::BilateralMaskSource(1, BoundaryMode::kClamp), options);
  HIPACC_CHECK(compiled.ok());
  HIPACC_CHECK(compiled.value().bytecode != nullptr);
  return std::move(compiled).take();
}

runtime::BindingSet BilateralScalars() {
  runtime::BindingSet scalars;
  scalars.Scalar("sigma_d", 1).Scalar("sigma_r", 5);
  return scalars;
}

struct RunResult {
  Status status = Status::Ok();
  std::vector<float> output;
  sim::LaunchStats stats;
};

/// One Execute through a fresh launch of `kernel` on `input`, with
/// `bindings` supplying the scalars. The tier state lives in
/// kernel.bytecode, so repeated calls with the same kernel exercise the
/// tiering counters. `read_only_output` binds every buffer read-only, which
/// Simulator::Validate refuses.
RunResult RunOnce(const compiler::CompiledKernel& kernel,
                  const HostImage<float>& input,
                  const sim::SimulatorOptions& options,
                  sim::TraceSink* trace = nullptr,
                  runtime::BindingSet bindings = {},
                  bool read_only_output = false) {
  RunResult run;
  dsl::Image<float> in(input.width(), input.height());
  dsl::Image<float> out(input.width(), input.height());
  in.CopyFrom(input);
  bindings.Input("Input", in).Output(out);
  Result<runtime::LaunchHolder> holder =
      runtime::BuildLaunch(kernel.device_ir, kernel.config.config, bindings);
  HIPACC_CHECK(holder.ok());
  holder.value().launch.programs = kernel.bytecode.get();
  if (read_only_output)
    for (sim::BufferBinding& buf : holder.value().launch.buffers)
      buf.writable = false;
  sim::Simulator simulator(hw::TeslaC2050(), options);
  if (trace) simulator.set_trace(trace);
  Result<sim::LaunchStats> stats = simulator.Execute(holder.value().launch);
  if (!stats.ok()) {
    run.status = stats.status();
    return run;
  }
  run.stats = stats.value();
  const HostImage<float>& data = out.getData();
  run.output.assign(data.data(), data.data() + data.size());
  return run;
}

sim::SimulatorOptions NativeOptions() {
  sim::SimulatorOptions options;
  options.engine = sim::ExecEngine::kNative;
  return options;
}

void ExpectSameOutput(const RunResult& a, const RunResult& b) {
  ASSERT_TRUE(a.status.ok()) << a.status.ToString();
  ASSERT_TRUE(b.status.ok()) << b.status.ToString();
  ASSERT_EQ(a.output.size(), b.output.size());
  EXPECT_EQ(std::memcmp(a.output.data(), b.output.data(),
                        a.output.size() * sizeof(float)),
            0)
      << "output pixels differ";
  const sim::Metrics& ma = a.stats.metrics;
  const sim::Metrics& mb = b.stats.metrics;
  EXPECT_EQ(ma.alu_ops, mb.alu_ops);
  EXPECT_EQ(ma.sfu_calls, mb.sfu_calls);
  EXPECT_EQ(ma.global_read_instrs, mb.global_read_instrs);
  EXPECT_EQ(ma.global_write_instrs, mb.global_write_instrs);
  EXPECT_EQ(ma.global_transactions, mb.global_transactions);
  EXPECT_EQ(ma.l1_hits, mb.l1_hits);
  EXPECT_EQ(ma.tex_read_instrs, mb.tex_read_instrs);
  EXPECT_EQ(ma.tex_hits, mb.tex_hits);
  EXPECT_EQ(ma.tex_transactions, mb.tex_transactions);
  EXPECT_EQ(ma.const_broadcasts, mb.const_broadcasts);
  EXPECT_EQ(ma.const_serialized, mb.const_serialized);
  EXPECT_EQ(ma.smem_accesses, mb.smem_accesses);
  EXPECT_EQ(ma.smem_conflict_cycles, mb.smem_conflict_cycles);
  EXPECT_EQ(ma.oob_violations, mb.oob_violations);
  EXPECT_EQ(a.stats.timing.total_ms, b.stats.timing.total_ms);
}

TEST(JitEmitTest, EmittedSourceIsDeterministic) {
  const compiler::CompiledKernel kernel = CompileGaussian(73, 41);
  const std::optional<sim::jit::EmittedSource> a =
      sim::jit::EmitNativeSource(*kernel.bytecode);
  const std::optional<sim::jit::EmittedSource> b =
      sim::jit::EmitNativeSource(*kernel.bytecode);
  ASSERT_TRUE(a.has_value() && b.has_value());
  EXPECT_EQ(a->source, b->source);
  ASSERT_EQ(a->symbols.size(), kernel.bytecode->programs.size());
  // Every region-specialised program gets its own extern "C" symbol, a
  // warp function that cannot fail: it checks no binding.
  for (const auto& si : a->symbols) {
    EXPECT_NE(a->source.find("void " + si.symbol + "("), std::string::npos)
        << si.symbol;
  }
  EXPECT_EQ(a->source.find("->bound"), std::string::npos);
  EXPECT_EQ(sim::jit::ProgramFingerprint(*kernel.bytecode),
            sim::jit::ProgramFingerprint(*kernel.bytecode));
}

TEST(JitTierTest, NativeMatchesBytecodeWhenToolchainPresent) {
  if (!sim::jit::ToolchainAvailable())
    GTEST_SKIP() << "no host toolchain in this environment";
  sim::jit::JitCache::Instance().ResetForTesting();
  const compiler::CompiledKernel kernel = CompileGaussian(73, 41);
  Rng rng(0x11u);
  const HostImage<float> input = RandomInput(73, 41, rng);
  const RunResult vm = RunOnce(kernel, input, sim::SimulatorOptions{});
  sim::TraceSink trace;
  const RunResult native = RunOnce(kernel, input, NativeOptions(), &trace);
  ExpectSameOutput(vm, native);
  EXPECT_EQ(trace.counter("jit.compile"), 1);
  EXPECT_EQ(trace.counter("jit.hit"), 1);
  EXPECT_EQ(trace.counter("sim.launch.native"), 1);
  EXPECT_EQ(sim::jit::JitCache::Instance().compiles(), 1u);
}

TEST(JitTierTest, UnfusedSetNeverRunsTheToolchain) {
  // A set moves to native code all or nothing. None of the bilateral's
  // region programs fuse, so the hot tier latches it to the VM without
  // emitting or compiling anything: the failing compiler is never called,
  // and no error is counted.
  sim::jit::JitCache::Instance().ResetForTesting();
  const compiler::CompiledKernel kernel = CompileBilateral(49, 27);
  EXPECT_FALSE(sim::jit::EmitNativeSource(*kernel.bytecode).has_value());
  Rng rng(0x88u);
  const HostImage<float> input = RandomInput(49, 27, rng);
  const RunResult vm = RunOnce(kernel, input, sim::SimulatorOptions{},
                               nullptr, BilateralScalars());
  ToolchainGuard guard("/bin/false");
  sim::TraceSink trace;
  for (int launch = 0; launch < 2; ++launch) {
    const RunResult native = RunOnce(kernel, input, NativeOptions(), &trace,
                                     BilateralScalars());
    ExpectSameOutput(vm, native);
  }
  EXPECT_EQ(sim::jit::JitCache::Instance().compiles(), 0u);
  EXPECT_EQ(trace.counter("jit.compile"), 0);
  EXPECT_EQ(trace.counter("jit.error"), 0);
  EXPECT_EQ(trace.counter("jit.vm"), 2);
  EXPECT_EQ(trace.counter("sim.launch.native"), 0);
}

TEST(JitTierTest, ReadOnlyOutputFailsBeforeAnyBlockRuns) {
  // Simulator::Validate checks a launch's bindings before any block runs,
  // so a read-only output fails with one status on either engine: no
  // engine is chosen, no launch is counted and nothing compiles.
  sim::jit::JitCache::Instance().ResetForTesting();
  const compiler::CompiledKernel kernel = CompileGaussian(73, 41);
  Rng rng(0x99u);
  const HostImage<float> input = RandomInput(73, 41, rng);
  sim::TraceSink vm_trace, native_trace;
  const RunResult vm = RunOnce(kernel, input, sim::SimulatorOptions{},
                               &vm_trace, {}, /*read_only_output=*/true);
  ASSERT_FALSE(vm.status.ok());
  EXPECT_EQ(vm.status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(vm.status.message().find("_out"), std::string::npos)
      << vm.status.ToString();
  const RunResult native = RunOnce(kernel, input, NativeOptions(),
                                   &native_trace, {},
                                   /*read_only_output=*/true);
  EXPECT_EQ(native.status.ToString(), vm.status.ToString());
  for (const sim::TraceSink* trace : {&vm_trace, &native_trace}) {
    EXPECT_EQ(trace->ToJson().Find("counters"), nullptr)
        << trace->ToJson().Dump();
    EXPECT_TRUE(trace->empty());
  }
  EXPECT_EQ(sim::jit::JitCache::Instance().compiles(), 0u);
}

TEST(JitDegradationTest, MissingToolchainFallsBackToVm) {
  sim::jit::JitCache::Instance().ResetForTesting();
  const compiler::CompiledKernel kernel = CompileGaussian(73, 41);
  Rng rng(0x44u);
  const HostImage<float> input = RandomInput(73, 41, rng);
  const RunResult vm = RunOnce(kernel, input, sim::SimulatorOptions{});
  ToolchainGuard guard("");
  EXPECT_FALSE(sim::jit::ToolchainAvailable());
  sim::TraceSink trace;
  const RunResult first = RunOnce(kernel, input, NativeOptions(), &trace);
  ExpectSameOutput(vm, first);
  EXPECT_EQ(trace.counter("jit.error"), 1);
  EXPECT_EQ(trace.counter("jit.vm"), 1);
  EXPECT_EQ(trace.counter("sim.launch.native"), 0);
  // Failure is latched: the second launch does not probe the toolchain
  // again and still produces identical output.
  const RunResult second = RunOnce(kernel, input, NativeOptions(), &trace);
  ExpectSameOutput(vm, second);
  EXPECT_EQ(trace.counter("jit.error"), 1);
  EXPECT_EQ(trace.counter("jit.vm"), 2);
  EXPECT_EQ(sim::jit::JitCache::Instance().compiles(), 0u);
}

TEST(JitDegradationTest, BrokenCompilerFallsBackToVm) {
  sim::jit::JitCache::Instance().ResetForTesting();
  const compiler::CompiledKernel kernel = CompileGaussian(73, 41);
  Rng rng(0x55u);
  const HostImage<float> input = RandomInput(73, 41, rng);
  const RunResult vm = RunOnce(kernel, input, sim::SimulatorOptions{});
  ToolchainGuard guard("/bin/false");
  sim::TraceSink trace;
  const RunResult native = RunOnce(kernel, input, NativeOptions(), &trace);
  ExpectSameOutput(vm, native);
  EXPECT_EQ(trace.counter("jit.error"), 1);
  EXPECT_EQ(trace.counter("sim.launch.native"), 0);
}

TEST(JitDegradationTest, CompileFailureReportsTheExitCode) {
  // std::system returns a wait status; the error must decode it rather
  // than print the raw value (256 for exit code 1).
  ToolchainGuard guard("/bin/false");
  const Result<std::shared_ptr<sim::jit::NativeModule>> module =
      sim::jit::CompileSharedObject("int x;\n", "exit_code_probe");
  ASSERT_FALSE(module.ok());
  const std::string message = module.status().message();
  EXPECT_NE(message.find("jit compile failed (exit 1)"), std::string::npos)
      << message;
  EXPECT_EQ(message.find("256"), std::string::npos) << message;
}

TEST(JitCacheTest, IdenticalProgramsShareOneModule) {
  if (!sim::jit::ToolchainAvailable())
    GTEST_SKIP() << "no host toolchain in this environment";
  sim::jit::JitCache::Instance().ResetForTesting();
  // Two independent compilations of the same kernel source: distinct
  // ProgramSets (distinct TierStates) whose emitted source is identical,
  // so the second only pays a cache lookup.
  const compiler::CompiledKernel a = CompileGaussian(73, 41);
  const compiler::CompiledKernel b = CompileGaussian(73, 41);
  ASSERT_NE(a.bytecode.get(), b.bytecode.get());
  Rng rng(0x66u);
  const HostImage<float> input = RandomInput(73, 41, rng);
  sim::TraceSink ta, tb;
  RunOnce(a, input, NativeOptions(), &ta);
  RunOnce(b, input, NativeOptions(), &tb);
  EXPECT_EQ(ta.counter("jit.compile"), 1);
  EXPECT_EQ(tb.counter("jit.compile"), 0);
  EXPECT_EQ(tb.counter("jit.cache_hit"), 1);
  EXPECT_EQ(sim::jit::JitCache::Instance().compiles(), 1u);
}

TEST(JitCacheTest, ParallelLanesShareOneCompile) {
  if (!sim::jit::ToolchainAvailable())
    GTEST_SKIP() << "no host toolchain in this environment";
  sim::jit::JitCache::Instance().ResetForTesting();
  const compiler::CompiledKernel kernel = CompileGaussian(73, 41);
  Rng rng(0x77u);
  const HostImage<float> input = RandomInput(73, 41, rng);
  const RunResult reference = RunOnce(kernel, input, sim::SimulatorOptions{});
  ASSERT_TRUE(reference.status.ok()) << reference.status.ToString();
  // Exploration-lane shape: every thread owns a Simulator and a launch but
  // shares the kernel's ProgramSet, all hitting the tier on first launch.
  constexpr int kLanes = 8;
  std::vector<RunResult> results(kLanes);
  {
    std::vector<std::thread> lanes;
    lanes.reserve(kLanes);
    for (int t = 0; t < kLanes; ++t)
      lanes.emplace_back([&, t] {
        results[static_cast<std::size_t>(t)] =
            RunOnce(kernel, input, NativeOptions());
      });
    for (std::thread& lane : lanes) lane.join();
  }
  for (const RunResult& r : results) ExpectSameOutput(reference, r);
  // The in-flight deduplication means the toolchain ran exactly once even
  // though all lanes requested compilation concurrently.
  EXPECT_EQ(sim::jit::JitCache::Instance().compiles(), 1u);
}

/// Points GlobalDiskStore at a scratch directory for one test (wiped so a
/// previous run's entries cannot warm the cold pass), restoring the
/// disabled hermetic default (and a clean JitCache) on exit.
struct DiskStoreGuard {
  explicit DiskStoreGuard(const std::string& root) {
    std::filesystem::remove_all(root);
    support::DiskStoreOptions options;
    options.root = root;
    support::ConfigureGlobalDiskStore(std::move(options));
  }
  ~DiskStoreGuard() {
    support::ConfigureGlobalDiskStore({});
    sim::jit::JitCache::Instance().ResetForTesting();
  }
};

TEST(JitCacheTest, WarmStartLoadsTheSharedObjectFromDisk) {
  if (!sim::jit::ToolchainAvailable())
    GTEST_SKIP() << "no host toolchain in this environment";
  DiskStoreGuard disk(::testing::TempDir() + "/jit_warm_start_cache");
  sim::jit::JitCache::Instance().ResetForTesting();

  const compiler::CompiledKernel kernel = CompileGaussian(73, 41);
  const sim::jit::JitCache::Outcome cold =
      sim::jit::JitCache::Instance().GetOrCompile(*kernel.bytecode);
  ASSERT_TRUE(cold.error.empty()) << cold.error;
  ASSERT_NE(cold.program, nullptr);
  EXPECT_TRUE(cold.compiled);
  EXPECT_TRUE(cold.disk_checked);
  EXPECT_FALSE(cold.disk_hit);
  EXPECT_TRUE(cold.disk_stored);

  // Drop the in-memory module cache — the next request models a fresh
  // process, which must dlopen the persisted .so without a toolchain run.
  sim::jit::JitCache::Instance().ResetForTesting();
  const sim::jit::JitCache::Outcome warm =
      sim::jit::JitCache::Instance().GetOrCompile(*kernel.bytecode);
  ASSERT_TRUE(warm.error.empty()) << warm.error;
  ASSERT_NE(warm.program, nullptr);
  EXPECT_FALSE(warm.compiled);
  EXPECT_TRUE(warm.disk_hit);
  EXPECT_EQ(sim::jit::JitCache::Instance().compiles(), 0u);

  // The reloaded module serves real launches with VM-identical output.
  Rng rng(0x99u);
  const HostImage<float> input = RandomInput(73, 41, rng);
  const RunResult vm = RunOnce(kernel, input, sim::SimulatorOptions{});
  const RunResult native = RunOnce(kernel, input, NativeOptions());
  ExpectSameOutput(vm, native);
  EXPECT_EQ(sim::jit::JitCache::Instance().compiles(), 0u);
}

}  // namespace
}  // namespace hipacc
