// google-benchmark head-to-head of the execution engines: the simulator's
// bytecode VM and native tier (generated host code), and the host executor,
// on the Gaussian, Sobel, bilateral and tone-curve kernels. Reports
// wall-clock, not modelled device time, so the engines' dispatch overhead is
// directly comparable; the native rows should be well under the bytecode
// rows, except Bilateral9: its runtime-bounded loops do not fuse, so its
// native row runs the VM. A native row compiles on its warm-up launch (a
// set compiles on its first native Execute), so the measured loop never
// includes the toolchain. The bytecode and host
// rows run the two instantiations of the one lane interpreter
// (sim/lanes.hpp): warps with the device model, and 256-pixel row segments
// without it; a host row is HostLaunch::Prepare plus RunRows over the whole
// image on one thread.
// Run with --benchmark_filter=Engine to see just the comparison.
#include <benchmark/benchmark.h>

#include "compiler/driver.hpp"
#include "image/synthetic.hpp"
#include "ops/kernel_sources.hpp"
#include "ops/masks.hpp"
#include "runtime/bindings.hpp"
#include "runtime/host_exec.hpp"
#include "sim/simulator.hpp"

using namespace hipacc;

namespace {

struct Workload {
  compiler::CompiledKernel kernel;
  dsl::Image<float> in;
  dsl::Image<float> out;
  runtime::LaunchHolder holder;

  Workload(const frontend::KernelSource& source, int n,
           const runtime::BindingSet& scalars)
      : in(n, n), out(n, n) {
    compiler::CompileOptions options;
    options.device = hw::TeslaC2050();
    options.image_width = n;
    options.image_height = n;
    auto compiled = compiler::Compile(source, options);
    HIPACC_CHECK(compiled.ok());
    kernel = std::move(compiled).take();
    in.CopyFrom(MakeNoiseImage(n, n, 7));
    runtime::BindingSet bindings = scalars;
    bindings.Input("Input", in).Output(out);
    auto built =
        runtime::BuildLaunch(kernel.device_ir, kernel.config.config, bindings);
    HIPACC_CHECK(built.ok());
    holder = std::move(built).take();
    holder.launch.programs = kernel.bytecode.get();
  }
};

void RunEngineBench(benchmark::State& state, Workload& w,
                    sim::ExecEngine engine) {
  sim::SimulatorOptions options;
  options.engine = engine;
  const sim::Simulator simulator(hw::TeslaC2050(), options);
  if (engine == sim::ExecEngine::kNative) {
    // Tier up outside the timed loop: the first launch pays the one-off
    // host-compiler run (cached process-wide afterwards).
    auto warm = simulator.Execute(w.holder.launch);
    HIPACC_CHECK(warm.ok());
  }
  for (auto _ : state) {
    auto stats = simulator.Execute(w.holder.launch);
    benchmark::DoNotOptimize(stats.ok());
    HIPACC_CHECK(stats.ok());
  }
  const long pixels =
      static_cast<long>(w.holder.launch.width) * w.holder.launch.height;
  state.SetItemsProcessed(state.iterations() * pixels);
}

void RunHostBench(benchmark::State& state, Workload& w) {
  const sim::Launch& launch = w.holder.launch;
  const ast::WindowExtent& halo = w.kernel.device_ir.bh_window;
  for (auto _ : state) {
    Result<runtime::HostLaunch> host =
        runtime::HostLaunch::Prepare(launch, halo.half_x, halo.half_y);
    HIPACC_CHECK(host.ok());
    host.value().RunRows(0, launch.height);
    benchmark::DoNotOptimize(w.out.span().data());
    benchmark::ClobberMemory();
  }
  const long pixels = static_cast<long>(launch.width) * launch.height;
  state.SetItemsProcessed(state.iterations() * pixels);
}

Workload& GaussianWorkload() {
  static Workload w(
      ops::GaussianSource(5, 1.2f, ast::BoundaryMode::kMirror), 512, {});
  return w;
}

Workload& SobelWorkload() {
  static Workload w(ops::ConvolutionSource("sobel", 3, 3, ops::SobelMaskX(),
                                           ast::BoundaryMode::kClamp),
                    512, {});
  return w;
}

Workload& BilateralWorkload() {
  static runtime::BindingSet scalars = [] {
    runtime::BindingSet s;
    s.Scalar("sigma_d", 2).Scalar("sigma_r", 5);
    return s;
  }();
  static Workload w(ops::BilateralMaskSource(2, ast::BoundaryMode::kClamp),
                    256, scalars);
  return w;
}

Workload& BilateralFixedWorkload() {
  static runtime::BindingSet scalars = [] {
    runtime::BindingSet s;
    s.Scalar("sigma_r", 5);
    return s;
  }();
  static Workload w(ops::BilateralFixedSource(2, ast::BoundaryMode::kClamp),
                    256, scalars);
  return w;
}

Workload& ToneCurveWorkload() {
  static runtime::BindingSet scalars = [] {
    runtime::BindingSet s;
    s.Scalar("center", 0.35f).Scalar("weight", 0.6f);
    return s;
  }();
  static Workload w(ops::ToneCurveSource(8), 512, scalars);
  return w;
}

void BM_EngineNative_Gaussian5(benchmark::State& state) {
  RunEngineBench(state, GaussianWorkload(), sim::ExecEngine::kNative);
}
void BM_EngineBytecode_Gaussian5(benchmark::State& state) {
  RunEngineBench(state, GaussianWorkload(), sim::ExecEngine::kBytecode);
}
void BM_EngineNative_Sobel3(benchmark::State& state) {
  RunEngineBench(state, SobelWorkload(), sim::ExecEngine::kNative);
}
void BM_EngineBytecode_Sobel3(benchmark::State& state) {
  RunEngineBench(state, SobelWorkload(), sim::ExecEngine::kBytecode);
}
void BM_EngineNative_Bilateral9(benchmark::State& state) {
  RunEngineBench(state, BilateralWorkload(), sim::ExecEngine::kNative);
}
void BM_EngineBytecode_Bilateral9(benchmark::State& state) {
  RunEngineBench(state, BilateralWorkload(), sim::ExecEngine::kBytecode);
}
void BM_EngineNative_BilateralFixed9(benchmark::State& state) {
  RunEngineBench(state, BilateralFixedWorkload(), sim::ExecEngine::kNative);
}
void BM_EngineBytecode_BilateralFixed9(benchmark::State& state) {
  RunEngineBench(state, BilateralFixedWorkload(), sim::ExecEngine::kBytecode);
}

void BM_EngineNative_ToneCurve8(benchmark::State& state) {
  RunEngineBench(state, ToneCurveWorkload(), sim::ExecEngine::kNative);
}
void BM_EngineBytecode_ToneCurve8(benchmark::State& state) {
  RunEngineBench(state, ToneCurveWorkload(), sim::ExecEngine::kBytecode);
}

void BM_EngineHost_Gaussian5(benchmark::State& state) {
  RunHostBench(state, GaussianWorkload());
}
void BM_EngineHost_Sobel3(benchmark::State& state) {
  RunHostBench(state, SobelWorkload());
}
void BM_EngineHost_Bilateral9(benchmark::State& state) {
  RunHostBench(state, BilateralWorkload());
}
void BM_EngineHost_BilateralFixed9(benchmark::State& state) {
  RunHostBench(state, BilateralFixedWorkload());
}
void BM_EngineHost_ToneCurve8(benchmark::State& state) {
  RunHostBench(state, ToneCurveWorkload());
}

BENCHMARK(BM_EngineBytecode_Gaussian5)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EngineNative_Gaussian5)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EngineBytecode_Sobel3)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EngineNative_Sobel3)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EngineBytecode_Bilateral9)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EngineNative_Bilateral9)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EngineBytecode_BilateralFixed9)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EngineNative_BilateralFixed9)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EngineBytecode_ToneCurve8)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EngineNative_ToneCurve8)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EngineHost_Gaussian5)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EngineHost_Sobel3)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EngineHost_Bilateral9)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EngineHost_BilateralFixed9)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EngineHost_ToneCurve8)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
