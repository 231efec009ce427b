// Native-tier speedup report: wall-clock of the simulator's two execution
// engines (the bytecode VM and the native tier) on the interpreter
// workloads, plus the jit trace counters, written to BENCH_jit.json. The
// native rows compile on an untimed warm launch (a set compiles on its
// first native Execute), so the measured loop sees only the dlopen'd code;
// the one-off host-compile cost is reported separately.
//
// The ratios this records are bounded by what the engines share: the
// memory/timing model and libm calls are identical across engines, so
// fused straight-line kernels land around 1.7-2x over the bytecode VM. A
// kernel whose programs do not all fuse never reaches the toolchain: its
// native row runs the VM, so it reads about 1x with zero compiles. The
// `fused` column comes from the emitter itself (EmitNativeSource), and the
// CI perf smoke runs this binary with --min-ratio=1.5 over the fused rows.
//
//   --repeats=N        timed launches per engine (default 5)
//   --min-ratio=R      exit non-zero unless every fused kernel's
//                      native-vs-bytecode speedup is >= R (default: off)
//   --json-out=FILE    report path (default BENCH_jit.json)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "compiler/driver.hpp"
#include "image/synthetic.hpp"
#include "ops/kernel_sources.hpp"
#include "ops/masks.hpp"
#include "runtime/bindings.hpp"
#include "sim/jit/emit.hpp"
#include "sim/jit/toolchain.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "support/string_utils.hpp"

namespace {

using namespace hipacc;

struct Case {
  std::string label;
  frontend::KernelSource source;
  int n;
  runtime::BindingSet scalars;
};

struct Timed {
  double bytecode_ms = 0.0;
  double native_ms = 0.0;
  double compile_ms = 0.0;  // first native launch incl. toolchain run
  long long jit_compiles = 0;
  /// Every region program fuses, so the native tier compiles the kernel;
  /// otherwise its native row runs the VM and --min-ratio skips it.
  bool fused = false;
};

double TimeLaunches(const sim::Simulator& simulator,
                    const sim::Launch& launch, int repeats) {
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    auto stats = simulator.Execute(launch);
    const auto t1 = std::chrono::steady_clock::now();
    HIPACC_CHECK(stats.ok());
    best = std::min(best,
                    std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

Result<Timed> MeasureCase(const Case& c, int repeats) {
  compiler::CompileOptions options;
  options.device = hw::TeslaC2050();
  options.image_width = c.n;
  options.image_height = c.n;
  Result<compiler::CompiledKernel> compiled =
      compiler::Compile(c.source, options);
  if (!compiled.ok()) return compiled.status();

  dsl::Image<float> in(c.n, c.n), out(c.n, c.n);
  in.CopyFrom(MakeNoiseImage(c.n, c.n, 7));
  runtime::BindingSet bindings = c.scalars;
  bindings.Input("Input", in).Output(out);
  Result<runtime::LaunchHolder> holder = runtime::BuildLaunch(
      compiled.value().device_ir, compiled.value().config.config, bindings);
  if (!holder.ok()) return holder.status();
  holder.value().launch.programs = compiled.value().bytecode.get();

  Timed timed;
  timed.fused =
      sim::jit::EmitNativeSource(*compiled.value().bytecode).has_value();
  sim::SimulatorOptions so;
  for (const sim::ExecEngine engine :
       {sim::ExecEngine::kBytecode, sim::ExecEngine::kNative}) {
    so.engine = engine;
    sim::Simulator simulator(hw::TeslaC2050(), so);
    sim::TraceSink trace;
    simulator.set_trace(&trace);
    if (engine == sim::ExecEngine::kNative) {
      const auto t0 = std::chrono::steady_clock::now();
      auto warm = simulator.Execute(holder.value().launch);
      const auto t1 = std::chrono::steady_clock::now();
      if (!warm.ok()) return warm.status();
      timed.compile_ms =
          std::chrono::duration<double, std::milli>(t1 - t0).count();
      timed.jit_compiles = trace.counter("jit.compile");
    }
    const double ms = TimeLaunches(simulator, holder.value().launch, repeats);
    if (engine == sim::ExecEngine::kBytecode)
      timed.bytecode_ms = ms;
    else
      timed.native_ms = ms;
  }
  return timed;
}

}  // namespace

int main(int argc, char** argv) {
  int repeats = 5;
  double min_ratio = 0.0;
  std::string json_out = "BENCH_jit.json";
  support::CliParser cli = bench::MakeBenchCli(
      "jit_tiering", "native-tier vs bytecode-VM wall-clock");
  cli.Int("repeats", &repeats, "N", "timed launches per engine (default 5)");
  cli.Value("min-ratio", "R",
            "fail unless every fused kernel's native speedup >= R",
            [&min_ratio](const std::string& value) -> Status {
              char* end = nullptr;
              min_ratio = std::strtod(value.c_str(), &end);
              if (end == value.c_str() || *end != '\0')
                return Status::Invalid("expected a number, got '" + value +
                                       "'");
              return Status::Ok();
            });
  cli.String("json-out", &json_out, "FILE", "BENCH_*.json report path");
  if (const int code = cli.HandleArgs(argc, argv); code >= 0) return code;

  if (!sim::jit::ToolchainAvailable()) {
    std::fprintf(stderr,
                 "no host toolchain: the native tier would fall back to the "
                 "VM, so the ratios would be meaningless\n");
    return min_ratio > 0.0 ? 1 : 0;
  }

  runtime::BindingSet bilateral;
  bilateral.Scalar("sigma_d", 2).Scalar("sigma_r", 5);
  runtime::BindingSet bilateral_fixed;
  bilateral_fixed.Scalar("sigma_r", 5);
  runtime::BindingSet tone;
  tone.Scalar("center", 0.35f).Scalar("weight", 0.6f);
  const std::vector<Case> cases = {
      {"gaussian5_512",
       ops::GaussianSource(5, 1.2f, ast::BoundaryMode::kMirror), 512, {}},
      {"sobel3_512",
       ops::ConvolutionSource("sobel", 3, 3, ops::SobelMaskX(),
                              ast::BoundaryMode::kClamp),
       512,
       {}},
      {"bilateral9_256", ops::BilateralMaskSource(2, ast::BoundaryMode::kClamp),
       256, bilateral},
      {"bilateral_fixed9_256",
       ops::BilateralFixedSource(2, ast::BoundaryMode::kClamp), 256,
       bilateral_fixed},
      {"tone_curve8_512", ops::ToneCurveSource(8), 512, tone},
  };

  bench::Table table(
      {"bytecode_ms", "native_ms", "native_vs_bytecode", "fused"});
  support::Json kernels = support::Json::Array();
  bool ok = true;
  for (const Case& c : cases) {
    Result<Timed> timed = MeasureCase(c, repeats);
    if (!timed.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", c.label.c_str(),
                   timed.status().ToString().c_str());
      return 1;
    }
    const double ratio = timed.value().native_ms > 0.0
                             ? timed.value().bytecode_ms /
                                   timed.value().native_ms
                             : 0.0;
    table.Row(c.label);
    table.Cell(timed.value().bytecode_ms);
    table.Cell(timed.value().native_ms);
    table.Cell(StrFormat("%.2fx", ratio));
    table.Cell(timed.value().fused ? "yes" : "no");
    support::Json k = support::Json::Object();
    k["kernel"] = c.label;
    k["fused"] = timed.value().fused;
    k["bytecode_ms"] = timed.value().bytecode_ms;
    k["native_ms"] = timed.value().native_ms;
    k["native_vs_bytecode"] = ratio;
    k["first_launch_ms"] = timed.value().compile_ms;
    k["jit_compiles"] = timed.value().jit_compiles;
    kernels.push_back(std::move(k));
    if (min_ratio > 0.0 && timed.value().fused && ratio < min_ratio) {
      std::fprintf(stderr, "FAIL: %s native/bytecode %.2fx < %.2fx\n",
                   c.label.c_str(), ratio, min_ratio);
      ok = false;
    }
  }
  std::printf("%s\n",
              table.Render("Native tier vs bytecode VM (wall-clock, best "
                           "of repeats)")
                  .c_str());

  if (!json_out.empty()) {
    support::Json doc = support::Json::Object();
    doc["bench"] = "jit_tiering";
    doc["device"] = hw::TeslaC2050().name;
    doc["repeats"] = repeats;
    doc["kernels"] = std::move(kernels);
    doc["table"] = table.ToJson("jit_tiering");
    const Status written = support::WriteFile(json_out, doc.Dump(2) + "\n");
    if (!written.ok())
      std::fprintf(stderr, "warning: %s\n", written.ToString().c_str());
    else
      std::fprintf(stderr, "wrote %s\n", json_out.c_str());
  }
  return ok ? 0 : 1;
}
