// Warm-vs-cold persistent-cache report: the same compile + first-native-
// launch workload is run twice against one cache directory, with every
// in-memory cache dropped in between — so the second pass stands in for a
// fresh process against a populated disk cache. Both passes compile each
// kernel (~2 ms: the compilation cache lives in memory only); the cold pass
// also pays the JIT toolchain (seconds per kernel), while the warm pass
// dlopens the shared objects the cold pass persisted. The report proves it:
// one target-level compile per kernel, zero toolchain runs, and one
// cache.disk.hit (a cached .so) per kernel in the warm pass.
//
// Meaningful cold numbers need an empty cache directory: point --cache-dir
// at a fresh path (the CI smoke uses mktemp -d). Against an already-warm
// directory both passes hit disk and the speedup reads ~1x.
//
//   --min-speedup=R    exit non-zero unless cold/warm wall >= R and the
//                      warm pass compiled each kernel once, ran the
//                      toolchain zero times and loaded one .so per kernel
//   --json-out=FILE    report path (default BENCH_cache.json)
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "compiler/cache.hpp"
#include "compiler/driver.hpp"
#include "image/synthetic.hpp"
#include "ops/kernel_sources.hpp"
#include "ops/masks.hpp"
#include "runtime/bindings.hpp"
#include "sim/jit/cache.hpp"
#include "sim/jit/toolchain.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "support/disk_store.hpp"
#include "support/stopwatch.hpp"

namespace {

using namespace hipacc;

struct Case {
  std::string label;
  frontend::KernelSource source;
  int n;
  runtime::BindingSet scalars;
};

struct PassReport {
  double wall_ms = 0.0;
  long long target_misses = 0;  ///< pipeline runs (one per kernel)
  long long jit_compiles = 0;   ///< toolchain invocations
  long long disk_hits = 0;      ///< cache.disk.hit: .so files loaded
  long long disk_stores = 0;    ///< cache.disk.store: .so files written
};

/// One full compile-and-first-launch pass over `cases` through fresh
/// in-memory caches. Dropping JitCache's process state is what turns the
/// second call into a faithful stand-in for a second process: everything it
/// reuses must come from the disk tier.
Result<PassReport> RunPass(const std::vector<Case>& cases) {
  sim::jit::JitCache::Instance().ResetForTesting();
  compiler::CompilationCache cache;
  sim::TraceSink trace;
  PassReport report;
  Stopwatch wall;

  for (const Case& c : cases) {
    compiler::CompileOptions options;
    options.device = hw::TeslaC2050();
    options.image_width = c.n;
    options.image_height = c.n;
    options.cache = &cache;
    options.trace = &trace;
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

    sim::SimulatorOptions so;
    so.engine = sim::ExecEngine::kNative;
    sim::Simulator simulator(hw::TeslaC2050(), so);
    simulator.set_trace(&trace);
    Result<sim::LaunchStats> stats =
        simulator.Execute(holder.value().launch);
    if (!stats.ok()) return stats.status();
  }

  report.wall_ms = wall.ElapsedMs();
  report.target_misses = cache.stats().target_misses;
  report.jit_compiles =
      static_cast<long long>(sim::jit::JitCache::Instance().compiles());
  report.disk_hits = trace.counter("cache.disk.hit");
  report.disk_stores = trace.counter("cache.disk.store");
  return report;
}

support::Json PassJson(const PassReport& report) {
  support::Json j = support::Json::Object();
  j["wall_ms"] = report.wall_ms;
  j["target_misses"] = report.target_misses;
  j["jit_compiles"] = report.jit_compiles;
  j["disk_hits"] = report.disk_hits;
  j["disk_stores"] = report.disk_stores;
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  double min_speedup = 0.0;
  std::string json_out = "BENCH_cache.json";
  support::CliParser cli = bench::MakeBenchCli(
      "cache_warm", "warm-vs-cold persistent JIT object cache");
  cli.Value("min-speedup", "R",
            "fail unless cold/warm wall >= R with a toolchain-free warm pass",
            [&min_speedup](const std::string& value) -> Status {
              char* end = nullptr;
              min_speedup = std::strtod(value.c_str(), &end);
              if (end == value.c_str() || *end != '\0')
                return Status::Invalid("expected a number, got '" + value +
                                       "'");
              return Status::Ok();
            });
  cli.String("json-out", &json_out, "FILE", "BENCH_*.json report path");
  if (const int code = cli.HandleArgs(argc, argv); code >= 0) return code;

  if (!support::GlobalDiskStore().enabled()) {
    std::fprintf(stderr,
                 "persistent cache disabled (--cache-dir=off?): there is no "
                 "disk tier to warm\n");
    return min_speedup > 0.0 ? 1 : 0;
  }
  if (!sim::jit::ToolchainAvailable()) {
    std::fprintf(stderr,
                 "no host toolchain: the cold pass would never JIT, so the "
                 "warm comparison would be meaningless\n");
    return min_speedup > 0.0 ? 1 : 0;
  }

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
      {"tone_curve8_512", ops::ToneCurveSource(8), 512, tone},
  };

  Result<PassReport> cold = RunPass(cases);
  if (!cold.ok()) {
    std::fprintf(stderr, "cold pass failed: %s\n",
                 cold.status().ToString().c_str());
    return 1;
  }
  Result<PassReport> warm = RunPass(cases);
  if (!warm.ok()) {
    std::fprintf(stderr, "warm pass failed: %s\n",
                 warm.status().ToString().c_str());
    return 1;
  }

  const double speedup = warm.value().wall_ms > 0.0
                             ? cold.value().wall_ms / warm.value().wall_ms
                             : 0.0;
  std::printf("Persistent cache warm-start (%zu kernels, dir %s)\n\n",
              cases.size(), support::GlobalDiskStore().root().c_str());
  std::printf("%6s  %10s  %14s  %12s  %9s  %11s\n", "pass", "wall_ms",
              "target_misses", "jit_compiles", "disk_hits", "disk_stores");
  const auto row = [](const char* label, const PassReport& r) {
    std::printf("%6s  %10.1f  %14lld  %12lld  %9lld  %11lld\n", label,
                r.wall_ms, r.target_misses, r.jit_compiles, r.disk_hits,
                r.disk_stores);
  };
  row("cold", cold.value());
  row("warm", warm.value());
  std::printf("\nwarm-start speedup: %.2fx\n", speedup);
  if (cold.value().disk_hits > 0)
    std::printf("note: the cold pass hit the disk cache — the directory was "
                "already warm, so the speedup above understates a true cold "
                "start\n");

  if (!json_out.empty()) {
    support::Json doc = support::Json::Object();
    doc["bench"] = "cache_warm";
    doc["device"] = hw::TeslaC2050().name;
    doc["cache_dir"] = support::GlobalDiskStore().root();
    support::Json kernels = support::Json::Array();
    for (const Case& c : cases) kernels.push_back(c.label);
    doc["kernels"] = std::move(kernels);
    doc["cold"] = PassJson(cold.value());
    doc["warm"] = PassJson(warm.value());
    doc["speedup"] = speedup;
    const Status written = support::WriteFile(json_out, doc.Dump(2) + "\n");
    if (!written.ok())
      std::fprintf(stderr, "warning: %s\n", written.ToString().c_str());
    else
      std::fprintf(stderr, "wrote %s\n", json_out.c_str());
  }

  if (min_speedup > 0.0) {
    bool ok = true;
    const long long kernels = static_cast<long long>(cases.size());
    const PassReport& w = warm.value();
    if (w.target_misses != kernels || w.jit_compiles != 0 ||
        w.disk_hits != kernels) {
      std::fprintf(stderr,
                   "FAIL: warm pass expected %lld target misses, 0 jit "
                   "compiles and %lld disk hits; got %lld, %lld and %lld\n",
                   kernels, kernels, w.target_misses, w.jit_compiles,
                   w.disk_hits);
      ok = false;
    }
    if (speedup < min_speedup) {
      std::fprintf(stderr, "FAIL: warm-start speedup %.2fx < %.2fx\n",
                   speedup, min_speedup);
      ok = false;
    }
    if (!ok) return 1;
  }
  return 0;
}
