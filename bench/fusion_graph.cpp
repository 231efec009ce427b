// Fusion planner benchmark: modelled (simulated-device) time of fused vs
// unfused pipeline graphs for the three candidate kinds the planner knows.
//
//   sobel_pair     horizontal — two Sobel stages sharing one input merge
//                  into a single multi-output launch
//   gauss_laplace  halo — a 3x3 Gaussian producer is inlined into the
//                  consuming Laplacian with halo recompute
//   multires       end-to-end — the paper's multiresolution filter with the
//                  full planner vs fusion off
//
// The gate compares *modelled* device time (the graph.modelled_ns counter,
// summed over simulated launches, reported in µs), not host wall-clock: the
// simulator executes halo recompute on the host at full cost, but the device
// model is what the planner's profitability decision is about. Outputs must
// stay bit-identical between the fused and unfused runs, or the bench fails.
// --check enforces the CI floors (sobel_pair >= 1.3x, gauss_laplace >=
// 1.2x); --fuse / --explain-fusion work as in every graph bench.
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "compiler/executable.hpp"
#include "compiler/explore.hpp"
#include "compiler/fusion.hpp"
#include "hwmodel/device_db.hpp"
#include "image/metrics.hpp"
#include "image/synthetic.hpp"
#include "ops/kernel_sources.hpp"
#include "ops/masks.hpp"
#include "ops/pyramid.hpp"
#include "sim/trace.hpp"
#include "support/string_utils.hpp"

using namespace hipacc;

namespace {

struct Scenario {
  std::string name;
  /// Fusion kinds the fused run enables (the unfused run uses kOff).
  compiler::FusionMode mode = compiler::FusionMode::kAll;
  /// CI floor for modelled speedup; 0 = report only.
  double gate = 0.0;
  /// Extent multiplier over --size. Halo fusion trades recompute against
  /// launch overhead and saved traffic, so its modelled win lives at
  /// smaller extents than the launch-bound horizontal/point scenarios.
  double scale = 1.0;
  /// Border policy both runs compile under. Small extents cannot form
  /// regioned border blocks, so the halo scenario uses uniform guards.
  codegen::BorderPolicy border = codegen::BorderPolicy::kRegions;
  std::function<void(runtime::PipelineGraph&, int)> build;
  std::vector<std::string> outputs;
};

struct RunResult {
  double modelled_us = 0.0;
  long long fused_edges = 0;
  std::map<std::string, HostImage<float>> outputs;
};

Result<RunResult> RunScenario(const Scenario& scenario, int size,
                              const HostImage<float>& input,
                              compiler::FusionMode fuse,
                              std::vector<compiler::CandidateDecision>*
                                  decisions) {
  runtime::PipelineGraph graph;
  scenario.build(graph, size);
  RunResult result;
  runtime::PipelineGraph::OutputBindings bindings;
  for (const std::string& name : scenario.outputs)
    result.outputs.emplace(name, HostImage<float>(size, size));
  for (auto& [name, image] : result.outputs)
    bindings.emplace_back(name, &image);
  sim::TraceSink trace;
  runtime::GraphOptions gopts;
  gopts.fuse = fuse;
  gopts.run.codegen.border = scenario.border;
  gopts.executor = runtime::GraphOptions::Executor::kSimulator;
  gopts.run.trace = &trace;
  gopts.explain = decisions;
  HIPACC_RETURN_IF_ERROR(
      graph.Run({{scenario.outputs.front() == "r0" ? "g0" : "in", &input}},
                bindings, gopts));
  result.modelled_us =
      static_cast<double>(trace.counter("graph.modelled_ns")) / 1000.0;
  result.fused_edges = trace.counter("graph.fused_edges");
  return result;
}

Result<compiler::CompiledKernel> CompileAt(
    const frontend::KernelSource& source, int n,
    codegen::BorderPolicy border) {
  compiler::CompileOptions copts;
  copts.codegen.backend = ast::Backend::kCuda;
  copts.codegen.border = border;
  copts.device = hw::TeslaC2050();
  copts.image_width = n;
  copts.image_height = n;
  return compiler::Compile(source, copts);
}

/// Full Figure 4 sweeps for the two merging candidates: the fused kernel's
/// best configuration against the replaced stages at theirs. Backs the
/// planner's closed-form verdicts with measured-at-optimum numbers.
Result<support::Json> ExploreCandidates(int sobel_n, int gauss_n) {
  support::Json doc = support::Json::Object();

  {
    const frontend::KernelSource a = ops::ConvolutionSource(
        "sobel_x", 3, 3, ops::SobelMaskX(), ast::BoundaryMode::kClamp);
    const frontend::KernelSource b = ops::ConvolutionSource(
        "sobel_y", 3, 3, ops::SobelMaskY(), ast::BoundaryMode::kClamp);
    Result<frontend::KernelSource> fused_src =
        compiler::FuseHorizontal(a, "Input", b, "Input", "gy");
    HIPACC_RETURN_IF_ERROR(fused_src.status());
    Result<compiler::CompiledKernel> ka =
        CompileAt(a, sobel_n, codegen::BorderPolicy::kRegions);
    Result<compiler::CompiledKernel> kb =
        CompileAt(b, sobel_n, codegen::BorderPolicy::kRegions);
    Result<compiler::CompiledKernel> kf =
        CompileAt(fused_src.value(), sobel_n, codegen::BorderPolicy::kRegions);
    HIPACC_RETURN_IF_ERROR(ka.status());
    HIPACC_RETURN_IF_ERROR(kb.status());
    HIPACC_RETURN_IF_ERROR(kf.status());
    dsl::Image<float> in(sobel_n, sobel_n), gx(sobel_n, sobel_n),
        gy(sobel_n, sobel_n);
    runtime::BindingSet ba, bb, bf;
    ba.Input("Input", in).Output(gx);
    bb.Input("Input", in).Output(gy);
    bf.Input("Input", in).Output(gx).Output("gy", gy);
    Result<compiler::FusionSweep> sweep = compiler::ExploreFusionCandidate(
        {&kf.value(), &bf},
        {{&ka.value(), &ba}, {&kb.value(), &bb}}, hw::TeslaC2050());
    HIPACC_RETURN_IF_ERROR(sweep.status());
    std::printf(
        "sobel_pair sweep: best unfused %.3f ms, best fused %.3f ms "
        "(%.2fx, %zu fused points)\n",
        sweep.value().best_unfused_ms, sweep.value().best_fused_ms,
        sweep.value().speedup, sweep.value().fused.size());
    doc["sobel_pair"] = compiler::FusionSweepJson(sweep.value());
  }

  {
    const frontend::KernelSource smooth =
        ops::GaussianConvolveSource(3, 1.0f, ast::BoundaryMode::kClamp);
    const frontend::KernelSource edges = ops::ConvolutionSource(
        "laplacian", 3, 3, ops::LaplacianMask3(), ast::BoundaryMode::kClamp);
    Result<frontend::KernelSource> fused_src =
        compiler::FuseHalo(smooth, edges, "Input", gauss_n, gauss_n);
    HIPACC_RETURN_IF_ERROR(fused_src.status());
    Result<compiler::CompiledKernel> kp =
        CompileAt(smooth, gauss_n, codegen::BorderPolicy::kUniform);
    Result<compiler::CompiledKernel> kc =
        CompileAt(edges, gauss_n, codegen::BorderPolicy::kUniform);
    Result<compiler::CompiledKernel> kf =
        CompileAt(fused_src.value(), gauss_n, codegen::BorderPolicy::kUniform);
    HIPACC_RETURN_IF_ERROR(kp.status());
    HIPACC_RETURN_IF_ERROR(kc.status());
    HIPACC_RETURN_IF_ERROR(kf.status());
    dsl::Image<float> in(gauss_n, gauss_n), tmp(gauss_n, gauss_n),
        out(gauss_n, gauss_n);
    runtime::BindingSet bp, bc, bf;
    bp.Input("Input", in).Output(tmp);
    bc.Input("Input", tmp).Output(out);
    bf.Input("Input", in).Output(out);
    Result<compiler::FusionSweep> sweep = compiler::ExploreFusionCandidate(
        {&kf.value(), &bf},
        {{&kp.value(), &bp}, {&kc.value(), &bc}}, hw::TeslaC2050());
    HIPACC_RETURN_IF_ERROR(sweep.status());
    std::printf(
        "gauss_laplace sweep: best unfused %.3f ms, best fused %.3f ms "
        "(%.2fx, %zu fused points)\n",
        sweep.value().best_unfused_ms, sweep.value().best_fused_ms,
        sweep.value().speedup, sweep.value().fused.size());
    doc["gauss_laplace"] = compiler::FusionSweepJson(sweep.value());
  }
  return doc;
}

}  // namespace

int main(int argc, char** argv) {
  // Launch overhead is a real term of the profitability model; the default
  // extent sits in the regime where the planner accepts all three candidate
  // kinds (at large extents it correctly declines halo recompute).
  int size = 128;
  bool check = false;
  std::string json_out = "BENCH_fusion.json";

  support::CliParser cli = bench::MakeBenchCli(
      "fusion_graph",
      "fusion planner: modelled time of fused vs unfused pipeline graphs");
  cli.Int("size", &size, "N", "square image extent (default 128)");
  cli.Switch("check", "enforce the CI speedup floors", [&check]() -> Status {
    check = true;
    return Status::Ok();
  });
  bool explore = false;
  cli.Switch("explore",
             "Figure 4 sweep of each merging candidate: best fused vs best "
             "unfused configuration",
             [&explore]() -> Status {
               explore = true;
               return Status::Ok();
             });
  cli.String("json-out", &json_out, "FILE",
             "BENCH_*.json report path (default BENCH_fusion.json)");
  if (const int code = cli.HandleArgs(argc, argv); code >= 0) return code;

  std::vector<Scenario> scenarios;
  {
    Scenario s;
    s.name = "sobel_pair";
    s.mode = compiler::FusionMode::kHorizontal;
    s.gate = 1.3;
    s.outputs = {"gx", "gy"};
    s.build = [](runtime::PipelineGraph& graph, int n) {
      graph.Source("in", n, n)
          .Kernel("gx",
                  ops::ConvolutionSource("sobel_x", 3, 3, ops::SobelMaskX(),
                                         ast::BoundaryMode::kClamp),
                  {{"Input", "in"}})
          .Kernel("gy",
                  ops::ConvolutionSource("sobel_y", 3, 3, ops::SobelMaskY(),
                                         ast::BoundaryMode::kClamp),
                  {{"Input", "in"}})
          .Output("gx")
          .Output("gy");
    };
    scenarios.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "gauss_laplace";
    s.mode = compiler::FusionMode::kHalo;
    s.gate = 1.2;
    s.scale = 0.25;
    s.border = codegen::BorderPolicy::kUniform;
    s.outputs = {"edges"};
    s.build = [](runtime::PipelineGraph& graph, int n) {
      graph.Source("in", n, n)
          .Kernel("smooth",
                  ops::GaussianConvolveSource(3, 1.0f,
                                              ast::BoundaryMode::kClamp),
                  {{"Input", "in"}})
          .Kernel("edges",
                  ops::ConvolutionSource("laplacian", 3, 3,
                                         ops::LaplacianMask3(),
                                         ast::BoundaryMode::kClamp),
                  {{"Input", "smooth"}})
          .Output("edges");
    };
    scenarios.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "multires";
    s.mode = compiler::FusionMode::kAll;
    s.outputs = {"r0"};
    s.build = [](runtime::PipelineGraph& graph, int n) {
      ops::BuildMultiresolutionGraph(graph, n, n, 2, {2.5f, 1.8f},
                                     ast::BoundaryMode::kMirror);
    };
    scenarios.push_back(std::move(s));
  }

  bench::Table table(
      {"unfused_us", "fused_us", "speedup", "fused_edges", "max_diff"});
  support::Json details = support::Json::Object();
  bool failed = false;

  for (const Scenario& scenario : scenarios) {
    const int extent = static_cast<int>(size * scenario.scale);
    const HostImage<float> input =
        MakeAngiogramPhantom(extent, extent, 0.02f, 3);
    // Requested kinds, intersected with the --fuse flag so the bench can be
    // narrowed from the command line.
    const compiler::FusionMode fused_mode =
        bench::Tuning().fuse == compiler::FusionMode::kAll
            ? scenario.mode
            : bench::Tuning().fuse;
    std::vector<compiler::CandidateDecision> decisions;
    Result<RunResult> unfused = RunScenario(
        scenario, extent, input, compiler::FusionMode::kOff, nullptr);
    Result<RunResult> fused = RunScenario(
        scenario, extent, input, fused_mode,
        bench::Tuning().explain_fusion ? &decisions : nullptr);
    if (!unfused.ok() || !fused.ok()) {
      std::fprintf(stderr, "error: %s: %s\n", scenario.name.c_str(),
                   (!unfused.ok() ? unfused.status() : fused.status())
                       .ToString()
                       .c_str());
      return 1;
    }
    if (bench::Tuning().explain_fusion) {
      std::printf("%s:\n", scenario.name.c_str());
      bench::PrintFusionDecisions(decisions);
    }

    double max_diff = 0.0;
    for (const std::string& name : scenario.outputs)
      max_diff = std::max(max_diff,
                          MaxAbsDiff(unfused.value().outputs.at(name),
                                     fused.value().outputs.at(name)));
    if (max_diff != 0.0) {
      std::fprintf(stderr,
                   "error: %s: fused output differs from unfused (max |d| = "
                   "%g)\n",
                   scenario.name.c_str(), max_diff);
      return 1;
    }

    const double speedup =
        fused.value().modelled_us > 0.0
            ? unfused.value().modelled_us / fused.value().modelled_us
            : 0.0;
    table.Row(scenario.name);
    table.Cell(unfused.value().modelled_us);
    table.Cell(fused.value().modelled_us);
    table.Cell(StrFormat("%.2fx", speedup));
    table.Cell(StrFormat("%lld", fused.value().fused_edges));
    table.Cell(max_diff);

    support::Json row = support::Json::Object();
    row["unfused_us"] = unfused.value().modelled_us;
    row["fused_us"] = fused.value().modelled_us;
    row["speedup"] = speedup;
    row["fused_edges"] = static_cast<double>(fused.value().fused_edges);
    row["gate"] = scenario.gate;
    details[scenario.name] = std::move(row);

    if (fused.value().fused_edges <= 0 &&
        fused_mode != compiler::FusionMode::kOff) {
      std::fprintf(stderr, "%s: %s: planner applied no fusion\n",
                   check ? "error" : "warning", scenario.name.c_str());
      if (check) failed = true;
    }
    if (check && scenario.gate > 0.0 && speedup < scenario.gate) {
      std::fprintf(stderr,
                   "error: %s: modelled speedup %.2fx below the %.2fx "
                   "floor\n",
                   scenario.name.c_str(), speedup, scenario.gate);
      failed = true;
    }
  }

  const std::string title = StrFormat(
      "Fusion planner, %dx%d: modelled device time, fused vs unfused", size,
      size);
  std::printf("%s\n", table.Render(title).c_str());

  support::Json exploration;
  if (explore) {
    Result<support::Json> swept = ExploreCandidates(
        size, std::max(8, static_cast<int>(size * 0.25)));
    if (!swept.ok()) {
      std::fprintf(stderr, "error: exploration: %s\n",
                   swept.status().ToString().c_str());
      return 1;
    }
    exploration = std::move(swept).take();
  }

  if (!json_out.empty()) {
    support::Json doc = table.ToJson(title);
    doc["scenarios"] = std::move(details);
    if (explore) doc["exploration"] = std::move(exploration);
    const Status written = support::WriteFile(json_out, doc.Dump(2) + "\n");
    if (!written.ok()) {
      std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
      return 1;
    }
  }
  return failed ? 1 : 0;
}
