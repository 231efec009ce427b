#include "compiler/pass.hpp"

#include <algorithm>
#include <cstdio>
#include <iterator>

#include "codegen/lower.hpp"
#include "codegen/resource_estimator.hpp"
#include "sim/bytecode.hpp"
#include "sim/trace.hpp"
#include "support/stopwatch.hpp"
#include "support/string_utils.hpp"

namespace hipacc::compiler {

const char* to_string(DiagSeverity severity) noexcept {
  switch (severity) {
    case DiagSeverity::kNote: return "note";
    case DiagSeverity::kError: return "error";
  }
  return "?";
}

std::string CompilationContext::KernelName() const {
  if (!artifact.decl.name.empty()) return artifact.decl.name;
  if (source != nullptr) return source->name;
  return "<kernel>";
}

void CompilationContext::Note(const std::string& pass, std::string message) {
  diagnostics.push_back({pass, DiagSeverity::kNote, std::move(message)});
}

namespace {

/// Parse: DSL text -> KernelDecl.
Status Parse(CompilationContext& ctx) {
  if (ctx.source == nullptr)
    return Status::Internal("parse pass requires a KernelSource input");
  Result<ast::KernelDecl> decl = frontend::ParseKernel(*ctx.source);
  if (!decl.ok()) return decl.status();
  ctx.artifact.decl = std::move(decl).take();
  ctx.Note("parse", StrFormat("parsed kernel '%s': %zu params, %zu "
                              "accessors, %zu masks",
                              ctx.artifact.decl.name.c_str(),
                              ctx.artifact.decl.params.size(),
                              ctx.artifact.decl.accessors.size(),
                              ctx.artifact.decl.masks.size()));
  return Status::Ok();
}

/// Lower: KernelDecl -> DeviceKernel under the requested codegen options.
/// Also stamps the artifact's codegen provenance (a frontend-cache hit
/// stamps it from the options instead, since the key fixes them).
Status Lower(CompilationContext& ctx) {
  Result<ast::DeviceKernel> lowered =
      codegen::LowerKernel(ctx.artifact.decl, ctx.options.codegen);
  if (!lowered.ok()) return lowered.status();
  ctx.artifact.device_ir = std::move(lowered).take();
  ctx.artifact.codegen = ctx.options.codegen;
  ctx.Note("lower", StrFormat("lowered for %s: %zu variants, %zu buffers",
                              to_string(ctx.artifact.device_ir.backend),
                              ctx.artifact.device_ir.variants.size(),
                              ctx.artifact.device_ir.buffers.size()));
  return Status::Ok();
}

/// Estimate: DeviceKernel -> register/shared-memory footprint (the nvcc
/// stand-in the occupancy model consumes).
Status Estimate(CompilationContext& ctx) {
  ctx.artifact.resources = codegen::EstimateResources(ctx.artifact.device_ir);
  ctx.Note("estimate", StrFormat("%d regs/thread, %d B static smem",
                                 ctx.artifact.resources.regs_per_thread,
                                 ctx.artifact.resources.smem_static_bytes));
  return Status::Ok();
}

/// Analytic cost model behind the PPT axis of the extended Algorithm 2:
/// per-pixel work is the variant's op count over its ppt output pixels
/// plus a fixed per-thread prologue amortised the same way, all divided
/// by achieved occupancy (a half-occupied device doubles effective cost).
double PptScore(const hw::KernelResources& resources, double occupancy) {
  // Index computation, launch guard, address setup: work every thread
  // pays once regardless of how many pixels it produces.
  constexpr double kThreadPrologueOps = 16.0;
  const int ppt = resources.ppt > 0 ? resources.ppt : 1;
  const double per_pixel =
      (static_cast<double>(resources.approx_ops) + kThreadPrologueOps) /
      static_cast<double>(ppt);
  return per_pixel / std::max(occupancy, 1e-6);
}

/// The PPT sweep of automatic pixels-per-thread selection (see Select).
Status SelectPixelsPerThread(CompilationContext& ctx) {
  if (!ctx.artifact.decl.body)
    return Status::Invalid(
        "pixels_per_thread=0 (auto) requires a parsed kernel declaration");
  static constexpr int kCandidates[] = {1, 2, 4, 8};
  int best_ppt = 1;
  double best_score = 0.0;
  ast::DeviceKernel best_ir;
  hw::KernelResources best_res;
  bool have_best = false;
  for (int ppt : kCandidates) {
    codegen::CodegenOptions copts = ctx.options.codegen;
    copts.pixels_per_thread = ppt;
    Result<ast::DeviceKernel> lowered =
        codegen::LowerKernel(ctx.artifact.decl, copts);
    if (!lowered.ok()) {
      if (ppt == 1) return lowered.status();
      continue;  // candidate not lowerable; the swept space just shrinks
    }
    hw::KernelResources res = codegen::EstimateResources(lowered.value());
    double occupancy = 0.0;
    if (ctx.options.forced_config) {
      const hw::OccupancyResult occ = hw::ComputeOccupancy(
          ctx.options.device, *ctx.options.forced_config, res);
      if (!occ.valid) continue;  // too fat for the forced configuration
      occupancy = occ.occupancy;
    } else {
      hw::HeuristicInput input;
      input.device = ctx.options.device;
      input.resources = res;
      input.border_handling = lowered.value().has_boundary_variants();
      input.window = lowered.value().bh_window;
      input.image_width = ctx.options.image_width;
      input.image_height = ctx.options.image_height;
      Result<hw::HeuristicChoice> choice = hw::SelectConfig(input);
      if (!choice.ok()) continue;  // no valid configuration at this ppt
      // SelectConfig is best-effort about degenerate region grids (tiny
      // images keep their classic behaviour); the sweep is not — a ppt>1
      // candidate that cannot pass region dispatch is simply not taken.
      if (ppt > 1 && input.border_handling &&
          hw::ComputeRegionGrid(choice.value().config,
                                ctx.options.image_width,
                                ctx.options.image_height,
                                lowered.value().bh_window, ppt)
              .degenerate())
        continue;
      occupancy = choice.value().occupancy.occupancy;
    }
    const double score = PptScore(res, occupancy);
    if (!have_best || score < best_score) {
      have_best = true;
      best_ppt = ppt;
      best_score = score;
      best_ir = std::move(lowered).take();
      best_res = res;
    }
  }
  if (!have_best)
    return Status::Exhausted(
        "no pixels-per-thread candidate is valid on device " +
        ctx.options.device.name);
  if (ctx.artifact.device_ir.ppt != best_ppt) {
    ctx.artifact.device_ir = std::move(best_ir);
    ctx.artifact.resources = best_res;
  }
  ctx.Note("select_config", StrFormat("auto pixels-per-thread: selected %d "
                                      "(%.1f weighted ops/pixel)",
                                      best_ppt, best_score));
  if (ctx.options.trace)
    ctx.options.trace->IncrementCounter("ppt.selected", best_ppt);
  return Status::Ok();
}

/// Select: resources + device -> launch configuration, via Algorithm 2 or
/// a forced configuration (the caller's, or the profile pick Compile turned
/// into one). When the caller asked for automatic
/// pixels-per-thread selection (pixels_per_thread == 0), the pass first
/// sweeps PPT in {1, 2, 4, 8}: each candidate is re-lowered and re-estimated,
/// then scored with an analytic per-pixel cost — the per-thread prologue
/// (index math, launch guard) amortised over ppt output pixels, divided by
/// the occupancy the fatter kernel still achieves. The winning IR replaces
/// the artifact before the ordinary configuration selection runs.
Status Select(CompilationContext& ctx) {
  if (ctx.options.codegen.pixels_per_thread == 0) {
    Status swept = SelectPixelsPerThread(ctx);
    if (!swept.ok()) return swept;
  }
  CompiledKernel& out = ctx.artifact;
  const CompileOptions& options = ctx.options;
  if (options.forced_config) {
    out.config.config = *options.forced_config;
    out.config.occupancy = hw::ComputeOccupancy(
        options.device, out.config.config, out.resources);
    if (!out.config.occupancy.valid)
      return Status::Exhausted(StrFormat(
          "forced configuration %dx%d is invalid on %s: %s",
          out.config.config.block_x, out.config.config.block_y,
          options.device.name.c_str(), out.config.occupancy.reason.c_str()));
    // The evidence Algorithm 2 and the sweep report for this configuration.
    if (out.device_ir.has_boundary_variants())
      out.config.border_threads = hw::ApproxBorderThreads(
          out.config.config, options.image_width, options.image_height,
          out.device_ir.bh_window, out.device_ir.ppt);
    ctx.Note("select_config", StrFormat("forced config %dx%d",
                                        out.config.config.block_x,
                                        out.config.config.block_y));
  } else {
    hw::HeuristicInput input;
    input.device = options.device;
    input.resources = out.resources;
    input.border_handling = out.device_ir.has_boundary_variants();
    input.window = out.device_ir.bh_window;
    input.image_width = options.image_width;
    input.image_height = options.image_height;
    Result<hw::HeuristicChoice> choice = hw::SelectConfig(input);
    if (!choice.ok()) return choice.status();
    out.config = std::move(choice).take();
    ctx.Note("select_config",
             StrFormat("selected config %dx%d, occupancy %.0f%%",
                       out.config.config.block_x, out.config.config.block_y,
                       100.0 * out.config.occupancy.occupancy));
  }
  return Status::Ok();
}

/// Emit: DeviceKernel + configuration -> kernel source text through the
/// backend of the IR's target.
Status Emit(CompilationContext& ctx) {
  codegen::EmitContext ectx;
  ectx.config = ctx.artifact.config.config;
  ectx.image_width = ctx.options.image_width;
  ectx.image_height = ctx.options.image_height;
  ctx.artifact.source = codegen::EmitKernelSource(ctx.artifact.device_ir, ectx);
  ctx.Note("emit", StrFormat("emitted %zu bytes of %s source",
                             ctx.artifact.source.size(),
                             to_string(ctx.artifact.device_ir.backend)));
  return Status::Ok();
}

/// Bytecode: DeviceKernel -> region-specialised simulator programs, which
/// every compiled kernel carries. A kernel whose programs exceed a size
/// budget fails to compile here, with the budget named in the error.
Status Bytecode(CompilationContext& ctx) {
  HIPACC_ASSIGN_OR_RETURN(ctx.artifact.bytecode,
                          sim::CompileToBytecode(ctx.artifact.device_ir));
  const sim::ProgramSet& set = *ctx.artifact.bytecode;
  ctx.Note("bytecode",
           StrFormat("compiled %zu programs, %lld instructions",
                     set.programs.size(),
                     static_cast<long long>(set.total_instructions)));
  if (ctx.options.trace) {
    ctx.options.trace->IncrementCounter(
        "bytecode.programs", static_cast<long long>(set.programs.size()));
    ctx.options.trace->IncrementCounter("bytecode.instructions",
                                        set.total_instructions);
    ctx.options.trace->IncrementCounter(
        "bytecode.compile_us", static_cast<long long>(set.compile_ms * 1000.0));
  }
  return Status::Ok();
}

/// The pipeline, in order.
struct PassEntry {
  const char* name;
  Status (*run)(CompilationContext& ctx);
};

constexpr PassEntry kPasses[] = {
    {"parse", Parse},         {"lower", Lower}, {"estimate", Estimate},
    {"select_config", Select}, {"emit", Emit},   {"bytecode", Bytecode},
};

}  // namespace

const std::vector<std::string>& DefaultPassNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const PassEntry& pass : kPasses) out.push_back(pass.name);
    return out;
  }();
  return names;
}

Status RunPasses(CompilationContext& ctx, std::string_view first,
                 const DumpHook& dump) {
  const PassEntry* pass = std::begin(kPasses);
  while (pass != std::end(kPasses) && pass->name != first) ++pass;
  if (pass == std::end(kPasses))
    return Status::Internal("no compiler pass named '" + std::string(first) +
                            "'");
  for (; pass != std::end(kPasses); ++pass) {
    const std::size_t first_diag = ctx.diagnostics.size();
    Stopwatch stopwatch;
    Status status;
    {
      sim::TraceSpan span(ctx.options.trace,
                          std::string(pass->name) + " " + ctx.KernelName(),
                          "compile");
      status = pass->run(ctx);
      if (ctx.options.trace != nullptr) {
        support::Json args = support::Json::Object();
        args["pass"] = pass->name;
        if (!status.ok()) args["error"] = status.ToString();
        if (ctx.diagnostics.size() > first_diag) {
          support::Json notes = support::Json::Array();
          for (std::size_t i = first_diag; i < ctx.diagnostics.size(); ++i)
            notes.push_back(ctx.diagnostics[i].message);
          args["diagnostics"] = std::move(notes);
        }
        span.set_args(std::move(args));
      }
    }
    ctx.timings.push_back({pass->name, stopwatch.ElapsedMs()});
    if (!status.ok()) {
      ctx.diagnostics.push_back(
          {pass->name, DiagSeverity::kError, status.ToString()});
      return status;
    }
    if (dump && ctx.options.dump_after == pass->name) dump(pass->name, ctx);
  }
  return Status::Ok();
}

void DumpAfterPass(std::string_view pass, const CompilationContext& ctx) {
  const CompiledKernel& a = ctx.artifact;
  std::fprintf(stderr, "--- after pass '%.*s' (kernel '%s') ---\n",
               static_cast<int>(pass.size()), pass.data(),
               ctx.KernelName().c_str());
  if (pass == "parse") {
    for (const ast::ParamInfo& p : a.decl.params)
      std::fprintf(stderr, "  param %s\n", p.name.c_str());
    for (const ast::AccessorInfo& acc : a.decl.accessors)
      std::fprintf(stderr, "  accessor %s: window %dx%d, boundary %s\n",
                   acc.name.c_str(), acc.window.size_x(), acc.window.size_y(),
                   to_string(acc.boundary));
    for (const ast::MaskInfo& m : a.decl.masks)
      std::fprintf(stderr, "  mask %s: %dx%d, %s\n", m.name.c_str(), m.size_x,
                   m.size_y, m.is_static() ? "static" : "dynamic");
  } else if (pass == "lower") {
    std::fprintf(stderr, "  backend %s, %zu variants, %zu buffers, "
                 "%zu const masks, %zu global masks\n",
                 to_string(a.device_ir.backend), a.device_ir.variants.size(),
                 a.device_ir.buffers.size(), a.device_ir.const_masks.size(),
                 a.device_ir.global_masks.size());
  } else if (pass == "estimate") {
    std::fprintf(stderr, "  %d regs/thread, %d B static smem\n",
                 a.resources.regs_per_thread, a.resources.smem_static_bytes);
  } else if (pass == "select_config") {
    std::fprintf(stderr, "  config %dx%d, occupancy %.0f%%\n",
                 a.config.config.block_x, a.config.config.block_y,
                 100.0 * a.config.occupancy.occupancy);
  } else if (pass == "emit") {
    std::fputs(a.source.c_str(), stderr);
  } else if (pass == "bytecode") {
    for (const sim::Program& program : a.bytecode->programs)
      std::fprintf(stderr, "  program %s: %zu instructions, %d registers\n",
                   to_string(program.region), program.code.size(),
                   program.num_regs);
    std::fprintf(stderr, "  total: %zu programs, %lld instructions\n",
                 a.bytecode->programs.size(),
                 static_cast<long long>(a.bytecode->total_instructions));
  }
  std::fprintf(stderr, "--- end dump ---\n");
}

}  // namespace hipacc::compiler
