#include "compiler/driver.hpp"

#include "compiler/cache.hpp"
#include "compiler/pass.hpp"
#include "compiler/profile.hpp"
#include "sim/trace.hpp"
#include "support/log.hpp"
#include "support/string_utils.hpp"

namespace hipacc::compiler {
namespace {

/// The verbose line HIPAcc prints per compiled kernel (benches and users
/// grep for it).
void LogCompiled(const CompiledKernel& kernel, const CompileOptions& options) {
  LogInfo(StrFormat("compiled kernel '%s' for %s/%s: config %dx%d, "
                    "%d regs/thread, occupancy %.0f%%",
                    kernel.decl.name.c_str(), options.device.name.c_str(),
                    to_string(options.codegen.backend),
                    kernel.config.config.block_x, kernel.config.config.block_y,
                    kernel.resources.regs_per_thread,
                    100.0 * kernel.config.occupancy.occupancy));
}

/// The frontend key fixes the source fingerprint (Compile stamped it and
/// its hash already) and every codegen option, so the hit supplies only the
/// pass products.
void SeedFromFrontend(CompilationContext& ctx, FrontendArtifacts fe) {
  ctx.artifact.decl = std::move(fe.decl);
  ctx.artifact.device_ir = std::move(fe.device_ir);
  ctx.artifact.resources = fe.resources;
  ctx.artifact.codegen = ctx.options.codegen;
}

/// The compile's one profile lookup: no pick without a store or when the
/// caller forces a configuration, and an explicit pixels_per_thread pins
/// the pick's PPT. A pick becomes a forced configuration at its PPT, so the
/// pipeline lowers at that PPT from the start and the cache keys carry it.
void ApplyProfilePick(CompileOptions& options, const std::string& fingerprint) {
  if (options.profiles == nullptr || options.forced_config) return;
  const std::optional<ProfileEntry> pick = DecideSelection(
      options.profiles->Lookup(MakeProfileKey(fingerprint, options.codegen,
                                              options.device,
                                              options.image_width,
                                              options.image_height)),
      options.codegen.pixels_per_thread);
  if (options.trace != nullptr)
    options.trace->IncrementCounter(pick ? "reselect.measured"
                                         : "reselect.no_history");
  if (!pick) return;
  options.forced_config = pick->config;
  options.codegen.pixels_per_thread = pick->ppt;
}

/// Runs the pipeline from the pass named `first`, and on success stores the
/// results into the cache (when enabled) and emits the per-kernel log line.
Result<CompiledKernel> RunAndFinish(CompilationContext& ctx,
                                    std::string_view first,
                                    const CacheKey* frontend_key,
                                    const CacheKey* target_key) {
  const Status status = RunPasses(ctx, first);
  if (ctx.options.pass_timings != nullptr)
    ctx.options.pass_timings->insert(ctx.options.pass_timings->end(),
                                     ctx.timings.begin(), ctx.timings.end());
  if (!status.ok()) return status;
  CompilationCache* cache = ctx.options.cache;
  if (cache != nullptr) {
    if (frontend_key != nullptr)
      cache->StoreFrontend(*frontend_key,
                           {ctx.artifact.decl, ctx.artifact.device_ir,
                            ctx.artifact.resources});
    if (target_key != nullptr) cache->StoreTarget(*target_key, ctx.artifact);
  }
  LogCompiled(ctx.artifact, ctx.options);
  return std::move(ctx.artifact);
}

}  // namespace

Result<CompiledKernel> Compile(const frontend::KernelSource& source,
                               const CompileOptions& options) {
  CompilationContext ctx;
  ctx.source = &source;
  ctx.options = options;
  ctx.artifact.source_fingerprint = SourceFingerprint(source);
  ctx.artifact.source_hash = SourceHash(ctx.artifact.source_fingerprint);
  ApplyProfilePick(ctx.options, ctx.artifact.source_fingerprint);

  CompilationCache* cache = options.cache;
  if (cache == nullptr) return RunAndFinish(ctx, "parse", nullptr, nullptr);

  const CacheKey frontend_key = MakeFrontendKeyFromFingerprint(
      ctx.artifact.source_fingerprint, ctx.options.codegen);
  const CacheKey target_key =
      MakeTargetKey(frontend_key, options.device, options.image_width,
                    options.image_height, ctx.options.forced_config);
  if (std::optional<CompiledKernel> hit =
          cache->LookupTarget(target_key, options.trace)) {
    LogCompiled(*hit, options);
    return std::move(*hit);
  }
  if (std::optional<FrontendArtifacts> fe =
          cache->LookupFrontend(frontend_key, options.trace)) {
    SeedFromFrontend(ctx, std::move(*fe));
    return RunAndFinish(ctx, "select_config", nullptr, &target_key);
  }
  return RunAndFinish(ctx, "parse", &frontend_key, &target_key);
}

}  // namespace hipacc::compiler
