// Pass-pipeline skeleton for the source-to-source compiler. A
// CompilationContext threads the evolving artifact (KernelDecl -> DeviceKernel
// -> resource estimate -> launch configuration -> emitted source) through an
// ordered sequence of named Pass objects. Each pass reports structured
// diagnostics and wall-clock timing into the context; when a TraceSink is
// attached the manager additionally records one span per pass (category
// "compile"), so `--trace-out` timelines show where compile time goes.
//
// The driver (compiler/driver.cpp) assembles three pipelines from the seven
// concrete passes:
//   BuildCompilePipeline()  fuse -> parse -> lower -> estimate
//                                -> select_config -> emit -> bytecode
//   BuildDevicePipeline()          lower -> estimate -> select_config
//                                 -> emit -> bytecode
//   BuildTargetPipeline()                   select_config -> emit -> bytecode
// The shorter pipelines run when earlier products are already available —
// from Retarget provenance or from a compilation-cache hit. The bytecode
// pass compiles the device IR into the simulator's register-machine
// programs (sim/bytecode.hpp); it runs in every pipeline but reuses an
// already-attached program set. Every compiled kernel carries programs: a
// kernel that cannot get them fails to compile.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "compiler/driver.hpp"

namespace hipacc::compiler {

/// Severity of a pass-reported diagnostic. Errors accompany a failing
/// Status; notes record what a pass decided (selected config, emitted
/// bytes) without affecting compilation.
enum class DiagSeverity { kNote, kError };

const char* to_string(DiagSeverity severity) noexcept;

/// One structured message filed by a pass.
struct PassDiagnostic {
  std::string pass;
  DiagSeverity severity = DiagSeverity::kNote;
  std::string message;
};

/// Wall-clock duration of one executed pass, in pipeline order.
struct PassTiming {
  std::string pass;
  double ms = 0.0;
};

/// Mutable state threaded through the pipeline. Passes read the options,
/// refine the artifact, and append diagnostics; the manager appends
/// timings.
struct CompilationContext {
  /// Input of the parse pass; later passes ignore it. Null when the
  /// pipeline starts from an existing KernelDecl (Retarget, cache hits).
  const frontend::KernelSource* source = nullptr;
  /// Set by the fuse pass (or pre-seeded by the driver): the source with
  /// CompileOptions::fusion applied. When present, `source` points at it.
  std::optional<frontend::KernelSource> fused_source;
  CompileOptions options;
  CompiledKernel artifact;
  std::vector<PassDiagnostic> diagnostics;
  std::vector<PassTiming> timings;

  /// Best available kernel name for span labels and error messages.
  std::string KernelName() const;
  void Note(const std::string& pass, std::string message);
};

/// One named transformation step. Implementations must be stateless across
/// Run calls (the same pass object may serve many compilations).
class Pass {
 public:
  virtual ~Pass() = default;
  virtual const char* name() const = 0;
  /// Refines `ctx.artifact`. A non-ok Status aborts the pipeline; the
  /// manager records it as an error diagnostic.
  virtual Status Run(CompilationContext& ctx) const = 0;
};

/// Runs passes in registration order, recording per-pass timing (always)
/// and one TraceSink span per pass (when a sink is attached). An optional
/// dump hook fires after a named pass completes — the CLI's --dump-after.
class PassManager {
 public:
  using DumpHook =
      std::function<void(const Pass& pass, const CompilationContext& ctx)>;

  PassManager& Add(std::unique_ptr<Pass> pass);

  /// Invokes `hook` after the pass named `after` finishes successfully.
  void set_dump_hook(std::string after, DumpHook hook);

  /// Runs every pass in order; stops at the first failure.
  Status Run(CompilationContext& ctx) const;

  std::vector<std::string> names() const;
  std::size_t size() const { return passes_.size(); }

 private:
  std::vector<std::unique_ptr<Pass>> passes_;
  std::string dump_after_;
  DumpHook dump_hook_;
};

/// The concrete passes, exposed individually so callers can assemble
/// custom pipelines (tests, tools).
std::unique_ptr<Pass> MakeFusePass();
std::unique_ptr<Pass> MakeParsePass();
std::unique_ptr<Pass> MakeLowerPass();
std::unique_ptr<Pass> MakeEstimateResourcesPass();
std::unique_ptr<Pass> MakeSelectConfigPass();
std::unique_ptr<Pass> MakeEmitPass();
std::unique_ptr<Pass> MakeBytecodePass();

/// Standard pipelines (see file comment for their stage lists).
PassManager BuildCompilePipeline();
PassManager BuildDevicePipeline();
PassManager BuildTargetPipeline();

/// Names of the full pipeline's passes, in order ("fuse", "parse", "lower",
/// "estimate", "select_config", "emit", "bytecode") — the vocabulary
/// accepted by --dump-after.
const std::vector<std::string>& DefaultPassNames();

/// Standard dump hook: prints the pipeline state after `pass` to stderr
/// (what the CLI's --dump-after installs via CompileOptions::dump_after).
void DumpAfterPass(const Pass& pass, const CompilationContext& ctx);

}  // namespace hipacc::compiler
