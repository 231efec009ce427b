// The compiler's pass pipeline. A CompilationContext threads the evolving
// artifact (KernelDecl -> DeviceKernel -> resource estimate -> launch
// configuration -> emitted source -> simulator programs) through one fixed
// list of named passes:
//
//   parse -> lower -> estimate -> select_config -> emit -> bytecode
//
// RunPasses runs that list from a named pass to its end. The driver
// (compiler/driver.cpp) starts at "parse" on a cache miss and at
// "select_config" when the frontend cache supplies the parsed, lowered and
// estimated kernel. Each pass files notes (or its error) and a wall-clock
// timing into the context; with a TraceSink attached, each also records one
// span (category "compile"), so `--trace-out` timelines show where compile
// time goes. The bytecode pass compiles the device IR into the simulator's
// register programs (sim/bytecode.hpp): a kernel that cannot get them fails
// to compile.
#pragma once

#include <functional>
#include <string>
#include <string_view>
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
/// refine the artifact, and append diagnostics; the runner appends
/// timings.
struct CompilationContext {
  /// Input of the parse pass; later passes ignore it, so a run that starts
  /// past parse may leave it null.
  const frontend::KernelSource* source = nullptr;
  CompileOptions options;
  CompiledKernel artifact;
  std::vector<PassDiagnostic> diagnostics;
  std::vector<PassTiming> timings;

  /// Best available kernel name for span labels and error messages.
  std::string KernelName() const;
  void Note(const std::string& pass, std::string message);
};

/// Called with a pass's name after it succeeded, when that name is
/// CompileOptions::dump_after.
using DumpHook =
    std::function<void(std::string_view pass, const CompilationContext& ctx)>;

/// Standard dump hook: prints the pipeline state after `pass` to stderr
/// (the CLI's --dump-after).
void DumpAfterPass(std::string_view pass, const CompilationContext& ctx);

/// The pipeline's pass names, in order ("parse", "lower", "estimate",
/// "select_config", "emit", "bytecode") — the vocabulary accepted by
/// --dump-after.
const std::vector<std::string>& DefaultPassNames();

/// Runs the pipeline's passes in order from the one named `first` to the
/// last, recording each pass's timing (always) and span (when a sink is
/// attached). Stops at the first failure, which it records as an error
/// diagnostic and returns. `dump` fires after the pass named
/// `ctx.options.dump_after`.
Status RunPasses(CompilationContext& ctx, std::string_view first,
                 const DumpHook& dump = DumpAfterPass);

}  // namespace hipacc::compiler
