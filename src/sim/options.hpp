// Simulator execution-engine selection. The simulator has three
// functionally identical engines: the tree-walking AST interpreter
// (interpreter.cpp), the register-based bytecode VM (bytecode.cpp + vm.cpp),
// and the native tier (jit/) which compiles hot register programs to host
// machine code. The VM is the default; the interpreter remains as the
// reference semantics, the fallback for programs the bytecode compiler
// rejects, and the `--sim-engine=ast` escape hatch for differential
// debugging. `native` layers tiering on top of the VM: launches run on the
// VM until the invocation count reaches `jit_threshold`, then switch to the
// compiled shared object when every region program of the kernel fuses into
// a native lane loop, and stay on the VM otherwise (also when no host
// toolchain is available).
#pragma once

#include <string>

#include "support/status.hpp"

namespace hipacc::sim {

enum class ExecEngine {
  kBytecode,  ///< compile-once linear programs, region-specialised (default)
  kAst,       ///< tree-walking reference interpreter
  kNative,    ///< bytecode + tiered native code (jit/), VM until hot
};

const char* to_string(ExecEngine engine) noexcept;

/// Parses "bytecode" / "ast" / "native" (the --sim-engine= vocabulary).
Result<ExecEngine> ParseExecEngine(const std::string& text);

struct SimulatorOptions {
  ExecEngine engine = ExecEngine::kBytecode;
  /// Native tier trigger: a kernel's program set is compiled to host code
  /// once it has been launched this many times (engine == kNative only).
  /// 1 compiles on first launch; a huge value pins the VM.
  int jit_threshold = 2;
};

/// Process-wide default used by Simulators constructed without explicit
/// options. Mutable so CLI flags (--sim-engine=) can steer every simulator
/// in the process, including those created deep inside the exploration
/// engine. Set it before spawning exploration threads; it is read without
/// synchronisation.
SimulatorOptions& DefaultSimulatorOptions();

}  // namespace hipacc::sim
