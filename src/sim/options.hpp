// Simulator engine options. Execute runs its kernel's register programs
// (bytecode.hpp) on one of two functionally identical engines: the bytecode
// VM (vm.cpp, on the lane interpreter), the default, and the native tier
// (jit/), which compiles hot program sets to host machine code. `native`
// layers tiering on top of the VM: launches run on the VM until the
// invocation count reaches `jit_threshold`, then switch to the compiled
// shared object when every region program of the kernel fuses into a native
// lane loop, and stay on the VM otherwise (also when no host toolchain is
// available). Measure ignores the engine: it always runs the VM's
// model-only walk, and its launches do not count toward `jit_threshold`.
// Options are passed to each Simulator explicitly; there is no process-wide
// default.
#pragma once

namespace hipacc::sim {

enum class ExecEngine {
  kBytecode,  ///< compile-once linear programs, region-specialised (default)
  kNative,    ///< bytecode + tiered native code (jit/), VM until hot
};

struct SimulatorOptions {
  ExecEngine engine = ExecEngine::kBytecode;
  /// Native tier trigger: a kernel's program set is compiled to host code
  /// once Execute has launched it this many times (engine == kNative only).
  /// 1 compiles on first launch; a huge value pins the VM.
  int jit_threshold = 2;
};

}  // namespace hipacc::sim
