// Simulator engine options. Execute runs its kernel's register programs
// (bytecode.hpp) on one of two functionally identical engines: the bytecode
// VM (vm.cpp, on the lane interpreter), the default, and the native tier
// (jit/), which compiles program sets to host machine code. `native` runs a
// set's compiled shared object from its first Execute when every region
// program of the kernel fuses into a native lane loop, and the VM otherwise
// (also when no host toolchain is available). Measure ignores the engine:
// it always runs the VM's model-only walk. Options are passed to each
// Simulator explicitly; there is no process-wide default.
#pragma once

namespace hipacc::sim {

enum class ExecEngine {
  kBytecode,  ///< compile-once linear programs, region-specialised (default)
  kNative,    ///< native code (jit/) where the set fuses, else bytecode
};

struct SimulatorOptions {
  ExecEngine engine = ExecEngine::kBytecode;
};

}  // namespace hipacc::sim
