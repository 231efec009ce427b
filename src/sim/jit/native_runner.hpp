// Native execution engine: runs one thread block of a compiled ProgramSet
// through its dlopened warp functions (cache.hpp) with the same observable
// behaviour — outputs, metrics, memory-model call sequence, and error
// texts — as the bytecode VM's RunBlockBytecode.
#pragma once

#include <cstdint>

#include "hwmodel/device_spec.hpp"
#include "sim/bytecode.hpp"
#include "sim/jit/cache.hpp"
#include "sim/launch.hpp"
#include "sim/metrics.hpp"

namespace hipacc::sim::jit {

/// True when `launch` binds every buffer and constant mask that an
/// instruction of `ps` touches, and every stored buffer is writable. The
/// warp functions check bindings before any side effect, while the VM
/// fails mid-program after partial metrics and model calls, so a launch
/// that fails this check must run on the VM to fail the same way. Bindings
/// are launch-level: check once per launch, before the block loop.
bool NativeBindingsHold(const ProgramSet& ps, const Launch& launch);

/// Executes one thread block through the native warp functions of a launch
/// that passed NativeBindingsHold. `executed_insns` accumulates dispatched
/// instruction counts like the VM.
Status RunBlockNative(const Launch& launch, const ProgramSet& programs,
                      const NativeProgram& native,
                      const hw::DeviceSpec& device, int block_x_idx,
                      int block_y_idx, Metrics* metrics,
                      std::uint64_t* executed_insns);

}  // namespace hipacc::sim::jit
