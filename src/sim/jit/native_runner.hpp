// Native execution engine: runs one thread block of a compiled ProgramSet
// through its dlopened warp functions (cache.hpp) with the same observable
// behaviour — outputs, metrics, memory-model call sequence, and error
// texts — as the bytecode VM's RunBlockBytecode. The warp functions check
// bindings before any side effect, while the VM fails mid-program after
// partial metrics and model calls, so only a launch that passes
// CheckBindings (launch.hpp) runs here.
#pragma once

#include <cstdint>

#include "hwmodel/device_spec.hpp"
#include "sim/bytecode.hpp"
#include "sim/jit/cache.hpp"
#include "sim/launch.hpp"
#include "sim/metrics.hpp"

namespace hipacc::sim::jit {

/// Executes one thread block through the native warp functions of a launch
/// that passed CheckBindings, over its ResolveBindings. `executed_insns`
/// accumulates dispatched instruction counts like the VM.
Status RunBlockNative(const Launch& launch, const LaunchBindings& bindings,
                      const NativeProgram& native,
                      const hw::DeviceSpec& device, int block_x_idx,
                      int block_y_idx, Metrics* metrics,
                      std::uint64_t* executed_insns);

}  // namespace hipacc::sim::jit
