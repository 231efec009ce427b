// Native execution engine: runs one thread block of a compiled ProgramSet
// through its dlopened warp functions (cache.hpp) with the same observable
// behaviour — outputs, metrics and memory-model call sequence — as the
// bytecode VM's RunBlockBytecode. Like the VM it runs only launches that
// Simulator::Validate accepted, bindings included (CheckBindings), so the
// warp functions carry no binding checks and cannot fail.
#pragma once

#include <cstdint>

#include "hwmodel/device_spec.hpp"
#include "sim/bytecode.hpp"
#include "sim/jit/cache.hpp"
#include "sim/launch.hpp"
#include "sim/metrics.hpp"

namespace hipacc::sim::jit {

/// Executes one thread block of a validated launch through the native warp
/// functions, over its ResolveBindings. `executed_insns` accumulates
/// dispatched instruction counts like the VM.
Status RunBlockNative(const Launch& launch, const LaunchBindings& bindings,
                      const NativeProgram& native,
                      const hw::DeviceSpec& device, int block_x_idx,
                      int block_y_idx, Metrics* metrics,
                      std::uint64_t* executed_insns);

}  // namespace hipacc::sim::jit
