// Bytecode execution engine: runs one thread block of a compiled ProgramSet
// (bytecode.hpp). It is the simulator's default engine and the reference the
// native tier (jit/) must match bit for bit: outputs, metrics, and the
// memory-model call sequence. The tests hold both to a tree-walking oracle
// over the device IR.
#pragma once

#include <cstdint>

#include "hwmodel/device_spec.hpp"
#include "sim/bytecode.hpp"
#include "sim/launch.hpp"
#include "sim/metrics.hpp"

namespace hipacc::sim {

/// Executes one thread block through the region-specialised bytecode
/// program. `executed_insns`, when non-null, accumulates the number of
/// instructions dispatched (across all warps of the block).
Status RunBlockBytecode(const Launch& launch, const ProgramSet& programs,
                        const hw::DeviceSpec& device, int block_x_idx,
                        int block_y_idx, Metrics* metrics,
                        std::uint64_t* executed_insns);

}  // namespace hipacc::sim
