// Reference oracle for the simulator: a warp-lockstep interpreter that walks
// the lowered device IR directly, independent of the register programs the
// product engines run.
//
// Threads of a warp evaluate each IR node together (SIMT); divergent
// control flow is handled with lane masks, and per-warp memory operations
// feed the MemoryModel so coalescing, caching, constant broadcast, and bank
// conflicts are accounted exactly as the hardware would group them.
//
// One BlockRunner instance executes one thread block: it selects the
// boundary-handling region variant for the block (Figure 3 dispatch), runs
// the scratchpad staging phase if the kernel has one (Listing 7), and then
// the body for every warp.
//
// Test-only: linked by test targets, never by the product. Tests reach it
// through the simulator's launch driver (sim::Simulator::Run takes it as the
// block function), so an oracle launch shares validation, occupancy, block
// sampling and the timing model with the VM and the native tier.
#pragma once

#include <cstdint>
#include <optional>

#include "sim/simulator.hpp"

namespace hipacc::oracle {

/// Executes the thread block at grid position (block_x_idx, block_y_idx) and
/// accumulates metrics. Writes the block's output pixels through the bound
/// output buffer. Returns an error for malformed kernels (unbound buffers,
/// missing masks, non-uniform loop bounds are fine — handled per lane).
/// Has the sim::BlockFn signature; the oracle dispatches no instructions, so
/// `executed_insns` is left untouched.
Status RunBlock(const sim::Launch& launch, const hw::DeviceSpec& device,
                int block_x_idx, int block_y_idx, sim::Metrics* metrics,
                std::uint64_t* executed_insns = nullptr);

/// Simulator::Execute with every block run on the oracle.
inline Result<sim::LaunchStats> Execute(const sim::Simulator& simulator,
                                        const sim::Launch& launch) {
  return simulator.Run(launch, RunBlock, std::nullopt);
}

/// Simulator::Measure with the sampled blocks run on the oracle.
inline Result<sim::LaunchStats> Measure(const sim::Simulator& simulator,
                                        const sim::Launch& launch,
                                        int samples_per_region = 3) {
  return simulator.Run(launch, RunBlock, samples_per_region);
}

}  // namespace hipacc::oracle
