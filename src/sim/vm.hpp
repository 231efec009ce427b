// Bytecode execution engine: runs one thread block of a compiled ProgramSet
// (bytecode.hpp), warp by warp, on the lane interpreter (lanes.hpp) with the
// model observed. It runs every sampled Measure, in its model-only walk, and
// is Execute's default engine and the reference the native tier (jit/) must
// match bit for bit: outputs, metrics, and the memory-model call sequence.
// The tests hold both to a tree-walking oracle over the device IR.
#pragma once

#include <cstdint>

#include "hwmodel/device_spec.hpp"
#include "sim/launch.hpp"
#include "sim/metrics.hpp"

namespace hipacc::sim {

/// Executes one thread block of `launch` through the region-specialised
/// program of `bindings` (ResolveBindings of the launch's programs).
/// `executed_insns`, when non-null, accumulates the number of instructions
/// dispatched (across all warps of the block). With `model_only`, computes
/// only what the model observes and writes no pixel (RunLanes' model-only
/// walk); the metrics are the same. The launch passed CheckBindings, so no
/// instruction fails on a binding; only an internal inconsistency (a region
/// without a program) returns an error. Its definition starts on a cache
/// line, as HostLaunch::RunRows does, so its placement, and so its speed,
/// does not move with the size of unrelated code linked before it.
Status RunBlockBytecode(const Launch& launch, const LaunchBindings& bindings,
                        const hw::DeviceSpec& device, int block_x_idx,
                        int block_y_idx, Metrics* metrics,
                        std::uint64_t* executed_insns,
                        bool model_only = false);

}  // namespace hipacc::sim
