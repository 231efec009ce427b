// Host bytecode executor: runs a kernel's compiled register programs
// (sim/bytecode.hpp) directly over image rows, without the simulator's
// warp-lockstep machinery, memory model, or metric accounting. It exists
// for the pipeline graph runtime (runtime/graph.hpp), where stages only
// need *values* — the simulator remains the path that also models time.
//
// Execution model: each output row is cut into x-segments by the kernel's
// boundary-handling halo — [0, halo_x), [halo_x, W - halo_x), [W - halo_x,
// W) — and crossed with the same three y-bands, selecting one of the nine
// region programs per segment at *pixel* granularity. This is value-exact
// with the simulator's block-granular region multiplexing: a region's
// program differs from the interior one only in which boundary guards it
// carries, and guards are value-neutral for in-range reads — every pixel
// here runs under a program whose guards cover exactly the directions it
// can actually exceed. Segments are interpreted in lane chunks (one
// dispatch per instruction per chunk, amortised over up to kLaneWidth
// pixels) using the very same per-lane arithmetic helpers as the VM, so
// outputs are bit-identical to both simulator engines and to the DSL's
// functional path.
//
// Rows run serially on the calling thread. The graph runtime's frame loop
// (runtime/stream_executor.hpp) is the only place that starts threads for
// stage execution: each of its workers runs whole stages, so a launch's rows
// stay on the worker that claimed the stage and reuse its thread-local
// register file across launches.
//
// Programs the executor cannot prove equivalent return Unimplemented:
// scratchpad staging (kLoadShared), texture/hardware boundary handling,
// thread/block-index dependent values, pixels-per-thread > 1, or a halo
// exceeding the image (the degenerate-region case). These checks run before
// any pixel is written, so callers fall back to the simulator cleanly.
#pragma once

#include "sim/launch.hpp"
#include "support/status.hpp"

namespace hipacc::runtime {

/// Executes `launch.programs` over the launch's iteration space, writing
/// bound output buffers in place. `halo_x` / `halo_y` is the kernel's
/// boundary-handling window (DeviceKernel::bh_window) that sized the nine
/// region variants; ignored when the program set has a single variant.
/// Returns Unimplemented for unsupported programs (see file comment) —
/// the caller is expected to fall back to simulator execution.
Status RunOnHost(const sim::Launch& launch, int halo_x, int halo_y);

}  // namespace hipacc::runtime
