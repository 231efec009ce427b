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
// can actually exceed. Segments run as lane groups of up to 256 pixels on
// the simulator's own lane interpreter (sim/lanes.hpp) with its model
// compiled out, the interpreter the VM runs warps on, so outputs are
// bit-identical to both simulator engines and to the DSL's functional path.
//
// Whether the host can run a kernel at all is HostLaunch::Supports, which
// depends only on the program set and the extent, so the graph runtime
// decides it once per stage when it builds a plan. HostLaunch::CostPerPixel
// is the matching cost model the fusion planner scores host stages with.
//
// A launch runs in two steps. HostLaunch::Prepare plans the nine-region
// partition, checks the launch's bindings (sim::CheckBindings, the check
// Simulator::Validate makes) and binds it (sim::ResolveBindings); it is the
// only step that can fail. RunRows then writes any band of output rows, and
// is infallible. The region is picked per row, so every cut of the rows
// into bands gives the same values, and disjoint bands may run on different
// threads at once: the graph runtime's frame loop
// (runtime/stream_executor.hpp) spreads one stage's bands over its idle
// workers. Each thread keeps its own register file across bands and
// launches.
//
// Programs the executor cannot prove equivalent fail Supports (and Prepare)
// with Unimplemented: scratchpad staging (kLoadShared), texture/hardware
// boundary handling, thread/block-index dependent values, pixels-per-thread
// > 1, or a halo exceeding the image (the degenerate-region case).
#pragma once

#include <memory>

#include "sim/launch.hpp"
#include "support/status.hpp"

namespace hipacc::runtime {

/// A kernel launch prepared for the host executor, run in row bands.
class HostLaunch {
 public:
  /// Ok when the host executor runs `programs` over a width x height
  /// iteration space, else Unimplemented naming what it cannot run (see
  /// file comment). `halo_x` / `halo_y` is the kernel's boundary-handling
  /// window (DeviceKernel::bh_window) that sized the nine region variants;
  /// ignored when the program set has a single variant.
  static Status Supports(const sim::ProgramSet& programs, int width,
                         int height, int halo_x, int halo_y);

  /// Modelled host time of one launch of `programs` (which Supports
  /// accepts) over width x height pixels, in interior-program instructions
  /// per pixel: the interior program's length, plus a fixed per-stage cost
  /// (acquire, bind, prepare, schedule and end one stage) spread over the
  /// pixels. Instructions are the unit because the interpreter's time per
  /// pixel follows the interior program's length (calibration in
  /// host_exec.cpp).
  static double CostPerPixel(const sim::ProgramSet& programs, int width,
                             int height);

  /// Prepares `launch.programs` over the launch's iteration space, with the
  /// halo as in Supports. Buffers are bound by pointer, so `launch` must
  /// outlive the HostLaunch. Fails with Supports' Unimplemented status, or
  /// with sim::CheckBindings' Invalid status when the launch leaves a kernel
  /// buffer or constant mask unbound or binds an output read-only.
  static Result<HostLaunch> Prepare(const sim::Launch& launch, int halo_x,
                                    int halo_y);

  /// Writes output rows [y0, y1) of the bound output buffers in place. The
  /// lane interpreter's loops are inlined into it, and its definition starts
  /// on a cache line so their placement, and so their speed, does not move
  /// with the size of unrelated code linked before it.
  void RunRows(int y0, int y1) const;

  HostLaunch(HostLaunch&&) noexcept;
  HostLaunch& operator=(HostLaunch&&) noexcept;
  ~HostLaunch();

 private:
  struct Plan;
  explicit HostLaunch(std::unique_ptr<const Plan> plan);

  std::unique_ptr<const Plan> plan_;
};

}  // namespace hipacc::runtime
