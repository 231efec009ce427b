// ABI between the simulator host and natively compiled warp programs.
//
// This header is the single source of truth for the boundary: the host
// runner (native_runner.cpp) includes it normally, and the build embeds its
// full text into the generated translation unit (jit_abi_text.cpp, produced
// by CMake from this file), so both sides always compile the exact same
// struct layout. It must therefore stay self-contained — standard headers
// only, no project includes.
//
// Bump kJitAbiVersion whenever the layout or the calling convention
// changes; the version participates in the shared-object cache key, so
// stale modules from an older layout can never be dispatched.
#pragma once

namespace hipacc::sim::jit {

/// Mirrors sim::kMaxWarpWidth: lane arrays carry 64 fixed slots, of which
/// only the device's warp_size are live (trailing mask lanes stay zero).
inline constexpr int kJitMaxWarp = 64;

inline constexpr int kJitAbiVersion = 3;

/// Memory-instruction kinds reported through JitWarpCtx::mem_access.
inline constexpr int kJitMemGlobalRead = 0;
inline constexpr int kJitMemGlobalWrite = 1;
inline constexpr int kJitMemShared = 2;
inline constexpr int kJitMemConstant = 3;
inline constexpr int kJitMemTexture = 4;

/// One launch-bound image buffer (ProgramSet::buffer_names order). The
/// launch passed CheckBindings, so every slot an instruction touches is
/// bound, and every stored one writable.
struct JitBuffer {
  float* data = nullptr;
  int width = 0;
  int height = 0;
  int stride = 0;
};

/// One constant-mask table (ProgramSet::const_masks order).
struct JitMaskTable {
  const float* data = nullptr;
  unsigned long long size = 0;
};

/// Per-memory-instruction callback into the host memory model: `addrs`
/// holds the element addresses of the active lanes (lane order), `count`
/// how many. Never invoked with count == 0 (the model ignores empty
/// accesses).
using JitMemAccessFn = void (*)(void* host, int kind,
                                const unsigned long long* addrs, int count);

/// Warp-call context. The generated function executes one warp of one
/// region program: the parameter registers and the active mask live in
/// host-owned arrays of kJitMaxWarp lanes, metric deltas are accumulated
/// into the pointed-to counters, and every memory instruction reports its
/// coalesced address list through mem_access.
struct JitWarpCtx {
  int warp_size = 0;

  // Warp context (BlockState::BuildWarpContext outputs).
  const double* tid_x = nullptr;
  const double* tid_y = nullptr;
  const double* gid_x = nullptr;
  const double* gid_y = nullptr;
  const int* tid_xi = nullptr;  // integer mirrors for fused coordinates
  const int* tid_yi = nullptr;
  const int* gid_xi = nullptr;
  const int* gid_yi = nullptr;

  // Block/grid scalars (broadcast by kThreadIdx).
  double bix = 0.0;
  double biy = 0.0;
  double block_dim_x = 0.0;
  double block_dim_y = 0.0;
  double grid_dim_x = 0.0;
  double grid_dim_y = 0.0;
  double image_w = 0.0;
  double image_h = 0.0;

  // Register file: num_regs slots of kJitMaxWarp doubles, of which the
  // generated code reads only the scalar parameter slots (every other
  // value lives in locals of the lane loop).
  const double* regs = nullptr;
  // The warp active mask: kJitMaxWarp bytes.
  const unsigned char* masks = nullptr;

  // Scratchpad tile of the current block.
  const float* tile = nullptr;
  int tile_w = 0;
  int tile_h = 0;

  const JitBuffer* buffers = nullptr;
  const JitMaskTable* mask_tables = nullptr;

  // Metric accumulators (flushed once per warp call).
  unsigned long long* alu = nullptr;
  unsigned long long* sfu = nullptr;
  unsigned long long* oob = nullptr;
  unsigned long long* insns = nullptr;

  JitMemAccessFn mem_access = nullptr;
  void* host = nullptr;
};

/// Signature of a generated per-warp region function. It cannot fail: the
/// host checks a launch's bindings before any block runs.
using JitWarpFn = void (*)(JitWarpCtx*);

}  // namespace hipacc::sim::jit
