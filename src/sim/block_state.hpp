// Per-block execution state shared by the simulator's engines (the
// bytecode VM and the native tier) and the tests' tree-walking oracle over
// the device IR: the thread/global-index context and active mask of the
// current warp, the scratchpad staging phase (Listing 7), and the
// block-level region dispatch (Figure 3). All three drive their warp bodies
// through this one implementation, so the memory-model call sequence — and
// therefore every metric the timing model consumes — is identical by
// construction.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "ast/metadata.hpp"
#include "sim/launch.hpp"
#include "sim/metrics.hpp"

namespace hipacc::sim {

/// Maximum SIMD width across the device database (AMD wavefronts are 64
/// lanes wide). Warp contexts and lane masks carry inline fixed-size
/// storage sized for it, so no engine's hot path performs heap allocation.
constexpr int kMaxWarpWidth = 64;

using LaneMask = std::array<unsigned char, kMaxWarpWidth>;

inline bool AnyActive(const LaneMask& mask) {
  for (const unsigned char b : mask)
    if (b) return true;
  return false;
}

/// ALU cost of one boundary guard in one direction, per mode (the knob that
/// makes manual uniformly-guarded kernels vary across modes, Section VI-A).
int GuardAluCost(ast::BoundaryMode mode);

/// Region selection, staging, and warp-context computation for one thread
/// block. An engine constructs one BlockState per block, calls Begin() once
/// (region dispatch cost, warp count, optional scratchpad staging), then
/// BuildWarpContext() per warp before running the warp body its own way.
struct BlockState {
  /// Result of Begin(): the block's boundary region and warp iteration.
  struct Plan {
    ast::Region region = ast::Region::kInterior;
    int threads = 0;
    int warps = 0;
  };

  BlockState(const Launch& launch, const hw::DeviceSpec& device,
             int block_x_idx, int block_y_idx, Metrics* metrics);

  /// Selects the region variant, accounts the Listing 8 dispatch cost, and
  /// runs the scratchpad staging phase when the kernel has one.
  Result<Plan> Begin();

  /// Populates tid/gid/active for one warp (+4 alu: gid + bounds guard).
  void BuildWarpContext(int warp, int threads);

  const Launch& launch;
  const hw::DeviceSpec& device;
  int bix = 0;
  int biy = 0;
  Metrics* metrics = nullptr;
  MemoryModel memory;
  int warp_size = 32;

  std::array<double, kMaxWarpWidth> tid_x{}, tid_y{}, gid_x{}, gid_y{};
  LaneMask active{};

  /// Reused per-access coalescing address buffer (capacity persists across
  /// the block, so the memory-model calls allocate only on first use).
  std::vector<std::uint64_t> addr_scratch;

  /// Scratchpad tile of this block.
  std::vector<float> tile;
  int tile_w = 0;
  int tile_h = 0;

 private:
  /// Fills the tile from the staged accessor, a kernel buffer the launch
  /// bound (CheckBindings).
  void StageScratchpad(int warps, int threads);
};

}  // namespace hipacc::sim
