#include "sim/block_state.hpp"

#include <utility>

#include "dsl/boundary.hpp"
#include "support/string_utils.hpp"

namespace hipacc::sim {

using namespace hipacc::ast;

int GuardAluCost(BoundaryMode mode) {
  switch (mode) {
    case BoundaryMode::kClamp: return 1;    // min or max folds into addressing
    case BoundaryMode::kMirror: return 2;   // compare + reflect
    case BoundaryMode::kRepeat: return 3;   // compare + wrap (+ extra range op)
    case BoundaryMode::kConstant: return 7; // divergent predicated dual path:
                                            // compare chain, branch, select
    case BoundaryMode::kUndefined: return 0;
  }
  return 0;
}

BlockState::BlockState(const Launch& launch, const hw::DeviceSpec& device,
                       int block_x_idx, int block_y_idx, Metrics* metrics)
    : launch(launch), device(device), bix(block_x_idx), biy(block_y_idx),
      metrics(metrics), memory(device) {}

Result<BlockState::Plan> BlockState::Begin() {
  const DeviceKernel& kernel = *launch.kernel;
  const hw::RegionGrid rg =
      hw::ComputeRegionGrid(launch.config, launch.width, launch.height,
                            kernel.bh_window, kernel.ppt);
  Plan plan;
  plan.region = kernel.has_boundary_variants() ? rg.RegionOf(bix, biy)
                                               : Region::kInterior;
  if (!kernel.FindVariant(plan.region))
    return Status::Internal("kernel has no variant for region " +
                            std::string(to_string(plan.region)));

  // Block dispatch cost (Listing 8's conditional chain): a handful of
  // compares per thread, uniform across the warp.
  if (kernel.has_boundary_variants()) metrics->alu_ops += 4;

  warp_size = device.simd_width;
  if (warp_size > kMaxWarpWidth)
    return Status::Internal(
        StrFormat("SIMD width %d exceeds the simulator's lane limit %d",
                  warp_size, kMaxWarpWidth));
  plan.threads = launch.config.threads();
  plan.warps = (plan.threads + warp_size - 1) / warp_size;

  if (kernel.smem) StageScratchpad(plan.warps, plan.threads);
  return plan;
}

void BlockState::BuildWarpContext(int warp, int threads) {
  const int bx = launch.config.block_x;
  const int ppt = launch.kernel ? launch.kernel->ppt : 1;
  tid_x.fill(0);
  tid_y.fill(0);
  gid_x.fill(0);
  gid_y.fill(0);
  active.fill(0);
  for (int lane = 0; lane < warp_size; ++lane) {
    const int lin = warp * warp_size + lane;
    if (lin >= threads) continue;
    const int tx = lin % bx;
    const int ty = lin / bx;
    tid_x[static_cast<size_t>(lane)] = tx;
    tid_y[static_cast<size_t>(lane)] = ty;
    const int gx = bix * bx + tx;
    const int gy = biy * launch.config.block_y + ty;
    gid_x[static_cast<size_t>(lane)] = gx;
    gid_y[static_cast<size_t>(lane)] = gy;
    // The emitted guard `if (gid_x >= IW || gid_y >= IH) return;` — with
    // PPT > 1 a thread is live when its FIRST output row is in bounds
    // (`gid_y * PPT >= IH` in the generated source); later sub-rows carry
    // their own If(y_i < IH) guards in the lowered body.
    active[static_cast<size_t>(lane)] =
        gx < launch.width && gy * ppt < launch.height;
  }
  metrics->alu_ops += 4;  // gid computation + bounds guard
}

// ---- scratchpad staging (Listing 7) ----------------------------------------
void BlockState::StageScratchpad(int warps, int threads) {
  const SmemPlan& plan = *launch.kernel->smem;
  const BufferBinding* src = launch.FindBuffer(plan.accessor);
  HIPACC_CHECK(src != nullptr);
  const int bx = launch.config.block_x;
  const int by = launch.config.block_y;
  const int ppt = launch.kernel->ppt;
  // With PPT the tile covers block_y*ppt pixel rows plus the halo.
  const int rows = by * ppt;
  const int hx = plan.window.half_x;
  const int hy = plan.window.half_y;
  tile_w = bx + 2 * hx + 1;  // +1 column: bank-conflict padding
  tile_h = rows + 2 * hy;
  tile.assign(static_cast<size_t>(tile_w) * tile_h, 0.0f);

  for (int w = 0; w < warps; ++w) {
    BuildWarpContext(w, threads);
    // Staging happens BEFORE the image-extent guard in the generated code
    // (Listing 7): threads whose own output pixel lies outside the image
    // still cooperate in loading the tile, so no warp is skipped here.
    for (int ty_off = 0; ty_off < rows + 2 * hy; ty_off += by) {
      for (int tx_off = 0; tx_off < bx + 2 * hx; tx_off += bx) {
        std::vector<std::uint64_t> gaddrs, saddrs;
        std::vector<std::pair<size_t, float>> stores;
        for (int lane = 0; lane < warp_size; ++lane) {
          const size_t l = static_cast<size_t>(lane);
          const int lin = w * warp_size + lane;
          if (lin >= threads) continue;
          const int xx = static_cast<int>(tid_x[l]) + tx_off;
          const int yy = static_cast<int>(tid_y[l]) + ty_off;
          if (xx >= bx + 2 * hx || yy >= rows + 2 * hy) continue;
          const int gx = bix * bx + xx - hx;
          const int gy = biy * rows + yy - hy;
          const int rx = dsl::ResolveBoundaryIndex(gx, src->width, plan.boundary);
          const int ry = dsl::ResolveBoundaryIndex(gy, src->height, plan.boundary);
          float value = plan.constant_value;
          if (rx >= 0 && ry >= 0) {
            value = src->data[static_cast<size_t>(ry) * src->stride + rx];
            gaddrs.push_back(static_cast<std::uint64_t>(ry) * src->stride + rx);
          }
          const size_t tidx = static_cast<size_t>(yy) * tile_w + xx;
          stores.emplace_back(tidx, value);
          saddrs.push_back(tidx);
        }
        if (stores.empty()) continue;
        metrics->alu_ops += 6;  // index arithmetic of the staging loop
        metrics->alu_ops += 2 * GuardAluCost(plan.boundary);
        memory.GlobalAccess(gaddrs, /*is_write=*/false, metrics);
        memory.SharedAccess(saddrs, metrics);
        for (const auto& [idx, v] : stores) tile[idx] = v;
      }
    }
  }
  metrics->alu_ops += 1;  // barrier
}

}  // namespace hipacc::sim
