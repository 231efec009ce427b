#include "sim/vm.hpp"

#include "sim/block_state.hpp"
#include "sim/bytecode.hpp"
#include "sim/lanes.hpp"

namespace hipacc::sim {

[[gnu::aligned(64)]] Status RunBlockBytecode(
    const Launch& launch, const LaunchBindings& bindings,
    const hw::DeviceSpec& device, int block_x_idx, int block_y_idx,
    Metrics* metrics, std::uint64_t* executed_insns, bool model_only) {
  HIPACC_CHECK(launch.kernel != nullptr && metrics != nullptr);
  const ProgramSet& ps = *bindings.programs;
  BlockState st(launch, device, block_x_idx, block_y_idx, metrics);
  HIPACC_ASSIGN_OR_RETURN(const BlockState::Plan plan, st.Begin());
  const Program* prog = ps.Find(plan.region);
  if (!prog)
    return Status::Internal("no bytecode program for region of kernel " +
                            ps.kernel_name);

  const hw::GridDim grid = hw::ComputeGrid(launch.config, launch.width,
                                           launch.height, launch.kernel->ppt);
  LaneGroup<kMaxWarpWidth> g;
  g.block_idx_x = st.bix;
  g.block_idx_y = st.biy;
  g.block_dim_x = launch.config.block_x;
  g.block_dim_y = launch.config.block_y;
  g.grid_dim_x = grid.blocks_x;
  g.grid_dim_y = grid.blocks_y;
  g.image_w = launch.width;
  g.image_h = launch.height;
  g.tile = st.tile.data();
  g.tile_w = st.tile_w;
  g.tile_h = st.tile_h;
  const LaneModel model{metrics, &st.memory, &st.addr_scratch, executed_insns};
  LaneFile<kMaxWarpWidth>& file = LaneFile<kMaxWarpWidth>::ForThread();

  for (int w = 0; w < plan.warps; ++w) {
    st.BuildWarpContext(w, plan.threads);
    if (!AnyActive(st.active)) continue;
    g.n = st.warp_size;
    for (std::size_t l = 0; l < static_cast<std::size_t>(g.n); ++l) {
      g.active[l] = st.active[l];
      g.tid_x[l] = static_cast<int>(st.tid_x[l]);
      g.tid_y[l] = static_cast<int>(st.tid_y[l]);
      g.gid_x[l] = static_cast<int>(st.gid_x[l]);
      g.gid_y[l] = static_cast<int>(st.gid_y[l]);
    }
    g.Seal();
    RunLanes<kMaxWarpWidth, true>(*prog, bindings, g, file, model,
                                  model_only);
  }
  return Status::Ok();
}

}  // namespace hipacc::sim
