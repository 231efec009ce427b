#include "sim/jit/native_runner.hpp"

#include <algorithm>
#include <array>
#include <vector>

#include "sim/block_state.hpp"
#include "sim/jit/abi.hpp"

namespace hipacc::sim::jit {
namespace {

/// Per-thread scratch reused across blocks, like the lane interpreter's
/// LaneFile: the parameter register file and the binding tables of the
/// current block.
struct NativeScratch {
  std::vector<double> regs;
  std::vector<JitBuffer> buffers;
  std::vector<JitMaskTable> mask_tables;
};

NativeScratch& ThreadScratch() {
  static thread_local NativeScratch scratch;
  return scratch;
}

struct HostCtx {
  BlockState* st = nullptr;
  Metrics* metrics = nullptr;
};

/// Memory-model trampoline: hands the generated code's address span
/// straight to the same MemoryModel entry points the VM calls, in the same
/// order — no intermediate copy.
void MemAccessThunk(void* host, int kind, const unsigned long long* addrs,
                    int count) {
  auto* h = static_cast<HostCtx*>(host);
  static_assert(sizeof(unsigned long long) == sizeof(std::uint64_t));
  const auto* a = reinterpret_cast<const std::uint64_t*>(addrs);
  const auto n = static_cast<std::size_t>(count);
  switch (kind) {
    case kJitMemGlobalRead:
      h->st->memory.GlobalAccess(a, n, /*is_write=*/false, h->metrics);
      break;
    case kJitMemGlobalWrite:
      h->st->memory.GlobalAccess(a, n, /*is_write=*/true, h->metrics);
      break;
    case kJitMemShared:
      h->st->memory.SharedAccess(a, n, h->metrics);
      break;
    case kJitMemConstant:
      h->st->memory.ConstantAccess(a, n, h->metrics);
      break;
    case kJitMemTexture:
      h->st->memory.TextureAccess(a, n, h->metrics);
      break;
  }
}

}  // namespace

Status RunBlockNative(const Launch& launch, const LaunchBindings& bindings,
                      const NativeProgram& native,
                      const hw::DeviceSpec& device, int block_x_idx,
                      int block_y_idx, Metrics* metrics,
                      std::uint64_t* executed_insns) {
  HIPACC_CHECK(launch.kernel != nullptr && metrics != nullptr);
  const ProgramSet& ps = *bindings.programs;
  BlockState st(launch, device, block_x_idx, block_y_idx, metrics);
  HIPACC_ASSIGN_OR_RETURN(const BlockState::Plan plan, st.Begin());
  const Program* prog = ps.Find(plan.region);
  const JitWarpFn fn = native.Find(plan.region);
  if (!prog || !fn)
    return Status::Internal("no native program for region of kernel " +
                            ps.kernel_name);

  NativeScratch& scratch = ThreadScratch();
  scratch.buffers.clear();
  for (const BufferBinding* buf : bindings.buffers)
    scratch.buffers.push_back(
        JitBuffer{buf->data, buf->width, buf->height, buf->stride});
  scratch.mask_tables.clear();
  for (const LaunchBindings::Mask& mask : bindings.masks)
    scratch.mask_tables.push_back(
        JitMaskTable{mask.data->data(), mask.data->size()});

  // The generated code only reads the parameter registers, so they are
  // seeded once per block rather than once per lane group as in the VM.
  scratch.regs.resize(static_cast<std::size_t>(prog->num_regs) * kJitMaxWarp);
  const auto program = static_cast<std::size_t>(prog - ps.programs.data());
  for (const LaunchBindings::Seed& seed : bindings.seeds[program])
    std::fill_n(scratch.regs.data() +
                    static_cast<std::size_t>(seed.reg) * kJitMaxWarp,
                kJitMaxWarp, seed.value);

  const hw::GridDim grid = hw::ComputeGrid(launch.config, launch.width,
                                           launch.height, launch.kernel->ppt);

  std::array<int, kMaxWarpWidth> tid_xi{}, tid_yi{}, gid_xi{}, gid_yi{};

  HostCtx host{&st, metrics};
  JitWarpCtx ctx;
  ctx.warp_size = st.warp_size;
  ctx.tid_x = st.tid_x.data();
  ctx.tid_y = st.tid_y.data();
  ctx.gid_x = st.gid_x.data();
  ctx.gid_y = st.gid_y.data();
  ctx.tid_xi = tid_xi.data();
  ctx.tid_yi = tid_yi.data();
  ctx.gid_xi = gid_xi.data();
  ctx.gid_yi = gid_yi.data();
  ctx.bix = st.bix;
  ctx.biy = st.biy;
  ctx.block_dim_x = launch.config.block_x;
  ctx.block_dim_y = launch.config.block_y;
  ctx.grid_dim_x = grid.blocks_x;
  ctx.grid_dim_y = grid.blocks_y;
  ctx.image_w = launch.width;
  ctx.image_h = launch.height;
  ctx.regs = scratch.regs.data();
  static_assert(sizeof(LaneMask) == kJitMaxWarp);
  ctx.masks = st.active.data();
  ctx.tile = st.tile.data();
  ctx.tile_w = st.tile_w;
  ctx.tile_h = st.tile_h;
  ctx.buffers = scratch.buffers.data();
  ctx.mask_tables = scratch.mask_tables.data();
  // The ABI counters are unsigned long long (self-contained header);
  // Metrics uses std::uint64_t. Accumulate locally and flush once, when
  // the block ends, like the lane interpreter.
  unsigned long long alu = 0, sfu = 0, oob = 0, insns = 0;
  ctx.alu = &alu;
  ctx.sfu = &sfu;
  ctx.oob = &oob;
  ctx.insns = &insns;
  ctx.mem_access = &MemAccessThunk;
  ctx.host = &host;

  for (int w = 0; w < plan.warps; ++w) {
    st.BuildWarpContext(w, plan.threads);
    if (!AnyActive(st.active)) continue;
    for (int l = 0; l < st.warp_size; ++l) {
      const std::size_t i = static_cast<std::size_t>(l);
      tid_xi[i] = static_cast<int>(st.tid_x[i]);
      tid_yi[i] = static_cast<int>(st.tid_y[i]);
      gid_xi[i] = static_cast<int>(st.gid_x[i]);
      gid_yi[i] = static_cast<int>(st.gid_y[i]);
    }
    fn(&ctx);
  }
  metrics->alu_ops += alu;
  metrics->sfu_calls += sfu;
  metrics->oob_violations += oob;
  if (executed_insns) *executed_insns += insns;
  return Status::Ok();
}

}  // namespace hipacc::sim::jit
