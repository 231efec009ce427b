#include "sim/vm.hpp"

#include <vector>

#include "dsl/boundary.hpp"
#include "sim/block_state.hpp"

namespace hipacc::sim {
namespace {

using namespace hipacc::ast;

/// Resolves one coordinate under the read's guard set. Returns -1 when the
/// constant value must be substituted; sets *violation for unguarded OOB.
/// (Identical to the interpreter's ResolveCoord.)
int ResolveCoord(int c, int n, BoundaryMode mode, bool check_lo, bool check_hi,
                 bool hardware_resolved, bool* violation) {
  if (c >= 0 && c < n) return c;
  if (hardware_resolved)  // texture unit applies the address mode silently
    return dsl::ResolveBoundaryIndex(
        c, n, mode == BoundaryMode::kUndefined ? BoundaryMode::kClamp : mode);
  const bool guarded = (c < 0 && check_lo) || (c >= n && check_hi);
  if (!guarded) {
    *violation = true;
    return c < 0 ? 0 : n - 1;  // clamp as a safety net after recording
  }
  return dsl::ResolveBoundaryIndex(c, n, mode);
}

/// Launch-time bindings of a program's buffer/mask tables, resolved once per
/// block. Null entries are legal until an instruction touches them.
struct BindCtx {
  std::vector<const BufferBinding*> buffers;
  struct MaskBind {
    const std::vector<float>* data = nullptr;
    int width = 1;
  };
  std::vector<MaskBind> masks;
};

struct ParamFill {
  std::uint16_t reg = 0;
  ScalarType type = ScalarType::kFloat;
  double value = 0.0;
};

// Lane loops templated on the operator so the per-lane switch inside the
// Eval*Lane helpers constant-folds away (at -O2 the optimizer does not
// unswitch the loop by itself); dispatch happens once per instruction, not
// once per lane. Reading both operands before the write keeps dst aliasing
// either source safe, exactly like the generic handlers did.

template <ast::BinaryOp op, bool float_math>
void BinaryLanes(const WarpVal& a, const WarpVal& b, WarpVal* d, int warp) {
  for (int l = 0; l < warp; ++l) {
    const std::size_t i = static_cast<std::size_t>(l);
    d->lanes[i] = EvalBinaryLane(op, float_math, a.lanes[i], b.lanes[i]);
  }
}

template <ast::AssignOp op, bool float_math>
void AssignLanes(const WarpVal& s, WarpVal* d, const LaneMask& mk,
                 ast::ScalarType to, bool convert, int warp) {
  constexpr ast::ScalarType kFolded =
      float_math ? ast::ScalarType::kFloat : ast::ScalarType::kInt;
  for (int l = 0; l < warp; ++l) {
    const std::size_t i = static_cast<std::size_t>(l);
    if (!mk[i]) continue;
    const double rhs = convert ? ConvertLaneValue(s.lanes[i], to) : s.lanes[i];
    d->lanes[i] = CombineLane(kFolded, op, d->lanes[i], rhs);
  }
}

template <VmBuiltin fn>
void BuiltinLanes(const WarpVal& a, const WarpVal& b, WarpVal* d, int warp) {
  for (int l = 0; l < warp; ++l) {
    const std::size_t i = static_cast<std::size_t>(l);
    d->lanes[i] = EvalBuiltinLane(fn, a.lanes[i], b.lanes[i]);
  }
}

/// Accumulates the interpreter-parity ALU/SFU costs in locals the compiler
/// can keep in registers; the destructor flushes them into the Metrics on
/// every exit path (including error returns) so totals stay exact.
struct CostCounters {
  Metrics* m;
  std::uint64_t alu = 0;
  std::uint64_t sfu = 0;
  ~CostCounters() {
    m->alu_ops += alu;
    m->sfu_calls += sfu;
  }
};

/// Per-thread scratch shared by consecutive VmRunner instances on the same
/// worker thread (one simulated block each).
struct VmScratch {
  std::vector<WarpVal> regs;
  std::vector<LaneMask> masks;
};

VmScratch& ThreadScratch() {
  static thread_local VmScratch scratch;
  return scratch;
}

class VmRunner {
 public:
  VmRunner(const Launch& launch, const ProgramSet& ps,
           const hw::DeviceSpec& device, int bx, int by, Metrics* metrics)
      : st_(launch, device, bx, by, metrics),
        ps_(ps),
        regs_(ThreadScratch().regs),
        masks_(ThreadScratch().masks) {}

  Status Run(std::uint64_t* executed_insns) {
    Result<BlockState::Plan> begun = st_.Begin();
    if (!begun.ok()) return begun.status();
    const BlockState::Plan plan = begun.value();
    const Program* prog = ps_.Find(plan.region);
    if (!prog)
      return Status::Internal("no bytecode program for region of kernel " +
                              ps_.kernel_name);

    bind_.buffers.reserve(ps_.buffer_names.size());
    for (const auto& name : ps_.buffer_names)
      bind_.buffers.push_back(st_.launch.FindBuffer(name));
    bind_.masks.reserve(ps_.const_masks.size());
    for (const auto& ref : ps_.const_masks) {
      BindCtx::MaskBind mb;
      const auto it = st_.launch.const_masks.find(ref.name);
      if (it != st_.launch.const_masks.end()) mb.data = &it->second;
      mb.width = ref.width;
      bind_.masks.push_back(mb);
    }

    std::vector<ParamFill> seeds;
    seeds.reserve(prog->params.size());
    for (const auto& p : prog->params) {
      const auto it = st_.launch.scalar_args.find(p.name);
      const double v = it != st_.launch.scalar_args.end() ? it->second : 0.0;
      seeds.push_back(ParamFill{
          p.reg, p.type,
          p.type == ScalarType::kFloat
              ? static_cast<double>(static_cast<float>(v))
              : v});
    }

    grid_ = hw::ComputeGrid(st_.launch.config, st_.launch.width,
                            st_.launch.height, st_.launch.kernel->ppt);
    regs_.resize(static_cast<std::size_t>(prog->num_regs));
    masks_.resize(static_cast<std::size_t>(prog->num_masks));

    for (int w = 0; w < plan.warps; ++w) {
      st_.BuildWarpContext(w, plan.threads);
      if (!AnyActive(st_.active)) continue;
      // Integer mirrors of the warp context so fused coordinates are pure
      // int adds instead of per-lane double→int conversions.
      for (int l = 0; l < st_.warp_size; ++l) {
        const std::size_t i = static_cast<std::size_t>(l);
        tid_xi_[i] = static_cast<int>(st_.tid_x[i]);
        tid_yi_[i] = static_cast<int>(st_.tid_y[i]);
        gid_xi_[i] = static_cast<int>(st_.gid_x[i]);
        gid_yi_[i] = static_cast<int>(st_.gid_y[i]);
      }
      masks_[0] = st_.active;
      for (const ParamFill& seed : seeds) {
        WarpVal& r = regs_[seed.reg];
        r.type = seed.type;
        r.lanes.fill(seed.value);
      }
      HIPACC_RETURN_IF_ERROR(ExecWarp(*prog, executed_insns));
    }
    return Status::Ok();
  }

 private:
  /// Materializes one coordinate for every lane of the warp, dispatching on
  /// the coordinate kind once instead of per lane. Lanes outside `mk` get 0
  /// for register coordinates (their values are never used — every consumer
  /// skips or zero-fills masked lanes) so stale register lanes are never
  /// cast to int.
  void CoordLanes(const Coord& c, const LaneMask& mk, int warp,
                  int* out) const {
    switch (c.kind) {
      case CoordKind::kReg: {
        const WarpVal& r = regs_[c.reg];
        for (int l = 0; l < warp; ++l) {
          const std::size_t i = static_cast<std::size_t>(l);
          out[l] = mk[i] ? static_cast<int>(r.lanes[i]) : 0;
        }
        break;
      }
      case CoordKind::kGidX:
        for (int l = 0; l < warp; ++l)
          out[l] = gid_xi_[static_cast<std::size_t>(l)] + c.off;
        break;
      case CoordKind::kGidY:
        for (int l = 0; l < warp; ++l)
          out[l] = gid_yi_[static_cast<std::size_t>(l)] + c.off;
        break;
      case CoordKind::kTidX:
        for (int l = 0; l < warp; ++l)
          out[l] = tid_xi_[static_cast<std::size_t>(l)] + c.off;
        break;
      case CoordKind::kTidY:
        for (int l = 0; l < warp; ++l)
          out[l] = tid_yi_[static_cast<std::size_t>(l)] + c.off;
        break;
      case CoordKind::kImm:
        for (int l = 0; l < warp; ++l) out[l] = c.off;
        break;
    }
  }

  Status ExecWarp(const Program& prog, std::uint64_t* executed_insns) {
#include "sim/vm_exec.inc"
  }

  Status LoadImage(const Insn& I, int warp) {
    const BufferBinding* buf = bind_.buffers[static_cast<std::size_t>(I.buffer)];
    if (!buf)
      return Status::Invalid(
          "unbound buffer " + ps_.buffer_names[static_cast<std::size_t>(I.buffer)]);
    Metrics* m = st_.metrics;
    WarpVal& d = regs_[I.dst];
    const LaneMask& mk = masks_[I.mask];
    const bool tex = I.sub == 1;
    const bool hardware_resolved = I.hw_bh || tex;
    int cxs[kMaxWarpWidth];
    int cys[kMaxWarpWidth];
    CoordLanes(I.cx, mk, warp, cxs);
    CoordLanes(I.cy, mk, warp, cys);
    const int bw = buf->width;
    const int bh = buf->height;
    const int stride = buf->stride;
    const float* data = buf->data;
    st_.addr_scratch.clear();
    for (int l = 0; l < warp; ++l) {
      const std::size_t i = static_cast<std::size_t>(l);
      if (!mk[i]) {
        d.lanes[i] = 0.0;
        continue;
      }
      const int cx = cxs[l];
      const int cy = cys[l];
      // In-range fast path: boundary handling (of any mode) only matters
      // for out-of-range coordinates, which even border-region warps see on
      // a minority of lanes.
      if (static_cast<unsigned>(cx) < static_cast<unsigned>(bw) &&
          static_cast<unsigned>(cy) < static_cast<unsigned>(bh)) {
        const std::uint64_t addr =
            static_cast<std::uint64_t>(cy) * stride + cx;
        d.lanes[i] = static_cast<double>(data[addr]);
        st_.addr_scratch.push_back(addr);
        continue;
      }
      // Constant mode with guards: out-of-bounds lanes are predicated off
      // and produce the constant without touching memory.
      if (I.boundary == BoundaryMode::kConstant && !I.hw_bh) {
        const bool oob_x =
            (cx < 0 && I.checks.lo_x) || (cx >= buf->width && I.checks.hi_x);
        const bool oob_y =
            (cy < 0 && I.checks.lo_y) || (cy >= buf->height && I.checks.hi_y);
        if (oob_x || oob_y) {
          d.lanes[i] = static_cast<double>(I.cvalue);
          continue;
        }
      }
      bool violation = false;
      const int rx = ResolveCoord(cx, buf->width, I.boundary, I.checks.lo_x,
                                  I.checks.hi_x, hardware_resolved, &violation);
      const int ry = ResolveCoord(cy, buf->height, I.boundary, I.checks.lo_y,
                                  I.checks.hi_y, hardware_resolved, &violation);
      if (violation) ++m->oob_violations;
      if (rx < 0 || ry < 0) {
        d.lanes[i] = static_cast<double>(I.cvalue);
        continue;
      }
      const std::uint64_t addr = static_cast<std::uint64_t>(ry) * buf->stride + rx;
      d.lanes[i] = static_cast<double>(buf->data[addr]);
      st_.addr_scratch.push_back(addr);
    }
    d.type = ScalarType::kFloat;
    if (tex)
      st_.memory.TextureAccess(st_.addr_scratch, m);
    else
      st_.memory.GlobalAccess(st_.addr_scratch, /*is_write=*/false, m);
    return Status::Ok();
  }

  static void CopyLanes(WarpVal* d, const std::array<double, kMaxWarpWidth>& src,
                        int warp) {
    for (int l = 0; l < warp; ++l) {
      const std::size_t i = static_cast<std::size_t>(l);
      d->lanes[i] = src[i];
    }
  }

  static void FillLanes(WarpVal* d, double v, int warp) {
    for (int l = 0; l < warp; ++l) d->lanes[static_cast<std::size_t>(l)] = v;
  }

  BlockState st_;
  const ProgramSet& ps_;
  BindCtx bind_;
  hw::GridDim grid_;
  // Register/mask files live in thread-local scratch reused across blocks
  // (allocating and zero-filling hundreds of WarpVals per block would
  // dominate small launches). Reuse is safe: every compiled program writes
  // a register before its first read (reads before declaration are compile
  // bail-outs), so stale lanes from a previous block are never observable.
  std::vector<WarpVal>& regs_;
  std::vector<LaneMask>& masks_;
  // Integer mirrors of the current warp's thread/global indices, refreshed
  // per warp so fused coordinate operands stay in integer arithmetic.
  std::array<int, kMaxWarpWidth> tid_xi_{}, tid_yi_{}, gid_xi_{}, gid_yi_{};
};

}  // namespace

Status RunBlockBytecode(const Launch& launch, const ProgramSet& programs,
                        const hw::DeviceSpec& device, int block_x_idx,
                        int block_y_idx, Metrics* metrics,
                        std::uint64_t* executed_insns) {
  HIPACC_CHECK(launch.kernel != nullptr && metrics != nullptr);
  return VmRunner(launch, programs, device, block_x_idx, block_y_idx, metrics)
      .Run(executed_insns);
}

}  // namespace hipacc::sim
