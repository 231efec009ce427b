// The lane interpreter: the one place the semantics of the register
// programs (bytecode.hpp) are written. RunLanes executes a Program over a
// lane group — up to kWidth virtual threads in lockstep — held in a flat
// register file: kWidth doubles per register, a type per register and
// kWidth bytes per mask slot. It is instantiated twice:
//
//  - the bytecode VM (vm.cpp) runs one warp of a simulated thread block,
//    kWidth = kMaxWarpWidth, with the model observed: instruction, ALU and
//    SFU counts, out-of-bounds violations, and the lane addresses of every
//    memory instruction handed to the block's MemoryModel. Its model-only
//    walk (the sampled Measure) computes just what the model observes: it
//    skips the lanes of unobserved value instructions (Insn::observed) and
//    writes no pixel;
//  - the host executor (runtime/host_exec.cpp) runs a segment of one output
//    row, kWidth = 256, with the model compiled out.
//
// Fast paths are chosen by the shape of the lane group, never by the
// executor that runs it. A dense group (every live lane active, gid_x
// contiguous, gid_y uniform: a row segment) loads and stores whole row
// segments at gid + offset, and a constant-mask read at a literal offset is
// one broadcast. Under the model a fast path records the same addresses, in
// the same order, as the per-lane path it replaces, so metrics and modelled
// times do not depend on which path ran.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <vector>

#include "dsl/boundary.hpp"
#include "sim/bytecode.hpp"
#include "sim/launch.hpp"
#include "sim/memory.hpp"
#include "sim/metrics.hpp"

namespace hipacc::sim {

/// Register and mask file of lane groups up to kWidth lanes wide. One per
/// thread (ForThread), reused across groups, blocks and launches: every
/// compiled program writes a register before its first read, so stale lanes
/// from an earlier group are never observable.
template <int kWidth>
struct LaneFile {
  std::vector<double> regs;         ///< num_regs rows of kWidth lanes
  std::vector<ast::ScalarType> types;
  std::vector<std::uint8_t> masks;  ///< num_masks rows of kWidth lanes

  /// Grows the file to hold `prog`.
  void Fit(const Program& prog) {
    const auto nr = static_cast<std::size_t>(prog.num_regs);
    const auto nm = static_cast<std::size_t>(prog.num_masks);
    if (regs.size() < nr * kWidth) regs.resize(nr * kWidth);
    if (types.size() < nr) types.resize(nr);
    if (masks.size() < nm * kWidth) masks.resize(nm * kWidth);
  }
  double* reg(std::uint16_t r) { return regs.data() + std::size_t{r} * kWidth; }
  std::uint8_t* mask(std::uint16_t m) {
    return masks.data() + std::size_t{m} * kWidth;
  }

  static LaneFile& ForThread() {
    static thread_local LaneFile file;
    return file;
  }
};

/// The virtual threads one RunLanes call executes, and what they read of
/// their position: per-lane thread and global indices, the block-uniform
/// values of kThreadIdx, and the block's scratchpad tile.
template <int kWidth>
struct LaneGroup {
  /// Lanes [0, n) are live; the others are never read or written.
  int n = 0;
  /// Mask slot 0 on entry: the live lanes that run.
  std::array<std::uint8_t, kWidth> active{};
  std::array<int, kWidth> gid_x{}, gid_y{}, tid_x{}, tid_y{};
  /// The group is a row segment: every live lane is active, gid_x[l] ==
  /// gid_x[0] + l, and gid_y is uniform. The interpreter then reads neither
  /// `active` nor any global index but lane 0's. Set by SetRow, or computed
  /// by Seal.
  bool dense = false;

  int block_idx_x = 0, block_idx_y = 0;
  int block_dim_x = 0, block_dim_y = 0;
  int grid_dim_x = 0, grid_dim_y = 0;
  int image_w = 0, image_h = 0;

  /// Scratchpad tile of the block; empty when the kernel stages none.
  const float* tile = nullptr;
  int tile_w = 0, tile_h = 0;

  /// Makes the group the pixels [x0, x0 + lanes) of row y, all active.
  void SetRow(int x0, int y, int lanes) {
    n = lanes;
    gid_x[0] = x0;
    gid_y[0] = y;
    dense = true;
  }

  /// Derives `dense` from n, active and the global indices.
  void Seal() {
    dense = true;
    for (int l = 0; l < n; ++l) {
      const auto i = static_cast<std::size_t>(l);
      dense = dense && active[i] && gid_x[i] == gid_x[0] + l &&
              gid_y[i] == gid_y[0];
    }
  }
};

/// What the simulator observes of a run: its metric counters, the block's
/// memory model, and the reused buffer the lane addresses of each memory
/// instruction are collected in. `executed_insns` may be null.
struct LaneModel {
  Metrics* metrics = nullptr;
  MemoryModel* memory = nullptr;
  std::vector<std::uint64_t>* addrs = nullptr;
  std::uint64_t* executed_insns = nullptr;
};

namespace lanes_detail {

// Lane loops templated on the operator, so the per-lane switch inside the
// Eval*Lane helpers constant-folds away: dispatch happens once per
// instruction, not once per lane. Each lane reads its operands before the
// write, so a destination aliasing a source stays safe.

template <ast::BinaryOp op, bool float_math>
void BinaryLanes(const double* a, const double* b, double* d, int n) {
  for (int l = 0; l < n; ++l) d[l] = EvalBinaryLane(op, float_math, a[l], b[l]);
}

template <ast::AssignOp op, bool float_math>
void AssignLanes(const double* s, double* d, const std::uint8_t* mk,
                 ast::ScalarType to, bool convert, int n) {
  constexpr ast::ScalarType kFolded =
      float_math ? ast::ScalarType::kFloat : ast::ScalarType::kInt;
  for (int l = 0; l < n; ++l) {
    if (!mk[l]) continue;
    const double rhs = convert ? ConvertLaneValue(s[l], to) : s[l];
    d[l] = CombineLane(kFolded, op, d[l], rhs);
  }
}

template <VmBuiltin fn>
void BuiltinLanes(const double* a, const double* b, double* d, int n) {
  for (int l = 0; l < n; ++l) d[l] = EvalBuiltinLane(fn, a[l], b[l]);
}

/// Resolves one image coordinate under the read's guard set (the oracle's
/// rule). Returns -1 when the constant value must be substituted; sets
/// *violation for an unguarded out-of-bounds coordinate, which is then
/// clamped as a safety net.
inline int ResolveCoord(int c, int n, ast::BoundaryMode mode, bool check_lo,
                        bool check_hi, bool hardware_resolved,
                        bool* violation) {
  if (c >= 0 && c < n) return c;
  if (hardware_resolved)  // the texture unit applies the address mode
    return dsl::ResolveBoundaryIndex(
        c, n,
        mode == ast::BoundaryMode::kUndefined ? ast::BoundaryMode::kClamp
                                              : mode);
  const bool guarded = (c < 0 && check_lo) || (c >= n && check_hi);
  if (!guarded) {
    *violation = true;
    return c < 0 ? 0 : n - 1;
  }
  return dsl::ResolveBoundaryIndex(c, n, mode);
}

inline bool AnyLane(const std::uint8_t* mk, int n) {
  for (int l = 0; l < n; ++l)
    if (mk[l]) return true;
  return false;
}

}  // namespace lanes_detail

/// Runs `prog`, one of `bind.programs`' programs, over the lane group `g` in
/// the register file `f`. With kModel, reports to `model` what the simulator
/// observes; without, `model` and `model_only` are unused. With `model_only`,
/// computes only what the model observes: an unobserved instruction is
/// charged and typed as its full form would be but its lanes are skipped,
/// and stores record their addresses without writing a pixel. (A LaneModel
/// field would grow the `LaneModel{}` the host executor passes and shift the
/// host instantiation's register allocation.) The launch passed
/// CheckBindings, so every buffer and constant mask an instruction touches is
/// bound and every stored buffer is writable: the interpreter cannot fail.
template <int kWidth, bool kModel>
void RunLanes(const Program& prog, const LaunchBindings& bind,
              const LaneGroup<kWidth>& g, LaneFile<kWidth>& f,
              const LaneModel& model, bool model_only = false) {
  using namespace ast;
  using namespace lanes_detail;
  const int n = g.n;
  f.Fit(prog);
  if (g.dense)
    std::memset(f.mask(0), 1, static_cast<std::size_t>(n));
  else
    std::memcpy(f.mask(0), g.active.data(), static_cast<std::size_t>(n));
  const auto program =
      static_cast<std::size_t>(&prog - bind.programs->programs.data());
  for (const LaunchBindings::Seed& seed : bind.seeds[program]) {
    f.types[seed.reg] = seed.type;
    std::fill_n(f.reg(seed.reg), n, seed.value);
  }

  // Model counters, kept in locals and flushed when the program ends.
  struct Tally {
    const LaneModel& model;
    std::uint64_t insns = 0, alu = 0, sfu = 0;
    ~Tally() {
      if constexpr (kModel) {
        model.metrics->alu_ops += alu;
        model.metrics->sfu_calls += sfu;
        if (model.executed_insns) *model.executed_insns += insns;
      }
    }
  } tally{model};
  auto begin_access = [&] {
    if constexpr (kModel) model.addrs->clear();
  };
  auto record = [&](std::uint64_t addr) {
    if constexpr (kModel) model.addrs->push_back(addr);
  };
  auto violation = [&] {
    if constexpr (kModel) ++model.metrics->oob_violations;
  };

  // Materializes one coordinate for every lane, dispatching on its kind
  // once. Masked-off lanes get 0 for register coordinates: their values are
  // never used, but stale lanes must not be cast to int. A dense group's
  // global indices derive from lane 0's.
  int cxs[kWidth];
  int cys[kWidth];
  auto coords = [&](const Coord& c, const std::uint8_t* mk, int* out) {
    auto offset = [&](const std::array<int, kWidth>& base) {
      for (int l = 0; l < n; ++l)
        out[l] = base[static_cast<std::size_t>(l)] + c.off;
    };
    switch (c.kind) {
      case CoordKind::kReg: {
        const double* r = f.reg(c.reg);
        for (int l = 0; l < n; ++l) out[l] = mk[l] ? static_cast<int>(r[l]) : 0;
        break;
      }
      case CoordKind::kGidX:
        if (g.dense)
          for (int l = 0; l < n; ++l) out[l] = g.gid_x[0] + l + c.off;
        else
          offset(g.gid_x);
        break;
      case CoordKind::kGidY:
        if (g.dense)
          std::fill_n(out, n, g.gid_y[0] + c.off);
        else
          offset(g.gid_y);
        break;
      case CoordKind::kTidX: offset(g.tid_x); break;
      case CoordKind::kTidY: offset(g.tid_y); break;
      case CoordKind::kImm:
        for (int l = 0; l < n; ++l) out[l] = c.off;
        break;
    }
  };
  // Element address of a dense group's whole-row access at (gid_x + cx.off,
  // gid_y + cy.off) in a w x h image, or -1 when the instruction is
  // predicated or the row segment leaves the image.
  auto row_start = [&](const Insn& I, int w, int h,
                       int stride) -> std::int64_t {
    if (!g.dense || I.mask != 0 || I.cx.kind != CoordKind::kGidX ||
        I.cy.kind != CoordKind::kGidY)
      return -1;
    const int x = g.gid_x[0] + I.cx.off;
    const int y = g.gid_y[0] + I.cy.off;
    if (y < 0 || y >= h || x < 0 || x + n > w) return -1;
    return static_cast<std::int64_t>(y) * stride + x;
  };

  const Insn* code = prog.code.data();
  const std::int32_t end = static_cast<std::int32_t>(prog.code.size());
  std::int32_t pc = 0;
  while (pc < end) {
    const Insn& I = code[pc];
    if constexpr (kModel) {
      ++tally.insns;
      tally.alu += I.alu_cost;
      tally.sfu += I.sfu_cost;
      // Only value instructions are ever unobserved.
      if (model_only && !I.observed) {
        switch (I.op) {
          case Op::kCopy: f.types[I.dst] = f.types[I.a]; break;
          case Op::kThreadIdx: f.types[I.dst] = ScalarType::kInt; break;
          case Op::kAssign: break;
          case Op::kBinary: {
            const bool fm =
                Promote(f.types[I.a], f.types[I.b]) == ScalarType::kFloat;
            if (static_cast<BinaryOp>(I.sub) == BinaryOp::kDiv)
              tally.alu += fm ? 5 : 16;
            f.types[I.dst] = I.type;
            break;
          }
          default: f.types[I.dst] = I.type; break;
        }
        ++pc;
        continue;
      }
    }
    switch (I.op) {
      case Op::kConst:
        f.types[I.dst] = I.type;
        std::fill_n(f.reg(I.dst), n, I.imm);
        break;

      case Op::kCopy: {
        const double* s = f.reg(I.a);
        double* d = f.reg(I.dst);
        f.types[I.dst] = f.types[I.a];
        if (d != s) std::copy_n(s, n, d);
        break;
      }

      case Op::kConvert: {
        const double* s = f.reg(I.a);
        double* d = f.reg(I.dst);
        if (f.types[I.a] == I.type) {
          if (d != s) std::copy_n(s, n, d);
        } else {
          for (int l = 0; l < n; ++l) d[l] = ConvertLaneValue(s[l], I.type);
        }
        f.types[I.dst] = I.type;
        break;
      }

      case Op::kUnary: {
        const double* s = f.reg(I.a);
        double* d = f.reg(I.dst);
        const UnaryOp op = static_cast<UnaryOp>(I.sub);
        for (int l = 0; l < n; ++l) d[l] = EvalUnaryLane(op, I.type, s[l]);
        f.types[I.dst] = I.type;
        break;
      }

      case Op::kBinary: {
        const double* a = f.reg(I.a);
        const double* b = f.reg(I.b);
        double* d = f.reg(I.dst);
        const BinaryOp op = static_cast<BinaryOp>(I.sub);
        const bool fm =
            Promote(f.types[I.a], f.types[I.b]) == ScalarType::kFloat;
        if constexpr (kModel)
          if (op == BinaryOp::kDiv) tally.alu += fm ? 5 : 16;
        switch (op) {
#define HIPACC_LANES_BINARY(name)                       \
  case BinaryOp::name:                                  \
    if (fm)                                             \
      BinaryLanes<BinaryOp::name, true>(a, b, d, n);    \
    else                                                \
      BinaryLanes<BinaryOp::name, false>(a, b, d, n);   \
    break;
          HIPACC_LANES_BINARY(kAdd)
          HIPACC_LANES_BINARY(kSub)
          HIPACC_LANES_BINARY(kMul)
          HIPACC_LANES_BINARY(kDiv)
          HIPACC_LANES_BINARY(kMod)
          HIPACC_LANES_BINARY(kLt)
          HIPACC_LANES_BINARY(kLe)
          HIPACC_LANES_BINARY(kGt)
          HIPACC_LANES_BINARY(kGe)
          HIPACC_LANES_BINARY(kEq)
          HIPACC_LANES_BINARY(kNe)
          HIPACC_LANES_BINARY(kAnd)
          HIPACC_LANES_BINARY(kOr)
#undef HIPACC_LANES_BINARY
        }
        f.types[I.dst] = I.type;
        break;
      }

      case Op::kSelect: {
        const double* c = f.reg(I.a);
        const double* t = f.reg(I.b);
        const double* e = f.reg(I.c);
        double* d = f.reg(I.dst);
        for (int l = 0; l < n; ++l) {
          const double cv = c[l];
          const double tv = t[l];
          const double ev = e[l];
          d[l] = cv != 0.0 ? tv : ev;
        }
        f.types[I.dst] = I.type;
        break;
      }

      case Op::kCall: {
        const double* a = f.reg(I.a);
        const double* b = f.reg(I.b);
        double* d = f.reg(I.dst);
        switch (static_cast<VmBuiltin>(I.sub)) {
#define HIPACC_LANES_BUILTIN(name)             \
  case VmBuiltin::name:                        \
    BuiltinLanes<VmBuiltin::name>(a, b, d, n); \
    break;
          HIPACC_LANES_BUILTIN(kExp)
          HIPACC_LANES_BUILTIN(kExp2)
          HIPACC_LANES_BUILTIN(kLog)
          HIPACC_LANES_BUILTIN(kLog2)
          HIPACC_LANES_BUILTIN(kSqrt)
          HIPACC_LANES_BUILTIN(kRsqrt)
          HIPACC_LANES_BUILTIN(kSin)
          HIPACC_LANES_BUILTIN(kCos)
          HIPACC_LANES_BUILTIN(kTan)
          HIPACC_LANES_BUILTIN(kAtan)
          HIPACC_LANES_BUILTIN(kAtan2)
          HIPACC_LANES_BUILTIN(kPow)
          HIPACC_LANES_BUILTIN(kFmod)
          HIPACC_LANES_BUILTIN(kFabs)
          HIPACC_LANES_BUILTIN(kFmin)
          HIPACC_LANES_BUILTIN(kFmax)
          HIPACC_LANES_BUILTIN(kFloor)
          HIPACC_LANES_BUILTIN(kCeil)
          HIPACC_LANES_BUILTIN(kRound)
          HIPACC_LANES_BUILTIN(kMin)
          HIPACC_LANES_BUILTIN(kMax)
          HIPACC_LANES_BUILTIN(kAbs)
#undef HIPACC_LANES_BUILTIN
        }
        f.types[I.dst] = I.type;
        break;
      }

      case Op::kThreadIdx: {
        double* d = f.reg(I.dst);
        auto lanes = [&](const std::array<int, kWidth>& v) {
          for (int l = 0; l < n; ++l)
            d[l] = static_cast<double>(v[static_cast<std::size_t>(l)]);
        };
        auto uniform = [&](int v) {
          std::fill_n(d, n, static_cast<double>(v));
        };
        switch (static_cast<ThreadIndexKind>(I.sub)) {
          case ThreadIndexKind::kThreadIdxX: lanes(g.tid_x); break;
          case ThreadIndexKind::kThreadIdxY: lanes(g.tid_y); break;
          case ThreadIndexKind::kGlobalIdX:
            if (g.dense)
              for (int l = 0; l < n; ++l)
                d[l] = static_cast<double>(g.gid_x[0] + l);
            else
              lanes(g.gid_x);
            break;
          case ThreadIndexKind::kGlobalIdY:
            if (g.dense)
              uniform(g.gid_y[0]);
            else
              lanes(g.gid_y);
            break;
          case ThreadIndexKind::kBlockIdxX: uniform(g.block_idx_x); break;
          case ThreadIndexKind::kBlockIdxY: uniform(g.block_idx_y); break;
          case ThreadIndexKind::kBlockDimX: uniform(g.block_dim_x); break;
          case ThreadIndexKind::kBlockDimY: uniform(g.block_dim_y); break;
          case ThreadIndexKind::kGridDimX: uniform(g.grid_dim_x); break;
          case ThreadIndexKind::kGridDimY: uniform(g.grid_dim_y); break;
          case ThreadIndexKind::kImageW: uniform(g.image_w); break;
          case ThreadIndexKind::kImageH: uniform(g.image_h); break;
        }
        f.types[I.dst] = ScalarType::kInt;
        break;
      }

      case Op::kAssign: {
        const double* s = f.reg(I.a);
        double* d = f.reg(I.dst);
        const std::uint8_t* mk = f.mask(I.mask);
        const bool convert = f.types[I.a] != I.type;
        const bool fm = I.type == ScalarType::kFloat;
        switch (static_cast<AssignOp>(I.sub)) {
#define HIPACC_LANES_ASSIGN(name)                                           \
  case AssignOp::name:                                                      \
    if (fm)                                                                 \
      AssignLanes<AssignOp::name, true>(s, d, mk, I.type, convert, n);      \
    else                                                                    \
      AssignLanes<AssignOp::name, false>(s, d, mk, I.type, convert, n);     \
    break;
          HIPACC_LANES_ASSIGN(kAssign)
          HIPACC_LANES_ASSIGN(kAddAssign)
          HIPACC_LANES_ASSIGN(kSubAssign)
          HIPACC_LANES_ASSIGN(kMulAssign)
          HIPACC_LANES_ASSIGN(kDivAssign)
#undef HIPACC_LANES_ASSIGN
        }
        break;
      }

      case Op::kLoadImage: {
        const BufferBinding* buf =
            bind.buffers[static_cast<std::size_t>(I.buffer)];
        double* d = f.reg(I.dst);
        const int bw = buf->width;
        const int bh = buf->height;
        const int stride = buf->stride;
        const float* data = buf->data;
        const bool tex = I.sub == 1;
        begin_access();
        if (const std::int64_t at = row_start(I, bw, bh, stride); at >= 0) {
          for (int l = 0; l < n; ++l) {
            d[l] = static_cast<double>(data[at + l]);
            record(static_cast<std::uint64_t>(at + l));
          }
        } else {
          const std::uint8_t* mk = f.mask(I.mask);
          const bool hardware_resolved = I.hw_bh || tex;
          coords(I.cx, mk, cxs);
          coords(I.cy, mk, cys);
          for (int l = 0; l < n; ++l) {
            if (!mk[l]) {
              d[l] = 0.0;
              continue;
            }
            const int cx = cxs[l];
            const int cy = cys[l];
            // Boundary handling, of any mode, only matters out of range,
            // which even border groups see on a minority of lanes.
            if (static_cast<unsigned>(cx) < static_cast<unsigned>(bw) &&
                static_cast<unsigned>(cy) < static_cast<unsigned>(bh)) {
              const std::uint64_t addr =
                  static_cast<std::uint64_t>(cy) * stride + cx;
              d[l] = static_cast<double>(data[addr]);
              record(addr);
              continue;
            }
            // Constant mode with guards: out-of-bounds lanes are predicated
            // off and produce the constant without touching memory.
            if (I.boundary == BoundaryMode::kConstant && !I.hw_bh) {
              const bool oob_x =
                  (cx < 0 && I.checks.lo_x) || (cx >= bw && I.checks.hi_x);
              const bool oob_y =
                  (cy < 0 && I.checks.lo_y) || (cy >= bh && I.checks.hi_y);
              if (oob_x || oob_y) {
                d[l] = static_cast<double>(I.cvalue);
                continue;
              }
            }
            bool unguarded = false;
            const int rx = ResolveCoord(cx, bw, I.boundary, I.checks.lo_x,
                                        I.checks.hi_x, hardware_resolved,
                                        &unguarded);
            const int ry = ResolveCoord(cy, bh, I.boundary, I.checks.lo_y,
                                        I.checks.hi_y, hardware_resolved,
                                        &unguarded);
            if (unguarded) violation();
            if (rx < 0 || ry < 0) {
              d[l] = static_cast<double>(I.cvalue);
              continue;
            }
            const std::uint64_t addr =
                static_cast<std::uint64_t>(ry) * stride + rx;
            d[l] = static_cast<double>(data[addr]);
            record(addr);
          }
        }
        f.types[I.dst] = ScalarType::kFloat;
        if constexpr (kModel) {
          if (tex)
            model.memory->TextureAccess(*model.addrs, model.metrics);
          else
            model.memory->GlobalAccess(*model.addrs, /*is_write=*/false,
                                       model.metrics);
        }
        break;
      }

      case Op::kLoadShared: {
        double* d = f.reg(I.dst);
        const std::uint8_t* mk = f.mask(I.mask);
        coords(I.cx, mk, cxs);
        coords(I.cy, mk, cys);
        begin_access();
        for (int l = 0; l < n; ++l) {
          if (!mk[l]) {
            d[l] = 0.0;
            continue;
          }
          const int sx = cxs[l];
          const int sy = cys[l];
          if (sx < 0 || sx >= g.tile_w || sy < 0 || sy >= g.tile_h) {
            violation();
            d[l] = 0.0;
            continue;
          }
          const std::uint64_t addr =
              static_cast<std::uint64_t>(sy) * g.tile_w + sx;
          d[l] = static_cast<double>(g.tile[addr]);
          record(addr);
        }
        f.types[I.dst] = ScalarType::kFloat;
        if constexpr (kModel)
          model.memory->SharedAccess(*model.addrs, model.metrics);
        break;
      }

      case Op::kLoadConst: {
        const LaunchBindings::Mask& mb =
            bind.masks[static_cast<std::size_t>(I.buffer)];
        double* d = f.reg(I.dst);
        const std::uint8_t* mk = f.mask(I.mask);
        const std::size_t size = mb.data->size();
        begin_access();
        if (I.cx.kind == CoordKind::kImm && I.cy.kind == CoordKind::kImm) {
          // Mask coefficients are almost always read at literal window
          // offsets: one broadcast per instruction.
          const std::uint64_t addr =
              static_cast<std::uint64_t>(I.cy.off) * mb.width + I.cx.off;
          const bool in = addr < size;
          const double v = in ? static_cast<double>((*mb.data)[addr]) : 0.0;
          for (int l = 0; l < n; ++l) {
            d[l] = mk[l] ? v : 0.0;
            if (!mk[l]) continue;
            if (in)
              record(addr);
            else
              violation();
          }
        } else {
          coords(I.cx, mk, cxs);
          coords(I.cy, mk, cys);
          for (int l = 0; l < n; ++l) {
            if (!mk[l]) {
              d[l] = 0.0;
              continue;
            }
            const std::uint64_t addr =
                static_cast<std::uint64_t>(cys[l]) * mb.width + cxs[l];
            if (addr >= size) {
              violation();
              d[l] = 0.0;
              continue;
            }
            d[l] = static_cast<double>((*mb.data)[addr]);
            record(addr);
          }
        }
        f.types[I.dst] = ScalarType::kFloat;
        if constexpr (kModel)
          model.memory->ConstantAccess(*model.addrs, model.metrics);
        break;
      }

      case Op::kStore: {
        const BufferBinding* buf =
            bind.buffers[static_cast<std::size_t>(I.buffer)];
        const double* v = f.reg(I.a);
        const bool write = !kModel || !model_only;
        begin_access();
        if (const std::int64_t at =
                row_start(I, buf->width, buf->height, buf->stride);
            at >= 0) {
          for (int l = 0; l < n; ++l) {
            if (write) buf->data[at + l] = static_cast<float>(v[l]);
            record(static_cast<std::uint64_t>(at + l));
          }
        } else {
          const std::uint8_t* mk = f.mask(I.mask);
          coords(I.cx, mk, cxs);
          coords(I.cy, mk, cys);
          for (int l = 0; l < n; ++l) {
            if (!mk[l]) continue;
            const int px = cxs[l];
            const int py = cys[l];
            if (px < 0 || px >= buf->width || py < 0 || py >= buf->height) {
              violation();
              continue;
            }
            const std::uint64_t addr =
                static_cast<std::uint64_t>(py) * buf->stride + px;
            if (write) buf->data[addr] = static_cast<float>(v[l]);
            record(addr);
          }
        }
        if constexpr (kModel)
          model.memory->GlobalAccess(*model.addrs, /*is_write=*/true,
                                     model.metrics);
        break;
      }

      case Op::kBarrier:
      case Op::kAccount:
        break;  // cost only

      case Op::kMaskIf: {
        const double* cond = f.reg(I.a);
        const std::uint8_t* in = f.mask(I.mask);
        std::uint8_t* tm = f.mask(I.dst);
        std::uint8_t* em = f.mask(I.b);
        for (int l = 0; l < n; ++l) {
          const bool active = in[l] != 0;
          const bool taken = active && cond[l] != 0.0;
          tm[l] = taken;
          em[l] = active && !taken;
        }
        break;
      }

      case Op::kJumpIfNone:
        if (!AnyLane(f.mask(I.mask), n)) {
          pc = I.jump;
          continue;
        }
        break;

      case Op::kLoopInit: {
        // The loop variable takes lo's raw lanes (no int conversion) under
        // an int type tag, like the oracle.
        const double* s = f.reg(I.a);
        double* d = f.reg(I.dst);
        if (d != s) std::copy_n(s, n, d);
        f.types[I.dst] = ScalarType::kInt;
        break;
      }

      case Op::kLoopHead: {
        const double* var = f.reg(I.a);
        const double* hi = f.reg(I.b);
        const std::uint8_t* in = f.mask(I.mask);
        std::uint8_t* im = f.mask(I.dst);
        bool any = false;
        for (int l = 0; l < n; ++l) {
          const bool live = in[l] && var[l] <= hi[l];
          im[l] = live;
          any = any || live;
        }
        if (!any) {
          pc = I.jump;
          continue;
        }
        break;
      }

      case Op::kLoopInc: {
        double* d = f.reg(I.dst);
        const std::uint8_t* mk = f.mask(I.mask);
        for (int l = 0; l < n; ++l)
          if (mk[l]) d[l] += I.imm;
        pc = I.jump;
        continue;
      }
    }
    ++pc;
  }
}

}  // namespace hipacc::sim
