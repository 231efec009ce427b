#include "runtime/host_exec.hpp"

#include <algorithm>
#include <cstddef>
#include <vector>

#include "dsl/boundary.hpp"
#include "ast/type.hpp"
#include "sim/bytecode.hpp"
#include "support/string_utils.hpp"

namespace hipacc::runtime {
namespace {

using namespace hipacc::ast;
using sim::Coord;
using sim::CoordKind;
using sim::Insn;
using sim::Op;
using sim::Program;
using sim::ProgramSet;
using sim::VmBuiltin;

/// Pixels interpreted per dispatch of one instruction. Wider chunks amortise
/// dispatch further but grow the per-thread register file (num_regs * width
/// doubles); 256 keeps a typical kernel's file inside L1/L2.
constexpr int kLaneWidth = 256;

/// CostPerPixel's fixed per-stage cost, in interior instructions: what one
/// stage costs besides its pixels (pool acquire, BuildLaunch, Prepare, band
/// scheduling, EndStage). It must be positive: a horizontal merge saves no
/// instruction, only a stage. Calibrated once on a 4-vCPU x86-64 VM
/// (RelWithDebInfo, one worker, two runs): a chain of 1x1 point stages
/// spent 0.97-1.73 us per stage through FrameExec and 1.34-2.26 us through
/// the frame loop, and the ISP's 256x256 stages ran 2.9-4.4, 12.2-19.3 and
/// 36.9-64.6 ns/px for interior programs of 4, 10 and 45 instructions, so
/// about 1 ns per instruction: the stage costs 1,000-2,300 instructions.
constexpr double kStageCostInstructions = 2000.0;

/// Identical to the VM's ResolveCoord minus the violation counter (the host
/// path keeps no metrics); clamp behaviour for unguarded OOB is preserved so
/// values match the simulator bit for bit.
int ResolveCoordHost(int c, int n, BoundaryMode mode, bool check_lo,
                     bool check_hi) {
  if (c >= 0 && c < n) return c;
  const bool guarded = (c < 0 && check_lo) || (c >= n && check_hi);
  if (!guarded) return c < 0 ? 0 : n - 1;  // safety-net clamp
  return dsl::ResolveBoundaryIndex(c, n, mode);
}

struct MaskBind {
  const std::vector<float>* data = nullptr;
  int width = 1;
};

struct ParamFill {
  std::uint16_t reg = 0;
  ScalarType type = ScalarType::kFloat;
  double value = 0.0;
};

// Lane loops templated on the operator, mirroring vm.cpp: the per-lane
// switch inside the shared Eval*Lane helpers constant-folds away, and
// dispatch happens once per instruction per chunk.

template <BinaryOp op, bool float_math>
void BinaryLanes(const double* a, const double* b, double* d, int n) {
  for (int l = 0; l < n; ++l)
    d[l] = sim::EvalBinaryLane(op, float_math, a[l], b[l]);
}

template <AssignOp op, bool float_math>
void AssignLanes(const double* s, double* d, const std::uint8_t* mk,
                 ScalarType to, bool convert, int n) {
  constexpr ScalarType kFolded =
      float_math ? ScalarType::kFloat : ScalarType::kInt;
  for (int l = 0; l < n; ++l) {
    if (!mk[l]) continue;
    const double rhs = convert ? sim::ConvertLaneValue(s[l], to) : s[l];
    d[l] = sim::CombineLane(kFolded, op, d[l], rhs);
  }
}

bool AnyActive(const std::uint8_t* mk, int n) {
  for (int l = 0; l < n; ++l)
    if (mk[l]) return true;
  return false;
}

/// Per-thread register / mask file reused across chunks (and across stages
/// on the same worker). Reuse is safe for the same reason as the VM's
/// scratch: compiled programs never read a register before writing it.
struct HostScratch {
  std::vector<double> regs;         // num_regs * kLaneWidth
  std::vector<ScalarType> types;    // per register
  std::vector<std::uint8_t> masks;  // num_masks * kLaneWidth
};

HostScratch& ThreadScratch() {
  static thread_local HostScratch scratch;
  return scratch;
}

/// Everything resolved once per launch and read by every row: buffer/mask
/// bindings in program index order and per-program scalar seeds (floats
/// pre-rounded exactly like the VM's ParamFill).
struct ExecPlan {
  const ProgramSet* ps = nullptr;
  std::vector<const sim::BufferBinding*> buffers;
  std::vector<MaskBind> masks;
  std::vector<std::vector<ParamFill>> seeds;  // parallel to ps->programs
  int width = 0;
  int height = 0;
  // Band boundaries of the nine-region pixel partition (x: [0,x1) [x1,x2)
  // [x2,W), same for y), and the program chosen for each band pair.
  int x1 = 0, x2 = 0, y1 = 0, y2 = 0;
  const Program* grid[3][3] = {};
};

constexpr Region kRegionGrid[3][3] = {
    {Region::kTopLeft, Region::kTop, Region::kTopRight},
    {Region::kLeft, Region::kInterior, Region::kRight},
    {Region::kBottomLeft, Region::kBottom, Region::kBottomRight},
};

/// Interprets one program over lanes (x0 .. x0+n-1, y). Infallible: every
/// failure mode is rejected up front by Validate / the binding pre-flight.
void ExecChunk(const ExecPlan& plan, const Program& prog,
               const std::vector<ParamFill>& seeds, int x0, int y, int n) {
  HostScratch& sc = ThreadScratch();
  const std::size_t reg_slots =
      static_cast<std::size_t>(prog.num_regs) * kLaneWidth;
  if (sc.regs.size() < reg_slots) sc.regs.resize(reg_slots);
  if (sc.types.size() < static_cast<std::size_t>(prog.num_regs))
    sc.types.resize(static_cast<std::size_t>(prog.num_regs));
  const std::size_t mask_slots =
      static_cast<std::size_t>(prog.num_masks) * kLaneWidth;
  if (sc.masks.size() < mask_slots) sc.masks.resize(mask_slots);

  double* regs = sc.regs.data();
  ScalarType* types = sc.types.data();
  std::uint8_t* masks = sc.masks.data();
  auto reg = [&](std::uint16_t r) { return regs + std::size_t{r} * kLaneWidth; };
  auto msk = [&](std::uint16_t m) { return masks + std::size_t{m} * kLaneWidth; };

  for (int l = 0; l < n; ++l) masks[l] = 1;  // slot 0: chunk active mask
  for (const ParamFill& seed : seeds) {
    double* r = reg(seed.reg);
    types[seed.reg] = seed.type;
    for (int l = 0; l < n; ++l) r[l] = seed.value;
  }

  // Coordinate materialisation, dispatching on the kind once per operand.
  // Masked-off lanes get 0 for register coordinates, like the VM: their
  // values are never used, but stale lanes must not be cast to int.
  int cxs[kLaneWidth];
  int cys[kLaneWidth];
  auto coord_lanes = [&](const Coord& c, const std::uint8_t* mk, int* out) {
    switch (c.kind) {
      case CoordKind::kReg: {
        const double* r = reg(c.reg);
        for (int l = 0; l < n; ++l) out[l] = mk[l] ? static_cast<int>(r[l]) : 0;
        break;
      }
      case CoordKind::kGidX:
        for (int l = 0; l < n; ++l) out[l] = x0 + l + c.off;
        break;
      case CoordKind::kGidY:
        for (int l = 0; l < n; ++l) out[l] = y + c.off;
        break;
      case CoordKind::kImm:
        for (int l = 0; l < n; ++l) out[l] = c.off;
        break;
      case CoordKind::kTidX:
      case CoordKind::kTidY:
        break;  // rejected by Validate
    }
  };

  const Insn* code = prog.code.data();
  const std::int32_t end = static_cast<std::int32_t>(prog.code.size());
  std::int32_t pc = 0;
  while (pc < end) {
    const Insn& I = code[pc];
    switch (I.op) {
      case Op::kConst: {
        double* d = reg(I.dst);
        types[I.dst] = I.type;
        for (int l = 0; l < n; ++l) d[l] = I.imm;
        break;
      }
      case Op::kCopy: {
        const double* s = reg(I.a);
        double* d = reg(I.dst);
        types[I.dst] = types[I.a];
        if (d != s)
          for (int l = 0; l < n; ++l) d[l] = s[l];
        break;
      }
      case Op::kConvert: {
        const double* s = reg(I.a);
        double* d = reg(I.dst);
        if (types[I.a] == I.type) {
          if (d != s)
            for (int l = 0; l < n; ++l) d[l] = s[l];
        } else {
          for (int l = 0; l < n; ++l)
            d[l] = sim::ConvertLaneValue(s[l], I.type);
        }
        types[I.dst] = I.type;
        break;
      }
      case Op::kUnary: {
        const double* s = reg(I.a);
        double* d = reg(I.dst);
        const UnaryOp op = static_cast<UnaryOp>(I.sub);
        for (int l = 0; l < n; ++l)
          d[l] = sim::EvalUnaryLane(op, I.type, s[l]);
        types[I.dst] = I.type;
        break;
      }
      case Op::kBinary: {
        const double* a = reg(I.a);
        const double* b = reg(I.b);
        double* d = reg(I.dst);
        const BinaryOp op = static_cast<BinaryOp>(I.sub);
        const bool fm = Promote(types[I.a], types[I.b]) == ScalarType::kFloat;
        switch (op) {
#define HIPACC_HOST_BINARY(name)                         \
  case BinaryOp::name:                                   \
    if (fm)                                              \
      BinaryLanes<BinaryOp::name, true>(a, b, d, n);     \
    else                                                 \
      BinaryLanes<BinaryOp::name, false>(a, b, d, n);    \
    break;
          HIPACC_HOST_BINARY(kAdd)
          HIPACC_HOST_BINARY(kSub)
          HIPACC_HOST_BINARY(kMul)
          HIPACC_HOST_BINARY(kDiv)
          HIPACC_HOST_BINARY(kMod)
          HIPACC_HOST_BINARY(kLt)
          HIPACC_HOST_BINARY(kLe)
          HIPACC_HOST_BINARY(kGt)
          HIPACC_HOST_BINARY(kGe)
          HIPACC_HOST_BINARY(kEq)
          HIPACC_HOST_BINARY(kNe)
          HIPACC_HOST_BINARY(kAnd)
          HIPACC_HOST_BINARY(kOr)
#undef HIPACC_HOST_BINARY
        }
        types[I.dst] = I.type;
        break;
      }
      case Op::kSelect: {
        const double* c = reg(I.a);
        const double* t = reg(I.b);
        const double* f = reg(I.c);
        double* d = reg(I.dst);
        for (int l = 0; l < n; ++l) {
          const double cv = c[l];
          const double tv = t[l];
          const double fv = f[l];
          d[l] = cv != 0.0 ? tv : fv;
        }
        types[I.dst] = I.type;
        break;
      }
      case Op::kCall: {
        const double* a = reg(I.a);
        const double* b = reg(I.b);
        double* d = reg(I.dst);
        const VmBuiltin fn = static_cast<VmBuiltin>(I.sub);
        for (int l = 0; l < n; ++l) d[l] = sim::EvalBuiltinLane(fn, a[l], b[l]);
        types[I.dst] = I.type;
        break;
      }
      case Op::kThreadIdx: {
        double* d = reg(I.dst);
        // Validate admits only the global-id kinds.
        if (static_cast<ThreadIndexKind>(I.sub) == ThreadIndexKind::kGlobalIdX)
          for (int l = 0; l < n; ++l) d[l] = static_cast<double>(x0 + l);
        else
          for (int l = 0; l < n; ++l) d[l] = static_cast<double>(y);
        types[I.dst] = ScalarType::kInt;
        break;
      }
      case Op::kAssign: {
        const double* s = reg(I.a);
        double* d = reg(I.dst);
        const AssignOp op = static_cast<AssignOp>(I.sub);
        const std::uint8_t* mk = msk(I.mask);
        const bool convert = types[I.a] != I.type;
        const bool fm = I.type == ScalarType::kFloat;
        switch (op) {
#define HIPACC_HOST_ASSIGN(name)                                          \
  case AssignOp::name:                                                    \
    if (fm)                                                               \
      AssignLanes<AssignOp::name, true>(s, d, mk, I.type, convert, n);    \
    else                                                                  \
      AssignLanes<AssignOp::name, false>(s, d, mk, I.type, convert, n);   \
    break;
          HIPACC_HOST_ASSIGN(kAssign)
          HIPACC_HOST_ASSIGN(kAddAssign)
          HIPACC_HOST_ASSIGN(kSubAssign)
          HIPACC_HOST_ASSIGN(kMulAssign)
          HIPACC_HOST_ASSIGN(kDivAssign)
#undef HIPACC_HOST_ASSIGN
        }
        break;
      }
      case Op::kLoadImage: {
        const sim::BufferBinding* buf =
            plan.buffers[static_cast<std::size_t>(I.buffer)];
        double* d = reg(I.dst);
        const int bw = buf->width;
        const int bh = buf->height;
        const int stride = buf->stride;
        const float* data = buf->data;
        // Whole-chunk fast path for the ubiquitous gid+offset addressing
        // when every lane is in range: one contiguous widening copy.
        if (I.mask == 0 && I.cx.kind == CoordKind::kGidX &&
            I.cy.kind == CoordKind::kGidY) {
          const int ry = y + I.cy.off;
          const int rx = x0 + I.cx.off;
          if (ry >= 0 && ry < bh && rx >= 0 && rx + n <= bw) {
            const float* src = data + static_cast<std::size_t>(ry) * stride + rx;
            for (int l = 0; l < n; ++l) d[l] = static_cast<double>(src[l]);
            types[I.dst] = ScalarType::kFloat;
            break;
          }
        }
        const std::uint8_t* mk = msk(I.mask);
        coord_lanes(I.cx, mk, cxs);
        coord_lanes(I.cy, mk, cys);
        for (int l = 0; l < n; ++l) {
          if (!mk[l]) {
            d[l] = 0.0;
            continue;
          }
          const int cx = cxs[l];
          const int cy = cys[l];
          if (static_cast<unsigned>(cx) < static_cast<unsigned>(bw) &&
              static_cast<unsigned>(cy) < static_cast<unsigned>(bh)) {
            d[l] = static_cast<double>(
                data[static_cast<std::size_t>(cy) * stride + cx]);
            continue;
          }
          if (I.boundary == BoundaryMode::kConstant) {
            const bool oob_x =
                (cx < 0 && I.checks.lo_x) || (cx >= bw && I.checks.hi_x);
            const bool oob_y =
                (cy < 0 && I.checks.lo_y) || (cy >= bh && I.checks.hi_y);
            if (oob_x || oob_y) {
              d[l] = static_cast<double>(I.cvalue);
              continue;
            }
          }
          const int rx = ResolveCoordHost(cx, bw, I.boundary, I.checks.lo_x,
                                          I.checks.hi_x);
          const int ry = ResolveCoordHost(cy, bh, I.boundary, I.checks.lo_y,
                                          I.checks.hi_y);
          if (rx < 0 || ry < 0) {
            d[l] = static_cast<double>(I.cvalue);
            continue;
          }
          d[l] = static_cast<double>(
              data[static_cast<std::size_t>(ry) * stride + rx]);
        }
        types[I.dst] = ScalarType::kFloat;
        break;
      }
      case Op::kLoadConst: {
        const MaskBind& mb = plan.masks[static_cast<std::size_t>(I.buffer)];
        double* d = reg(I.dst);
        // Mask coefficients are almost always read at literal window
        // offsets: a single broadcast per instruction.
        if (I.cx.kind == CoordKind::kImm && I.cy.kind == CoordKind::kImm) {
          const std::size_t addr =
              static_cast<std::size_t>(I.cy.off) * mb.width + I.cx.off;
          const double v = addr < mb.data->size()
                               ? static_cast<double>((*mb.data)[addr])
                               : 0.0;
          const std::uint8_t* mk = msk(I.mask);
          for (int l = 0; l < n; ++l) d[l] = mk[l] ? v : 0.0;
          types[I.dst] = ScalarType::kFloat;
          break;
        }
        const std::uint8_t* mk = msk(I.mask);
        coord_lanes(I.cx, mk, cxs);
        coord_lanes(I.cy, mk, cys);
        for (int l = 0; l < n; ++l) {
          if (!mk[l]) {
            d[l] = 0.0;
            continue;
          }
          const std::size_t addr =
              static_cast<std::size_t>(cys[l]) * mb.width + cxs[l];
          d[l] = addr < mb.data->size() ? static_cast<double>((*mb.data)[addr])
                                        : 0.0;
        }
        types[I.dst] = ScalarType::kFloat;
        break;
      }
      case Op::kStore: {
        const sim::BufferBinding* buf =
            plan.buffers[static_cast<std::size_t>(I.buffer)];
        const double* v = reg(I.a);
        if (I.mask == 0 && I.cx.kind == CoordKind::kGidX &&
            I.cy.kind == CoordKind::kGidY) {
          const int py = y + I.cy.off;
          const int px = x0 + I.cx.off;
          if (py >= 0 && py < buf->height && px >= 0 &&
              px + n <= buf->width) {
            float* dst =
                buf->data + static_cast<std::size_t>(py) * buf->stride + px;
            for (int l = 0; l < n; ++l) dst[l] = static_cast<float>(v[l]);
            break;
          }
        }
        const std::uint8_t* mk = msk(I.mask);
        coord_lanes(I.cx, mk, cxs);
        coord_lanes(I.cy, mk, cys);
        for (int l = 0; l < n; ++l) {
          if (!mk[l]) continue;
          const int px = cxs[l];
          const int py = cys[l];
          if (px < 0 || px >= buf->width || py < 0 || py >= buf->height)
            continue;
          buf->data[static_cast<std::size_t>(py) * buf->stride + px] =
              static_cast<float>(v[l]);
        }
        break;
      }
      case Op::kBarrier:
      case Op::kAccount:
        break;
      case Op::kLoadShared:
        break;  // rejected by Validate
      case Op::kMaskIf: {
        const double* cond = reg(I.a);
        const std::uint8_t* in = msk(I.mask);
        std::uint8_t* tm = msk(I.dst);
        std::uint8_t* em = msk(I.b);
        for (int l = 0; l < n; ++l) {
          const bool taken = in[l] && cond[l] != 0.0;
          const bool active = in[l] != 0;
          tm[l] = taken;
          em[l] = active && !taken;
        }
        break;
      }
      case Op::kJumpIfNone:
        if (!AnyActive(msk(I.mask), n)) {
          pc = I.jump;
          continue;
        }
        break;
      case Op::kLoopInit: {
        const double* s = reg(I.a);
        double* d = reg(I.dst);
        if (d != s)
          for (int l = 0; l < n; ++l) d[l] = s[l];
        types[I.dst] = ScalarType::kInt;
        break;
      }
      case Op::kLoopHead: {
        const double* var = reg(I.a);
        const double* hi = reg(I.b);
        const std::uint8_t* in = msk(I.mask);
        std::uint8_t* im = msk(I.dst);
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
        double* d = reg(I.dst);
        const std::uint8_t* mk = msk(I.mask);
        for (int l = 0; l < n; ++l)
          if (mk[l]) d[l] += I.imm;
        pc = I.jump;
        continue;
      }
    }
    ++pc;
  }
}

/// Rejects programs whose host execution could diverge from the simulator:
/// scratchpad staging (tile contents depend on the block shape), texture or
/// hardware-resolved boundary handling, and any thread/block-shape dependent
/// index. Pure value computations pass.
Status ValidateProgram(const Program& prog, const std::string& kernel) {
  auto unsupported = [&](const char* what) {
    return Status::Unimplemented(
        StrFormat("host executor: kernel '%s' uses %s",
                           kernel.c_str(), what));
  };
  for (const Insn& I : prog.code) {
    if (I.op == Op::kLoadShared) return unsupported("scratchpad staging");
    if (I.op == Op::kLoadImage && (I.sub == 1 || I.hw_bh))
      return unsupported("texture/hardware boundary handling");
    if (I.op == Op::kThreadIdx) {
      const ThreadIndexKind kind = static_cast<ThreadIndexKind>(I.sub);
      if (kind != ThreadIndexKind::kGlobalIdX &&
          kind != ThreadIndexKind::kGlobalIdY)
        return unsupported("block-shape dependent thread indexing");
    }
    for (const Coord* c : {&I.cx, &I.cy})
      if (c->kind == CoordKind::kTidX || c->kind == CoordKind::kTidY)
        return unsupported("thread-local coordinates");
  }
  return Status::Ok();
}

/// Builds the band partition and per-band program table. With a single
/// program variant the whole image is one band; otherwise the halo cuts
/// three bands per axis and each band pair maps to its Figure 3 region.
Status PlanRegions(const ProgramSet& ps, int width, int height, int halo_x,
                   int halo_y, ExecPlan* plan) {
  // PPT kernels map one thread to several pixels; the host executor's
  // one-virtual-thread-per-pixel iteration cannot reproduce that (the
  // interior variants carry no rejectable node, so gate on the set itself).
  if (ps.ppt > 1)
    return Status::Unimplemented(StrFormat(
        "host executor: kernel '%s' uses %d pixels per thread",
        ps.kernel_name.c_str(), ps.ppt));
  if (ps.programs.size() == 1) {
    plan->x1 = 0;
    plan->x2 = width;
    plan->y1 = 0;
    plan->y2 = height;
    for (auto& row : plan->grid)
      for (auto& cell : row) cell = &ps.programs.front();
    return ValidateProgram(ps.programs.front(), ps.kernel_name);
  }
  if (halo_x < 0 || halo_y < 0 || width < 2 * halo_x || height < 2 * halo_y)
    return Status::Unimplemented(StrFormat(
        "host executor: %dx%d image smaller than twice the %dx%d halo",
        width, height, halo_x, halo_y));
  plan->x1 = halo_x;
  plan->x2 = width - halo_x;
  plan->y1 = halo_y;
  plan->y2 = height - halo_y;
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) {
      const Program* prog = ps.Find(kRegionGrid[r][c]);
      if (prog == nullptr)
        return Status::Unimplemented(StrFormat(
            "host executor: kernel '%s' has no %s program",
            ps.kernel_name.c_str(), to_string(kRegionGrid[r][c])));
      HIPACC_RETURN_IF_ERROR(ValidateProgram(*prog, ps.kernel_name));
      plan->grid[r][c] = prog;
    }
  }
  return Status::Ok();
}

Status BindLaunch(const sim::Launch& launch, const ProgramSet& ps,
                  ExecPlan* plan) {
  plan->buffers.reserve(ps.buffer_names.size());
  for (const auto& name : ps.buffer_names)
    plan->buffers.push_back(launch.FindBuffer(name));
  plan->masks.reserve(ps.const_masks.size());
  for (const auto& ref : ps.const_masks) {
    MaskBind mb;
    const auto it = launch.const_masks.find(ref.name);
    if (it != launch.const_masks.end()) mb.data = &it->second;
    mb.width = ref.width;
    plan->masks.push_back(mb);
  }
  plan->seeds.resize(ps.programs.size());
  for (std::size_t p = 0; p < ps.programs.size(); ++p) {
    const Program& prog = ps.programs[p];
    auto& seeds = plan->seeds[p];
    seeds.reserve(prog.params.size());
    for (const auto& param : prog.params) {
      const auto it = launch.scalar_args.find(param.name);
      const double v = it != launch.scalar_args.end() ? it->second : 0.0;
      seeds.push_back(ParamFill{
          param.reg, param.type,
          param.type == ScalarType::kFloat
              ? static_cast<double>(static_cast<float>(v))
              : v});
    }
    // The VM binds lazily and errors when an instruction touches a missing
    // buffer; the host path front-loads the same checks so the row loop is
    // infallible.
    for (const Insn& I : prog.code) {
      if (I.op == Op::kLoadImage || I.op == Op::kStore) {
        const sim::BufferBinding* buf =
            plan->buffers[static_cast<std::size_t>(I.buffer)];
        if (buf == nullptr)
          return Status::Invalid(
              "unbound buffer " +
              ps.buffer_names[static_cast<std::size_t>(I.buffer)]);
        if (I.op == Op::kStore && !buf->writable)
          return Status::Invalid(
              "write to read-only buffer " +
              ps.buffer_names[static_cast<std::size_t>(I.buffer)]);
      } else if (I.op == Op::kLoadConst) {
        if (plan->masks[static_cast<std::size_t>(I.buffer)].data == nullptr)
          return Status::Invalid(
              "unbound constant mask " +
              ps.const_masks[static_cast<std::size_t>(I.buffer)].name);
      }
    }
  }
  return Status::Ok();
}

void ExecRow(const ExecPlan& plan, int y) {
  const int row = y < plan.y1 ? 0 : (y < plan.y2 ? 1 : 2);
  const ProgramSet& ps = *plan.ps;
  const int xs[4] = {0, plan.x1, plan.x2, plan.width};
  for (int col = 0; col < 3; ++col) {
    const Program* prog = plan.grid[row][col];
    const std::size_t prog_index =
        static_cast<std::size_t>(prog - ps.programs.data());
    const auto& seeds = plan.seeds[prog_index];
    for (int x0 = xs[col]; x0 < xs[col + 1]; x0 += kLaneWidth) {
      const int n = std::min(kLaneWidth, xs[col + 1] - x0);
      ExecChunk(plan, *prog, seeds, x0, y, n);
    }
  }
}

}  // namespace

struct HostLaunch::Plan : ExecPlan {};

HostLaunch::HostLaunch(std::unique_ptr<const Plan> plan)
    : plan_(std::move(plan)) {}
HostLaunch::HostLaunch(HostLaunch&&) noexcept = default;
HostLaunch& HostLaunch::operator=(HostLaunch&&) noexcept = default;
HostLaunch::~HostLaunch() = default;

Status HostLaunch::Supports(const ProgramSet& programs, int width, int height,
                            int halo_x, int halo_y) {
  ExecPlan plan;
  return PlanRegions(programs, width, height, halo_x, halo_y, &plan);
}

double HostLaunch::CostPerPixel(const ProgramSet& programs, int width,
                                int height) {
  const Program* interior = programs.programs.size() == 1
                                ? &programs.programs.front()
                                : programs.Find(Region::kInterior);
  HIPACC_CHECK(interior != nullptr);  // Supports requires it
  const double pixels =
      std::max(1.0, static_cast<double>(width) * static_cast<double>(height));
  return static_cast<double>(interior->code.size()) +
         kStageCostInstructions / pixels;
}

Result<HostLaunch> HostLaunch::Prepare(const sim::Launch& launch, int halo_x,
                                       int halo_y) {
  HIPACC_CHECK(launch.programs != nullptr);  // every launch carries them
  const ProgramSet& ps = *launch.programs;
  auto plan = std::make_unique<Plan>();
  plan->ps = &ps;
  plan->width = launch.width;
  plan->height = launch.height;
  HIPACC_RETURN_IF_ERROR(PlanRegions(ps, launch.width, launch.height, halo_x,
                                     halo_y, plan.get()));
  HIPACC_RETURN_IF_ERROR(BindLaunch(launch, ps, plan.get()));
  return HostLaunch(std::move(plan));
}

void HostLaunch::RunRows(int y0, int y1) const {
  for (int y = y0; y < y1; ++y) ExecRow(*plan_, y);
}

}  // namespace hipacc::runtime
