#include "oracle/interpreter.hpp"

#include <array>
#include <cmath>
#include <vector>

#include "ast/builtins.hpp"
#include "dsl/boundary.hpp"
#include "sim/block_state.hpp"
#include "support/string_utils.hpp"

namespace hipacc::sim {
namespace {

using namespace hipacc::ast;

/// Per-lane values of one warp. Values are stored as doubles but all
/// float-typed arithmetic is performed in float precision so results match
/// the DSL's host executor bit for bit. Lanes beyond the device's warp
/// width stay unread.
struct WarpVal {
  ScalarType type = ScalarType::kFloat;
  std::array<double, kMaxWarpWidth> lanes{};
};

/// Flat variable environment. Kernels declare a handful of locals, so an
/// insertion-ordered vector with linear name lookup beats a node-based map:
/// no allocation per declaration and cache-friendly scans. Slot indices are
/// stable across later declarations (unlike raw pointers into the vector).
class Env {
 public:
  Env() { slots_.reserve(16); }

  WarpVal* Find(const std::string& name) {
    for (Slot& slot : slots_)
      if (*slot.name == name) return &slot.val;
    return nullptr;
  }

  /// Get-or-create. `name` must outlive the environment (all callers pass
  /// strings owned by the kernel IR).
  WarpVal& Var(const std::string& name) { return slots_[SlotOf(name)].val; }

  /// Index of `name`, creating the variable if needed. The single scan
  /// shared by every get-or-create path.
  std::size_t SlotOf(const std::string& name) {
    for (std::size_t i = 0; i < slots_.size(); ++i)
      if (*slots_[i].name == name) return i;
    slots_.push_back(Slot{&name, WarpVal{}});
    return slots_.size() - 1;
  }

  WarpVal& At(std::size_t slot) { return slots_[slot].val; }

 private:
  struct Slot {
    const std::string* name;
    WarpVal val;
  };
  std::vector<Slot> slots_;
};

class BlockRunner {
 public:
  BlockRunner(const Launch& launch, const hw::DeviceSpec& device,
              int block_x_idx, int block_y_idx, Metrics* metrics)
      : st_(launch, device, block_x_idx, block_y_idx, metrics) {}

  Status Run() {
    Result<BlockState::Plan> begun = st_.Begin();
    if (!begun.ok()) return begun.status();
    const BlockState::Plan plan = begun.value();
    const RegionVariant* variant = st_.launch.kernel->FindVariant(plan.region);

    for (int w = 0; w < plan.warps; ++w) {
      st_.BuildWarpContext(w, plan.threads);
      if (!AnyActive(st_.active)) continue;
      Env env;
      SeedParams(&env);
      HIPACC_RETURN_IF_ERROR(Exec(variant->body, st_.active, &env));
    }
    return Status::Ok();
  }

 private:
  void SeedParams(Env* env) {
    for (const auto& p : st_.launch.kernel->params) {
      const auto it = st_.launch.scalar_args.find(p.name);
      const double v = it != st_.launch.scalar_args.end() ? it->second : 0.0;
      WarpVal& val = env->Var(p.name);
      val.type = p.type;
      val.lanes.fill(p.type == ScalarType::kFloat
                         ? static_cast<double>(static_cast<float>(v))
                         : v);
    }
  }

  // ---- statements -----------------------------------------------------------
  Status Exec(const StmtPtr& stmt, const LaneMask& mask, Env* env) {
    if (!stmt) return Status::Ok();
    const Stmt& s = *stmt;
    switch (s.kind) {
      case StmtKind::kBlock:
        for (const auto& child : s.body)
          HIPACC_RETURN_IF_ERROR(Exec(child, mask, env));
        return Status::Ok();
      case StmtKind::kDecl: {
        WarpVal val;
        if (s.value) {
          HIPACC_RETURN_IF_ERROR(Eval(s.value, mask, env, &val));
          val = Convert(val, s.decl_type);
        } else {
          val.type = s.decl_type;
          val.lanes.fill(0.0);
        }
        env->Var(s.name) = std::move(val);
        return Status::Ok();
      }
      case StmtKind::kAssign: {
        WarpVal rhs;
        HIPACC_RETURN_IF_ERROR(Eval(s.value, mask, env, &rhs));
        WarpVal* found = env->Find(s.name);
        if (!found)
          return Status::Internal("assignment to unknown variable " + s.name);
        WarpVal& var = *found;
        rhs = Convert(rhs, var.type);
        st_.metrics->alu_ops += s.assign_op == AssignOp::kAssign ? 0 : 1;
        for (int lane = 0; lane < st_.warp_size; ++lane) {
          const size_t l = static_cast<size_t>(lane);
          if (!mask[l]) continue;
          var.lanes[l] = Combine(var.type, s.assign_op, var.lanes[l], rhs.lanes[l]);
        }
        return Status::Ok();
      }
      case StmtKind::kIf: {
        WarpVal cond;
        HIPACC_RETURN_IF_ERROR(Eval(s.cond, mask, env, &cond));
        st_.metrics->alu_ops += 1;
        LaneMask then_mask(mask), else_mask(mask);
        for (int lane = 0; lane < st_.warp_size; ++lane) {
          const size_t l = static_cast<size_t>(lane);
          const bool taken = mask[l] && cond.lanes[l] != 0.0;
          then_mask[l] = taken;
          else_mask[l] = mask[l] && !taken;
        }
        if (AnyActive(then_mask))
          HIPACC_RETURN_IF_ERROR(Exec(s.body[0], then_mask, env));
        if (s.body.size() > 1 && AnyActive(else_mask))
          HIPACC_RETURN_IF_ERROR(Exec(s.body[1], else_mask, env));
        return Status::Ok();
      }
      case StmtKind::kFor: {
        WarpVal lo, hi;
        HIPACC_RETURN_IF_ERROR(Eval(s.lo, mask, env, &lo));
        HIPACC_RETURN_IF_ERROR(Eval(s.hi, mask, env, &hi));
        // Slot index instead of a reference: the body may declare variables,
        // growing the environment and invalidating references into it.
        const std::size_t slot = env->SlotOf(s.name);
        WarpVal& var = env->At(slot);
        var.type = ScalarType::kInt;
        var.lanes = lo.lanes;
        while (true) {
          LaneMask iter_mask(mask);
          bool any = false;
          const WarpVal& cur = env->At(slot);
          for (int lane = 0; lane < st_.warp_size; ++lane) {
            const size_t l = static_cast<size_t>(lane);
            iter_mask[l] = mask[l] && cur.lanes[l] <= hi.lanes[l];
            any = any || iter_mask[l];
          }
          st_.metrics->alu_ops += 2;  // compare + increment
          if (!any) break;
          HIPACC_RETURN_IF_ERROR(Exec(s.body[0], iter_mask, env));
          WarpVal& loop_var = env->At(slot);
          for (int lane = 0; lane < st_.warp_size; ++lane) {
            const size_t l = static_cast<size_t>(lane);
            if (iter_mask[l]) loop_var.lanes[l] += s.step;
          }
        }
        return Status::Ok();
      }
      case StmtKind::kBarrier:
        st_.metrics->alu_ops += 1;
        return Status::Ok();
      case StmtKind::kMemWrite:
        return ExecMemWrite(s, mask, env);
      case StmtKind::kOutputAssign:
        return Status::Internal("OutputAssign reached the interpreter");
    }
    return Status::Ok();
  }

  Status ExecMemWrite(const Stmt& s, const LaneMask& mask, Env* env) {
    const BufferBinding* buf = st_.launch.FindBuffer(s.name);
    if (!buf || !buf->writable)
      return Status::Invalid("write to unbound or read-only buffer " + s.name);
    WarpVal value, x, y;
    HIPACC_RETURN_IF_ERROR(Eval(s.value, mask, env, &value));
    HIPACC_RETURN_IF_ERROR(Eval(s.x, mask, env, &x));
    HIPACC_RETURN_IF_ERROR(Eval(s.y, mask, env, &y));
    value = Convert(value, ScalarType::kFloat);
    st_.metrics->alu_ops += 2;  // address arithmetic
    st_.addr_scratch.clear();
    for (int lane = 0; lane < st_.warp_size; ++lane) {
      const size_t l = static_cast<size_t>(lane);
      if (!mask[l]) continue;
      const int px = static_cast<int>(x.lanes[l]);
      const int py = static_cast<int>(y.lanes[l]);
      if (px < 0 || px >= buf->width || py < 0 || py >= buf->height) {
        ++st_.metrics->oob_violations;
        continue;
      }
      const std::uint64_t addr = static_cast<std::uint64_t>(py) * buf->stride + px;
      buf->data[addr] = static_cast<float>(value.lanes[l]);
      st_.addr_scratch.push_back(addr);
    }
    st_.memory.GlobalAccess(st_.addr_scratch, /*is_write=*/true, st_.metrics);
    return Status::Ok();
  }

  // ---- expressions ----------------------------------------------------------
  Status Eval(const ExprPtr& expr, const LaneMask& mask, Env* env,
              WarpVal* out) {
    const Expr& e = *expr;
    switch (e.kind) {
      case ExprKind::kIntLit:
        return Broadcast(ScalarType::kInt, static_cast<double>(e.int_value), out);
      case ExprKind::kFloatLit:
        return Broadcast(ScalarType::kFloat,
                         static_cast<double>(static_cast<float>(e.float_value)),
                         out);
      case ExprKind::kBoolLit:
        return Broadcast(ScalarType::kBool, e.bool_value ? 1.0 : 0.0, out);
      case ExprKind::kVarRef: {
        const WarpVal* v = env->Find(e.name);
        if (!v) return Status::Internal("unknown variable " + e.name);
        *out = *v;
        return Status::Ok();
      }
      case ExprKind::kUnary: {
        WarpVal v;
        HIPACC_RETURN_IF_ERROR(Eval(e.args[0], mask, env, &v));
        st_.metrics->alu_ops += 1;
        out->type = e.type;
        for (size_t l = 0; l < static_cast<size_t>(st_.warp_size); ++l) {
          if (e.unary_op == UnaryOp::kNot)
            out->lanes[l] = v.lanes[l] == 0.0 ? 1.0 : 0.0;
          else
            out->lanes[l] = e.type == ScalarType::kFloat
                                ? static_cast<double>(-static_cast<float>(v.lanes[l]))
                                : -v.lanes[l];
        }
        return Status::Ok();
      }
      case ExprKind::kBinary:
        return EvalBinary(e, mask, env, out);
      case ExprKind::kConditional: {
        WarpVal cond, tval, fval;
        HIPACC_RETURN_IF_ERROR(Eval(e.args[0], mask, env, &cond));
        HIPACC_RETURN_IF_ERROR(Eval(e.args[1], mask, env, &tval));
        HIPACC_RETURN_IF_ERROR(Eval(e.args[2], mask, env, &fval));
        st_.metrics->alu_ops += 1;  // select
        out->type = e.type;
        for (size_t l = 0; l < static_cast<size_t>(st_.warp_size); ++l)
          out->lanes[l] = cond.lanes[l] != 0.0 ? tval.lanes[l] : fval.lanes[l];
        return Status::Ok();
      }
      case ExprKind::kCall:
        return EvalCall(e, mask, env, out);
      case ExprKind::kCast: {
        WarpVal v;
        HIPACC_RETURN_IF_ERROR(Eval(e.args[0], mask, env, &v));
        st_.metrics->alu_ops += 1;
        *out = Convert(v, e.type);
        return Status::Ok();
      }
      case ExprKind::kThreadIndex:
        return EvalThreadIndex(e.thread_index, out);
      case ExprKind::kMemRead:
        return EvalMemRead(e, mask, env, out);
      case ExprKind::kAccessorRead:
      case ExprKind::kMaskRead:
      case ExprKind::kIterIndex:
        return Status::Internal("DSL-level node reached the interpreter");
    }
    return Status::Internal("unhandled expression kind");
  }

  Status Broadcast(ScalarType type, double value, WarpVal* out) {
    out->type = type;
    out->lanes.fill(value);
    return Status::Ok();
  }

  Status EvalBinary(const Expr& e, const LaneMask& mask, Env* env,
                    WarpVal* out) {
    WarpVal a, b;
    HIPACC_RETURN_IF_ERROR(Eval(e.args[0], mask, env, &a));
    HIPACC_RETURN_IF_ERROR(Eval(e.args[1], mask, env, &b));
    const ScalarType operand_type = Promote(a.type, b.type);
    const bool float_math = operand_type == ScalarType::kFloat;
    // Division and modulo expand into multi-instruction sequences.
    if (e.binary_op == BinaryOp::kDiv)
      st_.metrics->alu_ops += float_math ? 5 : 16;
    else if (e.binary_op == BinaryOp::kMod)
      st_.metrics->alu_ops += 16;
    else
      st_.metrics->alu_ops += 1;
    out->type = e.type;
    for (size_t l = 0; l < static_cast<size_t>(st_.warp_size); ++l) {
      const double x = a.lanes[l];
      const double y = b.lanes[l];
      double r = 0.0;
      switch (e.binary_op) {
        case BinaryOp::kAdd: r = float_math ? static_cast<double>(static_cast<float>(x) + static_cast<float>(y)) : x + y; break;
        case BinaryOp::kSub: r = float_math ? static_cast<double>(static_cast<float>(x) - static_cast<float>(y)) : x - y; break;
        case BinaryOp::kMul: r = float_math ? static_cast<double>(static_cast<float>(x) * static_cast<float>(y)) : x * y; break;
        case BinaryOp::kDiv:
          if (float_math) {
            r = static_cast<double>(static_cast<float>(x) / static_cast<float>(y));
          } else {
            const long long yi = static_cast<long long>(y);
            r = yi == 0 ? 0.0
                        : static_cast<double>(static_cast<long long>(x) / yi);
          }
          break;
        case BinaryOp::kMod: {
          const long long yi = static_cast<long long>(y);
          r = yi == 0 ? 0.0
                      : static_cast<double>(static_cast<long long>(x) % yi);
          break;
        }
        case BinaryOp::kLt: r = x < y; break;
        case BinaryOp::kLe: r = x <= y; break;
        case BinaryOp::kGt: r = x > y; break;
        case BinaryOp::kGe: r = x >= y; break;
        case BinaryOp::kEq: r = x == y; break;
        case BinaryOp::kNe: r = x != y; break;
        case BinaryOp::kAnd: r = (x != 0.0) && (y != 0.0); break;
        case BinaryOp::kOr: r = (x != 0.0) || (y != 0.0); break;
      }
      out->lanes[l] = r;
    }
    return Status::Ok();
  }

  Status EvalCall(const Expr& e, const LaneMask& mask, Env* env, WarpVal* out) {
    // Builtins take at most two arguments (atan2/pow/fmod/min/max family).
    std::array<WarpVal, 3> args;
    if (e.args.size() > args.size())
      return Status::Internal("builtin " + e.name + " has too many arguments");
    for (size_t i = 0; i < e.args.size(); ++i)
      HIPACC_RETURN_IF_ERROR(Eval(e.args[i], mask, env, &args[i]));

    const auto builtin = FindBuiltin(e.name);
    if (!builtin) return Status::Internal("unknown builtin " + e.name);
    switch (builtin->cost) {
      case OpCost::kAlu: st_.metrics->alu_ops += 1; break;
      case OpCost::kSfu: st_.metrics->sfu_calls += 1; break;
      case OpCost::kMulti:
        st_.metrics->sfu_calls += 2;
        st_.metrics->alu_ops += 4;
        break;
    }

    out->type = builtin->result;
    for (size_t l = 0; l < static_cast<size_t>(st_.warp_size); ++l) {
      auto arg = [&](size_t i) { return static_cast<float>(args[i].lanes[l]); };
      float r = 0.0f;
      if (e.name == "exp") r = std::exp(arg(0));
      else if (e.name == "exp2") r = std::exp2(arg(0));
      else if (e.name == "log") r = std::log(arg(0));
      else if (e.name == "log2") r = std::log2(arg(0));
      else if (e.name == "sqrt") r = std::sqrt(arg(0));
      else if (e.name == "rsqrt") r = 1.0f / std::sqrt(arg(0));
      else if (e.name == "sin") r = std::sin(arg(0));
      else if (e.name == "cos") r = std::cos(arg(0));
      else if (e.name == "tan") r = std::tan(arg(0));
      else if (e.name == "atan") r = std::atan(arg(0));
      else if (e.name == "atan2") r = std::atan2(arg(0), arg(1));
      else if (e.name == "pow") r = std::pow(arg(0), arg(1));
      else if (e.name == "fmod") r = std::fmod(arg(0), arg(1));
      else if (e.name == "fabs") r = std::fabs(arg(0));
      else if (e.name == "fmin") r = std::fmin(arg(0), arg(1));
      else if (e.name == "fmax") r = std::fmax(arg(0), arg(1));
      else if (e.name == "floor") r = std::floor(arg(0));
      else if (e.name == "ceil") r = std::ceil(arg(0));
      else if (e.name == "round") r = std::round(arg(0));
      else if (e.name == "min") {
        out->lanes[l] = std::min(args[0].lanes[l], args[1].lanes[l]);
        continue;
      } else if (e.name == "max") {
        out->lanes[l] = std::max(args[0].lanes[l], args[1].lanes[l]);
        continue;
      } else if (e.name == "abs") {
        out->lanes[l] = std::fabs(args[0].lanes[l]);
        continue;
      } else {
        return Status::Internal("unimplemented builtin " + e.name);
      }
      out->lanes[l] = static_cast<double>(r);
    }
    return Status::Ok();
  }

  Status EvalThreadIndex(ThreadIndexKind kind, WarpVal* out) {
    out->type = ScalarType::kInt;
    const hw::GridDim grid = hw::ComputeGrid(st_.launch.config,
                                             st_.launch.width,
                                             st_.launch.height,
                                             st_.launch.kernel->ppt);
    for (int lane = 0; lane < st_.warp_size; ++lane) {
      const size_t l = static_cast<size_t>(lane);
      double v = 0.0;
      switch (kind) {
        case ThreadIndexKind::kThreadIdxX: v = st_.tid_x[l]; break;
        case ThreadIndexKind::kThreadIdxY: v = st_.tid_y[l]; break;
        case ThreadIndexKind::kBlockIdxX: v = st_.bix; break;
        case ThreadIndexKind::kBlockIdxY: v = st_.biy; break;
        case ThreadIndexKind::kBlockDimX: v = st_.launch.config.block_x; break;
        case ThreadIndexKind::kBlockDimY: v = st_.launch.config.block_y; break;
        case ThreadIndexKind::kGridDimX: v = grid.blocks_x; break;
        case ThreadIndexKind::kGridDimY: v = grid.blocks_y; break;
        case ThreadIndexKind::kGlobalIdX: v = st_.gid_x[l]; break;
        case ThreadIndexKind::kGlobalIdY: v = st_.gid_y[l]; break;
        case ThreadIndexKind::kImageW: v = st_.launch.width; break;
        case ThreadIndexKind::kImageH: v = st_.launch.height; break;
      }
      out->lanes[l] = v;
    }
    return Status::Ok();
  }

  /// Resolves one coordinate under the read's guard set. Returns -1 when the
  /// constant value must be substituted; sets *violation for unguarded OOB.
  int ResolveCoord(int c, int n, BoundaryMode mode, bool check_lo,
                   bool check_hi, bool hardware_resolved, bool* violation) {
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

  Status EvalMemRead(const Expr& e, const LaneMask& mask, Env* env,
                     WarpVal* out) {
    WarpVal x, y;
    HIPACC_RETURN_IF_ERROR(Eval(e.args[0], mask, env, &x));
    HIPACC_RETURN_IF_ERROR(Eval(e.args[1], mask, env, &y));
    out->type = ScalarType::kFloat;
    out->lanes.fill(0.0);

    switch (e.space) {
      case MemSpace::kShared: {
        st_.addr_scratch.clear();
        st_.metrics->alu_ops += 2;  // tile index arithmetic
        for (int lane = 0; lane < st_.warp_size; ++lane) {
          const size_t l = static_cast<size_t>(lane);
          if (!mask[l]) continue;
          const int sx = static_cast<int>(x.lanes[l]);
          const int sy = static_cast<int>(y.lanes[l]);
          if (sx < 0 || sx >= st_.tile_w || sy < 0 || sy >= st_.tile_h) {
            ++st_.metrics->oob_violations;
            continue;
          }
          const std::uint64_t addr = static_cast<std::uint64_t>(sy) * st_.tile_w + sx;
          out->lanes[l] = static_cast<double>(st_.tile[addr]);
          st_.addr_scratch.push_back(addr);
        }
        st_.memory.SharedAccess(st_.addr_scratch, st_.metrics);
        return Status::Ok();
      }
      case MemSpace::kConstant: {
        const auto it = st_.launch.const_masks.find(e.name);
        if (it == st_.launch.const_masks.end())
          return Status::Invalid("unbound constant mask " + e.name);
        const int mask_w = MaskWidth(e.name);
        st_.addr_scratch.clear();
        st_.metrics->alu_ops += 2;
        for (int lane = 0; lane < st_.warp_size; ++lane) {
          const size_t l = static_cast<size_t>(lane);
          if (!mask[l]) continue;
          const int sx = static_cast<int>(x.lanes[l]);
          const int sy = static_cast<int>(y.lanes[l]);
          const std::uint64_t addr = static_cast<std::uint64_t>(sy) * mask_w + sx;
          if (addr >= it->second.size()) {
            ++st_.metrics->oob_violations;
            continue;
          }
          out->lanes[l] = static_cast<double>(it->second[addr]);
          st_.addr_scratch.push_back(addr);
        }
        st_.memory.ConstantAccess(st_.addr_scratch, st_.metrics);
        return Status::Ok();
      }
      case MemSpace::kGlobal:
      case MemSpace::kTexture: {
        const BufferBinding* buf = st_.launch.FindBuffer(e.name);
        if (!buf) return Status::Invalid("unbound buffer " + e.name);
        const BufferParam* param = FindBufferParam(e.name);
        const bool hardware_bh = param && param->texture_2d_array;
        // Guard + address arithmetic cost.
        st_.metrics->alu_ops += 2;
        if (!hardware_bh) {
          const int guard_cost = GuardAluCost(e.boundary);
          st_.metrics->alu_ops +=
              static_cast<std::uint64_t>(e.checks.count()) * guard_cost;
          if (e.boundary == BoundaryMode::kConstant && e.checks.any())
            st_.metrics->alu_ops += 1;  // final select
        }
        st_.addr_scratch.clear();
        for (int lane = 0; lane < st_.warp_size; ++lane) {
          const size_t l = static_cast<size_t>(lane);
          if (!mask[l]) continue;
          const int cx = static_cast<int>(x.lanes[l]);
          const int cy = static_cast<int>(y.lanes[l]);
          // Constant mode with guards: out-of-bounds lanes are predicated
          // off and produce the constant without touching memory.
          if (e.boundary == BoundaryMode::kConstant && !hardware_bh) {
            const bool oob_x = (cx < 0 && e.checks.lo_x) ||
                               (cx >= buf->width && e.checks.hi_x);
            const bool oob_y = (cy < 0 && e.checks.lo_y) ||
                               (cy >= buf->height && e.checks.hi_y);
            if (oob_x || oob_y) {
              out->lanes[l] = static_cast<double>(e.constant_value);
              continue;
            }
          }
          bool violation = false;
          // Texture reads never fault; unguarded OOB through plain global
          // pointers is recorded as a violation (the "crash" of Table II).
          const bool tex = e.space == MemSpace::kTexture;
          const int rx = ResolveCoord(cx, buf->width, e.boundary, e.checks.lo_x,
                                      e.checks.hi_x, hardware_bh || tex,
                                      &violation);
          const int ry = ResolveCoord(cy, buf->height, e.boundary,
                                      e.checks.lo_y, e.checks.hi_y,
                                      hardware_bh || tex, &violation);
          if (violation) ++st_.metrics->oob_violations;
          if (rx < 0 || ry < 0) {
            out->lanes[l] = static_cast<double>(e.constant_value);
            continue;
          }
          const std::uint64_t addr =
              static_cast<std::uint64_t>(ry) * buf->stride + rx;
          out->lanes[l] = static_cast<double>(buf->data[addr]);
          st_.addr_scratch.push_back(addr);
        }
        if (e.space == MemSpace::kTexture)
          st_.memory.TextureAccess(st_.addr_scratch, st_.metrics);
        else
          st_.memory.GlobalAccess(st_.addr_scratch, /*is_write=*/false,
                                  st_.metrics);
        return Status::Ok();
      }
    }
    return Status::Internal("unhandled memory space");
  }

  int MaskWidth(const std::string& name) const {
    for (const auto& m : st_.launch.kernel->const_masks)
      if (m.name == name) return m.size_x;
    for (const auto& m : st_.launch.kernel->global_masks)
      if (m.name == name) return m.size_x;
    return 1;
  }

  const BufferParam* FindBufferParam(const std::string& name) const {
    for (const auto& buf : st_.launch.kernel->buffers)
      if (buf.name == name) return &buf;
    return nullptr;
  }

  static double Combine(ScalarType type, AssignOp op, double lhs, double rhs) {
    const bool f = type == ScalarType::kFloat;
    auto as_float = [](double v) { return static_cast<double>(static_cast<float>(v)); };
    switch (op) {
      case AssignOp::kAssign: return rhs;
      case AssignOp::kAddAssign: return f ? as_float(as_float(lhs) + as_float(rhs)) : lhs + rhs;
      case AssignOp::kSubAssign: return f ? as_float(as_float(lhs) - as_float(rhs)) : lhs - rhs;
      case AssignOp::kMulAssign: return f ? as_float(as_float(lhs) * as_float(rhs)) : lhs * rhs;
      case AssignOp::kDivAssign: return f ? as_float(as_float(lhs) / as_float(rhs)) : (rhs != 0.0 ? static_cast<double>(static_cast<long long>(lhs) / static_cast<long long>(rhs)) : 0.0);
    }
    return rhs;
  }

  static WarpVal Convert(const WarpVal& v, ScalarType type) {
    if (v.type == type) return v;
    WarpVal out;
    out.type = type;
    for (size_t l = 0; l < v.lanes.size(); ++l) {
      switch (type) {
        case ScalarType::kFloat:
          out.lanes[l] = static_cast<double>(static_cast<float>(v.lanes[l]));
          break;
        case ScalarType::kInt:
        case ScalarType::kUInt:
          out.lanes[l] = static_cast<double>(static_cast<long long>(v.lanes[l]));
          break;
        case ScalarType::kBool:
          out.lanes[l] = v.lanes[l] != 0.0 ? 1.0 : 0.0;
          break;
        case ScalarType::kVoid:
          out.lanes[l] = 0.0;
          break;
      }
    }
    return out;
  }

  BlockState st_;
};

}  // namespace
}  // namespace hipacc::sim

namespace hipacc::oracle {

Status RunBlock(const sim::Launch& launch, const hw::DeviceSpec& device,
                int block_x_idx, int block_y_idx, sim::Metrics* metrics,
                std::uint64_t* /*executed_insns*/) {
  HIPACC_CHECK(launch.kernel != nullptr && metrics != nullptr);
  return sim::BlockRunner(launch, device, block_x_idx, block_y_idx, metrics)
      .Run();
}

}  // namespace hipacc::oracle
