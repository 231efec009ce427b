#include "sim/bytecode.hpp"

#include <algorithm>
#include <iterator>
#include <map>
#include <set>
#include <utility>

#include "ast/builtins.hpp"
#include "sim/block_state.hpp"
#include "sim/jit/cache.hpp"
#include "support/stopwatch.hpp"
#include "support/string_utils.hpp"

namespace hipacc::sim {
namespace {

using namespace hipacc::ast;

// Compile-time guard rails. Real kernels sit orders of magnitude below all
// of these; exceeding one of the last three is a compile error that names
// the budget (the unroll limits only keep a loop rolled).
constexpr int kMaxUnrollIterations = 64;
constexpr int kMaxUnrollNodes = 20000;
constexpr std::size_t kMaxCodeLength = 100000;
constexpr int kMaxRegisters = 60000;
constexpr int kMaxMaskSlots = 250;
/// MarkObserved keeps a live set per jump target; a program whose sets would
/// pass this many 64-bit words (8 MB) stays fully observed instead.
constexpr std::size_t kMaxLiveWords = std::size_t{1} << 20;

/// What each op reads and writes, for MarkObserved. A value op reads its
/// operands only when observed; every other op reads them wherever it runs
/// (the roots).
enum : std::uint8_t {
  kValueOp = 1,       // observed iff its destination is live after it
  kKillsDst = 2,      // writes every lane of its destination
  kReadsA = 4,
  kReadsB = 8,        // kCall: two-argument builtins only
  kReadsC = 16,
  kReadsDst = 32,
  kReadsCoords = 64,  // its kReg coordinates
};
constexpr std::uint8_t kLiveness[] = {
    /*kConst*/ kValueOp | kKillsDst,
    /*kCopy*/ kValueOp | kKillsDst | kReadsA,
    /*kConvert*/ kValueOp | kKillsDst | kReadsA,
    /*kUnary*/ kValueOp | kKillsDst | kReadsA,
    /*kBinary*/ kValueOp | kKillsDst | kReadsA | kReadsB,
    /*kSelect*/ kValueOp | kKillsDst | kReadsA | kReadsB | kReadsC,
    /*kCall*/ kValueOp | kKillsDst | kReadsA,
    /*kThreadIdx*/ kValueOp | kKillsDst,
    // Writes only the masked lanes, so it never kills; a compound assign
    // also reads the destination, which therefore stays live.
    /*kAssign*/ kValueOp | kReadsA,
    /*kLoadImage*/ kKillsDst | kReadsCoords,  // masked-off lanes get 0
    /*kLoadShared*/ kKillsDst | kReadsCoords,
    /*kLoadConst*/ kKillsDst | kReadsCoords,
    /*kStore*/ kReadsCoords,  // not its value: stored pixels are unobserved
    /*kBarrier*/ 0,
    /*kAccount*/ 0,
    /*kMaskIf*/ kReadsA,
    /*kJumpIfNone*/ 0,
    /*kLoopInit*/ kKillsDst | kReadsA,
    /*kLoopHead*/ kReadsA | kReadsB,
    /*kLoopInc*/ kReadsDst,
};
static_assert(std::size(kLiveness) ==
              static_cast<std::size_t>(Op::kLoopInc) + 1);

bool IsJump(Op op) {
  return op == Op::kJumpIfNone || op == Op::kLoopHead || op == Op::kLoopInc;
}

bool ReadsSecondArgument(VmBuiltin fn) {
  switch (fn) {
    case VmBuiltin::kAtan2:
    case VmBuiltin::kPow:
    case VmBuiltin::kFmod:
    case VmBuiltin::kFmin:
    case VmBuiltin::kFmax:
    case VmBuiltin::kMin:
    case VmBuiltin::kMax:
      return true;
    default:
      return false;
  }
}

/// A subtree the compiler evaluated at compile time: its warp-uniform value,
/// its runtime type, and the metric cost the interpreter would have paid to
/// evaluate it (re-attached to whichever instruction replaces the subtree,
/// so folding never changes modelled time).
struct Folded {
  ScalarType type = ScalarType::kInt;
  double value = 0.0;
  std::uint32_t alu = 0;
  std::uint32_t sfu = 0;
};

/// A compiled expression operand: the register holding it, its (statically
/// known) runtime type, and whether the register came from the temp stack.
struct RegRef {
  std::uint16_t reg = 0;
  ScalarType type = ScalarType::kFloat;
  bool temp = false;
};

int CountStmtNodes(const StmtPtr& stmt) {
  if (!stmt) return 0;
  int n = 1;
  for (const auto& child : stmt->body) n += CountStmtNodes(child);
  return n;
}

/// Names written by the subtree (Decl, Assign, and For loop variables) —
/// the set whose constant-tracking must be invalidated around control flow.
void CollectModified(const StmtPtr& stmt, std::set<std::string>* out) {
  if (!stmt) return;
  const Stmt& s = *stmt;
  if (s.kind == StmtKind::kDecl || s.kind == StmtKind::kAssign ||
      s.kind == StmtKind::kFor)
    out->insert(s.name);
  for (const auto& child : stmt->body) CollectModified(child, out);
}

/// Compiles the region variants of one kernel into one shared ProgramSet.
/// One instance per variant; the buffer/mask name tables live on the set and
/// are shared (indices are find-or-add across variants).
class VariantCompiler {
 public:
  VariantCompiler(const DeviceKernel& kernel, ProgramSet* set)
      : kernel_(kernel), set_(set) {}

  Result<Program> Compile(const RegionVariant& variant) {
    HIPACC_RETURN_IF_ERROR(Prescan(variant.body));
    Program prog;
    prog.region = variant.region;
    for (const auto& p : kernel_.params) {
      const VarInfo& vi = vars_.at(p.name);
      prog.params.push_back(ParamSeed{p.name, vi.reg, p.type});
    }
    HIPACC_RETURN_IF_ERROR(CompileStmt(variant.body, /*mask_slot=*/0));
    if (code_.size() > kMaxCodeLength)
      return BudgetExceeded("kMaxCodeLength", kMaxCodeLength, "instructions");
    prog.code = std::move(code_);
    prog.num_regs = temp_base_ + temp_high_;
    prog.num_masks = mask_high_;
    return prog;
  }

 private:
  /// The declaration a name currently binds to: its register and static
  /// type. `declared` stays false until the first declaration compiles.
  struct VarInfo {
    std::uint16_t reg = 0;
    ScalarType static_type = ScalarType::kFloat;
    bool declared = false;
  };

  Status BudgetExceeded(const char* budget, std::size_t limit,
                        const char* unit) const {
    return Status::Exhausted(StrFormat(
        "bytecode: kernel %s exceeds the %s budget of %zu %s per program",
        kernel_.name.c_str(), budget, limit, unit));
  }

  // ---- prescan: fixed register layout [params+locals | loop pins | temps]

  Status Prescan(const StmtPtr& body) {
    int next = 0;
    for (const auto& p : kernel_.params) {
      if (vars_.count(p.name))
        return Status::Internal("bytecode: duplicate parameter " + p.name);
      const std::uint16_t reg = NextReg(&next);
      regs_[{p.name, p.type}] = reg;
      vars_[p.name] = VarInfo{reg, p.type, /*declared=*/true};
    }
    int for_count = 0;
    ScanDecls(body, &next, &for_count);
    pin_base_ = next;
    next += for_count;
    temp_base_ = next;
    if (next >= kMaxRegisters)
      return BudgetExceeded("kMaxRegisters", kMaxRegisters, "registers");
    next_pin_ = pin_base_;
    return Status::Ok();
  }

  void ScanDecls(const StmtPtr& stmt, int* next, int* for_count) {
    if (!stmt) return;
    const Stmt& s = *stmt;
    if (s.kind == StmtKind::kDecl) AddLocal(s.name, s.decl_type, next);
    if (s.kind == StmtKind::kFor) {
      AddLocal(s.name, ScalarType::kInt, next);
      ++*for_count;
    }
    for (const auto& child : s.body) ScanDecls(child, next, for_count);
  }

  /// One register per (name, type): declarations of a name with one type
  /// share it, and a sibling scope that redeclares the name with a new type
  /// gets its own. Reads bind to the latest declaration compiled, which is
  /// the visible one because the frontend rejects shadowing.
  void AddLocal(const std::string& name, ScalarType type, int* next) {
    if (!regs_.count({name, type})) regs_[{name, type}] = NextReg(next);
  }

  /// Makes the declaration of `name` with `type` the one reads resolve to.
  VarInfo& Bind(const std::string& name, ScalarType type) {
    VarInfo& vi = vars_[name];
    vi = VarInfo{regs_.at({name, type}), type, /*declared=*/true};
    return vi;
  }

  std::uint16_t NextReg(int* next) { return static_cast<std::uint16_t>((*next)++); }

  // ---- emission helpers ----------------------------------------------------

  std::size_t Emit(Insn insn) {
    code_.push_back(insn);
    return code_.size() - 1;
  }

  void EmitAccount(std::uint32_t alu, std::uint32_t sfu) {
    if (alu == 0 && sfu == 0) return;
    // Merge adjacent pure-cost instructions.
    if (!code_.empty() && code_.back().op == Op::kAccount) {
      code_.back().alu_cost += alu;
      code_.back().sfu_cost += sfu;
      return;
    }
    Insn i;
    i.op = Op::kAccount;
    i.alu_cost = alu;
    i.sfu_cost = sfu;
    Emit(i);
  }

  void EmitConst(std::uint16_t dst, ScalarType type, double value,
                 std::uint32_t alu, std::uint32_t sfu) {
    Insn i;
    i.op = Op::kConst;
    i.dst = dst;
    i.type = type;
    i.imm = value;
    i.alu_cost = alu;
    i.sfu_cost = sfu;
    Emit(i);
  }

  Result<std::uint16_t> AllocTemp() {
    const int reg = temp_base_ + temp_sp_;
    if (reg >= kMaxRegisters)
      return BudgetExceeded("kMaxRegisters", kMaxRegisters, "registers");
    ++temp_sp_;
    temp_high_ = std::max(temp_high_, temp_sp_);
    return static_cast<std::uint16_t>(reg);
  }

  void Release(const RegRef& r) {
    if (r.temp && r.reg == static_cast<std::uint16_t>(temp_base_ + temp_sp_ - 1))
      --temp_sp_;
  }

  Result<std::uint16_t> AllocMask() {
    const int slot = mask_sp_;
    if (slot >= kMaxMaskSlots)
      return BudgetExceeded("kMaxMaskSlots", kMaxMaskSlots, "mask slots");
    ++mask_sp_;
    mask_high_ = std::max(mask_high_, mask_sp_);
    return static_cast<std::uint16_t>(slot);
  }

  void ReleaseMask() { --mask_sp_; }

  int BufferIndex(const std::string& name) {
    for (std::size_t i = 0; i < set_->buffer_names.size(); ++i)
      if (set_->buffer_names[i] == name) return static_cast<int>(i);
    set_->buffer_names.push_back(name);
    return static_cast<int>(set_->buffer_names.size() - 1);
  }

  int ConstMaskIndex(const std::string& name) {
    for (std::size_t i = 0; i < set_->const_masks.size(); ++i)
      if (set_->const_masks[i].name == name) return static_cast<int>(i);
    set_->const_masks.push_back(ProgramSet::MaskRef{name, MaskWidth(name)});
    return static_cast<int>(set_->const_masks.size() - 1);
  }

  int MaskWidth(const std::string& name) const {
    for (const auto& m : kernel_.const_masks)
      if (m.name == name) return m.size_x;
    for (const auto& m : kernel_.global_masks)
      if (m.name == name) return m.size_x;
    return 1;
  }

  const BufferParam* FindBufferParam(const std::string& name) const {
    for (const auto& buf : kernel_.buffers)
      if (buf.name == name) return &buf;
    return nullptr;
  }

  // ---- constant folding ----------------------------------------------------

  /// Mirrors the interpreter's evaluation on one uniform lane, accumulating
  /// the metric cost the interpreter would record. Only subtrees whose value
  /// is provably warp-uniform and compile-time known fold; anything touching
  /// thread indices, memory, or untracked variables stays in the program.
  std::optional<Folded> Fold(const ExprPtr& expr) const {
    const Expr& e = *expr;
    switch (e.kind) {
      case ExprKind::kIntLit:
        return Folded{ScalarType::kInt, static_cast<double>(e.int_value), 0, 0};
      case ExprKind::kFloatLit:
        return Folded{ScalarType::kFloat,
                      static_cast<double>(static_cast<float>(e.float_value)), 0,
                      0};
      case ExprKind::kBoolLit:
        return Folded{ScalarType::kBool, e.bool_value ? 1.0 : 0.0, 0, 0};
      case ExprKind::kVarRef: {
        const auto it = consts_.find(e.name);
        if (it == consts_.end()) return std::nullopt;
        return Folded{it->second.type, it->second.value, 0, 0};
      }
      case ExprKind::kUnary: {
        const auto v = Fold(e.args[0]);
        if (!v) return std::nullopt;
        return Folded{e.type, EvalUnaryLane(e.unary_op, e.type, v->value),
                      v->alu + 1, v->sfu};
      }
      case ExprKind::kBinary: {
        const auto a = Fold(e.args[0]);
        if (!a) return std::nullopt;
        const auto b = Fold(e.args[1]);
        if (!b) return std::nullopt;
        const bool fm = Promote(a->type, b->type) == ScalarType::kFloat;
        std::uint32_t alu = a->alu + b->alu;
        if (e.binary_op == BinaryOp::kDiv)
          alu += fm ? 5 : 16;
        else if (e.binary_op == BinaryOp::kMod)
          alu += 16;
        else
          alu += 1;
        return Folded{e.type, EvalBinaryLane(e.binary_op, fm, a->value, b->value),
                      alu, a->sfu + b->sfu};
      }
      case ExprKind::kConditional: {
        // The interpreter evaluates (and costs) all three operands.
        const auto c = Fold(e.args[0]);
        if (!c) return std::nullopt;
        const auto t = Fold(e.args[1]);
        if (!t) return std::nullopt;
        const auto f = Fold(e.args[2]);
        if (!f) return std::nullopt;
        return Folded{e.type, c->value != 0.0 ? t->value : f->value,
                      c->alu + t->alu + f->alu + 1, c->sfu + t->sfu + f->sfu};
      }
      case ExprKind::kCast: {
        const auto v = Fold(e.args[0]);
        if (!v) return std::nullopt;
        return Folded{e.type, ConvertLaneIf(v->value, v->type, e.type),
                      v->alu + 1, v->sfu};
      }
      case ExprKind::kCall: {
        if (e.args.size() > 2) return std::nullopt;
        const auto builtin = FindBuiltin(e.name);
        const auto vb = ResolveBuiltin(e.name);
        if (!builtin || !vb) return std::nullopt;
        Folded out;
        out.type = builtin->result;
        double argv[2] = {0.0, 0.0};
        for (std::size_t i = 0; i < e.args.size(); ++i) {
          const auto a = Fold(e.args[i]);
          if (!a) return std::nullopt;
          argv[i] = a->value;
          out.alu += a->alu;
          out.sfu += a->sfu;
        }
        switch (builtin->cost) {
          case OpCost::kAlu: out.alu += 1; break;
          case OpCost::kSfu: out.sfu += 1; break;
          case OpCost::kMulti:
            out.sfu += 2;
            out.alu += 4;
            break;
        }
        out.value = EvalBuiltinLane(*vb, argv[0], argv[1]);
        return out;
      }
      default:
        return std::nullopt;
    }
  }

  // ---- expression compilation ----------------------------------------------

  Result<RegRef> CompileExpr(const ExprPtr& expr) {
    if (const auto f = Fold(expr)) {
      HIPACC_ASSIGN_OR_RETURN(const std::uint16_t dst, AllocTemp());
      EmitConst(dst, f->type, f->value, f->alu, f->sfu);
      return RegRef{dst, f->type, /*temp=*/true};
    }
    const Expr& e = *expr;
    switch (e.kind) {
      case ExprKind::kVarRef: {
        const auto it = vars_.find(e.name);
        if (it == vars_.end() || !it->second.declared)
          return Status::Internal(
              "bytecode: variable " + e.name + " is read before declaration");
        return RegRef{it->second.reg, it->second.static_type, /*temp=*/false};
      }
      case ExprKind::kUnary: {
        HIPACC_ASSIGN_OR_RETURN(const RegRef a, CompileExpr(e.args[0]));
        Release(a);
        HIPACC_ASSIGN_OR_RETURN(const std::uint16_t dst, AllocTemp());
        Insn i;
        i.op = Op::kUnary;
        i.type = e.type;
        i.sub = static_cast<std::uint8_t>(e.unary_op);
        i.dst = dst;
        i.a = a.reg;
        i.alu_cost = 1;
        Emit(i);
        return RegRef{dst, e.type, true};
      }
      case ExprKind::kBinary: {
        HIPACC_ASSIGN_OR_RETURN(const RegRef a, CompileExpr(e.args[0]));
        HIPACC_ASSIGN_OR_RETURN(const RegRef b, CompileExpr(e.args[1]));
        Release(b);
        Release(a);
        HIPACC_ASSIGN_OR_RETURN(const std::uint16_t dst, AllocTemp());
        Insn i;
        i.op = Op::kBinary;
        i.type = e.type;
        i.sub = static_cast<std::uint8_t>(e.binary_op);
        i.dst = dst;
        i.a = a.reg;
        i.b = b.reg;
        // Div's expansion depends on the (runtime-promoted) operand types;
        // the VM handler accounts it. Everything else is static.
        if (e.binary_op == BinaryOp::kMod)
          i.alu_cost = 16;
        else if (e.binary_op != BinaryOp::kDiv)
          i.alu_cost = 1;
        Emit(i);
        return RegRef{dst, e.type, true};
      }
      case ExprKind::kConditional: {
        HIPACC_ASSIGN_OR_RETURN(const RegRef c, CompileExpr(e.args[0]));
        HIPACC_ASSIGN_OR_RETURN(const RegRef t, CompileExpr(e.args[1]));
        HIPACC_ASSIGN_OR_RETURN(const RegRef f, CompileExpr(e.args[2]));
        Release(f);
        Release(t);
        Release(c);
        HIPACC_ASSIGN_OR_RETURN(const std::uint16_t dst, AllocTemp());
        Insn i;
        i.op = Op::kSelect;
        i.type = e.type;
        i.dst = dst;
        i.a = c.reg;
        i.b = t.reg;
        i.c = f.reg;
        i.alu_cost = 1;
        Emit(i);
        return RegRef{dst, e.type, true};
      }
      case ExprKind::kCall: {
        if (e.args.size() > 2)
          return Status::Internal("bytecode: builtin " + e.name +
                                  " has too many arguments");
        const auto builtin = FindBuiltin(e.name);
        const auto vb = ResolveBuiltin(e.name);
        if (!builtin || !vb)
          return Status::Internal("bytecode: unknown builtin " + e.name);
        RegRef args[2];
        for (std::size_t i = 0; i < e.args.size(); ++i) {
          HIPACC_ASSIGN_OR_RETURN(args[i], CompileExpr(e.args[i]));
        }
        for (std::size_t i = e.args.size(); i-- > 0;) Release(args[i]);
        HIPACC_ASSIGN_OR_RETURN(const std::uint16_t dst, AllocTemp());
        Insn i;
        i.op = Op::kCall;
        i.type = builtin->result;
        i.sub = static_cast<std::uint8_t>(*vb);
        i.dst = dst;
        i.a = args[0].reg;
        i.b = args[1].reg;
        switch (builtin->cost) {
          case OpCost::kAlu: i.alu_cost = 1; break;
          case OpCost::kSfu: i.sfu_cost = 1; break;
          case OpCost::kMulti:
            i.sfu_cost = 2;
            i.alu_cost = 4;
            break;
        }
        Emit(i);
        return RegRef{dst, builtin->result, true};
      }
      case ExprKind::kCast: {
        HIPACC_ASSIGN_OR_RETURN(const RegRef a, CompileExpr(e.args[0]));
        Release(a);
        HIPACC_ASSIGN_OR_RETURN(const std::uint16_t dst, AllocTemp());
        Insn i;
        i.op = Op::kConvert;
        i.type = e.type;
        i.dst = dst;
        i.a = a.reg;
        i.alu_cost = 1;
        Emit(i);
        return RegRef{dst, e.type, true};
      }
      case ExprKind::kThreadIndex: {
        HIPACC_ASSIGN_OR_RETURN(const std::uint16_t dst, AllocTemp());
        Insn i;
        i.op = Op::kThreadIdx;
        i.type = ScalarType::kInt;
        i.sub = static_cast<std::uint8_t>(e.thread_index);
        i.dst = dst;
        Emit(i);
        return RegRef{dst, ScalarType::kInt, true};
      }
      case ExprKind::kMemRead:
        return CompileMemRead(e);
      default:
        return Status::Internal(
            "bytecode: unsupported expression kind in kernel " + kernel_.name);
    }
  }

  // ---- memory coordinates --------------------------------------------------

  struct CoordPlan {
    Coord coord;
    std::uint32_t alu = 0;
    std::uint32_t sfu = 0;
    RegRef reg;  // valid when coord.kind == kReg (so the caller can Release)
  };

  struct BaseOffset {
    CoordKind kind = CoordKind::kImm;
    int off = 0;
    std::uint32_t alu = 0;
    std::uint32_t sfu = 0;
  };

  /// Offset operand of a fusable `index ± literal` coordinate: must be an
  /// exactly-integral non-float constant so the interpreter's double add is
  /// bit-equal to integer offset arithmetic on the resolved index.
  std::optional<BaseOffset> IntegralFold(const ExprPtr& e) const {
    const auto f = Fold(e);
    if (!f || f->type == ScalarType::kFloat) return std::nullopt;
    if (f->value != std::floor(f->value) || f->value < -2147483648.0 ||
        f->value > 2147483647.0)
      return std::nullopt;
    return BaseOffset{CoordKind::kImm, static_cast<int>(f->value), f->alu,
                      f->sfu};
  }

  /// Recognises gid/tid ± folded-integer chains so mask-window addressing
  /// (`gid_x + (i - half)` after unrolling) becomes a base+offset operand on
  /// the memory instruction itself instead of an add per access.
  std::optional<BaseOffset> FoldBaseCoord(const ExprPtr& expr) const {
    const Expr& e = *expr;
    if (e.kind == ExprKind::kThreadIndex) {
      switch (e.thread_index) {
        case ThreadIndexKind::kGlobalIdX: return BaseOffset{CoordKind::kGidX, 0, 0, 0};
        case ThreadIndexKind::kGlobalIdY: return BaseOffset{CoordKind::kGidY, 0, 0, 0};
        case ThreadIndexKind::kThreadIdxX: return BaseOffset{CoordKind::kTidX, 0, 0, 0};
        case ThreadIndexKind::kThreadIdxY: return BaseOffset{CoordKind::kTidY, 0, 0, 0};
        default: return std::nullopt;
      }
    }
    if (e.kind != ExprKind::kBinary) return std::nullopt;
    if (e.binary_op == BinaryOp::kAdd) {
      for (int side = 0; side < 2; ++side) {
        const auto base = FoldBaseCoord(e.args[static_cast<std::size_t>(side)]);
        if (!base || base->kind == CoordKind::kImm) continue;
        const auto off = IntegralFold(e.args[static_cast<std::size_t>(1 - side)]);
        if (!off) continue;
        return BaseOffset{base->kind, base->off + off->off,
                          base->alu + off->alu + 1, base->sfu + off->sfu};
      }
      return std::nullopt;
    }
    if (e.binary_op == BinaryOp::kSub) {
      const auto base = FoldBaseCoord(e.args[0]);
      if (!base || base->kind == CoordKind::kImm) return std::nullopt;
      const auto off = IntegralFold(e.args[1]);
      if (!off) return std::nullopt;
      return BaseOffset{base->kind, base->off - off->off,
                        base->alu + off->alu + 1, base->sfu + off->sfu};
    }
    return std::nullopt;
  }

  Result<CoordPlan> CompileCoord(const ExprPtr& expr) {
    CoordPlan plan;
    if (const auto f = Fold(expr)) {
      plan.coord = Coord{CoordKind::kImm, 0, static_cast<int>(f->value)};
      plan.alu = f->alu;
      plan.sfu = f->sfu;
      return plan;
    }
    if (const auto bc = FoldBaseCoord(expr)) {
      plan.coord = Coord{bc->kind, 0, bc->off};
      plan.alu = bc->alu;
      plan.sfu = bc->sfu;
      return plan;
    }
    HIPACC_ASSIGN_OR_RETURN(plan.reg, CompileExpr(expr));
    plan.coord = Coord{CoordKind::kReg, plan.reg.reg, 0};
    return plan;
  }

  Result<RegRef> CompileMemRead(const Expr& e) {
    // Interpreter evaluation order: x then y (loads inside coordinate
    // expressions must hit the memory model in the same sequence).
    HIPACC_ASSIGN_OR_RETURN(const CoordPlan cx, CompileCoord(e.args[0]));
    HIPACC_ASSIGN_OR_RETURN(const CoordPlan cy, CompileCoord(e.args[1]));
    if (cy.coord.kind == CoordKind::kReg) Release(cy.reg);
    if (cx.coord.kind == CoordKind::kReg) Release(cx.reg);
    HIPACC_ASSIGN_OR_RETURN(const std::uint16_t dst, AllocTemp());

    Insn i;
    i.type = ScalarType::kFloat;
    i.dst = dst;
    i.mask = cur_mask_;
    i.cx = cx.coord;
    i.cy = cy.coord;
    i.alu_cost = 2 + cx.alu + cy.alu;
    i.sfu_cost = cx.sfu + cy.sfu;
    switch (e.space) {
      case MemSpace::kShared:
        i.op = Op::kLoadShared;
        break;
      case MemSpace::kConstant:
        i.op = Op::kLoadConst;
        i.buffer = static_cast<std::int16_t>(ConstMaskIndex(e.name));
        break;
      case MemSpace::kGlobal:
      case MemSpace::kTexture: {
        i.op = Op::kLoadImage;
        i.sub = e.space == MemSpace::kTexture ? 1 : 0;
        i.buffer = static_cast<std::int16_t>(BufferIndex(e.name));
        const BufferParam* param = FindBufferParam(e.name);
        i.hw_bh = param && param->texture_2d_array;
        i.boundary = e.boundary;
        i.checks = e.checks;
        i.cvalue = e.constant_value;
        if (!i.hw_bh) {
          i.alu_cost += static_cast<std::uint32_t>(e.checks.count()) *
                        static_cast<std::uint32_t>(GuardAluCost(e.boundary));
          if (e.boundary == BoundaryMode::kConstant && e.checks.any())
            i.alu_cost += 1;  // final select
        }
        break;
      }
    }
    Emit(i);
    return RegRef{dst, ScalarType::kFloat, true};
  }

  // ---- statement compilation -----------------------------------------------

  Status CompileStmt(const StmtPtr& stmt, std::uint16_t mask_slot) {
    if (!stmt) return Status::Ok();
    cur_mask_ = mask_slot;
    const Stmt& s = *stmt;
    switch (s.kind) {
      case StmtKind::kBlock:
        for (const auto& child : s.body)
          HIPACC_RETURN_IF_ERROR(CompileStmt(child, mask_slot));
        return Status::Ok();
      case StmtKind::kDecl:
        return CompileDecl(s, mask_slot);
      case StmtKind::kAssign:
        return CompileAssign(s, mask_slot);
      case StmtKind::kIf:
        return CompileIf(s, mask_slot);
      case StmtKind::kFor:
        return CompileFor(s, mask_slot);
      case StmtKind::kBarrier: {
        Insn i;
        i.op = Op::kBarrier;
        i.alu_cost = 1;
        Emit(i);
        return Status::Ok();
      }
      case StmtKind::kMemWrite:
        return CompileMemWrite(s, mask_slot);
      case StmtKind::kOutputAssign:
        return Status::Internal("bytecode: OutputAssign in device IR");
    }
    return Status::Ok();
  }

  Status CompileDecl(const Stmt& s, std::uint16_t mask_slot) {
    (void)mask_slot;  // declarations write all lanes, mask-independent
    const VarInfo& vi = Bind(s.name, s.decl_type);
    if (!s.value) {
      EmitConst(vi.reg, s.decl_type, 0.0, 0, 0);
      consts_[s.name] = Folded{s.decl_type, 0.0, 0, 0};
      return Status::Ok();
    }
    if (const auto f = Fold(s.value)) {
      const double v = ConvertLaneIf(f->value, f->type, s.decl_type);
      EmitConst(vi.reg, s.decl_type, v, f->alu, f->sfu);
      consts_[s.name] = Folded{s.decl_type, v, 0, 0};
      return Status::Ok();
    }
    consts_.erase(s.name);
    HIPACC_ASSIGN_OR_RETURN(const RegRef val, CompileExpr(s.value));
    Release(val);
    Insn i;
    i.dst = vi.reg;
    i.a = val.reg;
    if (val.type == s.decl_type) {
      i.op = Op::kCopy;  // the interpreter's Convert skips equal types
    } else {
      i.op = Op::kConvert;
      i.type = s.decl_type;  // declaration conversion is free (no Cast node)
    }
    Emit(i);
    return Status::Ok();
  }

  Status CompileAssign(const Stmt& s, std::uint16_t mask_slot) {
    const auto it = vars_.find(s.name);
    if (it == vars_.end() || !it->second.declared)
      return Status::Internal(
          "bytecode: assignment to unknown variable " + s.name);
    const VarInfo& vi = it->second;
    const std::uint32_t op_cost = s.assign_op == AssignOp::kAssign ? 0 : 1;
    if (const auto f = Fold(s.value)) {
      // A constant store under the full warp mask can itself be folded: the
      // register is rewritten in every lane (lanes outside the active mask
      // are unobservable — nothing reads them and stores are predicated).
      // Deeper masks must keep the predicated write: the inactive lanes
      // rejoin a wider mask after the branch.
      if (mask_slot == 0) {
        const double rhs = ConvertLaneIf(f->value, f->type, vi.static_type);
        const auto tracked = consts_.find(s.name);
        if (tracked != consts_.end()) {
          const double v =
              CombineLane(vi.static_type, s.assign_op, tracked->second.value, rhs);
          EmitConst(vi.reg, vi.static_type, v, f->alu + op_cost, f->sfu);
          consts_[s.name] = Folded{vi.static_type, v, 0, 0};
          return Status::Ok();
        }
        if (s.assign_op == AssignOp::kAssign) {
          EmitConst(vi.reg, vi.static_type, rhs, f->alu, f->sfu);
          consts_[s.name] = Folded{vi.static_type, rhs, 0, 0};
          return Status::Ok();
        }
      }
    }
    consts_.erase(s.name);
    HIPACC_ASSIGN_OR_RETURN(const RegRef rhs, CompileExpr(s.value));
    Release(rhs);
    Insn i;
    i.op = Op::kAssign;
    i.type = vi.static_type;
    i.sub = static_cast<std::uint8_t>(s.assign_op);
    i.dst = vi.reg;
    i.a = rhs.reg;
    i.mask = mask_slot;
    i.alu_cost = op_cost;
    Emit(i);
    return Status::Ok();
  }

  Status CompileIf(const Stmt& s, std::uint16_t mask_slot) {
    if (const auto fc = Fold(s.cond)) {
      // Uniform condition: the interpreter still pays for the condition and
      // the mask split, then runs exactly one branch under the same mask.
      EmitAccount(fc->alu + 1, fc->sfu);
      const bool taken = fc->value != 0.0;
      if (taken) return CompileStmt(s.body[0], mask_slot);
      if (s.body.size() > 1) return CompileStmt(s.body[1], mask_slot);
      return Status::Ok();
    }

    HIPACC_ASSIGN_OR_RETURN(const RegRef cond, CompileExpr(s.cond));
    Release(cond);
    HIPACC_ASSIGN_OR_RETURN(const std::uint16_t then_slot, AllocMask());
    HIPACC_ASSIGN_OR_RETURN(const std::uint16_t else_slot, AllocMask());
    Insn split;
    split.op = Op::kMaskIf;
    split.dst = then_slot;
    split.b = else_slot;
    split.a = cond.reg;
    split.mask = mask_slot;
    split.alu_cost = 1;
    Emit(split);

    const std::map<std::string, Folded> entry_consts = consts_;

    Insn guard;
    guard.op = Op::kJumpIfNone;
    guard.mask = then_slot;
    const std::size_t j1 = Emit(guard);
    HIPACC_RETURN_IF_ERROR(CompileStmt(s.body[0], then_slot));
    std::size_t else_start = code_.size();
    if (s.body.size() > 1) {
      consts_ = entry_consts;
      Insn guard2;
      guard2.op = Op::kJumpIfNone;
      guard2.mask = else_slot;
      const std::size_t j2 = Emit(guard2);
      else_start = j2;  // a skipped then-branch still checks the else mask
      HIPACC_RETURN_IF_ERROR(CompileStmt(s.body[1], else_slot));
      code_[j2].jump = static_cast<std::int32_t>(code_.size());
    }
    code_[j1].jump = static_cast<std::int32_t>(else_start);
    ReleaseMask();
    ReleaseMask();

    // After the reconvergence point only constants no branch wrote survive.
    std::set<std::string> modified;
    CollectModified(s.body[0], &modified);
    if (s.body.size() > 1) CollectModified(s.body[1], &modified);
    consts_ = entry_consts;
    for (const auto& name : modified) consts_.erase(name);
    cur_mask_ = mask_slot;
    return Status::Ok();
  }

  Status CompileFor(const Stmt& s, std::uint16_t mask_slot) {
    const VarInfo vi = Bind(s.name, ScalarType::kInt);

    const auto f_lo = Fold(s.lo);
    const auto f_hi = Fold(s.hi);
    if (f_lo && f_hi && mask_slot == 0 && s.step > 0) {
      std::set<std::string> modified;
      CollectModified(s.body.empty() ? StmtPtr() : s.body[0], &modified);
      if (!modified.count(s.name)) {
        // Trip values replicate the interpreter's raw-lane loop: lo is
        // copied unconverted (the loop variable's int type notwithstanding)
        // and compared against hi as doubles.
        std::vector<double> values;
        double v = f_lo->value;
        bool bounded = true;
        while (v <= f_hi->value) {
          values.push_back(v);
          v += s.step;
          if (values.size() > static_cast<std::size_t>(kMaxUnrollIterations)) {
            bounded = false;
            break;
          }
        }
        const int body_nodes =
            s.body.empty() ? 0 : CountStmtNodes(s.body[0]);
        if (bounded &&
            static_cast<int>(values.size()) * body_nodes <= kMaxUnrollNodes)
          return UnrollFor(s, *f_lo, *f_hi, values, v, mask_slot);
      }
    }

    // General path. Constants the body writes are stale from iteration two
    // onward, so drop them before compiling the body (and again after: the
    // body's own tracking only describes its final straight-line pass).
    std::set<std::string> modified;
    CollectModified(s.body.empty() ? StmtPtr() : s.body[0], &modified);
    modified.insert(s.name);
    for (const auto& name : modified) consts_.erase(name);

    // lo then hi evaluate before the loop variable is touched (loads inside
    // either must hit the memory model in the interpreter's order). The
    // upper bound is pinned outside the temp zone: the interpreter snapshots
    // it before the loop, and body temporaries would otherwise recycle its
    // register.
    HIPACC_ASSIGN_OR_RETURN(const RegRef lo, CompileExpr(s.lo));
    const std::uint16_t pin = static_cast<std::uint16_t>(next_pin_++);
    if (const auto fh = Fold(s.hi)) {
      EmitConst(pin, fh->type, fh->value, fh->alu, fh->sfu);
    } else {
      HIPACC_ASSIGN_OR_RETURN(const RegRef hi, CompileExpr(s.hi));
      Release(hi);
      Insn cp;
      cp.op = Op::kCopy;
      cp.dst = pin;
      cp.a = hi.reg;
      Emit(cp);
    }
    Insn init;
    init.op = Op::kLoopInit;
    init.type = ScalarType::kInt;
    init.dst = vi.reg;
    init.a = lo.reg;
    Emit(init);
    Release(lo);

    HIPACC_ASSIGN_OR_RETURN(const std::uint16_t iter_slot, AllocMask());
    Insn head;
    head.op = Op::kLoopHead;
    head.dst = iter_slot;
    head.mask = mask_slot;
    head.a = vi.reg;
    head.b = pin;
    head.alu_cost = 2;  // compare + increment, paid on the failing check too
    const std::size_t head_idx = Emit(head);

    if (!s.body.empty())
      HIPACC_RETURN_IF_ERROR(CompileStmt(s.body[0], iter_slot));

    Insn inc;
    inc.op = Op::kLoopInc;
    inc.dst = vi.reg;
    inc.mask = iter_slot;
    inc.imm = static_cast<double>(s.step);
    inc.jump = static_cast<std::int32_t>(head_idx);
    Emit(inc);
    code_[head_idx].jump = static_cast<std::int32_t>(code_.size());
    ReleaseMask();

    for (const auto& name : modified) consts_.erase(name);
    --next_pin_;  // the pin is dead past the loop; nested loops may reuse it
    cur_mask_ = mask_slot;
    return Status::Ok();
  }

  Status UnrollFor(const Stmt& s, const Folded& f_lo, const Folded& f_hi,
                   const std::vector<double>& values, double final_value,
                   std::uint16_t mask_slot) {
    // lo/hi evaluation plus one compare+increment charge per iteration,
    // including the final failing check.
    EmitAccount(f_lo.alu + f_hi.alu +
                    2 * (static_cast<std::uint32_t>(values.size()) + 1),
                f_lo.sfu + f_hi.sfu);
    const VarInfo vi = vars_.at(s.name);
    for (const double v : values) {
      consts_[s.name] = Folded{ScalarType::kInt, v, 0, 0};
      if (!s.body.empty())
        HIPACC_RETURN_IF_ERROR(CompileStmt(s.body[0], mask_slot));
    }
    // Materialise the loop variable's exit value (lanes the interpreter
    // leaves at lo are outside the active mask — unobservable).
    const double exit_v = values.empty() ? f_lo.value : final_value;
    EmitConst(vi.reg, ScalarType::kInt, exit_v, 0, 0);
    consts_[s.name] = Folded{ScalarType::kInt, exit_v, 0, 0};
    cur_mask_ = mask_slot;
    return Status::Ok();
  }

  Status CompileMemWrite(const Stmt& s, std::uint16_t mask_slot) {
    // Interpreter evaluation order: value, x, y, then the global write.
    HIPACC_ASSIGN_OR_RETURN(const RegRef value, CompileExpr(s.value));
    HIPACC_ASSIGN_OR_RETURN(const CoordPlan cx, CompileCoord(s.x));
    HIPACC_ASSIGN_OR_RETURN(const CoordPlan cy, CompileCoord(s.y));
    if (cy.coord.kind == CoordKind::kReg) Release(cy.reg);
    if (cx.coord.kind == CoordKind::kReg) Release(cx.reg);
    Release(value);
    Insn i;
    i.op = Op::kStore;
    i.a = value.reg;
    i.mask = mask_slot;
    i.cx = cx.coord;
    i.cy = cy.coord;
    i.buffer = static_cast<std::int16_t>(BufferIndex(s.name));
    i.alu_cost = 2 + cx.alu + cy.alu;  // address arithmetic
    i.sfu_cost = cx.sfu + cy.sfu;
    Emit(i);
    return Status::Ok();
  }

  const DeviceKernel& kernel_;
  ProgramSet* set_;
  std::vector<Insn> code_;
  std::map<std::pair<std::string, ScalarType>, std::uint16_t> regs_;
  std::map<std::string, VarInfo> vars_;
  std::map<std::string, Folded> consts_;
  std::uint16_t cur_mask_ = 0;
  int pin_base_ = 0;
  int next_pin_ = 0;
  int temp_base_ = 0;
  int temp_sp_ = 0;
  int temp_high_ = 0;
  int mask_sp_ = 1;  // slot 0 = warp active mask
  int mask_high_ = 1;
};

}  // namespace

std::optional<VmBuiltin> ResolveBuiltin(const std::string& name) {
  if (name == "exp") return VmBuiltin::kExp;
  if (name == "exp2") return VmBuiltin::kExp2;
  if (name == "log") return VmBuiltin::kLog;
  if (name == "log2") return VmBuiltin::kLog2;
  if (name == "sqrt") return VmBuiltin::kSqrt;
  if (name == "rsqrt") return VmBuiltin::kRsqrt;
  if (name == "sin") return VmBuiltin::kSin;
  if (name == "cos") return VmBuiltin::kCos;
  if (name == "tan") return VmBuiltin::kTan;
  if (name == "atan") return VmBuiltin::kAtan;
  if (name == "atan2") return VmBuiltin::kAtan2;
  if (name == "pow") return VmBuiltin::kPow;
  if (name == "fmod") return VmBuiltin::kFmod;
  if (name == "fabs") return VmBuiltin::kFabs;
  if (name == "fmin") return VmBuiltin::kFmin;
  if (name == "fmax") return VmBuiltin::kFmax;
  if (name == "floor") return VmBuiltin::kFloor;
  if (name == "ceil") return VmBuiltin::kCeil;
  if (name == "round") return VmBuiltin::kRound;
  if (name == "min") return VmBuiltin::kMin;
  if (name == "max") return VmBuiltin::kMax;
  if (name == "abs") return VmBuiltin::kAbs;
  return std::nullopt;
}

const Program* ProgramSet::Find(ast::Region region) const {
  for (const Program& p : programs)
    if (p.region == region) return &p;
  return nullptr;
}

void MarkObserved(Program* prog) {
  std::vector<Insn>& code = prog->code;
  const auto size = static_cast<std::int32_t>(code.size());
  const std::size_t words =
      (static_cast<std::size_t>(prog->num_regs) + 63) / 64;
  // Every jump target keeps the live set on entry to it. Jumps go forward,
  // except kLoopInc's back edge, so one reverse sweep is exact for a program
  // without loops; a looped one sweeps until no target's set changes.
  std::vector<std::int32_t> slot(code.size(), -1);
  std::int32_t targets = 0;
  bool looped = false;
  for (const Insn& I : code) {
    if (!IsJump(I.op)) continue;
    looped = looped || I.op == Op::kLoopInc;
    if (I.jump >= 0 && I.jump < size && slot[I.jump] < 0)
      slot[I.jump] = targets++;
  }
  const std::size_t total = (static_cast<std::size_t>(targets) + 1) * words;
  if (total > kMaxLiveWords) {
    for (Insn& I : code) I.observed = true;
    return;
  }
  std::vector<std::uint64_t> sets(total, 0);
  std::uint64_t* live = sets.data();  // at the sweep position
  const auto target_set = [&](std::int32_t pc) -> std::uint64_t* {
    if (pc < 0 || pc >= size || slot[pc] < 0) return nullptr;
    return live + (static_cast<std::size_t>(slot[pc]) + 1) * words;
  };
  const auto bit = [](std::uint16_t r) { return std::uint64_t{1} << (r % 64); };
  const auto use = [&](std::uint16_t r) { live[r / 64] |= bit(r); };
  const auto use_coord = [&](const Coord& c) {
    if (c.kind == CoordKind::kReg) use(c.reg);
  };

  bool changed = true;
  while (changed) {
    changed = false;
    std::fill_n(live, words, 0);
    for (std::int32_t pc = size - 1; pc >= 0; --pc) {
      Insn& I = code[static_cast<std::size_t>(pc)];
      // Live out: the fall-through's set, the jump target's, or both.
      if (const std::uint64_t* jumped = IsJump(I.op) ? target_set(I.jump)
                                                     : nullptr;
          I.op == Op::kLoopInc) {
        if (jumped)
          std::copy_n(jumped, words, live);
        else
          std::fill_n(live, words, 0);
      } else if (jumped) {
        for (std::size_t w = 0; w < words; ++w) live[w] |= jumped[w];
      }
      const std::uint8_t e = kLiveness[static_cast<std::size_t>(I.op)];
      const bool observed =
          !(e & kValueOp) || (live[I.dst / 64] & bit(I.dst)) != 0;
      I.observed = observed;
      if (e & kKillsDst) live[I.dst / 64] &= ~bit(I.dst);
      if (observed) {
        if (e & kReadsA) use(I.a);
        if ((e & kReadsB) ||
            (I.op == Op::kCall &&
             ReadsSecondArgument(static_cast<VmBuiltin>(I.sub))))
          use(I.b);
        if (e & kReadsC) use(I.c);
        if (e & kReadsDst) use(I.dst);
        if (e & kReadsCoords) {
          use_coord(I.cx);
          use_coord(I.cy);
        }
      }
      if (std::uint64_t* entry = target_set(pc);
          entry && !std::equal(live, live + words, entry)) {
        std::copy_n(live, words, entry);
        changed = true;
      }
    }
    changed = changed && looped;
  }
}

Result<std::shared_ptr<const ProgramSet>> CompileToBytecode(
    const ast::DeviceKernel& kernel) {
  Stopwatch sw;
  auto set = std::make_shared<ProgramSet>();
  set->kernel_name = kernel.name;
  set->ppt = kernel.ppt;
  for (const auto& variant : kernel.variants) {
    VariantCompiler compiler(kernel, set.get());
    HIPACC_ASSIGN_OR_RETURN(Program prog, compiler.Compile(variant));
    set->total_instructions += prog.code.size();
    set->programs.push_back(std::move(prog));
  }
  for (Program& prog : set->programs) MarkObserved(&prog);
  set->compile_ms = sw.ElapsedMs();
  set->jit_state = std::make_shared<jit::TierState>();
  return std::shared_ptr<const ProgramSet>(std::move(set));
}

}  // namespace hipacc::sim
