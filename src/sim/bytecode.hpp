// Bytecode programs for the lane interpreter (lanes.hpp): a one-shot
// compiler from the device IR into linear, register-based instruction
// streams — one program per boundary-region variant, mirroring the paper's
// Figure 3 multiplexing. Compilation resolves variable names to register
// slots, folds constants, resolves builtins to direct opcodes, and unrolls
// mask loops with static bounds, so the per-lane-group execution loop is a flat
// fetch/dispatch with no recursion, no per-node Status, and no name lookup.
//
// These programs are the simulator's only semantics: every compiled kernel
// and every launch carries them, and the VM, the native tier and the host
// executor run them.
// Compilation is total on what the frontend accepts. A program past one of
// the size budgets fails with a compile error that names the budget; IR the
// frontend never produces (DSL-level nodes, a read before any declaration)
// is an Internal error. Lane values, float-precision rules, metric
// increments (every folded or fused operation carries the cost of the work
// it replaced), and the memory-model call sequence match the tree-walking
// oracle the tests hold the engines to, so outputs AND modelled times are
// bit-identical.
#pragma once

#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ast/kernel_ir.hpp"
#include "support/status.hpp"

namespace hipacc::sim {

namespace jit {
struct TierState;
}

enum class Op : std::uint8_t {
  kConst,       // dst <- broadcast imm (typed)
  kCopy,        // dst <- a (raw copy, lanes + type)
  kConvert,     // dst <- convert(a, type); Decl conversions cost 0, casts 1
  kUnary,       // dst <- unary_op(a)
  kBinary,      // dst <- binary_op(a, b); div cost resolved at run time
  kSelect,      // dst <- a != 0 ? b : c   (all three pre-evaluated, like AST)
  kCall,        // dst <- builtin(a[, b])
  kThreadIdx,   // dst <- thread/block/grid index
  kAssign,      // dst[l] <- combine(dst[l], convert(a[l])) for masked lanes
  kLoadImage,   // dst <- image read (global/texture) with boundary guards
  kLoadShared,  // dst <- scratchpad tile read
  kLoadConst,   // dst <- constant-memory mask read
  kStore,       // buffer[cx, cy] <- a for masked lanes
  kBarrier,     // cost-only (+1 alu)
  kAccount,     // cost-only: metrics of fully folded interpreter work
  kMaskIf,      // masks[dst] / masks[b] <- divergence split of masks[mask] by a
  kJumpIfNone,  // pc <- jump when masks[mask] has no active lane
  kLoopInit,    // dst <- a (lanes), type int  (loop variable seed)
  kLoopHead,    // masks[dst] <- masks[mask] && a <= b; exit to jump when empty
  kLoopInc,     // dst[l] += imm for lanes in masks[mask]; pc <- jump (back edge)
};

/// Builtins resolved to direct handlers at compile time (a tree walker
/// dispatches on the callee name per warp per call).
enum class VmBuiltin : std::uint8_t {
  kExp, kExp2, kLog, kLog2, kSqrt, kRsqrt, kSin, kCos, kTan, kAtan,
  kAtan2, kPow, kFmod, kFabs, kFmin, kFmax, kFloor, kCeil, kRound,
  kMin, kMax, kAbs,
};

std::optional<VmBuiltin> ResolveBuiltin(const std::string& name);

/// Memory coordinate operand. Loads and stores fuse the ubiquitous
/// `gid/tid + literal` addressing (and fully folded coordinates) instead of
/// spending three instructions per coordinate; the folded add's ALU cost
/// moves onto the memory instruction.
enum class CoordKind : std::uint8_t { kReg, kGidX, kGidY, kTidX, kTidY, kImm };

struct Coord {
  CoordKind kind = CoordKind::kImm;
  std::uint16_t reg = 0;  ///< kReg only
  int off = 0;            ///< kImm value, or offset added to gid/tid
};

/// One fixed-size instruction. Fields are populated per `op`; `alu_cost` /
/// `sfu_cost` replay the interpreter's metric increments for this
/// instruction plus any work folded into it.
struct Insn {
  Op op = Op::kAccount;
  /// A value instruction (kConst .. kAssign) whose result reaches an
  /// address, a mask or a loop bound (MarkObserved). Measure charges an
  /// unobserved one without computing it; every other op is observed.
  bool observed = true;
  ast::ScalarType type = ast::ScalarType::kFloat;  // result / decl type
  std::uint8_t sub = 0;   // UnaryOp/BinaryOp/AssignOp/VmBuiltin/ThreadIndexKind
                          // (kLoadImage: 1 = texture path)
  bool hw_bh = false;     // kLoadImage: boundary handled by the texture unit
  std::uint16_t dst = 0;  // destination register (kMaskIf/kLoopHead: mask slot)
  std::uint16_t a = 0;
  std::uint16_t b = 0;    // kMaskIf: else-mask slot
  std::uint16_t c = 0;
  std::uint16_t mask = 0;    // predication mask slot (slot 0 = warp active mask)
  std::int32_t jump = -1;    // kJumpIfNone / kLoopHead exit / kLoopInc back edge
  std::uint32_t alu_cost = 0;
  std::uint32_t sfu_cost = 0;
  double imm = 0.0;          // kConst value / kLoopInc step
  std::int16_t buffer = -1;  // ProgramSet buffer / const-mask table index
  Coord cx, cy;
  ast::BoundaryMode boundary = ast::BoundaryMode::kUndefined;
  ast::RegionChecks checks;
  float cvalue = 0.0f;
};
// `observed` sits in the padding after `op`.
static_assert(sizeof(Insn) == 72, "Insn grew");

/// Scalar parameter seeding: the lane interpreter re-seeds these registers
/// per lane group (the body may overwrite them), exactly like the oracle's
/// fresh Env.
struct ParamSeed {
  std::string name;
  std::uint16_t reg = 0;
  ast::ScalarType type = ast::ScalarType::kFloat;
};

/// The compiled stream of one region variant.
struct Program {
  ast::Region region = ast::Region::kInterior;
  std::vector<Insn> code;
  std::vector<ParamSeed> params;
  int num_regs = 0;
  int num_masks = 1;
};

/// All region programs of one kernel plus the name tables a Launch binds to
/// (ResolveBindings, launch.hpp, after CheckBindings: the tables hold only
/// names of the kernel's buffers and masks).
struct ProgramSet {
  std::string kernel_name;
  std::vector<Program> programs;
  std::vector<std::string> buffer_names;
  struct MaskRef {
    std::string name;
    int width = 1;
  };
  std::vector<MaskRef> const_masks;
  /// Pixels per thread of the source kernel. The host executor iterates
  /// pixels (one virtual thread per pixel), so it only supports ppt == 1.
  int ppt = 1;
  std::uint64_t total_instructions = 0;
  double compile_ms = 0.0;

  /// Native-tier tiering state (jit/cache.hpp), created by
  /// CompileToBytecode and shared by every holder of this ProgramSet — the
  /// target-level compilation cache hands the same set to all exploration
  /// lanes, so they tier up together and share one compiled object. Null
  /// for hand-assembled sets, which then never leave the VM.
  std::shared_ptr<jit::TierState> jit_state;

  const Program* Find(ast::Region region) const;
};

/// Compiles every region variant of `kernel`. Fails with ResourceExhausted
/// naming the budget a program exceeds, or Internal for IR the frontend
/// never produces.
Result<std::shared_ptr<const ProgramSet>> CompileToBytecode(
    const ast::DeviceKernel& kernel);

/// Sets Insn::observed over `prog` by one backward liveness pass. The roots
/// are what the model reads wherever it runs: the kReg coordinates of loads
/// and stores, kMaskIf's condition, kLoopHead's variable and bound,
/// kLoopInit's source and kLoopInc's variable. A value instruction is
/// observed iff its destination is live after it, and an observed one makes
/// its operands live. A store's value operand is no root, so what reaches
/// only stored pixels goes unobserved. CompileToBytecode runs it on every
/// program.
void MarkObserved(Program* prog);

// ---- Lane arithmetic shared by the compiler's constant folder and the lane
// ---- interpreter (lanes.hpp), and kept textually identical to the tests'
// ---- oracle.

/// AST Convert: conversion switches on the target type only.
inline double ConvertLaneValue(double v, ast::ScalarType to) {
  switch (to) {
    case ast::ScalarType::kFloat:
      return static_cast<double>(static_cast<float>(v));
    case ast::ScalarType::kInt:
    case ast::ScalarType::kUInt:
      return static_cast<double>(static_cast<long long>(v));
    case ast::ScalarType::kBool:
      return v != 0.0 ? 1.0 : 0.0;
    case ast::ScalarType::kVoid:
      return 0.0;
  }
  return 0.0;
}

/// AST Convert skips conversion entirely when the types already match; the
/// distinction matters for values that are not representable in the target.
inline double ConvertLaneIf(double v, ast::ScalarType from, ast::ScalarType to) {
  return from == to ? v : ConvertLaneValue(v, to);
}

inline double EvalBinaryLane(ast::BinaryOp op, bool float_math, double x,
                             double y) {
  using ast::BinaryOp;
  switch (op) {
    case BinaryOp::kAdd: return float_math ? static_cast<double>(static_cast<float>(x) + static_cast<float>(y)) : x + y;
    case BinaryOp::kSub: return float_math ? static_cast<double>(static_cast<float>(x) - static_cast<float>(y)) : x - y;
    case BinaryOp::kMul: return float_math ? static_cast<double>(static_cast<float>(x) * static_cast<float>(y)) : x * y;
    case BinaryOp::kDiv:
      if (float_math)
        return static_cast<double>(static_cast<float>(x) / static_cast<float>(y));
      else {
        const long long yi = static_cast<long long>(y);
        return yi == 0 ? 0.0
                       : static_cast<double>(static_cast<long long>(x) / yi);
      }
    case BinaryOp::kMod: {
      const long long yi = static_cast<long long>(y);
      return yi == 0 ? 0.0
                     : static_cast<double>(static_cast<long long>(x) % yi);
    }
    case BinaryOp::kLt: return x < y;
    case BinaryOp::kLe: return x <= y;
    case BinaryOp::kGt: return x > y;
    case BinaryOp::kGe: return x >= y;
    case BinaryOp::kEq: return x == y;
    case BinaryOp::kNe: return x != y;
    case BinaryOp::kAnd: return (x != 0.0) && (y != 0.0);
    case BinaryOp::kOr: return (x != 0.0) || (y != 0.0);
  }
  return 0.0;
}

inline double EvalUnaryLane(ast::UnaryOp op, ast::ScalarType result_type,
                            double v) {
  if (op == ast::UnaryOp::kNot) return v == 0.0 ? 1.0 : 0.0;
  return result_type == ast::ScalarType::kFloat
             ? static_cast<double>(-static_cast<float>(v))
             : -v;
}

inline double EvalBuiltinLane(VmBuiltin fn, double x, double y) {
  const float fx = static_cast<float>(x);
  const float fy = static_cast<float>(y);
  float r = 0.0f;
  switch (fn) {
    case VmBuiltin::kExp: r = std::exp(fx); break;
    case VmBuiltin::kExp2: r = std::exp2(fx); break;
    case VmBuiltin::kLog: r = std::log(fx); break;
    case VmBuiltin::kLog2: r = std::log2(fx); break;
    case VmBuiltin::kSqrt: r = std::sqrt(fx); break;
    case VmBuiltin::kRsqrt: r = 1.0f / std::sqrt(fx); break;
    case VmBuiltin::kSin: r = std::sin(fx); break;
    case VmBuiltin::kCos: r = std::cos(fx); break;
    case VmBuiltin::kTan: r = std::tan(fx); break;
    case VmBuiltin::kAtan: r = std::atan(fx); break;
    case VmBuiltin::kAtan2: r = std::atan2(fx, fy); break;
    case VmBuiltin::kPow: r = std::pow(fx, fy); break;
    case VmBuiltin::kFmod: r = std::fmod(fx, fy); break;
    case VmBuiltin::kFabs: r = std::fabs(fx); break;
    case VmBuiltin::kFmin: r = std::fmin(fx, fy); break;
    case VmBuiltin::kFmax: r = std::fmax(fx, fy); break;
    case VmBuiltin::kFloor: r = std::floor(fx); break;
    case VmBuiltin::kCeil: r = std::ceil(fx); break;
    case VmBuiltin::kRound: r = std::round(fx); break;
    // min/max/abs operate on the raw double lanes in the interpreter.
    case VmBuiltin::kMin: return std::min(x, y);
    case VmBuiltin::kMax: return std::max(x, y);
    case VmBuiltin::kAbs: return std::fabs(x);
  }
  return static_cast<double>(r);
}

inline double CombineLane(ast::ScalarType type, ast::AssignOp op, double lhs,
                          double rhs) {
  using ast::AssignOp;
  const bool f = type == ast::ScalarType::kFloat;
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

}  // namespace hipacc::sim
