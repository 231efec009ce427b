#include "sim/jit/emit.hpp"

#include <cstdint>
#include <cstring>
#include <set>

#include "support/hash.hpp"
#include "support/string_utils.hpp"

namespace hipacc::sim::jit {

// Defined in the build-generated jit_abi_text.cpp (CMake embeds abi.hpp).
const char* AbiHeaderText();

namespace {

using ast::AssignOp;
using ast::BinaryOp;
using ast::BoundaryMode;
using ast::ScalarType;
using ast::ThreadIndexKind;
using ast::UnaryOp;
using hipacc::StrFormat;

int TypeCode(ScalarType t) { return static_cast<int>(t); }

/// Doubles are emitted through their bit pattern (jit_d helper in the
/// prelude): hexfloat formatting round-trips, but bit-pattern emission is
/// immune to printf/locale corner cases and handles inf/nan uniformly. GCC
/// folds the memcpy to a literal constant.
std::string DLit(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return StrFormat("jit_d(0x%016llxull)", static_cast<unsigned long long>(bits));
}

std::string FLit(float v) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return StrFormat("jit_f(0x%08xu)", bits);
}

/// The self-contained prelude shared by every generated TU: bit-literal
/// constructors, the runtime type conversion, boundary resolution
/// (textually equivalent to dsl::ResolveBoundaryIndex +
/// lanes.hpp's ResolveCoord), and the RAII metric flusher. ScalarType /
/// BoundaryMode enum values are baked as integers; the fingerprint pins
// the encoding so an enum reorder invalidates cached objects.
const char kPrelude[] = R"jit(
static inline double jit_d(unsigned long long b) {
  double v;
  std::memcpy(&v, &b, 8);
  return v;
}
static inline float jit_f(unsigned int b) {
  float v;
  std::memcpy(&v, &b, 4);
  return v;
}
// ConvertLaneValue with ScalarType baked: 1=bool 2=int 3=uint 4=float.
static inline double jit_conv(double v, int to) {
  switch (to) {
    case 4: return (double)(float)v;
    case 2:
    case 3: return (double)(long long)v;
    case 1: return v != 0.0 ? 1.0 : 0.0;
    default: return 0.0;
  }
}
// dsl::ResolveBoundaryIndex with BoundaryMode baked:
// 0=undefined 1=repeat 2=clamp 3=mirror 4=constant.
static inline int jit_reflect(int c, int n, int mode) {
  if (n <= 0) return -1;
  if (c >= 0 && c < n) return c;
  switch (mode) {
    case 4: return -1;
    case 0:
    case 2: return c < 0 ? 0 : n - 1;
    case 1: {
      int r = c % n;
      if (r < 0) r += n;
      return r;
    }
    case 3: {
      int r = c % (2 * n);
      if (r < 0) r += 2 * n;
      return r < n ? r : 2 * n - 1 - r;
    }
  }
  return -1;
}
// lanes.hpp ResolveCoord.
static inline int jit_resolve(int c, int n, int mode, int check_lo,
                              int check_hi, int hw, int* violation) {
  if (c >= 0 && c < n) return c;
  if (hw) return jit_reflect(c, n, mode == 0 ? 2 : mode);
  const int guarded = (c < 0 && check_lo) || (c >= n && check_hi);
  if (!guarded) {
    *violation = 1;
    return c < 0 ? 0 : n - 1;
  }
  return jit_reflect(c, n, mode);
}
)jit";

/// Emits the body of one region program as one extern "C" function.
class FnEmitter {
 public:
  FnEmitter(const ProgramSet& ps, const Program& prog, std::string& out)
      : ps_(ps), prog_(prog), out_(out) {}

  /// Appends the region program as one extern "C" function and returns
  /// true, or appends nothing and returns false when the program does not
  /// fuse (AnalyzeFusion).
  bool Emit(const std::string& symbol) {
    if (!AnalyzeFusion()) return false;
    out_ += StrFormat(
        "\nextern \"C\" void %s(hipacc::sim::jit::JitWarpCtx* ctx) {\n",
        symbol.c_str());
    EmitFusedBody();
    out_ += "}\n";
    return true;
  }

 private:
  /// Lane fusion requires the executed instruction sequence to be the same
  /// for every warp, so the emitter can replay it statically. Divergent
  /// jumps (kJumpIfNone) are rejected outright. Counted loops are admitted
  /// when their trip counts are decidable at emit time — init value, bound,
  /// and increment all rooted in kConst — and their loop mask is
  /// warp-uniform (slot 0 or a chain of uniformly-true loop heads): the
  /// walk below then unrolls them into `schedule_`, the exact sequence of
  /// executed instructions, which EmitFusedBody replays. Loaded and stored
  /// buffers must also be disjoint — fused execution runs lanes in outer
  /// order, which would reorder a read-after-write through global memory
  /// within one warp (stores themselves are deferred to program order, so
  /// store/store is safe).
  bool AnalyzeFusion() {
    std::set<int> loaded, stored;
    for (const Insn& I : prog_.code) {
      if (I.op == Op::kJumpIfNone) return false;
      if (I.op == Op::kLoadImage) loaded.insert(I.buffer);
      if (I.op == Op::kStore) stored.insert(I.buffer);
    }
    for (int b : loaded)
      if (stored.count(b)) return false;

    // Static walk. `known` tracks registers whose double value is fully
    // determined at emit time (constants and copies/increments thereof);
    // `uniform` tracks mask slots currently equal to the warp active mask
    // element-wise. Both follow exactly the updates the VM would perform.
    const int num_regs = prog_.num_regs > 0 ? prog_.num_regs : 1;
    struct Known {
      bool ok = false;
      double v = 0.0;
    };
    std::vector<Known> known(static_cast<std::size_t>(num_regs));
    std::set<int> uniform{0};
    schedule_.clear();
    const std::int32_t n = static_cast<std::int32_t>(prog_.code.size());
    std::int32_t pc = 0;
    while (pc != n) {
      if (pc < 0 || pc > n ||
          static_cast<int>(schedule_.size()) >= kMaxFusedSteps)
        return false;
      const Insn& I = prog_.code[static_cast<std::size_t>(pc)];
      switch (I.op) {
        case Op::kConst:
          known[I.dst] = {true, I.imm};
          schedule_.push_back({pc, false});
          ++pc;
          break;
        case Op::kCopy:
        case Op::kLoopInit:
          known[I.dst] = known[I.a];
          schedule_.push_back({pc, false});
          ++pc;
          break;
        case Op::kLoopHead: {
          // Warps with no active lane never reach the generated function
          // (the runner skips them, as does the VM), so a uniform-true
          // condition chain rooted at slot 0 guarantees `any` is set and
          // the VM takes the same branch the walk takes here.
          if (!uniform.count(I.mask) || !known[I.a].ok || !known[I.b].ok)
            return false;
          const bool live = known[I.a].v <= known[I.b].v;
          schedule_.push_back({pc, !live});
          if (live) {
            uniform.insert(static_cast<int>(I.dst));
            ++pc;
          } else {
            uniform.erase(static_cast<int>(I.dst));
            pc = I.jump;
          }
          break;
        }
        case Op::kLoopInc:
          if (known[I.dst].ok) known[I.dst].v += I.imm;
          schedule_.push_back({pc, false});
          pc = I.jump;
          break;
        case Op::kMaskIf:
          uniform.erase(static_cast<int>(I.dst));
          uniform.erase(static_cast<int>(I.b));
          schedule_.push_back({pc, false});
          ++pc;
          break;
        case Op::kStore:
        case Op::kBarrier:
        case Op::kAccount:
          schedule_.push_back({pc, false});
          ++pc;
          break;
        default:
          // Every remaining op writes a data register whose value is not
          // tracked statically.
          known[I.dst].ok = false;
          schedule_.push_back({pc, false});
          ++pc;
          break;
      }
    }
    return true;
  }

  // ---- lane-fused emission ------------------------------------------------
  //
  // One loop over lanes runs the whole scheduled instruction sequence (the
  // program, with emit-time-decidable loops unrolled) in scalar locals.
  // Register type tags are data-independent along the schedule, so they
  // are resolved here at emit time (the emitter replays exactly the tag
  // updates the VM performs at runtime); per-insn costs become constants
  // folded into one flush after the loop. Memory-model address lists are
  // buffered per *scheduled step* — an insn inside an unrolled loop gets
  // one slot per execution — and replayed after the lane loop in schedule
  // order; stores buffer (value, coord, active) per lane and perform the
  // actual global writes in the same post-loop pass, so every observable
  // effect — stored pixels, model call order, metric totals — lands in
  // exactly the VM's order.
  //
  // Float residency: the VM keeps every value as a double, but float-typed
  // results are always exactly-representable floats (every float op rounds
  // through (float)). The fused body therefore keeps such values in real
  // `float` locals (res_[k] == 'F'), eliding the double<->float conversion
  // chatter. This is bit-exact: double carries >= 2*24+2 significand bits,
  // so rounding a float +,-,*,/ or sqrt through double and back (what the
  // VM computes) equals the directly computed float op — and any consumer
  // that wants the raw double reads (double)fK, which reproduces the VM's
  // stored value exactly. Values that are float-*typed* but not float-exact
  // (a kConst whose immediate doesn't round-trip) simply stay double
  // resident; residency is a per-slot emitter fact, independent of the
  // type tag.

  /// Reads register `r` as the raw double the VM stores: the double local
  /// itself, or the float local widened (exact by construction).
  std::string DX(unsigned r) {
    return res_[r] == 'F' ? StrFormat("(double)f%u", r) : StrFormat("r%u", r);
  }

  /// Reads register `r` as (float)value — the operand form of every
  /// float-mode op. For a float-resident slot this is the local itself.
  std::string FX(unsigned r) {
    return res_[r] == 'F' ? StrFormat("f%u", r) : StrFormat("(float)r%u", r);
  }

  /// Forces register `r` into its double local (exact: widening). Needed
  /// before masked writes that must leave inactive lanes' raw doubles
  /// intact, and before raw-double read-modify-write paths.
  void NormD(unsigned r) {
    if (res_[r] != 'F') return;
    fbody_ += StrFormat("    r%u = (double)f%u;\n", r, r);
    res_[r] = 'D';
  }

  /// Scalar coordinate expression for lane `l`. Register coordinates are
  /// only evaluated under an active mask (the VM zeroes them for inactive
  /// lanes, but inactive lanes never reach an address computation).
  std::string FusedCoord(const Coord& c) {
    switch (c.kind) {
      case CoordKind::kReg: return StrFormat("(int)%s", DX(c.reg).c_str());
      case CoordKind::kGidX:
        return StrFormat("(ctx->gid_xi[l] + (%d))", c.off);
      case CoordKind::kGidY:
        return StrFormat("(ctx->gid_yi[l] + (%d))", c.off);
      case CoordKind::kTidX:
        return StrFormat("(ctx->tid_xi[l] + (%d))", c.off);
      case CoordKind::kTidY:
        return StrFormat("(ctx->tid_yi[l] + (%d))", c.off);
      case CoordKind::kImm: return StrFormat("%d", c.off);
    }
    return "0";
  }

  /// First use of a global buffer: hoisted field loads shared by every insn
  /// on it.
  void FuseBuffer(int b) {
    if (!fbuf_seen_.insert(b).second) return;
    fdecls_ += StrFormat(
        "  const hipacc::sim::jit::JitBuffer* b%d = &ctx->buffers[%d];\n"
        "  const int bw%d = b%d->width; const int bh%d = b%d->height;\n"
        "  const int bs%d = b%d->stride; float* const bp%d = b%d->data;\n",
        b, b, b, b, b, b, b, b, b, b);
  }

  void FuseMaskTable(int t) {
    if (!fmask_seen_.insert(t).second) return;
    fdecls_ += StrFormat(
        "  const hipacc::sim::jit::JitMaskTable* mt%d = "
        "&ctx->mask_tables[%d];\n"
        "  const float* md%d = mt%d->data;"
        " const unsigned long long ms%d = mt%d->size;\n",
        t, t, t, t, t, t);
  }

  /// Declares the per-step address buffer and schedules the post-loop
  /// memory-model replay for scheduled step `step` with ABI kind `kind`.
  /// Keyed by step, not pc: an insn inside an unrolled loop issues one
  /// model call per execution, in schedule order — the VM's exact sequence.
  void FuseMemSlot(int step, int kind) {
    fdecls_ += StrFormat("  unsigned long long a%d[64]; int n%d = 0;\n", step,
                         step);
    fpost_ += StrFormat(
        "  if (n%d) ctx->mem_access(ctx->host, %d, a%d, n%d);\n", step, kind,
        step, step);
  }

  void EmitFusedBinary(const Insn& I) {
    const BinaryOp op = static_cast<BinaryOp>(I.sub);
    const bool fm = ty_[I.a] == 4 || ty_[I.b] == 4;
    const std::string X = DX(I.a);
    const std::string Y = DX(I.b);
    const std::string D = StrFormat("r%u", I.dst);
    auto set_d = [&] { res_[I.dst] = 'D'; };
    auto cmp = [&](const char* sym) {
      fbody_ += StrFormat("    %s = %s %s %s ? 1.0 : 0.0;\n", D.c_str(),
                          X.c_str(), sym, Y.c_str());
      set_d();
    };
    switch (op) {
      case BinaryOp::kAdd:
      case BinaryOp::kSub:
      case BinaryOp::kMul: {
        const char sym = op == BinaryOp::kAdd ? '+'
                         : op == BinaryOp::kSub ? '-'
                                                : '*';
        if (fm) {
          // Direct float arithmetic: equals the VM's
          // (double)((float)x op (float)y) — double rounding through a
          // format with >= 2p+2 bits is exact for + - * /.
          fbody_ += StrFormat("    f%u = %s %c %s;\n", I.dst,
                              FX(I.a).c_str(), sym, FX(I.b).c_str());
          res_[I.dst] = 'F';
        } else {
          fbody_ += StrFormat("    %s = %s %c %s;\n", D.c_str(), X.c_str(),
                              sym, Y.c_str());
          set_d();
        }
        break;
      }
      case BinaryOp::kDiv:
        falu_ += fm ? 5 : 16;
        if (fm) {
          fbody_ += StrFormat("    f%u = %s / %s;\n", I.dst, FX(I.a).c_str(),
                              FX(I.b).c_str());
          res_[I.dst] = 'F';
        } else {
          fbody_ += StrFormat(
              "    { const long long yi = (long long)%s;\n"
              "      %s = yi == 0 ? 0.0 : (double)((long long)%s / yi); }\n",
              Y.c_str(), D.c_str(), X.c_str());
          set_d();
        }
        break;
      case BinaryOp::kMod:
        fbody_ += StrFormat(
            "    { const long long yi = (long long)%s;\n"
            "      %s = yi == 0 ? 0.0 : (double)((long long)%s %% yi); }\n",
            Y.c_str(), D.c_str(), X.c_str());
        set_d();
        break;
      case BinaryOp::kLt: cmp("<"); break;
      case BinaryOp::kLe: cmp("<="); break;
      case BinaryOp::kGt: cmp(">"); break;
      case BinaryOp::kGe: cmp(">="); break;
      case BinaryOp::kEq: cmp("=="); break;
      case BinaryOp::kNe: cmp("!="); break;
      case BinaryOp::kAnd:
        fbody_ += StrFormat(
            "    %s = (%s != 0.0 && %s != 0.0) ? 1.0 : 0.0;\n", D.c_str(),
            X.c_str(), Y.c_str());
        set_d();
        break;
      case BinaryOp::kOr:
        fbody_ += StrFormat(
            "    %s = (%s != 0.0 || %s != 0.0) ? 1.0 : 0.0;\n", D.c_str(),
            X.c_str(), Y.c_str());
        set_d();
        break;
    }
    ty_[I.dst] = TypeCode(I.type);
  }

  void EmitFusedAssign(const Insn& I) {
    const AssignOp op = static_cast<AssignOp>(I.sub);
    const int T = TypeCode(I.type);
    const bool fm = I.type == ScalarType::kFloat;
    const bool cvt = ty_[I.a] != T;
    // Masked writes must leave inactive lanes' values untouched, so the
    // destination's residency cannot change here: a double-resident slot
    // stays double (the float result widens exactly), and a float-resident
    // slot only stays float when the stored value is float-exact —
    // otherwise it is widened to double up front (exact) and written there.
    if (fm && op != AssignOp::kAssign) {
      // CombineLane float fold: d = (double)((float)d op (float)rhs), with
      // (float)rhs == (float)raw regardless of the conversion step — so
      // both operands reduce to their FX forms and the op runs in float
      // (exact through double, >= 2p+2 bits).
      const char sym = op == AssignOp::kAddAssign   ? '+'
                       : op == AssignOp::kSubAssign ? '-'
                       : op == AssignOp::kMulAssign ? '*'
                                                    : '/';
      const std::string val =
          StrFormat("%s %c %s", FX(I.dst).c_str(), sym, FX(I.a).c_str());
      fbody_ += res_[I.dst] == 'F'
                    ? StrFormat("    if (m%u) f%u = %s;\n", I.mask, I.dst,
                                val.c_str())
                    : StrFormat("    if (m%u) r%u = (double)(%s);\n", I.mask,
                                I.dst, val.c_str());
      return;
    }
    if (fm) {
      // Plain float assign: converted or float-resident sources are
      // float-exact; a raw double-resident source keeps the destination
      // double resident.
      if (cvt || res_[I.a] == 'F') {
        const std::string val = cvt ? FX(I.a) : StrFormat("f%u", I.a);
        fbody_ += res_[I.dst] == 'F'
                      ? StrFormat("    if (m%u) f%u = %s;\n", I.mask, I.dst,
                                  val.c_str())
                      : StrFormat("    if (m%u) r%u = (double)%s;\n", I.mask,
                                  I.dst, val.c_str());
      } else {
        NormD(I.dst);
        fbody_ += StrFormat("    if (m%u) r%u = r%u;\n", I.mask, I.dst, I.a);
      }
      return;
    }
    // Integer paths operate on raw doubles.
    NormD(I.dst);
    const std::string D = StrFormat("r%u", I.dst);
    const std::string rhs =
        cvt ? StrFormat("jit_conv(%s, %d)", DX(I.a).c_str(), T) : DX(I.a);
    std::string stmt;
    switch (op) {
      case AssignOp::kAssign:
        stmt = D + " = rhs;";
        break;
      case AssignOp::kAddAssign:
        stmt = D + " = " + D + " + rhs;";
        break;
      case AssignOp::kSubAssign:
        stmt = D + " = " + D + " - rhs;";
        break;
      case AssignOp::kMulAssign:
        stmt = D + " = " + D + " * rhs;";
        break;
      case AssignOp::kDivAssign:
        stmt = D + " = rhs != 0.0 ? (double)((long long)" + D +
               " / (long long)rhs) : 0.0;";
        break;
    }
    fbody_ += StrFormat("    if (m%u) { const double rhs = %s; %s }\n", I.mask,
                        rhs.c_str(), stmt.c_str());
  }

  void EmitFusedLoadImage(int step, const Insn& I) {
    const bool tex = I.sub == 1;
    const bool hw = I.hw_bh || tex;
    const int mode = static_cast<int>(I.boundary);
    const int K = I.buffer;
    FuseBuffer(K);
    FuseMemSlot(step, tex ? 4 : 0);
    // Loaded pixels are floats: the result lives in the float local
    // (res F), and every written value — pixel, boundary constant, masked
    // zero — is float-exact.
    fbody_ += StrFormat(
        "    if (!m%u) { f%u = 0.0f; } else {\n"
        "      const int cx = %s; const int cy = %s;\n"
        "      if ((unsigned)cx < (unsigned)bw%d && (unsigned)cy < "
        "(unsigned)bh%d) {\n"
        "        const unsigned long long ad =\n"
        "            (unsigned long long)cy * bs%d + cx;\n"
        "        f%u = bp%d[ad]; a%d[n%d++] = ad;\n"
        "      } else {\n",
        I.mask, I.dst, FusedCoord(I.cx).c_str(), FusedCoord(I.cy).c_str(), K,
        K, K, I.dst, K, step, step);
    const bool cguard = I.boundary == BoundaryMode::kConstant && !I.hw_bh;
    if (cguard)
      fbody_ += StrFormat(
          "        const int oob_x = (cx < 0 && %d) || (cx >= bw%d && %d);\n"
          "        const int oob_y = (cy < 0 && %d) || (cy >= bh%d && %d);\n"
          "        if (oob_x || oob_y) { f%u = %s; } else {\n",
          I.checks.lo_x ? 1 : 0, K, I.checks.hi_x ? 1 : 0,
          I.checks.lo_y ? 1 : 0, K, I.checks.hi_y ? 1 : 0, I.dst,
          FLit(I.cvalue).c_str());
    fbody_ += StrFormat(
        "        int violation = 0;\n"
        "        const int rx = jit_resolve(cx, bw%d, %d, %d, %d, %d, "
        "&violation);\n"
        "        const int ry = jit_resolve(cy, bh%d, %d, %d, %d, %d, "
        "&violation);\n"
        "        if (violation) ++oob;\n"
        "        if (rx < 0 || ry < 0) { f%u = %s; }\n"
        "        else { const unsigned long long ad =\n"
        "                   (unsigned long long)ry * bs%d + rx;\n"
        "               f%u = bp%d[ad]; a%d[n%d++] = ad; }\n",
        K, mode, I.checks.lo_x ? 1 : 0, I.checks.hi_x ? 1 : 0, hw ? 1 : 0, K,
        mode, I.checks.lo_y ? 1 : 0, I.checks.hi_y ? 1 : 0, hw ? 1 : 0, I.dst,
        FLit(I.cvalue).c_str(), K, I.dst, K, step, step);
    if (cguard) fbody_ += "        }\n";
    fbody_ += "      }\n    }\n";
    ty_[I.dst] = 4;
    res_[I.dst] = 'F';
  }

  void EmitFusedLoadShared(int step, const Insn& I) {
    if (!ftile_) {
      ftile_ = true;
      fdecls_ +=
          "  const float* tile = ctx->tile;\n"
          "  const int tw = ctx->tile_w; const int th = ctx->tile_h;\n";
    }
    FuseMemSlot(step, 2);
    fbody_ += StrFormat(
        "    if (!m%u) { f%u = 0.0f; } else {\n"
        "      const int sx = %s; const int sy = %s;\n"
        "      if (sx < 0 || sx >= tw || sy < 0 || sy >= th) {\n"
        "        ++oob; f%u = 0.0f;\n"
        "      } else {\n"
        "        const unsigned long long ad =\n"
        "            (unsigned long long)sy * tw + sx;\n"
        "        f%u = tile[ad]; a%d[n%d++] = ad;\n"
        "      }\n    }\n",
        I.mask, I.dst, FusedCoord(I.cx).c_str(), FusedCoord(I.cy).c_str(),
        I.dst, I.dst, step, step);
    ty_[I.dst] = 4;
    res_[I.dst] = 'F';
  }

  void EmitFusedLoadConst(int step, const Insn& I) {
    const int width = ps_.const_masks[static_cast<std::size_t>(I.buffer)].width;
    FuseMaskTable(I.buffer);
    FuseMemSlot(step, 3);
    fbody_ += StrFormat(
        "    if (!m%u) { f%u = 0.0f; } else {\n"
        "      const unsigned long long ad =\n"
        "          (unsigned long long)(%s) * %d + (%s);\n"
        "      if (ad >= ms%d) { ++oob; f%u = 0.0f; }\n"
        "      else { f%u = md%d[ad]; a%d[n%d++] = ad; }\n"
        "    }\n",
        I.mask, I.dst, FusedCoord(I.cy).c_str(), width,
        FusedCoord(I.cx).c_str(), I.buffer, I.dst, I.dst, I.buffer, step,
        step);
    ty_[I.dst] = 4;
    res_[I.dst] = 'F';
  }

  void EmitFusedStore(int step, const Insn& I) {
    const int K = I.buffer;
    FuseBuffer(K);
    // The VM narrows to float at write time, so the deferred value is
    // buffered as the float actually stored.
    fdecls_ += StrFormat(
        "  unsigned long long a%d[64]; int n%d = 0;\n"
        "  float sv%d[64]; int sx%d[64]; int sy%d[64];"
        " unsigned char sm%d[64];\n",
        step, step, step, step, step, step);
    fbody_ += StrFormat(
        "    sm%d[l] = m%u;\n"
        "    if (m%u) { sv%d[l] = %s; sx%d[l] = %s; sy%d[l] = %s; }\n",
        step, I.mask, I.mask, step, FX(I.a).c_str(), step,
        FusedCoord(I.cx).c_str(), step, FusedCoord(I.cy).c_str());
    // Deferred write-back: lane order within the insn, schedule order
    // across steps — the VM's exact store order, so colliding addresses
    // resolve identically.
    fpost_ += StrFormat(
        "  for (int l = 0; l < W; ++l) {\n"
        "    if (!sm%d[l]) continue;\n"
        "    const int px = sx%d[l]; const int py = sy%d[l];\n"
        "    if (px < 0 || px >= bw%d || py < 0 || py >= bh%d) {\n"
        "      ++oob; continue;\n"
        "    }\n"
        "    const unsigned long long ad = (unsigned long long)py * bs%d + "
        "px;\n"
        "    bp%d[ad] = sv%d[l]; a%d[n%d++] = ad;\n"
        "  }\n"
        "  if (n%d) ctx->mem_access(ctx->host, 1, a%d, n%d);\n",
        step, step, step, K, K, K, K, step, step, step, step, step, step);
  }

  /// Emits one float-builtin call with float-resident operands/result where
  /// the VM computes in float anyway (same libm entry points, so results
  /// are bit-identical); min/max/abs operate on the raw doubles.
  void EmitFusedCall(const Insn& I) {
    const VmBuiltin fn = static_cast<VmBuiltin>(I.sub);
    const char* nm = nullptr;
    bool two = false;
    switch (fn) {
      case VmBuiltin::kExp: nm = "exp"; break;
      case VmBuiltin::kExp2: nm = "exp2"; break;
      case VmBuiltin::kLog: nm = "log"; break;
      case VmBuiltin::kLog2: nm = "log2"; break;
      case VmBuiltin::kSqrt: nm = "sqrt"; break;
      case VmBuiltin::kSin: nm = "sin"; break;
      case VmBuiltin::kCos: nm = "cos"; break;
      case VmBuiltin::kTan: nm = "tan"; break;
      case VmBuiltin::kAtan: nm = "atan"; break;
      case VmBuiltin::kFabs: nm = "fabs"; break;
      case VmBuiltin::kFloor: nm = "floor"; break;
      case VmBuiltin::kCeil: nm = "ceil"; break;
      case VmBuiltin::kRound: nm = "round"; break;
      case VmBuiltin::kAtan2: nm = "atan2"; two = true; break;
      case VmBuiltin::kPow: nm = "pow"; two = true; break;
      case VmBuiltin::kFmod: nm = "fmod"; two = true; break;
      case VmBuiltin::kFmin: nm = "fmin"; two = true; break;
      case VmBuiltin::kFmax: nm = "fmax"; two = true; break;
      case VmBuiltin::kRsqrt:
        fbody_ += StrFormat("    f%u = 1.0f / std::sqrt(%s);\n", I.dst,
                            FX(I.a).c_str());
        res_[I.dst] = 'F';
        return;
      case VmBuiltin::kMin:
        fbody_ += StrFormat("    r%u = std::min(%s, %s);\n", I.dst,
                            DX(I.a).c_str(), DX(I.b).c_str());
        res_[I.dst] = 'D';
        return;
      case VmBuiltin::kMax:
        fbody_ += StrFormat("    r%u = std::max(%s, %s);\n", I.dst,
                            DX(I.a).c_str(), DX(I.b).c_str());
        res_[I.dst] = 'D';
        return;
      case VmBuiltin::kAbs:
        fbody_ += StrFormat("    r%u = std::fabs(%s);\n", I.dst,
                            DX(I.a).c_str());
        res_[I.dst] = 'D';
        return;
    }
    fbody_ += two ? StrFormat("    f%u = std::%s(%s, %s);\n", I.dst, nm,
                              FX(I.a).c_str(), FX(I.b).c_str())
                  : StrFormat("    f%u = std::%s(%s);\n", I.dst, nm,
                              FX(I.a).c_str());
    res_[I.dst] = 'F';
  }

  void EmitFusedInsn(int step, std::int32_t pc, const Insn& I, bool exit) {
    falu_ += I.alu_cost;
    fsfu_ += I.sfu_cost;
    const int T = TypeCode(I.type);
    fbody_ += StrFormat("    // [%d]\n", pc);
    switch (I.op) {
      case Op::kConst: {
        // Float-exact immediates become float resident; everything else
        // (including any NaN, whose payload must survive raw reads) stays
        // in the double local.
        const double rt = static_cast<double>(static_cast<float>(I.imm));
        const bool fexact = std::memcmp(&rt, &I.imm, sizeof(rt)) == 0;
        if (fexact) {
          fbody_ += StrFormat("    f%u = %s;\n", I.dst,
                              FLit(static_cast<float>(I.imm)).c_str());
          res_[I.dst] = 'F';
        } else {
          fbody_ += StrFormat("    r%u = %s;\n", I.dst, DLit(I.imm).c_str());
          res_[I.dst] = 'D';
        }
        ty_[I.dst] = T;
        break;
      }
      case Op::kCopy:
        if (I.dst != I.a)
          fbody_ += res_[I.a] == 'F'
                        ? StrFormat("    f%u = f%u;\n", I.dst, I.a)
                        : StrFormat("    r%u = r%u;\n", I.dst, I.a);
        res_[I.dst] = res_[I.a];
        ty_[I.dst] = ty_[I.a];
        break;
      case Op::kConvert:
        if (ty_[I.a] == T) {
          if (I.dst != I.a)
            fbody_ += res_[I.a] == 'F'
                          ? StrFormat("    f%u = f%u;\n", I.dst, I.a)
                          : StrFormat("    r%u = r%u;\n", I.dst, I.a);
          res_[I.dst] = res_[I.a];
        } else if (T == 4) {
          // jit_conv(v, 4) == (double)(float)v: the float local holds it.
          fbody_ += StrFormat("    f%u = %s;\n", I.dst, FX(I.a).c_str());
          res_[I.dst] = 'F';
        } else {
          fbody_ += StrFormat("    r%u = jit_conv(%s, %d);\n", I.dst,
                              DX(I.a).c_str(), T);
          res_[I.dst] = 'D';
        }
        ty_[I.dst] = T;
        break;
      case Op::kUnary:
        if (static_cast<UnaryOp>(I.sub) == UnaryOp::kNot) {
          fbody_ += StrFormat("    r%u = %s == 0.0 ? 1.0 : 0.0;\n", I.dst,
                              DX(I.a).c_str());
          res_[I.dst] = 'D';
        } else if (I.type == ScalarType::kFloat) {
          fbody_ += StrFormat("    f%u = -%s;\n", I.dst, FX(I.a).c_str());
          res_[I.dst] = 'F';
        } else {
          fbody_ += StrFormat("    r%u = -%s;\n", I.dst, DX(I.a).c_str());
          res_[I.dst] = 'D';
        }
        ty_[I.dst] = T;
        break;
      case Op::kBinary:
        EmitFusedBinary(I);
        break;
      case Op::kSelect:
        // Raw selection between the operands' stored values; float resident
        // only when both arms already are.
        if (res_[I.b] == 'F' && res_[I.c] == 'F') {
          fbody_ += StrFormat("    f%u = %s != 0.0 ? f%u : f%u;\n", I.dst,
                              DX(I.a).c_str(), I.b, I.c);
          res_[I.dst] = 'F';
        } else {
          fbody_ += StrFormat("    r%u = %s != 0.0 ? %s : %s;\n", I.dst,
                              DX(I.a).c_str(), DX(I.b).c_str(),
                              DX(I.c).c_str());
          res_[I.dst] = 'D';
        }
        ty_[I.dst] = T;
        break;
      case Op::kCall:
        EmitFusedCall(I);
        ty_[I.dst] = T;
        break;
      case Op::kThreadIdx: {
        const ThreadIndexKind kind = static_cast<ThreadIndexKind>(I.sub);
        const char* lane_src = nullptr;
        const char* scalar_src = nullptr;
        switch (kind) {
          case ThreadIndexKind::kThreadIdxX: lane_src = "tid_x"; break;
          case ThreadIndexKind::kThreadIdxY: lane_src = "tid_y"; break;
          case ThreadIndexKind::kGlobalIdX: lane_src = "gid_x"; break;
          case ThreadIndexKind::kGlobalIdY: lane_src = "gid_y"; break;
          case ThreadIndexKind::kBlockIdxX: scalar_src = "bix"; break;
          case ThreadIndexKind::kBlockIdxY: scalar_src = "biy"; break;
          case ThreadIndexKind::kBlockDimX: scalar_src = "block_dim_x"; break;
          case ThreadIndexKind::kBlockDimY: scalar_src = "block_dim_y"; break;
          case ThreadIndexKind::kGridDimX: scalar_src = "grid_dim_x"; break;
          case ThreadIndexKind::kGridDimY: scalar_src = "grid_dim_y"; break;
          case ThreadIndexKind::kImageW: scalar_src = "image_w"; break;
          case ThreadIndexKind::kImageH: scalar_src = "image_h"; break;
        }
        fbody_ += lane_src
                      ? StrFormat("    r%u = ctx->%s[l];\n", I.dst, lane_src)
                      : StrFormat("    r%u = ctx->%s;\n", I.dst, scalar_src);
        res_[I.dst] = 'D';
        ty_[I.dst] = 2;
        break;
      }
      case Op::kAssign:
        EmitFusedAssign(I);
        break;
      case Op::kLoadImage:
        EmitFusedLoadImage(step, I);
        break;
      case Op::kLoadShared:
        EmitFusedLoadShared(step, I);
        break;
      case Op::kLoadConst:
        EmitFusedLoadConst(step, I);
        break;
      case Op::kStore:
        EmitFusedStore(step, I);
        break;
      case Op::kBarrier:
      case Op::kAccount:
        break;
      case Op::kMaskIf:
        fbody_ += StrFormat(
            "    { const unsigned char inv = m%u;\n"
            "      const int tk = inv && %s != 0.0;\n"
            "      m%u = (unsigned char)tk;"
            " m%u = (unsigned char)(inv && !tk); }\n",
            I.mask, DX(I.a).c_str(), I.dst, I.b);
        break;
      case Op::kLoopInit:
        if (I.dst != I.a)
          fbody_ += res_[I.a] == 'F'
                        ? StrFormat("    f%u = f%u;\n", I.dst, I.a)
                        : StrFormat("    r%u = r%u;\n", I.dst, I.a);
        res_[I.dst] = res_[I.a];
        ty_[I.dst] = 2;
        break;
      case Op::kLoopHead:
        // AnalyzeFusion proved the loop condition warp-uniform with a known
        // truth value, so this step reduces to the mask update the VM
        // performs: while iterating, live = in && true lane-wise (inactive
        // lanes fail `in`, active lanes share the uniform variable value);
        // on exit, live = in && false = 0 for every lane.
        if (exit) {
          fbody_ += StrFormat("    m%u = 0;\n", I.dst);
        } else if (I.dst != I.mask) {
          fbody_ += StrFormat("    m%u = m%u;\n", I.dst, I.mask);
        }
        break;
      case Op::kLoopInc:
        // The VM increments the raw double only for lanes active in the
        // loop mask — inactive lanes keep their stale value, which must be
        // preserved (raw register state persists across the program).
        NormD(I.dst);
        fbody_ += StrFormat("    if (m%u) r%u += %s;\n", I.mask, I.dst,
                            DLit(I.imm).c_str());
        break;
      case Op::kJumpIfNone:
        break;  // unreachable: AnalyzeFusion rejects divergent jumps
    }
  }

  void EmitFusedBody() {
    const int num_regs = prog_.num_regs > 0 ? prog_.num_regs : 1;
    const int num_masks = prog_.num_masks > 0 ? prog_.num_masks : 1;
    // Static tag file: fresh slots carry the VM's default (kFloat), params
    // their declared type — the same seeding the runtime tag array gets.
    // Every slot starts double resident (params are seeded into the double
    // locals; fresh slots are written before being read).
    ty_.assign(static_cast<std::size_t>(num_regs), 4);
    for (const ParamSeed& p : prog_.params)
      ty_[p.reg] = static_cast<int>(p.type);
    res_.assign(static_cast<std::size_t>(num_regs), 'D');

    for (std::size_t s = 0; s < schedule_.size(); ++s) {
      const Step& st = schedule_[s];
      EmitFusedInsn(static_cast<int>(s), st.pc,
                    prog_.code[static_cast<std::size_t>(st.pc)], st.exit);
    }

    out_ += "  const int W = ctx->warp_size;\n";
    out_ += "  unsigned long long oob = 0;\n";
    out_ += fdecls_;
    out_ += "  for (int l = 0; l < W; ++l) {\n";
    for (int r = 0; r < num_regs; ++r) {
      if (r % 8 == 0) out_ += std::string(r ? ";\n" : "") + "    double ";
      out_ += StrFormat(r % 8 == 0 ? "r%d = 0" : ", r%d = 0", r);
    }
    out_ += ";\n";
    for (int r = 0; r < num_regs; ++r) {
      if (r % 8 == 0) out_ += std::string(r ? ";\n" : "") + "    float ";
      out_ += StrFormat(r % 8 == 0 ? "f%d = 0" : ", f%d = 0", r);
    }
    out_ += ";\n    unsigned char m0 = ctx->masks[l];\n";
    for (int m = 1; m < num_masks; ++m) {
      if ((m - 1) % 8 == 0)
        out_ += std::string(m > 1 ? ";\n" : "") + "    unsigned char ";
      out_ += StrFormat((m - 1) % 8 == 0 ? "m%d = 0" : ", m%d = 0", m);
    }
    if (num_masks > 1) out_ += ";\n";
    out_ += "    (void)m0; (void)r0; (void)f0;\n";
    for (const ParamSeed& p : prog_.params)
      out_ += StrFormat("    r%u = ctx->regs[%u * 64 + l];\n", p.reg, p.reg);
    out_ += fbody_;
    out_ += "  }\n";
    out_ += fpost_;
    out_ += StrFormat("  *ctx->insns += %lluull;\n  *ctx->oob += oob;\n",
                      static_cast<unsigned long long>(schedule_.size()));
    if (falu_) out_ += StrFormat("  *ctx->alu += %lluull;\n", falu_);
    if (fsfu_) out_ += StrFormat("  *ctx->sfu += %lluull;\n", fsfu_);
  }

  const ProgramSet& ps_;
  const Program& prog_;
  std::string& out_;
  /// One executed instruction in the fused schedule; `exit` marks the
  /// final (condition-false) evaluation of a kLoopHead.
  struct Step {
    std::int32_t pc;
    bool exit;
  };
  /// Unroll budget: programs whose executed sequence exceeds this do not
  /// fuse, so their set stays on the VM (keeps generated TUs and
  /// host-compile times bounded).
  static constexpr int kMaxFusedSteps = 8192;
  std::vector<Step> schedule_;
  std::vector<int> ty_;
  std::vector<char> res_;
  std::set<int> fbuf_seen_, fmask_seen_;
  std::string fdecls_, fbody_, fpost_;
  bool ftile_ = false;
  unsigned long long falu_ = 0, fsfu_ = 0;
};

std::string StripPragmaOnce(std::string text) {
  const std::size_t pos = text.find("#pragma once");
  if (pos != std::string::npos) text.erase(pos, std::strlen("#pragma once"));
  return text;
}

}  // namespace

unsigned long long ProgramFingerprint(const ProgramSet& ps) {
  support::Fnv1a h;
  // Encoding version: bump when the emitted semantics change without an ABI
  // layout change (the ABI version is mixed separately by the cache).
  h.Mix(std::uint64_t{1});
  h.Mix(static_cast<std::uint64_t>(ps.buffer_names.size()));
  h.Mix(static_cast<std::uint64_t>(ps.const_masks.size()));
  for (const auto& mref : ps.const_masks) h.Mix(mref.width);
  h.Mix(ps.ppt);
  h.Mix(static_cast<std::uint64_t>(ps.programs.size()));
  for (const Program& prog : ps.programs) {
    h.Mix(static_cast<int>(prog.region));
    h.Mix(prog.num_regs);
    h.Mix(prog.num_masks);
    h.Mix(static_cast<std::uint64_t>(prog.code.size()));
    for (const Insn& I : prog.code) {
      h.Mix(static_cast<int>(I.op));
      h.Mix(static_cast<int>(I.type));
      h.Mix(static_cast<int>(I.sub));
      h.Mix(I.hw_bh);
      h.Mix(static_cast<int>(I.dst));
      h.Mix(static_cast<int>(I.a));
      h.Mix(static_cast<int>(I.b));
      h.Mix(static_cast<int>(I.c));
      h.Mix(static_cast<int>(I.mask));
      h.Mix(static_cast<int>(I.jump));
      h.Mix(static_cast<int>(I.alu_cost));
      h.Mix(static_cast<int>(I.sfu_cost));
      h.Mix(I.imm);
      h.Mix(static_cast<int>(I.buffer));
      for (const Coord& c : {I.cx, I.cy}) {
        h.Mix(static_cast<int>(c.kind));
        h.Mix(static_cast<int>(c.reg));
        h.Mix(c.off);
      }
      h.Mix(static_cast<int>(I.boundary));
      h.Mix(I.checks.lo_x);
      h.Mix(I.checks.hi_x);
      h.Mix(I.checks.lo_y);
      h.Mix(I.checks.hi_y);
      h.Mix(I.cvalue);
    }
  }
  return h.digest();
}

std::optional<EmittedSource> EmitNativeSource(const ProgramSet& ps) {
  EmittedSource out;
  support::Fnv1a h;
  h.Mix(static_cast<std::uint64_t>(ProgramFingerprint(ps)));
  const std::string tag = h.hex();
  out.source = StrFormat(
      "// Generated by the hipacc simulator native tier.\n"
      "// kernel: %s  fingerprint: %s\n"
      "#include <algorithm>\n"
      "#include <cmath>\n"
      "#include <cstring>\n",
      ps.kernel_name.c_str(), tag.c_str());
  out.source += StripPragmaOnce(AbiHeaderText());
  out.source += "\nnamespace {\n";
  out.source += kPrelude;
  out.source += "}  // namespace\n";
  for (const Program& prog : ps.programs) {
    const std::string symbol =
        StrFormat("hipacc_jit_%s_r%d", tag.c_str(), static_cast<int>(prog.region));
    if (!FnEmitter(ps, prog, out.source).Emit(symbol)) return std::nullopt;
    out.symbols.push_back({prog.region, symbol});
  }
  return out;
}

}  // namespace hipacc::sim::jit
