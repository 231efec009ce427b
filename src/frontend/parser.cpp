#include "frontend/parser.hpp"

#include <map>
#include <set>

#include "ast/builtins.hpp"
#include "ast/const_fold.hpp"
#include "ast/visitor.hpp"
#include "frontend/lexer.hpp"
#include "support/string_utils.hpp"

namespace hipacc::frontend {
namespace {

using namespace hipacc::ast;

class Parser {
 public:
  Parser(const KernelSource& source, std::vector<Token> tokens)
      : source_(source), tokens_(std::move(tokens)) {}

  Result<KernelDecl> Run() {
    KernelDecl kernel;
    kernel.name = source_.name;
    kernel.params = source_.params;
    kernel.accessors = source_.accessors;
    kernel.masks = source_.masks;
    kernel.extra_outputs = source_.extra_outputs;

    for (size_t i = 0; i < source_.extra_outputs.size(); ++i) {
      const std::string& name = source_.extra_outputs[i];
      if (name.empty()) return Error("extra output with empty name");
      for (size_t j = 0; j < i; ++j)
        if (source_.extra_outputs[j] == name)
          return Error("duplicate extra output '" + name + "'");
    }

    for (const auto& p : source_.params) scopes_.back()[p.name] = p.type;

    std::vector<StmtPtr> stmts;
    while (!Check(TokenKind::kEnd)) {
      Result<StmtPtr> stmt = ParseStmt();
      if (!stmt.ok()) return stmt.status();
      stmts.push_back(std::move(stmt).take());
    }
    if (!wrote_output_)
      return Error("kernel never assigns output()");
    for (const auto& name : source_.extra_outputs)
      if (!wrote_named_.count(name))
        return Error("kernel never assigns output(" + name + ")");
    kernel.body = Block(std::move(stmts));
    return kernel;
  }

 private:
  // ---- token helpers ------------------------------------------------------
  const Token& Peek(int off = 0) const {
    const size_t i = pos_ + static_cast<size_t>(off);
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  bool Check(TokenKind kind) const { return Peek().kind == kind; }
  bool Match(TokenKind kind) {
    if (!Check(kind)) return false;
    ++pos_;
    return true;
  }
  const Token& Advance() { return tokens_[pos_++]; }

  Status Error(const std::string& msg) const {
    return Status::Parse(StrFormat("%s:%d:%d: %s", source_.name.c_str(),
                                   Peek().line, Peek().column, msg.c_str()));
  }
  Status Expect(TokenKind kind) {
    if (Match(kind)) return Status::Ok();
    return Error(StrFormat("expected '%s', found '%s'", to_string(kind),
                           to_string(Peek().kind)));
  }

  // ---- nesting bound ------------------------------------------------------
  /// The parser recurses once per nested statement (ParseStmt: blocks, if
  /// and for bodies), expression (ParseExpr: parentheses, conditions,
  /// arguments, ?: arms) and unary operator or cast (ParseUnary); every
  /// recursive production passes through one of the three. Past this many
  /// open levels the source is a parse error instead of a stack overflow;
  /// a level takes at most ~0.9 KB of stack in a RelWithDebInfo build. The
  /// deepest source the repository ships or generates opens 57 levels (a
  /// fused candidate of the graph-fuzz sweep); the example and ops kernels
  /// open at most 11, the camera ISP's fused candidates 26.
  static constexpr int kMaxNesting = 256;

  /// Holds one nesting level for the lifetime of a recursive production.
  class Nesting {
   public:
    explicit Nesting(int& depth) : depth_(depth) { ++depth_; }
    ~Nesting() { --depth_; }
    Nesting(const Nesting&) = delete;
    Nesting& operator=(const Nesting&) = delete;
    bool too_deep() const { return depth_ > kMaxNesting; }

   private:
    int& depth_;
  };

  Status TooDeep() const {
    return Error(StrFormat("nesting deeper than %d levels", kMaxNesting));
  }

  // ---- symbol table -------------------------------------------------------
  void PushScope() { scopes_.emplace_back(); }
  void PopScope() { scopes_.pop_back(); }
  bool LookupVar(const std::string& name, ScalarType* type) const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      const auto found = it->find(name);
      if (found != it->end()) {
        *type = found->second;
        return true;
      }
    }
    return false;
  }
  /// A declaration or loop variable may not reuse a name visible where it
  /// appears, kernel parameters included. Both simulator engines and the
  /// reference oracle bind locals by name, so a shadowing declaration would
  /// clobber the outer variable where the emitted CUDA keeps the two apart.
  Status CheckFreshName(const std::string& name, const char* what) const {
    ScalarType type;
    if (!LookupVar(name, &type)) return Status::Ok();
    if (scopes_.back().count(name))
      return Error("redeclaration of '" + name + "'");
    return Error(std::string(what) + " '" + name + "' shadows " +
                 (IsLocal(name) ? "a declaration in an enclosing scope"
                                : "the kernel parameter of that name"));
  }
  bool IsLocal(const std::string& name) const {
    // Everything in scopes_ except frame 0 entries that came from params.
    ScalarType type;
    if (!LookupVar(name, &type)) return false;
    for (const auto& p : source_.params)
      if (p.name == name) return false;
    return true;
  }

  // ---- statements ---------------------------------------------------------
  Result<StmtPtr> ParseStmt() {
    const Nesting nesting(depth_);
    if (nesting.too_deep()) return TooDeep();
    switch (Peek().kind) {
      case TokenKind::kKwFloat:
      case TokenKind::kKwInt:
      case TokenKind::kKwBool:
        return ParseDecl();
      case TokenKind::kKwIf:
        return ParseIf();
      case TokenKind::kKwFor:
        return ParseFor();
      case TokenKind::kKwOutput:
        return ParseOutputAssign();
      case TokenKind::kLBrace:
        return ParseBlock();
      case TokenKind::kIdent:
        return ParseAssign();
      default:
        return Error(StrFormat("unexpected token '%s' at statement start",
                               to_string(Peek().kind)));
    }
  }

  ScalarType TypeOfKeyword(TokenKind kind) const {
    switch (kind) {
      case TokenKind::kKwFloat: return ScalarType::kFloat;
      case TokenKind::kKwInt: return ScalarType::kInt;
      default: return ScalarType::kBool;
    }
  }

  Result<StmtPtr> ParseDecl() {
    const ScalarType type = TypeOfKeyword(Advance().kind);
    std::vector<StmtPtr> decls;
    do {
      if (!Check(TokenKind::kIdent)) return Error("expected variable name");
      const std::string name = Advance().text;
      HIPACC_RETURN_IF_ERROR(CheckFreshName(name, "declaration of"));
      ExprPtr init;
      if (Match(TokenKind::kAssign)) {
        Result<ExprPtr> expr = ParseExpr();
        if (!expr.ok()) return expr.status();
        init = std::move(expr).take();
      }
      scopes_.back()[name] = type;
      decls.push_back(Decl(type, name, std::move(init)));
    } while (Match(TokenKind::kComma));
    HIPACC_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon));
    if (decls.size() == 1) return decls.front();
    return Block(std::move(decls));
  }

  Result<StmtPtr> ParseAssign() {
    const std::string name = Advance().text;
    ScalarType type;
    if (!LookupVar(name, &type))
      return Error("assignment to undeclared variable '" + name + "'");
    if (!IsLocal(name))
      return Error("kernel parameters are read-only: '" + name + "'");
    AssignOp op;
    switch (Peek().kind) {
      case TokenKind::kAssign: op = AssignOp::kAssign; break;
      case TokenKind::kPlusAssign: op = AssignOp::kAddAssign; break;
      case TokenKind::kMinusAssign: op = AssignOp::kSubAssign; break;
      case TokenKind::kStarAssign: op = AssignOp::kMulAssign; break;
      case TokenKind::kSlashAssign: op = AssignOp::kDivAssign; break;
      case TokenKind::kPlusPlus:
        Advance();
        HIPACC_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon));
        return Assign(name, AssignOp::kAddAssign, IntLit(1));
      case TokenKind::kMinusMinus:
        Advance();
        HIPACC_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon));
        return Assign(name, AssignOp::kSubAssign, IntLit(1));
      default:
        return Error("expected assignment operator after '" + name + "'");
    }
    Advance();
    Result<ExprPtr> value = ParseExpr();
    if (!value.ok()) return value.status();
    HIPACC_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon));
    return Assign(name, op, std::move(value).take());
  }

  Result<StmtPtr> ParseOutputAssign() {
    Advance();  // output
    HIPACC_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
    // output(name) targets a declared extra output; bare output() the
    // primary image.
    std::string output_name;
    if (Check(TokenKind::kIdent)) {
      output_name = Advance().text;
      bool declared = false;
      for (const auto& n : source_.extra_outputs) declared |= (n == output_name);
      if (!declared)
        return Error("unknown output '" + output_name +
                     "' (not declared as an extra output)");
    }
    HIPACC_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
    HIPACC_RETURN_IF_ERROR(Expect(TokenKind::kAssign));
    Result<ExprPtr> value = ParseExpr();
    if (!value.ok()) return value.status();
    HIPACC_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon));
    if (output_name.empty())
      wrote_output_ = true;
    else
      wrote_named_.insert(output_name);
    return OutputAssign(std::move(value).take(), std::move(output_name));
  }

  Result<StmtPtr> ParseIf() {
    Advance();  // if
    HIPACC_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
    Result<ExprPtr> cond = ParseExpr();
    if (!cond.ok()) return cond.status();
    HIPACC_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
    Result<StmtPtr> then_stmt = ParseStmt();
    if (!then_stmt.ok()) return then_stmt.status();
    StmtPtr else_stmt;
    if (Match(TokenKind::kKwElse)) {
      Result<StmtPtr> parsed = ParseStmt();
      if (!parsed.ok()) return parsed.status();
      else_stmt = std::move(parsed).take();
    }
    return If(std::move(cond).take(), std::move(then_stmt).take(),
              std::move(else_stmt));
  }

  /// Canonical counted loops only:
  ///   for (int v = lo; v <= hi; v++) / v < hi / v += step.
  Result<StmtPtr> ParseFor() {
    Advance();  // for
    HIPACC_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
    HIPACC_RETURN_IF_ERROR(Expect(TokenKind::kKwInt));
    if (!Check(TokenKind::kIdent)) return Error("expected loop variable");
    const std::string var = Advance().text;
    HIPACC_RETURN_IF_ERROR(CheckFreshName(var, "loop variable"));
    HIPACC_RETURN_IF_ERROR(Expect(TokenKind::kAssign));
    PushScope();
    scopes_.back()[var] = ScalarType::kInt;
    Result<ExprPtr> lo = ParseExpr();
    if (!lo.ok()) return lo.status();
    HIPACC_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon));

    if (!Check(TokenKind::kIdent) || Peek().text != var)
      return Error("loop condition must test the loop variable '" + var + "'");
    Advance();
    bool exclusive;
    if (Match(TokenKind::kLe)) {
      exclusive = false;
    } else if (Match(TokenKind::kLt)) {
      exclusive = true;
    } else {
      return Error("loop condition must use '<=' or '<'");
    }
    Result<ExprPtr> hi = ParseExpr();
    if (!hi.ok()) return hi.status();
    HIPACC_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon));
    ExprPtr upper = std::move(hi).take();
    if (exclusive) upper = Binary(BinaryOp::kSub, upper, IntLit(1));

    int step = 1;
    if (!Check(TokenKind::kIdent) || Peek().text != var)
      return Error("loop increment must update the loop variable '" + var + "'");
    Advance();
    if (Match(TokenKind::kPlusPlus)) {
      step = 1;
    } else if (Match(TokenKind::kPlusAssign)) {
      if (!Check(TokenKind::kIntLit)) return Error("loop step must be an integer literal");
      step = static_cast<int>(Advance().int_value);
      if (step <= 0) return Error("loop step must be positive");
    } else {
      return Error("loop increment must be '++' or '+= <int>'");
    }
    HIPACC_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
    Result<StmtPtr> body = ParseStmt();
    PopScope();
    if (!body.ok()) return body.status();
    return For(var, std::move(lo).take(), std::move(upper), step,
               std::move(body).take());
  }

  Result<StmtPtr> ParseBlock() {
    HIPACC_RETURN_IF_ERROR(Expect(TokenKind::kLBrace));
    PushScope();
    std::vector<StmtPtr> stmts;
    while (!Check(TokenKind::kRBrace) && !Check(TokenKind::kEnd)) {
      Result<StmtPtr> stmt = ParseStmt();
      if (!stmt.ok()) {
        PopScope();
        return stmt.status();
      }
      stmts.push_back(std::move(stmt).take());
    }
    PopScope();
    HIPACC_RETURN_IF_ERROR(Expect(TokenKind::kRBrace));
    return Block(std::move(stmts));
  }

  // ---- expressions (precedence climbing) ----------------------------------
  Result<ExprPtr> ParseExpr() {
    const Nesting nesting(depth_);
    if (nesting.too_deep()) return TooDeep();
    return ParseTernary();
  }

  Result<ExprPtr> ParseTernary() {
    Result<ExprPtr> cond = ParseOr();
    if (!cond.ok()) return cond;
    if (!Match(TokenKind::kQuestion)) return cond;
    Result<ExprPtr> then_expr = ParseExpr();
    if (!then_expr.ok()) return then_expr;
    HIPACC_RETURN_IF_ERROR(Expect(TokenKind::kColon));
    Result<ExprPtr> else_expr = ParseExpr();
    if (!else_expr.ok()) return else_expr;
    return Conditional(std::move(cond).take(), std::move(then_expr).take(),
                       std::move(else_expr).take());
  }

  Result<ExprPtr> ParseOr() {
    Result<ExprPtr> lhs = ParseAnd();
    if (!lhs.ok()) return lhs;
    ExprPtr expr = std::move(lhs).take();
    while (Match(TokenKind::kOrOr)) {
      Result<ExprPtr> rhs = ParseAnd();
      if (!rhs.ok()) return rhs;
      expr = Binary(BinaryOp::kOr, std::move(expr), std::move(rhs).take());
    }
    return expr;
  }

  Result<ExprPtr> ParseAnd() {
    Result<ExprPtr> lhs = ParseEquality();
    if (!lhs.ok()) return lhs;
    ExprPtr expr = std::move(lhs).take();
    while (Match(TokenKind::kAndAnd)) {
      Result<ExprPtr> rhs = ParseEquality();
      if (!rhs.ok()) return rhs;
      expr = Binary(BinaryOp::kAnd, std::move(expr), std::move(rhs).take());
    }
    return expr;
  }

  Result<ExprPtr> ParseEquality() {
    Result<ExprPtr> lhs = ParseRelational();
    if (!lhs.ok()) return lhs;
    ExprPtr expr = std::move(lhs).take();
    while (Check(TokenKind::kEqEq) || Check(TokenKind::kNe)) {
      const BinaryOp op =
          Advance().kind == TokenKind::kEqEq ? BinaryOp::kEq : BinaryOp::kNe;
      Result<ExprPtr> rhs = ParseRelational();
      if (!rhs.ok()) return rhs;
      expr = Binary(op, std::move(expr), std::move(rhs).take());
    }
    return expr;
  }

  Result<ExprPtr> ParseRelational() {
    Result<ExprPtr> lhs = ParseAdditive();
    if (!lhs.ok()) return lhs;
    ExprPtr expr = std::move(lhs).take();
    while (true) {
      BinaryOp op;
      if (Check(TokenKind::kLt)) op = BinaryOp::kLt;
      else if (Check(TokenKind::kLe)) op = BinaryOp::kLe;
      else if (Check(TokenKind::kGt)) op = BinaryOp::kGt;
      else if (Check(TokenKind::kGe)) op = BinaryOp::kGe;
      else return expr;
      Advance();
      Result<ExprPtr> rhs = ParseAdditive();
      if (!rhs.ok()) return rhs;
      expr = Binary(op, std::move(expr), std::move(rhs).take());
    }
  }

  Result<ExprPtr> ParseAdditive() {
    Result<ExprPtr> lhs = ParseMultiplicative();
    if (!lhs.ok()) return lhs;
    ExprPtr expr = std::move(lhs).take();
    while (Check(TokenKind::kPlus) || Check(TokenKind::kMinus)) {
      const BinaryOp op =
          Advance().kind == TokenKind::kPlus ? BinaryOp::kAdd : BinaryOp::kSub;
      Result<ExprPtr> rhs = ParseMultiplicative();
      if (!rhs.ok()) return rhs;
      expr = Binary(op, std::move(expr), std::move(rhs).take());
    }
    return expr;
  }

  Result<ExprPtr> ParseMultiplicative() {
    Result<ExprPtr> lhs = ParseUnary();
    if (!lhs.ok()) return lhs;
    ExprPtr expr = std::move(lhs).take();
    while (Check(TokenKind::kStar) || Check(TokenKind::kSlash) ||
           Check(TokenKind::kPercent)) {
      BinaryOp op = BinaryOp::kMul;
      if (Peek().kind == TokenKind::kSlash) op = BinaryOp::kDiv;
      if (Peek().kind == TokenKind::kPercent) op = BinaryOp::kMod;
      Advance();
      Result<ExprPtr> rhs = ParseUnary();
      if (!rhs.ok()) return rhs;
      expr = Binary(op, std::move(expr), std::move(rhs).take());
    }
    return expr;
  }

  Result<ExprPtr> ParseUnary() {
    const Nesting nesting(depth_);
    if (nesting.too_deep()) return TooDeep();
    if (Match(TokenKind::kMinus)) {
      Result<ExprPtr> operand = ParseUnary();
      if (!operand.ok()) return operand;
      return Unary(UnaryOp::kNeg, std::move(operand).take());
    }
    if (Match(TokenKind::kNot)) {
      Result<ExprPtr> operand = ParseUnary();
      if (!operand.ok()) return operand;
      return Unary(UnaryOp::kNot, std::move(operand).take());
    }
    return ParsePrimary();
  }

  bool LooksLikeCast() const {
    if (!Check(TokenKind::kLParen)) return false;
    const TokenKind next = Peek(1).kind;
    return (next == TokenKind::kKwFloat || next == TokenKind::kKwInt ||
            next == TokenKind::kKwBool) &&
           Peek(2).kind == TokenKind::kRParen;
  }

  Result<ExprPtr> ParsePrimary() {
    if (LooksLikeCast()) {
      Advance();  // (
      const ScalarType type = TypeOfKeyword(Advance().kind);
      Advance();  // )
      Result<ExprPtr> operand = ParseUnary();
      if (!operand.ok()) return operand;
      return Cast(type, std::move(operand).take());
    }
    if (Match(TokenKind::kLParen)) {
      Result<ExprPtr> inner = ParseExpr();
      if (!inner.ok()) return inner;
      HIPACC_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
      return inner;
    }
    if (Check(TokenKind::kIntLit)) return IntLit(Advance().int_value);
    if (Check(TokenKind::kFloatLit)) return FloatLit(Advance().float_value);
    if (Match(TokenKind::kKwTrue)) return BoolLit(true);
    if (Match(TokenKind::kKwFalse)) return BoolLit(false);
    if (Check(TokenKind::kIdent)) return ParseIdentExpr();
    return Error(StrFormat("unexpected token '%s' in expression",
                           to_string(Peek().kind)));
  }

  Result<ExprPtr> ParseIdentExpr() {
    const std::string name = Advance().text;
    if (!Check(TokenKind::kLParen)) {
      // Inside convolve(M, ..., Input(M)), the bare mask name denotes the
      // current mask position.
      if (!convolve_mask_.empty() && name == convolve_mask_)
        return VarRef(kConvolvePosMarker, ScalarType::kInt);
      ScalarType type;
      if (!LookupVar(name, &type))
        return Error("use of undeclared identifier '" + name + "'");
      return VarRef(name, type);
    }
    if (name == "convolve") return ParseConvolve();
    // Call syntax: accessor, mask, x()/y(), or math builtin.
    Advance();  // (
    std::vector<ExprPtr> args;
    if (!Check(TokenKind::kRParen)) {
      do {
        Result<ExprPtr> arg = ParseExpr();
        if (!arg.ok()) return arg;
        args.push_back(std::move(arg).take());
      } while (Match(TokenKind::kComma));
    }
    HIPACC_RETURN_IF_ERROR(Expect(TokenKind::kRParen));

    if (const AccessorInfo* acc = FindAccessor(name)) {
      (void)acc;
      if (args.empty()) return AccessorRead(name, IntLit(0), IntLit(0));
      if (args.size() == 1) {
        // Input(M): pixel at the current convolve mask position.
        if (args[0]->kind == ExprKind::kVarRef &&
            args[0]->name == kConvolvePosMarker)
          return AccessorRead(name, VarRef(kConvolveX, ScalarType::kInt),
                              VarRef(kConvolveY, ScalarType::kInt));
        return Error("accessor '" + name +
                     "' with one argument expects the convolve mask");
      }
      if (args.size() == 2)
        return AccessorRead(name, std::move(args[0]), std::move(args[1]));
      return Error("accessor '" + name + "' takes 0 or 2 offset arguments");
    }
    if (const MaskInfo* mask = FindMask(name)) {
      (void)mask;
      // M() inside convolve(M, ...): the current coefficient.
      if (args.empty() && name == convolve_mask_)
        return MaskRead(name, VarRef(kConvolveX, ScalarType::kInt),
                        VarRef(kConvolveY, ScalarType::kInt));
      if (args.size() != 2)
        return Error("mask '" + name + "' takes exactly 2 index arguments");
      return MaskRead(name, std::move(args[0]), std::move(args[1]));
    }
    if (name == "x" || name == "y") {
      if (!args.empty()) return Error(name + "() takes no arguments");
      return IterIndex(name == "y");
    }
    const auto builtin = FindBuiltin(name);
    if (!builtin)
      return Error("function '" + name +
                   "' is not supported by the target backends");
    if (static_cast<int>(args.size()) != builtin->arity)
      return Error(StrFormat("function '%s' expects %d arguments, got %zu",
                             name.c_str(), builtin->arity, args.size()));
    return ast::Call(builtin->name, std::move(args), builtin->result);
  }

  /// Listing 9 / Section VIII: `convolve(M, SUM, <expr>)` — the paper's
  /// future-work syntax for convolutions, here with the promised constant
  /// propagation and loop unrolling. Inside <expr>, `M()` is the current
  /// coefficient and `Input(M)` the pixel at the current mask position. The
  /// mask must be compile-time constant (that is what enables propagation);
  /// the expression is replicated per tap with the coefficient folded in.
  Result<ExprPtr> ParseConvolve() {
    if (!convolve_mask_.empty()) return Error("convolve() cannot nest");
    HIPACC_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
    if (!Check(TokenKind::kIdent)) return Error("convolve expects a mask name");
    const std::string mask_name = Advance().text;
    const MaskInfo* mask = FindMask(mask_name);
    if (!mask) return Error("'" + mask_name + "' is not a mask");
    if (!mask->is_static())
      return Error("convolve requires a compile-time-constant mask for '" +
                   mask_name + "' (constant propagation)");
    HIPACC_RETURN_IF_ERROR(Expect(TokenKind::kComma));
    if (!Check(TokenKind::kIdent))
      return Error("convolve expects a reduction (SUM, MIN, MAX, PROD)");
    const std::string reduce = Advance().text;
    if (reduce != "SUM" && reduce != "MIN" && reduce != "MAX" &&
        reduce != "PROD")
      return Error("unknown convolve reduction '" + reduce + "'");
    HIPACC_RETURN_IF_ERROR(Expect(TokenKind::kComma));

    convolve_mask_ = mask_name;
    Result<ExprPtr> body = ParseExpr();
    convolve_mask_.clear();
    if (!body.ok()) return body;
    HIPACC_RETURN_IF_ERROR(Expect(TokenKind::kRParen));

    // Unroll: one folded term per mask tap.
    const int hx = mask->size_x / 2;
    const int hy = mask->size_y / 2;
    ExprPtr acc;
    for (int yf = -hy; yf <= hy; ++yf) {
      for (int xf = -hx; xf <= hx; ++xf) {
        const float coeff =
            mask->static_values[static_cast<size_t>(yf + hy) * mask->size_x +
                                (xf + hx)];
        const ExprPtr term = ast::FoldConstants(
            SubstituteConvolveTap(body.value(), *mask, xf, yf, coeff));
        if (!acc) {
          acc = term;
        } else if (reduce == "SUM") {
          acc = Binary(ast::BinaryOp::kAdd, acc, term);
        } else if (reduce == "PROD") {
          acc = Binary(ast::BinaryOp::kMul, acc, term);
        } else {
          acc = ast::Call(reduce == "MIN" ? "fmin" : "fmax", {acc, term},
                          ScalarType::kFloat);
        }
      }
    }
    return ast::FoldConstants(acc);
  }

  /// Replaces the convolve placeholders in `body` for tap (xf, yf):
  /// position variables become literals and static mask reads with literal
  /// indices become their coefficient (constant propagation).
  ExprPtr SubstituteConvolveTap(const ExprPtr& body, const MaskInfo& mask,
                                int xf, int yf, float coeff) const {
    return ast::RewriteExpr(body, [&](const ast::Expr& e) -> ExprPtr {
      if (e.kind == ExprKind::kVarRef) {
        if (e.name == kConvolveX) return IntLit(xf);
        if (e.name == kConvolveY) return IntLit(yf);
        return nullptr;
      }
      if (e.kind == ExprKind::kMaskRead && e.name == mask.name) {
        double dx = 0.0, dy = 0.0;
        // The current-coefficient form M() carries the placeholders; after
        // the VarRef rewrite above they are literals.
        if (ast::EvaluateConstant(e.args[0], &dx) &&
            ast::EvaluateConstant(e.args[1], &dy)) {
          if (static_cast<int>(dx) == xf && static_cast<int>(dy) == yf)
            return FloatLit(static_cast<double>(coeff));
          // Explicit literal index M(a, b): propagate that coefficient too.
          const int ax = static_cast<int>(dx) + mask.size_x / 2;
          const int ay = static_cast<int>(dy) + mask.size_y / 2;
          if (ax >= 0 && ax < mask.size_x && ay >= 0 && ay < mask.size_y)
            return FloatLit(static_cast<double>(
                mask.static_values[static_cast<size_t>(ay) * mask.size_x + ax]));
        }
      }
      return nullptr;
    });
  }

  static constexpr const char kConvolvePosMarker[] = "__convolve_pos";
  static constexpr const char kConvolveX[] = "__cmx";
  static constexpr const char kConvolveY[] = "__cmy";

  const AccessorInfo* FindAccessor(const std::string& name) const {
    for (const auto& a : source_.accessors)
      if (a.name == name) return &a;
    return nullptr;
  }
  const MaskInfo* FindMask(const std::string& name) const {
    for (const auto& m : source_.masks)
      if (m.name == name) return &m;
    return nullptr;
  }

  const KernelSource& source_;
  std::vector<Token> tokens_;
  size_t pos_ = 0;
  std::vector<std::map<std::string, ScalarType>> scopes_{1};
  bool wrote_output_ = false;
  /// Extra outputs assigned so far (each declared name must be written).
  std::set<std::string> wrote_named_;
  /// Mask name while parsing the body of a convolve() expression.
  std::string convolve_mask_;
  /// Open nesting levels (see kMaxNesting).
  int depth_ = 0;
};

}  // namespace

Result<ast::KernelDecl> ParseKernel(const KernelSource& source) {
  Result<std::vector<Token>> tokens = Lex(source.body);
  if (!tokens.ok()) return tokens.status();
  return Parser(source, std::move(tokens).take()).Run();
}

}  // namespace hipacc::frontend
