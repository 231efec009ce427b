// Scalar optimizer: CSE must collapse repeated reads, LICM must hoist
// loop-invariant reads/calls, and neither may change results (the functional
// equivalence is covered end-to-end by the integration tests; here we check
// the structural transformations directly).
#include "codegen/scalar_opt.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "ast/printer.hpp"
#include "ast/visitor.hpp"

namespace hipacc::codegen {
namespace {

using namespace hipacc::ast;

ExprPtr Read(const std::string& buf, ExprPtr x, ExprPtr y) {
  return MemRead(MemSpace::kGlobal, buf, std::move(x), std::move(y),
                 BoundaryMode::kUndefined, {});
}

int CountReads(const StmtPtr& stmt) {
  int reads = 0;
  VisitExprs(stmt, [&reads](const Expr& e) {
    if (e.kind == ExprKind::kMemRead) ++reads;
  });
  return reads;
}

TEST(ScalarOptTest, CseCollapsesDuplicateReads) {
  // d = IN[i, 0] + IN[i, 0];  e = IN[i, 0];
  const ExprPtr read = Read("IN", VarRef("i", ScalarType::kInt), IntLit(0));
  const StmtPtr body = Block({
      Decl(ScalarType::kFloat, "d", Binary(BinaryOp::kAdd, read, read)),
      Decl(ScalarType::kFloat, "e", read),
  });
  const StmtPtr optimized = OptimizeScalars(body);
  EXPECT_EQ(CountReads(optimized), 1);
  // The temp feeds both uses.
  const std::string text = PrintStmt(optimized);
  EXPECT_NE(text.find("_cse0"), std::string::npos);
}

TEST(ScalarOptTest, CseRespectsAssignedVariables) {
  // t is reassigned between the two uses of fmin(p, t): must NOT merge.
  const ExprPtr call = Call(
      "fmin",
      {VarRef("p", ScalarType::kFloat), VarRef("t", ScalarType::kFloat)},
      ScalarType::kFloat);
  const StmtPtr body = Block({
      Decl(ScalarType::kFloat, "a", call),
      Assign("t", AssignOp::kAssign, FloatLit(0.0)),
      Decl(ScalarType::kFloat, "b", call),
  });
  const StmtPtr optimized = OptimizeScalars(body);
  int calls = 0;
  VisitExprs(optimized, [&calls](const Expr& e) {
    if (e.kind == ExprKind::kCall) ++calls;
  });
  EXPECT_EQ(calls, 2);  // both call sites survive
}

TEST(ScalarOptTest, LicmHoistsInvariantRead) {
  // for i: s += IN[gid_x, gid_y]  -> read hoisted out of the loop.
  const ExprPtr center =
      Read("IN", ast::ThreadIndex(ThreadIndexKind::kGlobalIdX),
           ast::ThreadIndex(ThreadIndexKind::kGlobalIdY));
  const StmtPtr body = Block({
      Decl(ScalarType::kFloat, "s", FloatLit(0.0)),
      For("i", IntLit(0), IntLit(9), 1,
          Block({Assign("s", AssignOp::kAddAssign, center)})),
  });
  const StmtPtr optimized = OptimizeScalars(body);
  // The read appears before the loop, not inside it.
  ASSERT_EQ(optimized->kind, StmtKind::kBlock);
  bool read_in_loop = false;
  for (const auto& child : optimized->body) {
    if (child->kind == StmtKind::kFor)
      VisitExprs(child, [&](const Expr& e) {
        if (e.kind == ExprKind::kMemRead) read_in_loop = true;
      });
  }
  EXPECT_FALSE(read_in_loop);
  EXPECT_EQ(CountReads(optimized), 1);
}

TEST(ScalarOptTest, LoopVariantReadsStayInLoop) {
  const ExprPtr varying =
      Read("IN", VarRef("i", ScalarType::kInt), IntLit(0));
  const StmtPtr body = Block({
      Decl(ScalarType::kFloat, "s", FloatLit(0.0)),
      For("i", IntLit(0), IntLit(9), 1,
          Block({Assign("s", AssignOp::kAddAssign, varying)})),
  });
  const StmtPtr optimized = OptimizeScalars(body);
  bool read_in_loop = false;
  for (const auto& child : optimized->body)
    if (child->kind == StmtKind::kFor)
      VisitExprs(child, [&](const Expr& e) {
        if (e.kind == ExprKind::kMemRead) read_in_loop = true;
      });
  EXPECT_TRUE(read_in_loop);
}

TEST(ScalarOptTest, NestedLoopsHoistToOutermostLegalLevel) {
  // for y { for x { s += IN[gid, gid] } } -> hoisted above the y loop.
  const ExprPtr center =
      Read("IN", ast::ThreadIndex(ThreadIndexKind::kGlobalIdX),
           ast::ThreadIndex(ThreadIndexKind::kGlobalIdY));
  const StmtPtr body = Block({
      Decl(ScalarType::kFloat, "s", FloatLit(0.0)),
      For("y", IntLit(0), IntLit(3), 1,
          Block({For("x", IntLit(0), IntLit(3), 1,
                     Block({Assign("s", AssignOp::kAddAssign, center)}))})),
  });
  const StmtPtr optimized = OptimizeScalars(body);
  // Statement order at the top level: s decl, hoisted temp, outer loop.
  bool before_loop = false;
  for (const auto& child : optimized->body) {
    if (child->kind == StmtKind::kDecl && CountReads(child) == 1)
      before_loop = true;
    if (child->kind == StmtKind::kFor) {
      EXPECT_TRUE(before_loop);
      EXPECT_EQ(CountReads(child), 0);
    }
  }
  EXPECT_TRUE(before_loop);
}

TEST(ScalarOptTest, HoistedTemporariesAreDeclaredBeforeUse) {
  // for y { for x { s += exp(fmin(4, p * 2)) } }: the inner loop hoists
  // fmin(...) as a temporary and leaves exp(temp) behind, which the outer
  // loop hoists again. The second hoist reads the first, so the first must
  // be declared ahead of it (the emitted source would not compile, and the
  // bytecode compiler reports a read before declaration).
  const ExprPtr invariant = Call(
      "exp",
      {Call("fmin",
            {FloatLit(4.0), Binary(BinaryOp::kMul,
                                   VarRef("p", ScalarType::kFloat),
                                   FloatLit(2.0))},
            ScalarType::kFloat)},
      ScalarType::kFloat);
  const StmtPtr body = Block({
      Decl(ScalarType::kFloat, "s", FloatLit(0.0)),
      For("y", IntLit(0), IntLit(3), 1,
          Block({For("x", IntLit(0), IntLit(3), 1,
                     Block({Assign("s", AssignOp::kAddAssign, invariant)}))})),
  });
  const StmtPtr optimized = OptimizeScalars(body);
  std::set<std::string> declared = {"p"};
  int hoisted = 0;
  for (const auto& child : optimized->body) {
    VisitExprs(child, [&](const Expr& e) {
      if (e.kind == ExprKind::kVarRef && e.name[0] == '_') {
        EXPECT_TRUE(declared.count(e.name))
            << e.name << " is read before its declaration in\n"
            << PrintStmt(optimized);
      }
    });
    if (child->kind == StmtKind::kDecl) {
      declared.insert(child->name);
      if (child->name[0] == '_') ++hoisted;
    }
  }
  EXPECT_GE(hoisted, 2) << PrintStmt(optimized);
}

TEST(ScalarOptTest, PlainArithmeticUntouched) {
  const StmtPtr body = Block({
      Decl(ScalarType::kFloat, "a",
           Binary(BinaryOp::kAdd, VarRef("x", ScalarType::kFloat),
                  VarRef("y", ScalarType::kFloat))),
      Decl(ScalarType::kFloat, "b",
           Binary(BinaryOp::kAdd, VarRef("x", ScalarType::kFloat),
                  VarRef("y", ScalarType::kFloat))),
  });
  // (x + y) twice, but without a read/call it is not hoistworthy.
  const StmtPtr optimized = OptimizeScalars(body);
  EXPECT_EQ(PrintStmt(optimized), PrintStmt(body));
}

}  // namespace
}  // namespace hipacc::codegen
