// Constant folding — parameterized over operator/operand/result triples,
// plus identity simplifications and foldable math calls.
#include "ast/const_fold.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "ast/printer.hpp"

namespace hipacc::ast {
namespace {

// gtest has no printer for FoldCase, so it prints the raw bytes, and CMake's
// test discovery builds the test names from them. The padding is spelled out
// and zeroed so those names do not pick up whatever was left in the holes.
struct FoldCase {
  BinaryOp op;
  std::uint32_t pad0;
  double lhs;
  double rhs;
  bool ints;
  std::uint8_t pad1[7];
  double expected;
};
static_assert(sizeof(FoldCase) == 40, "FoldCase must have no implicit padding");

FoldCase Case(BinaryOp op, double lhs, double rhs, bool ints, double expected) {
  return {op, 0, lhs, rhs, ints, {}, expected};
}

class BinaryFoldTest : public ::testing::TestWithParam<FoldCase> {};

TEST_P(BinaryFoldTest, FoldsToLiteral) {
  const FoldCase c = GetParam();
  const ExprPtr lhs = c.ints ? IntLit(static_cast<long long>(c.lhs))
                             : FloatLit(c.lhs);
  const ExprPtr rhs = c.ints ? IntLit(static_cast<long long>(c.rhs))
                             : FloatLit(c.rhs);
  const ExprPtr folded = FoldConstants(Binary(c.op, lhs, rhs));
  double value = 0.0;
  ASSERT_TRUE(EvaluateConstant(folded, &value)) << PrintExpr(folded);
  EXPECT_DOUBLE_EQ(value, c.expected);
}

INSTANTIATE_TEST_SUITE_P(
    Arithmetic, BinaryFoldTest,
    ::testing::Values(Case(BinaryOp::kAdd, 2, 3, true, 5),
                      Case(BinaryOp::kSub, 2, 3, true, -1),
                      Case(BinaryOp::kMul, -4, 3, true, -12),
                      Case(BinaryOp::kDiv, 7, 2, true, 3),    // int division
                      Case(BinaryOp::kDiv, 7, 2, false, 3.5),
                      Case(BinaryOp::kMod, 7, 3, true, 1),
                      Case(BinaryOp::kAdd, 0.5, 0.25, false, 0.75),
                      Case(BinaryOp::kLt, 1, 2, true, 1),
                      Case(BinaryOp::kGe, 1, 2, true, 0),
                      Case(BinaryOp::kEq, 3, 3, true, 1),
                      Case(BinaryOp::kNe, 3, 3, true, 0),
                      Case(BinaryOp::kAnd, 1, 0, true, 0),
                      Case(BinaryOp::kOr, 1, 0, true, 1)));

TEST(ConstFoldTest, UnaryNegAndNot) {
  double v = 0.0;
  EXPECT_TRUE(EvaluateConstant(Unary(UnaryOp::kNeg, IntLit(5)), &v));
  EXPECT_EQ(v, -5.0);
  EXPECT_TRUE(EvaluateConstant(Unary(UnaryOp::kNot, BoolLit(false)), &v));
  EXPECT_EQ(v, 1.0);
}

TEST(ConstFoldTest, IdentitiesPreserveNonConstantOperand) {
  const ExprPtr x = VarRef("x", ScalarType::kFloat);
  EXPECT_EQ(FoldConstants(Binary(BinaryOp::kAdd, x, FloatLit(0.0))), x);
  EXPECT_EQ(FoldConstants(Binary(BinaryOp::kMul, x, FloatLit(1.0))), x);
  EXPECT_EQ(FoldConstants(Binary(BinaryOp::kMul, FloatLit(1.0), x)), x);
  EXPECT_EQ(FoldConstants(Binary(BinaryOp::kSub, x, FloatLit(0.0))), x);
  // x * 0 must NOT fold for floats (x could be NaN/inf).
  const ExprPtr folded = FoldConstants(Binary(BinaryOp::kMul, x, FloatLit(0.0)));
  EXPECT_EQ(folded->kind, ExprKind::kBinary);
  // ... but folds for ints.
  const ExprPtr xi = VarRef("i", ScalarType::kInt);
  double v = -1.0;
  EXPECT_TRUE(EvaluateConstant(Binary(BinaryOp::kMul, xi, IntLit(0)), &v));
  EXPECT_EQ(v, 0.0);
}

TEST(ConstFoldTest, DivisionByZeroLeftUnfolded) {
  const ExprPtr div = Binary(BinaryOp::kDiv, IntLit(1), IntLit(0));
  EXPECT_EQ(FoldConstants(div)->kind, ExprKind::kBinary);
}

TEST(ConstFoldTest, FoldsMathCallsOnLiterals) {
  double v = 0.0;
  ASSERT_TRUE(EvaluateConstant(Call("exp", {FloatLit(0.0)}, ScalarType::kFloat), &v));
  EXPECT_FLOAT_EQ(static_cast<float>(v), 1.0f);
  ASSERT_TRUE(EvaluateConstant(Call("sqrt", {FloatLit(4.0)}, ScalarType::kFloat), &v));
  EXPECT_FLOAT_EQ(static_cast<float>(v), 2.0f);
  ASSERT_TRUE(EvaluateConstant(
      Call("fmax", {FloatLit(1.0), FloatLit(2.0)}, ScalarType::kFloat), &v));
  EXPECT_FLOAT_EQ(static_cast<float>(v), 2.0f);
  // CUDA-suffixed spellings fold too (folding runs before function mapping).
  ASSERT_TRUE(EvaluateConstant(Call("expf", {FloatLit(0.0)}, ScalarType::kFloat), &v));
  EXPECT_FLOAT_EQ(static_cast<float>(v), 1.0f);
}

TEST(ConstFoldTest, CallWithVariableArgStaysUnfolded) {
  const ExprPtr call =
      Call("exp", {VarRef("x", ScalarType::kFloat)}, ScalarType::kFloat);
  EXPECT_EQ(FoldConstants(call), call);
}

TEST(ConstFoldTest, ConditionalOnLiteralSelectsBranch) {
  const ExprPtr t = VarRef("t", ScalarType::kFloat);
  const ExprPtr f = VarRef("f", ScalarType::kFloat);
  EXPECT_EQ(FoldConstants(Conditional(BoolLit(true), t, f)), t);
  EXPECT_EQ(FoldConstants(Conditional(BoolLit(false), t, f)), f);
}

TEST(ConstFoldTest, NestedExpressionFoldsBottomUp) {
  // (2 * sigma) with sigma = 3 folded in: -2*3 .. taken from the bilateral
  // loop bounds shape: -(2*3) -> -6.
  const ExprPtr e = Unary(UnaryOp::kNeg, Binary(BinaryOp::kMul, IntLit(2), IntLit(3)));
  double v = 0.0;
  ASSERT_TRUE(EvaluateConstant(e, &v));
  EXPECT_EQ(v, -6.0);
}

TEST(ConstFoldTest, FoldsInsideStatements) {
  const StmtPtr stmt = Decl(ScalarType::kFloat, "c",
                            Binary(BinaryOp::kMul, FloatLit(2.0), FloatLit(4.0)));
  const StmtPtr folded = FoldConstants(stmt);
  ASSERT_EQ(folded->kind, StmtKind::kDecl);
  EXPECT_EQ(folded->value->kind, ExprKind::kFloatLit);
  EXPECT_DOUBLE_EQ(folded->value->float_value, 8.0);
}

TEST(ConstFoldTest, SharesUnchangedSubtrees) {
  const ExprPtr x = VarRef("x", ScalarType::kFloat);
  const ExprPtr sum = Binary(BinaryOp::kAdd, x, VarRef("y", ScalarType::kFloat));
  EXPECT_EQ(FoldConstants(sum), sum);  // nothing to fold: same node returned
}

}  // namespace
}  // namespace hipacc::ast
