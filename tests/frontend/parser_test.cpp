#include "frontend/parser.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ast/const_fold.hpp"
#include "ast/printer.hpp"
#include "ast/visitor.hpp"
#include "ops/kernel_sources.hpp"

namespace hipacc::frontend {
namespace {

using ast::ExprKind;
using ast::ScalarType;
using ast::StmtKind;

KernelSource MinimalSource(const std::string& body) {
  KernelSource src;
  src.name = "test_kernel";
  src.params = {{"gain", ScalarType::kFloat}};
  src.accessors = {{"Input", {1, 1}, ast::BoundaryMode::kClamp, 0.0f}};
  ast::MaskInfo mask;
  mask.name = "M";
  mask.size_x = mask.size_y = 3;
  src.masks = {mask};
  src.body = body;
  return src;
}

TEST(ParserTest, ParsesBilateralListing) {
  const KernelSource src = ops::BilateralSource(3, ast::BoundaryMode::kMirror);
  auto kernel = ParseKernel(src);
  ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
  EXPECT_EQ(kernel.value().name, "bilateral");
  EXPECT_EQ(kernel.value().accessors.size(), 1u);
  // The body contains two nested loops and an output assignment.
  int fors = 0, outputs = 0;
  ast::VisitStmts(kernel.value().body, [&](const ast::Stmt& s) {
    if (s.kind == StmtKind::kFor) ++fors;
    if (s.kind == StmtKind::kOutputAssign) ++outputs;
  });
  EXPECT_EQ(fors, 2);
  EXPECT_EQ(outputs, 1);
}

TEST(ParserTest, AccessorReadForms) {
  auto kernel = ParseKernel(MinimalSource(
      "output() = Input() + Input(1, -1) + gain;"));
  ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
  int center = 0, offset = 0;
  ast::VisitExprs(kernel.value().body, [&](const ast::Expr& e) {
    if (e.kind != ExprKind::kAccessorRead) return;
    double dx = 0.0;
    if (ast::EvaluateConstant(e.args[0], &dx) && dx == 0.0) ++center;
    else ++offset;
  });
  EXPECT_EQ(center, 1);
  EXPECT_EQ(offset, 1);
}

TEST(ParserTest, MaskReadAndMathCalls) {
  auto kernel = ParseKernel(MinimalSource(
      "float s = exp(-1.0f) * M(0, 0);\n"
      "output() = fmin(s, 1.0f);"));
  ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
  bool saw_mask = false, saw_exp = false, saw_fmin = false;
  ast::VisitExprs(kernel.value().body, [&](const ast::Expr& e) {
    if (e.kind == ExprKind::kMaskRead && e.name == "M") saw_mask = true;
    if (e.kind == ExprKind::kCall && e.name == "exp") saw_exp = true;
    if (e.kind == ExprKind::kCall && e.name == "fmin") saw_fmin = true;
  });
  EXPECT_TRUE(saw_mask);
  EXPECT_TRUE(saw_exp);
  EXPECT_TRUE(saw_fmin);
}

TEST(ParserTest, CudaSuffixedSpellingCanonicalises) {
  auto kernel = ParseKernel(MinimalSource("output() = expf(Input());"));
  ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
  bool canonical = false;
  ast::VisitExprs(kernel.value().body, [&](const ast::Expr& e) {
    if (e.kind == ExprKind::kCall) canonical = e.name == "exp";
  });
  EXPECT_TRUE(canonical);
}

TEST(ParserTest, IterationIndicesParse) {
  auto kernel = ParseKernel(MinimalSource(
      "output() = Input() + (float)(x() + y());"));
  ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
  int idx = 0;
  ast::VisitExprs(kernel.value().body, [&](const ast::Expr& e) {
    if (e.kind == ExprKind::kIterIndex) ++idx;
  });
  EXPECT_EQ(idx, 2);
}

TEST(ParserTest, OperatorPrecedence) {
  auto kernel = ParseKernel(MinimalSource(
      "float v = 1.0f + 2.0f * 3.0f;\n"
      "output() = v;"));
  ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
  // 1 + (2*3) = 7 after folding.
  double value = 0.0;
  const ast::StmtPtr decl = kernel.value().body->body.front();
  ASSERT_TRUE(ast::EvaluateConstant(decl->value, &value));
  EXPECT_DOUBLE_EQ(value, 7.0);
}

TEST(ParserTest, TernaryAndLogical) {
  auto kernel = ParseKernel(MinimalSource(
      "output() = Input() > 0.5f && Input() < 1.0f ? 1.0f : 0.0f;"));
  ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
}

TEST(ParserTest, ForLoopVariants) {
  // <= form, < form, ++, += step.
  EXPECT_TRUE(ParseKernel(MinimalSource(
      "float s = 0.0f;\n"
      "for (int i = 0; i <= 3; i++) { s += 1.0f; }\n"
      "for (int j = 0; j < 4; j++) { s += 1.0f; }\n"
      "for (int k = -2; k <= 2; k += 2) { s += 1.0f; }\n"
      "output() = s;")).ok());
}

TEST(ParserTest, MultiDeclarationStatement) {
  auto kernel = ParseKernel(MinimalSource(
      "float a = 1.0f, b = 2.0f, c;\n"
      "c = a + b;\n"
      "output() = c;"));
  ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
}

TEST(ParserTest, ScopingAllowsShadowBlocks) {
  EXPECT_TRUE(ParseKernel(MinimalSource(
      "float a = 1.0f;\n"
      "if (a > 0.0f) { float b = 2.0f; a = b; }\n"
      "output() = a;")).ok());
  // Sibling scopes may redeclare a name, with a new type too: the two `t`s
  // are never visible together.
  EXPECT_TRUE(ParseKernel(MinimalSource(
      "float r = Input();\n"
      "if (r > 0.6f) { int t = 2; r = r + t; }\n"
      "else { float t = 0.5f; r = r + t; }\n"
      "output() = r;")).ok());
}

// ---- error cases ----------------------------------------------------------

TEST(ParserErrorTest, UndeclaredVariable) {
  const auto result = ParseKernel(MinimalSource("output() = nope;"));
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("undeclared"), std::string::npos);
}

TEST(ParserErrorTest, UnsupportedFunctionIsRejected) {
  // Section V-A: "In case a function is not supported, our compiler emits an
  // error message to the user."
  const auto result = ParseKernel(MinimalSource("output() = erfinv(1.0f);"));
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("not supported"), std::string::npos);
}

TEST(ParserErrorTest, FunctionArityChecked) {
  EXPECT_FALSE(ParseKernel(MinimalSource("output() = exp(1.0f, 2.0f);")).ok());
  EXPECT_FALSE(ParseKernel(MinimalSource("output() = fmin(1.0f);")).ok());
}

TEST(ParserErrorTest, AccessorArityChecked) {
  EXPECT_FALSE(ParseKernel(MinimalSource("output() = Input(1);")).ok());
  EXPECT_FALSE(ParseKernel(MinimalSource("output() = Input(1, 2, 3);")).ok());
}

TEST(ParserErrorTest, MaskRequiresTwoIndices) {
  EXPECT_FALSE(ParseKernel(MinimalSource("output() = M(0);")).ok());
}

TEST(ParserErrorTest, ParametersAreReadOnly) {
  const auto result =
      ParseKernel(MinimalSource("gain = 2.0f;\noutput() = gain;"));
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("read-only"), std::string::npos);
}

TEST(ParserErrorTest, MissingOutputAssignment) {
  const auto result = ParseKernel(MinimalSource("float a = 1.0f;"));
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("output"), std::string::npos);
}

TEST(ParserErrorTest, RedeclarationInSameScope) {
  EXPECT_FALSE(ParseKernel(MinimalSource(
      "float a = 1.0f;\nfloat a = 2.0f;\noutput() = a;")).ok());
}

/// Parses `body` expecting a parse error that names variable `name`.
void ExpectShadowingRejected(const std::string& body, const std::string& name) {
  const auto result = ParseKernel(MinimalSource(body));
  ASSERT_FALSE(result.ok()) << body;
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
  EXPECT_NE(result.status().message().find("'" + name + "'"),
            std::string::npos)
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("shadows"), std::string::npos)
      << result.status().ToString();
}

TEST(ParserErrorTest, ShadowingDeclarationsRejected) {
  // The simulator binds locals by name, so a shadowing declaration would
  // clobber the outer variable (the first two would write the inner value,
  // the loop nest would sum 3 instead of 9) where the emitted CUDA keeps
  // the two apart. A nested local may not shadow a parameter either.
  ExpectShadowingRejected(
      "float a = Input();\n"
      "if (a > 0.6f) { float a = 2.0f; }\n"
      "output() = a;",
      "a");
  ExpectShadowingRejected(
      "float a = Input();\n"
      "if (a > 0.6f) { int a = 2; }\n"
      "output() = a;",
      "a");
  ExpectShadowingRejected(
      "float acc = 0.0f;\n"
      "for (int i = 0; i < 3; i++) {\n"
      "  for (int i = 0; i < 3; i++) { acc += Input(); }\n"
      "}\n"
      "output() = acc;",
      "i");
  ExpectShadowingRejected(
      "float a = Input();\n"
      "if (a > 0.5f) { float gain = 2.0f; a = a * gain; }\n"
      "output() = a;",
      "gain");
}

TEST(ParserErrorTest, NonCanonicalLoopsRejected) {
  EXPECT_FALSE(ParseKernel(MinimalSource(
      "for (int i = 0; i >= -3; i++) { }\noutput() = 0.0f;")).ok());
  EXPECT_FALSE(ParseKernel(MinimalSource(
      "for (int i = 0; i <= 3; i -= 1) { }\noutput() = 0.0f;")).ok());
}

std::string Repeat(const std::string& text, int count) {
  std::string out;
  out.reserve(text.size() * static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) out += text;
  return out;
}

TEST(ParserErrorTest, DeepNestingIsAParseError) {
  // The parser recurses once per nesting level, so 100,000 levels of any
  // recursive form used to overflow the stack. Each must come back as a
  // parse error naming the line and column where the bound was crossed.
  constexpr int kDeep = 100000;
  const std::vector<std::string> bodies = {
      "output() = " + Repeat("(", kDeep) + "Input()" + Repeat(")", kDeep) +
          ";",
      "output() = " + Repeat("- ", kDeep) + "Input();",
      "output() = " + Repeat("(float)", kDeep) + "Input();",
      "output() = " + Repeat("gain > 0.0f ? Input() : ", kDeep) + "Input();",
      Repeat("{", kDeep) + "output() = Input();" + Repeat("}", kDeep),
      Repeat("if (gain > 0.0f) ", kDeep) + "output() = Input();",
  };
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    const auto result = ParseKernel(MinimalSource(bodies[i]));
    ASSERT_FALSE(result.ok()) << "form " << i;
    EXPECT_EQ(result.status().code(), StatusCode::kParseError) << "form " << i;
    EXPECT_NE(result.status().message().find("test_kernel:1:"),
              std::string::npos)
        << result.status().message();
    EXPECT_NE(result.status().message().find("nesting deeper than"),
              std::string::npos)
        << result.status().message();
  }
  // Nested loops need distinct variables. One per line: the error names
  // the line where the bound was crossed, not the first.
  std::string loops;
  for (int i = 0; i < 2000; ++i)
    loops += "for (int i" + std::to_string(i) + " = 0; i" + std::to_string(i) +
             " < 1; i" + std::to_string(i) + "++)\n";
  const auto result =
      ParseKernel(MinimalSource(loops + "output() = Input();"));
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("nesting deeper than"),
            std::string::npos)
      << result.status().message();
  EXPECT_EQ(result.status().message().find("test_kernel:1:"),
            std::string::npos)
      << result.status().message();

  // Moderate nesting of every form still parses.
  for (const std::string& body :
       {"output() = " + Repeat("(", 100) + "Input()" + Repeat(")", 100) + ";",
        "output() = " + Repeat("- ", 100) + "Input();",
        Repeat("{", 100) + "output() = Input();" + Repeat("}", 100)}) {
    const auto ok = ParseKernel(MinimalSource(body));
    EXPECT_TRUE(ok.ok()) << ok.status().ToString();
  }
}

TEST(ParserErrorTest, SyntaxErrorsCarryLocation) {
  const auto result = ParseKernel(MinimalSource("output() = ;"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
  EXPECT_NE(result.status().message().find("test_kernel:"), std::string::npos);
}

}  // namespace
}  // namespace hipacc::frontend
