// The function-mapping table (paper Section V-A): CUDA keeps type suffixes,
// OpenCL overloads unsuffixed names; unsupported functions are rejected.
#include "ast/builtins.hpp"

#include <gtest/gtest.h>

namespace hipacc::ast {
namespace {

TEST(BuiltinsTest, CanonicalLookup) {
  const auto fn = FindBuiltin("exp");
  ASSERT_TRUE(fn.has_value());
  EXPECT_EQ(fn->cuda_name, "expf");
  EXPECT_EQ(fn->opencl_name, "exp");
  EXPECT_EQ(fn->arity, 1);
  EXPECT_EQ(fn->cost, OpCost::kSfu);
}

TEST(BuiltinsTest, SuffixedSpellingResolvesToSameEntry) {
  const auto by_cuda = FindBuiltin("expf");
  ASSERT_TRUE(by_cuda.has_value());
  EXPECT_EQ(by_cuda->name, "exp");
}

TEST(BuiltinsTest, TwoArgumentFunctions) {
  const auto fn = FindBuiltin("fminf");
  ASSERT_TRUE(fn.has_value());
  EXPECT_EQ(fn->arity, 2);
  EXPECT_EQ(fn->cost, OpCost::kAlu);
  const auto pow_fn = FindBuiltin("pow");
  ASSERT_TRUE(pow_fn.has_value());
  EXPECT_EQ(pow_fn->cost, OpCost::kMulti);
}

TEST(BuiltinsTest, IntegerFunctions) {
  const auto fn = FindBuiltin("min");
  ASSERT_TRUE(fn.has_value());
  EXPECT_EQ(fn->result, ScalarType::kInt);
}

TEST(BuiltinsTest, UnsupportedFunctionReturnsNullopt) {
  EXPECT_FALSE(FindBuiltin("erfinv").has_value());
  EXPECT_FALSE(FindBuiltin("").has_value());
  EXPECT_FALSE(FindBuiltin("printf").has_value());
}

TEST(BuiltinsTest, CostClassesCoverAllTrigAndRoots) {
  for (const char* name : {"sqrt", "rsqrt", "log", "sin", "cos"}) {
    const auto fn = FindBuiltin(name);
    ASSERT_TRUE(fn.has_value()) << name;
    EXPECT_EQ(fn->cost, OpCost::kSfu) << name;
  }
  for (const char* name : {"fabs", "floor", "ceil", "round"}) {
    const auto fn = FindBuiltin(name);
    ASSERT_TRUE(fn.has_value()) << name;
    EXPECT_EQ(fn->cost, OpCost::kAlu) << name;
  }
}

}  // namespace
}  // namespace hipacc::ast
