#include "ast/builtins.hpp"

#include <vector>

namespace hipacc::ast {
namespace {

const std::vector<BuiltinFn>& Table() {
  using S = ScalarType;
  static const std::vector<BuiltinFn> table = {
      {"exp", 1, S::kFloat, "expf", "exp", OpCost::kSfu},
      {"exp2", 1, S::kFloat, "exp2f", "exp2", OpCost::kSfu},
      {"log", 1, S::kFloat, "logf", "log", OpCost::kSfu},
      {"log2", 1, S::kFloat, "log2f", "log2", OpCost::kSfu},
      {"sqrt", 1, S::kFloat, "sqrtf", "sqrt", OpCost::kSfu},
      {"rsqrt", 1, S::kFloat, "rsqrtf", "rsqrt", OpCost::kSfu},
      {"sin", 1, S::kFloat, "sinf", "sin", OpCost::kSfu},
      {"cos", 1, S::kFloat, "cosf", "cos", OpCost::kSfu},
      {"tan", 1, S::kFloat, "tanf", "tan", OpCost::kMulti},
      {"atan", 1, S::kFloat, "atanf", "atan", OpCost::kMulti},
      {"atan2", 2, S::kFloat, "atan2f", "atan2", OpCost::kMulti},
      {"pow", 2, S::kFloat, "powf", "pow", OpCost::kMulti},
      {"fmod", 2, S::kFloat, "fmodf", "fmod", OpCost::kMulti},
      {"fabs", 1, S::kFloat, "fabsf", "fabs", OpCost::kAlu},
      {"fmin", 2, S::kFloat, "fminf", "fmin", OpCost::kAlu},
      {"fmax", 2, S::kFloat, "fmaxf", "fmax", OpCost::kAlu},
      {"floor", 1, S::kFloat, "floorf", "floor", OpCost::kAlu},
      {"ceil", 1, S::kFloat, "ceilf", "ceil", OpCost::kAlu},
      {"round", 1, S::kFloat, "roundf", "round", OpCost::kAlu},
      {"min", 2, S::kInt, "min", "min", OpCost::kAlu},
      {"max", 2, S::kInt, "max", "max", OpCost::kAlu},
      {"abs", 1, S::kInt, "abs", "abs", OpCost::kAlu},
  };
  return table;
}

}  // namespace

std::optional<BuiltinFn> FindBuiltin(const std::string& name) {
  for (const auto& fn : Table()) {
    if (fn.name == name || fn.cuda_name == name || fn.opencl_name == name)
      return fn;
  }
  return std::nullopt;
}

}  // namespace hipacc::ast
