// Table of math builtins the DSL supports, with the CUDA and OpenCL
// spellings (paper Section V-A: CUDA keeps type suffixes — expf — while
// OpenCL overloads the unsuffixed names) and a cost class used by the
// performance model (special-function-unit ops are far more expensive than
// plain ALU ops — the reason constant-memory masks pay off).
#pragma once

#include <optional>
#include <string>

#include "ast/type.hpp"

namespace hipacc::ast {

/// Execution cost class of a builtin on the modelled GPUs.
enum class OpCost {
  kAlu,    ///< single ALU issue (fabs, fmin, floor, ...)
  kSfu,    ///< special-function unit (exp, log, sqrt, sin, cos, rsqrt)
  kMulti,  ///< expanded into a multi-instruction sequence (pow, fmod)
};

struct BuiltinFn {
  std::string name;         ///< canonical (IR) name, the unsuffixed base
  int arity = 1;
  ScalarType result = ScalarType::kFloat;
  std::string cuda_name;    ///< suffixed CUDA spelling
  std::string opencl_name;  ///< OpenCL spelling
  OpCost cost = OpCost::kAlu;
};

/// Looks up a builtin by canonical, CUDA, or OpenCL spelling; the IR always
/// stores the canonical name. Returns nullopt for unsupported functions
/// (the compiler reports an error to the user in that case).
std::optional<BuiltinFn> FindBuiltin(const std::string& name);

}  // namespace hipacc::ast
