#include "sim/options.hpp"

namespace hipacc::sim {

const char* to_string(ExecEngine engine) noexcept {
  switch (engine) {
    case ExecEngine::kBytecode: return "bytecode";
    case ExecEngine::kNative: return "native";
  }
  return "?";
}

Result<ExecEngine> ParseExecEngine(const std::string& text) {
  if (text == "bytecode") return ExecEngine::kBytecode;
  if (text == "native") return ExecEngine::kNative;
  return Status::Invalid("unknown simulator engine '" + text +
                         "' (expected 'bytecode' or 'native')");
}

}  // namespace hipacc::sim
