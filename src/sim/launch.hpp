// Kernel launch description for the simulated device: the lowered kernel,
// the configuration, the bound buffers, mask coefficient tables, and scalar
// arguments. Produced by the runtime, consumed by the Simulator.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "ast/kernel_ir.hpp"
#include "hwmodel/config.hpp"
#include "sim/memory.hpp"

namespace hipacc::sim {

struct ProgramSet;  // sim/bytecode.hpp

struct Launch {
  const ast::DeviceKernel* kernel = nullptr;
  /// Register programs compiled from `kernel` (owned by the compiled
  /// artifact, or by whoever built the launch). Required: the simulator
  /// rejects a launch without them.
  const ProgramSet* programs = nullptr;
  hw::KernelConfig config{128, 1};
  /// Iteration space == output image extent.
  int width = 0;
  int height = 0;
  /// Frame epoch in a streaming run (0 for one-shot launches). Purely
  /// observational: trace spans of overlapped frames separate by epoch
  /// instead of collapsing onto one lane, and profile-store feeding batches
  /// per epoch.
  long long epoch = 0;
  std::vector<BufferBinding> buffers;
  /// Mask name -> row-major coefficients (constant-memory masks; global-mask
  /// buffers appear in `buffers` instead).
  std::map<std::string, std::vector<float>> const_masks;
  std::map<std::string, double> scalar_args;

  const BufferBinding* FindBuffer(const std::string& name) const {
    for (const auto& buf : buffers)
      if (buf.name == name) return &buf;
    return nullptr;
  }
};

}  // namespace hipacc::sim
