// Kernel launch description for the simulated device: the lowered kernel,
// the configuration, the bound buffers, mask coefficient tables, and scalar
// arguments. Produced by the runtime, consumed by the Simulator and the
// host executor. ResolveBindings is how every executor binds a launch's
// names to the tables of its register programs.
#pragma once

#include <cstdint>
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
  /// instead of collapsing onto one lane.
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

/// A launch's buffers, constant masks and scalar arguments bound to the
/// name tables of one ProgramSet, by pointer into the launch: what the VM,
/// the native tier and the host executor read. Bindings are lazy, like the
/// oracle's: an entry stays null until an instruction touches it.
struct LaunchBindings {
  struct Mask {
    const std::vector<float>* data = nullptr;
    int width = 1;
  };
  /// The value a parameter register starts each lane group with: the scalar
  /// argument (0 when unbound), rounded to float for a float parameter.
  struct Seed {
    std::uint16_t reg = 0;
    ast::ScalarType type = ast::ScalarType::kFloat;
    double value = 0.0;
  };

  const ProgramSet* programs = nullptr;
  std::vector<const BufferBinding*> buffers;  ///< per programs->buffer_names
  std::vector<Mask> masks;                    ///< per programs->const_masks
  std::vector<std::vector<Seed>> seeds;       ///< per programs->programs
};

/// Binds `launch` to the name tables of `programs`.
LaunchBindings ResolveBindings(const ProgramSet& programs,
                               const Launch& launch);

/// Ok when `launch` binds every buffer and constant mask that an
/// instruction of `programs` touches, and every stored buffer is writable;
/// else the Invalid status the VM returns when it reaches such an
/// instruction. Executors that cannot fail mid-launch check this up front.
Status CheckBindings(const ProgramSet& programs, const Launch& launch);

}  // namespace hipacc::sim
