// Kernel launch description for the simulated device: the lowered kernel,
// the configuration, the bound buffers, mask coefficient tables, and scalar
// arguments. Produced by the runtime, consumed by the Simulator and the
// host executor. CheckBindings is the one binding check, made before any
// block runs (Simulator::Validate, HostLaunch::Prepare); ResolveBindings is
// how every executor then binds a launch's names to the tables of its
// register programs, which cannot fail.
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
/// the native tier and the host executor read. For a launch that passed
/// CheckBindings every entry an instruction touches is bound.
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

/// Ok when `launch` binds every buffer of its kernel, writable when it is
/// an output, and every constant mask with its size_x * size_y
/// coefficients; else Invalid naming the first that is not. The programs
/// name only the kernel's buffers and masks, and lowering stores only to its
/// outputs, so no executor of a checked launch can fail on a binding.
Status CheckBindings(const Launch& launch);

}  // namespace hipacc::sim
