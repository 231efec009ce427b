// One options struct for the pipeline graph runtime, consolidating
// codegen::CodegenOptions (how kernels are compiled), the device, forced
// configuration, trace and compilation cache, plus the profile store
// compiles pick configurations from. Runtimes only read that store; an
// exploration sweep (compiler/explore.hpp) is what writes it. Stages on the
// simulator run its default engine, the bytecode VM.
//
// The chainable with_* setters cover the common knobs:
//
//   runtime::GraphOptions options;
//   options.run = RunOptions()
//                     .with_device(hw::TeslaC2050())
//                     .with_texture(codegen::TexturePolicy::kLinear)
//                     .with_trace(&sink);
#pragma once

#include <optional>
#include <utility>

#include "codegen/options.hpp"
#include "hwmodel/config.hpp"
#include "hwmodel/device_db.hpp"

namespace hipacc::compiler {
class CompilationCache;
struct CompileOptions;
class ProfileStore;
}  // namespace hipacc::compiler

namespace hipacc::sim {
class TraceSink;
}  // namespace hipacc::sim

namespace hipacc::runtime {

struct RunOptions {
  codegen::CodegenOptions codegen;
  hw::DeviceSpec device = hw::TeslaC2050();
  /// Skip Algorithm 2 and force this launch configuration.
  std::optional<hw::KernelConfig> forced_config;
  sim::TraceSink* trace = nullptr;
  /// Compilation results are memoised here; null for the process-wide
  /// GlobalCompilationCache().
  compiler::CompilationCache* cache = nullptr;
  /// When set, every compile picks its configuration from the store's
  /// sweep records (compiler/profile.hpp). Read-only: launches never
  /// record into it; only an exploration sweep does.
  compiler::ProfileStore* profiles = nullptr;

  RunOptions& with_backend(ast::Backend backend) {
    codegen.backend = backend;
    return *this;
  }
  RunOptions& with_texture(codegen::TexturePolicy texture) {
    codegen.texture = texture;
    return *this;
  }
  RunOptions& with_border(codegen::BorderPolicy border) {
    codegen.border = border;
    return *this;
  }
  RunOptions& with_scratchpad(bool on = true) {
    codegen.use_scratchpad = on;
    return *this;
  }
  RunOptions& with_constant_masks(bool on = true) {
    codegen.masks_in_constant_memory = on;
    return *this;
  }
  RunOptions& with_device(hw::DeviceSpec spec) {
    device = std::move(spec);
    return *this;
  }
  RunOptions& with_forced_config(hw::KernelConfig config) {
    forced_config = config;
    return *this;
  }
  RunOptions& with_trace(sim::TraceSink* sink) {
    trace = sink;
    return *this;
  }
  RunOptions& with_cache(compiler::CompilationCache* c) {
    cache = c;
    return *this;
  }
  RunOptions& with_profiles(compiler::ProfileStore* p) {
    profiles = p;
    return *this;
  }
};

/// Expands RunOptions into driver CompileOptions for one target extent,
/// substituting the process-wide GlobalCompilationCache() when no cache is
/// set. Defined in run_options.cpp (hipacc_runtime_exec) — the compiler
/// layer is forward-declared here.
compiler::CompileOptions MakeCompileOptions(const RunOptions& options,
                                            int width, int height);

}  // namespace hipacc::runtime
