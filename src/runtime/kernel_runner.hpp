// Cached execute path: the host-side object an application holds to launch
// a DSL kernel repeatedly. The first Run() compiles the kernel for the
// bound output's extent through the compilation cache
// (compiler/cache.hpp); subsequent launches with an unchanged target reuse
// the compiled artifact directly — no parse, no lowering, not even a cache
// probe. Changing the device or launching on a different image extent
// recompiles through the cache, so switching back and forth (the paper's
// retargeting scenario) hits instead of recompiling. With
// RunOptions::profiles set, each compile picks its configuration from the
// store's sweep records; launches never record into the store.
//
// Lives in its own library (hipacc_runtime_exec) because it sits above the
// compiler: hipacc_compiler links hipacc_runtime, so the low-level binding
// layer must stay compiler-free.
#pragma once

#include <optional>

#include "compiler/cache.hpp"
#include "compiler/driver.hpp"
#include "compiler/executable.hpp"
#include "frontend/parser.hpp"
#include "runtime/bindings.hpp"
#include "runtime/run_options.hpp"

namespace hipacc::runtime {

class KernelRunner {
 public:
  explicit KernelRunner(frontend::KernelSource source);
  KernelRunner(frontend::KernelSource source, RunOptions options);

  /// Functional execution of the whole grid on the bound output's extent.
  Result<sim::LaunchStats> Run(const BindingSet& bindings);

  /// Sampled measurement (modelled kernel time).
  Result<sim::LaunchStats> Measure(const BindingSet& bindings,
                                   int samples_per_region = 3);

  /// Re-targets subsequent launches to `device`; the next Run recompiles
  /// (through the cache) for it.
  void set_device(hw::DeviceSpec device);

  /// Artifact backing the current target; null before the first launch.
  const compiler::CompiledKernel* compiled() const {
    return executable_ ? &executable_->kernel() : nullptr;
  }

 private:
  /// Compiles for (width, height) unless the current executable already
  /// matches that extent and the current device.
  Status EnsureCompiled(int width, int height);
  Status EnsureCompiledFor(const BindingSet& bindings);

  frontend::KernelSource source_;
  RunOptions options_;
  int width_ = -1;
  int height_ = -1;
  std::optional<compiler::SimulatedExecutable> executable_;
};

}  // namespace hipacc::runtime
