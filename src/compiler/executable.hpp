// Convenience façade tying compiler output to the simulated device — the
// equivalent of the paper's generated host code: bind arguments, launch,
// and (for the evaluation) read back the modelled kernel time.
#pragma once

#include "compiler/driver.hpp"
#include "runtime/bindings.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace hipacc::compiler {

class SimulatedExecutable {
 public:
  SimulatedExecutable(CompiledKernel kernel, hw::DeviceSpec device,
                      sim::SimulatorOptions options = {})
      : kernel_(std::move(kernel)),
        simulator_(std::move(device), std::move(options)) {}

  const CompiledKernel& kernel() const noexcept { return kernel_; }
  const hw::DeviceSpec& device() const noexcept { return simulator_.device(); }

  /// Attaches an observability sink: launch building and every simulated
  /// launch get recorded as spans (see sim::TraceSink). `tid` labels this
  /// executable's lane in the trace.
  void set_trace(sim::TraceSink* sink, int tid = 0) noexcept {
    trace_ = sink;
    trace_tid_ = tid;
    simulator_.set_trace(sink, tid);
  }

  /// Functional execution of the whole grid (exact output pixels).
  Result<sim::LaunchStats> Run(const runtime::BindingSet& bindings) const {
    Result<runtime::LaunchHolder> holder =
        BuildLaunchTraced(kernel_.config.config, bindings);
    if (!holder.ok()) return holder.status();
    holder.value().launch.programs = kernel_.bytecode.get();
    return simulator_.Execute(holder.value().launch);
  }

  /// Sampled measurement (modelled time, no output pixel written);
  /// optionally overrides the launch configuration, as the exploration mode
  /// does. `samples_per_region` bounds how many blocks per boundary region
  /// the simulator interprets.
  Result<sim::LaunchStats> Measure(
      const runtime::BindingSet& bindings,
      std::optional<hw::KernelConfig> config_override = std::nullopt,
      int samples_per_region = 3) const {
    Result<runtime::LaunchHolder> holder = BuildLaunchTraced(
        config_override.value_or(kernel_.config.config), bindings);
    if (!holder.ok()) return holder.status();
    holder.value().launch.programs = kernel_.bytecode.get();
    return simulator_.Measure(holder.value().launch, samples_per_region);
  }

 private:
  Result<runtime::LaunchHolder> BuildLaunchTraced(
      const hw::KernelConfig& config,
      const runtime::BindingSet& bindings) const {
    sim::TraceSpan span(trace_, "build_launch " + kernel_.decl.name,
                        "runtime", trace_tid_);
    return runtime::BuildLaunch(kernel_.device_ir, config, bindings);
  }

  CompiledKernel kernel_;
  sim::Simulator simulator_;
  sim::TraceSink* trace_ = nullptr;
  int trace_tid_ = 0;
};

}  // namespace hipacc::compiler
