#include "runtime/kernel_runner.hpp"

#include "compiler/profile.hpp"

namespace hipacc::runtime {

KernelRunner::KernelRunner(frontend::KernelSource source)
    : KernelRunner(std::move(source), RunOptions{}) {}

KernelRunner::KernelRunner(frontend::KernelSource source, RunOptions options)
    : source_(std::move(source)), options_(std::move(options)) {}

void KernelRunner::set_device(hw::DeviceSpec device) {
  options_.device = std::move(device);
  // Invalidate the current executable; the next launch recompiles (a cache
  // hit when this device/extent pair was compiled before).
  executable_.reset();
  width_ = height_ = -1;
}

Status KernelRunner::EnsureCompiled(int width, int height) {
  if (executable_ && width == width_ && height == height_)
    return Status::Ok();

  compiler::CompileOptions copts = MakeCompileOptions(options_, width, height);
  Result<compiler::CompiledKernel> compiled = compiler::Compile(source_, copts);
  if (!compiled.ok()) return compiled.status();

  executable_.emplace(std::move(compiled).take(), options_.device,
                      options_.sim);
  if (options_.trace != nullptr) executable_->set_trace(options_.trace);
  width_ = width;
  height_ = height;
  return Status::Ok();
}

Status KernelRunner::EnsureCompiledFor(const BindingSet& bindings) {
  if (bindings.output() == nullptr)
    return Status::Invalid("no output image bound");
  return EnsureCompiled(bindings.output()->width(),
                        bindings.output()->height());
}

void KernelRunner::RecordProfile(const sim::LaunchStats& stats) {
  if (options_.profiles == nullptr || !executable_) return;
  const compiler::CompiledKernel& kernel = executable_->kernel();
  if (kernel.source_fingerprint.empty()) return;
  // Every launch feeds the reselection history: the incumbent keeps
  // accumulating samples (staying fresh), and challenge rounds re-measure
  // the heuristic's pick so a stale winner loses its seat.
  options_.profiles->Record(
      compiler::MakeProfileKey(kernel.source_fingerprint, kernel.codegen,
                               options_.device, width_, height_),
      compiler::ProfileObservation{kernel.config.config,
                                   kernel.device_ir.ppt,
                                   stats.timing.total_ms});
}

Result<sim::LaunchStats> KernelRunner::Run(const BindingSet& bindings) {
  HIPACC_RETURN_IF_ERROR(EnsureCompiledFor(bindings));
  Result<sim::LaunchStats> stats = executable_->Run(bindings);
  if (stats.ok()) RecordProfile(stats.value());
  return stats;
}

Result<sim::LaunchStats> KernelRunner::Measure(const BindingSet& bindings,
                                               int samples_per_region) {
  HIPACC_RETURN_IF_ERROR(EnsureCompiledFor(bindings));
  Result<sim::LaunchStats> stats =
      executable_->Measure(bindings, std::nullopt, samples_per_region);
  if (stats.ok()) RecordProfile(stats.value());
  return stats;
}

}  // namespace hipacc::runtime
