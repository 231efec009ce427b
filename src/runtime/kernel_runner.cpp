#include "runtime/kernel_runner.hpp"

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

Result<sim::LaunchStats> KernelRunner::Run(const BindingSet& bindings) {
  HIPACC_RETURN_IF_ERROR(EnsureCompiledFor(bindings));
  return executable_->Run(bindings);
}

Result<sim::LaunchStats> KernelRunner::Measure(const BindingSet& bindings,
                                               int samples_per_region) {
  HIPACC_RETURN_IF_ERROR(EnsureCompiledFor(bindings));
  return executable_->Measure(bindings, std::nullopt, samples_per_region);
}

}  // namespace hipacc::runtime
