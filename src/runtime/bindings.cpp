#include "runtime/bindings.hpp"

namespace hipacc::runtime {

Result<LaunchHolder> BuildLaunch(const ast::DeviceKernel& kernel,
                                 const hw::KernelConfig& config,
                                 const BindingSet& bindings) {
  auto holder = LaunchHolder{};
  sim::Launch& launch = holder.launch;
  // Reserve up front: buffer bindings hold pointers into `owned` entries and
  // must survive later push_backs.
  holder.owned.reserve(kernel.global_masks.size());
  launch.kernel = &kernel;
  launch.config = config;

  if (!bindings.output()) return Status::Invalid("no output image bound");
  dsl::Image<float>& out = *bindings.output();
  launch.width = out.width();
  launch.height = out.height();

  for (const auto& buf : kernel.buffers) {
    if (buf.is_output) {
      // "_out" is the primary output; "_out_<name>" the extra outputs of a
      // multi-output (horizontally fused) kernel, bound by name.
      dsl::Image<float>* target = &out;
      if (buf.name != "_out") {
        target = bindings.FindExtraOutput(buf.name.substr(5));
        if (target == nullptr)
          return Status::Invalid("extra output image not bound: " + buf.name);
        if (target->width() != out.width() || target->height() != out.height())
          return Status::Invalid("extra output extent mismatch: " + buf.name);
      }
      launch.buffers.push_back({buf.name, target->span().data(),
                                target->width(), target->height(),
                                target->stride(), true});
      continue;
    }
    // Global-memory mask buffer?
    bool is_mask = false;
    for (const auto& mask : kernel.global_masks) {
      if (mask.name != buf.name) continue;
      const std::vector<float>* values = bindings.FindMask(mask.name);
      if (values == nullptr)
        return Status::Invalid("mask values not bound: " + mask.name);
      if (static_cast<int>(values->size()) != mask.size_x * mask.size_y)
        return Status::Invalid("mask size mismatch: " + mask.name);
      holder.owned.push_back(*values);
      launch.buffers.push_back({mask.name, holder.owned.back().data(),
                                mask.size_x, mask.size_y, mask.size_x, false});
      is_mask = true;
      break;
    }
    if (is_mask) continue;
    dsl::Image<float>* input = bindings.FindInput(buf.name);
    if (input == nullptr)
      return Status::Invalid("input image not bound: " + buf.name);
    dsl::Image<float>& img = *input;
    // const_cast: the simulated device reads through a writable view but the
    // binding is marked read-only; the simulator rejects writes to it.
    launch.buffers.push_back({buf.name, img.span().data(), img.width(),
                              img.height(), img.stride(), false});
  }

  for (const auto& mask : kernel.const_masks) {
    if (mask.is_static()) {
      // Statically initialised constant memory: coefficients came from the
      // kernel declaration itself.
      launch.const_masks[mask.name] = mask.static_values;
      continue;
    }
    const std::vector<float>* values = bindings.FindMask(mask.name);
    if (values == nullptr)
      return Status::Invalid("mask values not bound: " + mask.name);
    launch.const_masks[mask.name] = *values;
  }

  for (const auto& [name, value] : bindings.scalars())
    launch.scalar_args[name] = value;
  return holder;
}

}  // namespace hipacc::runtime
