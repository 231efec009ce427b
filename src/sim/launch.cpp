#include "sim/launch.hpp"

#include "sim/bytecode.hpp"

namespace hipacc::sim {

LaunchBindings ResolveBindings(const ProgramSet& programs,
                               const Launch& launch) {
  LaunchBindings bind;
  bind.programs = &programs;
  bind.buffers.reserve(programs.buffer_names.size());
  for (const std::string& name : programs.buffer_names)
    bind.buffers.push_back(launch.FindBuffer(name));
  bind.masks.reserve(programs.const_masks.size());
  for (const ProgramSet::MaskRef& ref : programs.const_masks) {
    LaunchBindings::Mask mask;
    const auto it = launch.const_masks.find(ref.name);
    if (it != launch.const_masks.end()) mask.data = &it->second;
    mask.width = ref.width;
    bind.masks.push_back(mask);
  }
  bind.seeds.resize(programs.programs.size());
  for (std::size_t p = 0; p < programs.programs.size(); ++p) {
    for (const ParamSeed& param : programs.programs[p].params) {
      const auto it = launch.scalar_args.find(param.name);
      const double v = it != launch.scalar_args.end() ? it->second : 0.0;
      bind.seeds[p].push_back(LaunchBindings::Seed{
          param.reg, param.type,
          param.type == ast::ScalarType::kFloat
              ? static_cast<double>(static_cast<float>(v))
              : v});
    }
  }
  return bind;
}

Status CheckBindings(const Launch& launch) {
  for (const ast::BufferParam& buf : launch.kernel->buffers) {
    const BufferBinding* bound = launch.FindBuffer(buf.name);
    if (!bound) return Status::Invalid("buffer not bound: " + buf.name);
    if (buf.is_output && !bound->writable)
      return Status::Invalid("output buffer bound read-only: " + buf.name);
  }
  for (const ast::MaskInfo& mask : launch.kernel->const_masks) {
    const auto it = launch.const_masks.find(mask.name);
    if (it == launch.const_masks.end())
      return Status::Invalid("constant mask not bound: " + mask.name);
    if (static_cast<int>(it->second.size()) != mask.size_x * mask.size_y)
      return Status::Invalid("constant mask size mismatch: " + mask.name);
  }
  return Status::Ok();
}

}  // namespace hipacc::sim
