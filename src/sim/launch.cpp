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

Status CheckBindings(const ProgramSet& programs, const Launch& launch) {
  const LaunchBindings bind = ResolveBindings(programs, launch);
  for (const Program& prog : programs.programs) {
    for (const Insn& I : prog.code) {
      const auto index = static_cast<std::size_t>(I.buffer);
      switch (I.op) {
        case Op::kLoadImage:
          if (!bind.buffers[index])
            return Status::Invalid("unbound buffer " +
                                   programs.buffer_names[index]);
          break;
        case Op::kStore:
          if (!bind.buffers[index] || !bind.buffers[index]->writable)
            return Status::Invalid("write to unbound or read-only buffer " +
                                   programs.buffer_names[index]);
          break;
        case Op::kLoadConst:
          if (!bind.masks[index].data)
            return Status::Invalid("unbound constant mask " +
                                   programs.const_masks[index].name);
          break;
        default:
          break;
      }
    }
  }
  return Status::Ok();
}

}  // namespace hipacc::sim
