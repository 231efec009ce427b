// OpenCL backend: image objects with an explicit sampler instead of texture
// references, dynamically initialised constant masks as __constant kernel
// parameters, and an else-if region dispatch (same control structure as
// Listing 8 — OpenCL C has no goto).
#include "codegen/backend.hpp"

#include "support/string_utils.hpp"

namespace hipacc::codegen {
namespace {

class OpenClBackendImpl final : public Backend {
 public:
  std::string_view display_name() const noexcept override { return "OpenCL"; }

  std::string KernelQualifier() const override { return "__kernel void"; }

  std::optional<std::string> BufferParamDecl(
      const ast::BufferParam& buf) const override {
    if (buf.space == ast::MemSpace::kTexture)
      // read_only / write_only attributes from the read/write analysis.
      return StrFormat("__read_only image2d_t _img%s", buf.name.c_str());
    return StrFormat("__global %sfloat* %s", buf.is_output ? "" : "const ",
                     buf.name.c_str());
  }

  std::vector<std::string> ExtraParams(
      const ast::DeviceKernel& kernel) const override {
    std::vector<std::string> params;
    for (const auto& mask : kernel.const_masks)
      if (!mask.is_static())
        params.push_back(StrFormat("__constant float* %s", mask.name.c_str()));
    return params;
  }

  std::string TextureDeclarations(
      const ast::DeviceKernel& kernel) const override {
    bool any_tex = false;
    for (const auto& buf : kernel.buffers)
      any_tex = any_tex || buf.space == ast::MemSpace::kTexture;
    if (!any_tex) return "";
    // CL_R channel order: one float component, remaining channels zero.
    return
        "__constant sampler_t _smp = CLK_NORMALIZED_COORDS_FALSE | "
        "CLK_ADDRESS_NONE | CLK_FILTER_NEAREST;\n";
  }

  std::string ConstantQualifier() const override { return "__constant"; }

  bool DeclaresDynamicConstMasks() const override { return false; }

  std::string SmemQualifier() const override { return "__local"; }

  std::string Barrier() const override {
    return "barrier(CLK_LOCAL_MEM_FENCE);";
  }

  std::string LocalId(int dim) const override {
    return dim == 0 ? "get_local_id(0)" : "get_local_id(1)";
  }

  std::string GroupId(int dim) const override {
    return dim == 0 ? "get_group_id(0)" : "get_group_id(1)";
  }

  std::string ThreadIndex(ast::ThreadIndexKind kind) const override {
    using ast::ThreadIndexKind;
    switch (kind) {
      case ThreadIndexKind::kThreadIdxX: return "get_local_id(0)";
      case ThreadIndexKind::kThreadIdxY: return "get_local_id(1)";
      case ThreadIndexKind::kBlockIdxX: return "get_group_id(0)";
      case ThreadIndexKind::kBlockIdxY: return "get_group_id(1)";
      case ThreadIndexKind::kBlockDimX: return "get_local_size(0)";
      case ThreadIndexKind::kBlockDimY: return "get_local_size(1)";
      case ThreadIndexKind::kGridDimX: return "get_num_groups(0)";
      case ThreadIndexKind::kGridDimY: return "get_num_groups(1)";
      case ThreadIndexKind::kGlobalIdX: return "gid_x";
      case ThreadIndexKind::kGlobalIdY: return "gid_y";
      case ThreadIndexKind::kImageW: return "IW";
      case ThreadIndexKind::kImageH: return "IH";
    }
    return "?";
  }

  std::string BuiltinName(const ast::BuiltinFn& fn) const override {
    return fn.opencl_name;
  }

  std::string TextureRead(const ast::BufferParam& buf, const std::string&,
                          const std::string&, const std::string& adj_x,
                          const std::string& adj_y) const override {
    // CL_R channel order: extract the single populated component.
    return StrFormat("read_imagef(_img%s, _smp, (int2)(%s, %s)).x",
                     buf.name.c_str(), adj_x.c_str(), adj_y.c_str());
  }

  bool UsesGotoDispatch() const override { return false; }
};

}  // namespace

const Backend& OpenClBackend() {
  static const OpenClBackendImpl backend;
  return backend;
}

}  // namespace hipacc::codegen
