// CUDA backend: the syntax side of the paper's primary target. Texture
// references are file-scope globals (Section IV-A), dynamically initialised
// constant masks are filled via cudaMemcpyToSymbol, and the region dispatch
// uses Listing 8's goto structure.
#include "codegen/backend.hpp"

#include "support/string_utils.hpp"

namespace hipacc::codegen {
namespace {

class CudaBackendImpl final : public Backend {
 public:
  std::string_view display_name() const noexcept override { return "CUDA"; }

  std::string KernelQualifier() const override {
    return "extern \"C\" __global__ void";
  }

  std::optional<std::string> BufferParamDecl(
      const ast::BufferParam& buf) const override {
    // Texture references are globals, not parameters.
    if (buf.space == ast::MemSpace::kTexture) return std::nullopt;
    return StrFormat("%sfloat* %s", buf.is_output ? "" : "const ",
                     buf.name.c_str());
  }

  std::vector<std::string> ExtraParams(
      const ast::DeviceKernel&) const override {
    return {};
  }

  std::string TextureDeclarations(
      const ast::DeviceKernel& kernel) const override {
    std::string out;
    // Texture references are static and globally visible in CUDA; they are
    // not kernel parameters (Section IV-A).
    for (const auto& buf : kernel.buffers) {
      if (buf.space != ast::MemSpace::kTexture) continue;
      if (buf.texture_2d_array)
        out += StrFormat(
            "texture<float, 2, cudaReadModeElementType> _tex%s;  "
            "// address mode: %s\n",
            buf.name.c_str(), to_string(kernel.boundary));
      else
        out += StrFormat("texture<float, 1, cudaReadModeElementType> _tex%s;\n",
                         buf.name.c_str());
    }
    return out;
  }

  std::string ConstantQualifier() const override {
    return "__device__ __constant__";
  }

  bool DeclaresDynamicConstMasks() const override { return true; }

  std::string SmemQualifier() const override { return "__shared__"; }

  std::string Barrier() const override { return "__syncthreads();"; }

  std::string LocalId(int dim) const override {
    return dim == 0 ? "threadIdx.x" : "threadIdx.y";
  }

  std::string GroupId(int dim) const override {
    return dim == 0 ? "blockIdx.x" : "blockIdx.y";
  }

  std::string ThreadIndex(ast::ThreadIndexKind kind) const override {
    return to_string(kind);  // canonical names are the CUDA ones
  }

  std::string BuiltinName(const ast::BuiltinFn& fn) const override {
    return fn.cuda_name;
  }

  std::string TextureRead(const ast::BufferParam& buf, const std::string& raw_x,
                          const std::string& raw_y, const std::string& adj_x,
                          const std::string& adj_y) const override {
    if (buf.texture_2d_array)
      // Hardware boundary handling: the address mode resolves indices.
      return StrFormat("tex2D(_tex%s, %s, %s)", buf.name.c_str(), raw_x.c_str(),
                       raw_y.c_str());
    return StrFormat("tex1Dfetch(_tex%s, (%s) + (%s) * STRIDE)",
                     buf.name.c_str(), adj_x.c_str(), adj_y.c_str());
  }

  bool UsesGotoDispatch() const override { return true; }
};

}  // namespace

const Backend& CudaBackend() {
  static const CudaBackendImpl backend;
  return backend;
}

}  // namespace hipacc::codegen
