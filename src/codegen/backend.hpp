// Target backends for the source emitter. The structural walk over the
// lowered DeviceKernel (region dispatch, scratchpad staging,
// statement/expression recursion) is shared; everything that is target
// *syntax* — kernel qualifiers, thread-index spellings, texture access,
// barriers, the CUDA/OpenCL side of the function-mapping table — goes
// through this interface, implemented once per target.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ast/builtins.hpp"
#include "ast/kernel_ir.hpp"

namespace hipacc::codegen {

struct EmitContext;

/// Target-syntax provider consumed by the shared emitter core.
class Backend {
 public:
  virtual ~Backend() = default;

  /// Human-readable language name used in the emitted header ("CUDA").
  virtual std::string_view display_name() const noexcept = 0;

  /// Renders the complete kernel source using the shared emitter core
  /// parameterised by this backend's syntax hooks.
  std::string EmitKernel(const ast::DeviceKernel& kernel,
                         const EmitContext& ctx) const;

  // ---- syntax hooks --------------------------------------------------------
  /// Function qualifier introducing the kernel definition.
  virtual std::string KernelQualifier() const = 0;
  /// Parameter declaration for one buffer; nullopt removes it from the
  /// signature (CUDA texture references are globals, not parameters).
  virtual std::optional<std::string> BufferParamDecl(
      const ast::BufferParam& buf) const = 0;
  /// Extra parameters appended after the buffers (OpenCL passes dynamically
  /// initialised constant masks as __constant pointers).
  virtual std::vector<std::string> ExtraParams(
      const ast::DeviceKernel& kernel) const = 0;
  /// File-scope texture/sampler declarations.
  virtual std::string TextureDeclarations(
      const ast::DeviceKernel& kernel) const = 0;
  /// Qualifier for file-scope constant-memory arrays.
  virtual std::string ConstantQualifier() const = 0;
  /// Whether dynamically initialised constant masks are declared at file
  /// scope (CUDA: yes, filled via cudaMemcpyToSymbol; OpenCL: no, they are
  /// kernel parameters instead).
  virtual bool DeclaresDynamicConstMasks() const = 0;
  /// Qualifier declaring a scratchpad array.
  virtual std::string SmemQualifier() const = 0;
  /// Work-group barrier statement (no trailing newline).
  virtual std::string Barrier() const = 0;
  /// Local / group index spelling per dimension (0 = x, 1 = y).
  virtual std::string LocalId(int dim) const = 0;
  virtual std::string GroupId(int dim) const = 0;
  /// Spelling of one thread-index builtin.
  virtual std::string ThreadIndex(ast::ThreadIndexKind kind) const = 0;
  /// This backend's side of the function-mapping table (Section V-A).
  virtual std::string BuiltinName(const ast::BuiltinFn& fn) const = 0;
  /// Texture read. `raw_*` are the unadjusted indices (hardware address
  /// modes resolve them in the texture unit); `adj_*` carry the software
  /// boundary adjustment.
  virtual std::string TextureRead(const ast::BufferParam& buf,
                                  const std::string& raw_x,
                                  const std::string& raw_y,
                                  const std::string& adj_x,
                                  const std::string& adj_y) const = 0;
  /// Region dispatch style: goto labels (Listing 8) or an else-if chain.
  virtual bool UsesGotoDispatch() const = 0;
};

/// Built-in backends (shared singletons).
const Backend& CudaBackend();
const Backend& OpenClBackend();

/// The built-in backend of a lowered kernel's target tag.
const Backend& FindBackend(ast::Backend id) noexcept;

}  // namespace hipacc::codegen
