// Source emitters: render a lowered DeviceKernel as compilable CUDA or
// OpenCL kernel source text (the paper's actual output artifact). The region
// dispatch uses Listing 8's goto structure; boundary guards are emitted
// inline per access; textures map to tex1Dfetch/read_imagef (Listing 6);
// scratchpad staging follows Listing 7; masks become __constant__ arrays.
//
// Launch-configuration-dependent constants (block sizes, region bounds,
// scratchpad tile sizes) are emitted as #defines at the top, mirroring the
// macros the paper's exploration mode substitutes at run time.
//
// The structural walk is shared; target syntax is provided by the Backend
// interface (codegen/backend.hpp), picked by the kernel's target tag.
#pragma once

#include <string>

#include "ast/kernel_ir.hpp"
#include "hwmodel/config.hpp"

namespace hipacc::codegen {

/// Everything the emitter needs besides the kernel itself.
struct EmitContext {
  hw::KernelConfig config{128, 1};
  int image_width = 0;   ///< 0 = leave IW/IH as runtime macros
  int image_height = 0;
};

/// Renders the complete kernel source for the backend of `kernel.backend`.
std::string EmitKernelSource(const ast::DeviceKernel& kernel,
                             const EmitContext& ctx);

/// Renders a single expression in backend syntax (exposed for tests).
std::string EmitExpr(const ast::ExprPtr& expr, ast::Backend backend);

}  // namespace hipacc::codegen
