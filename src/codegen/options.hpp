// Codegen options: which backend to target and which memory-hierarchy
// optimizations to apply. The defaults correspond to what the paper's
// compiler selects from its micro-benchmark database; the evaluation tables
// toggle them explicitly (+Tex, +Smem, ...) to compare variants.
#pragma once

#include "ast/kernel_ir.hpp"

namespace hipacc::codegen {

/// Strategy for reading input images.
enum class TexturePolicy {
  kNone,     ///< plain global-memory pointers
  kLinear,   ///< CUDA linear-memory texture / OpenCL image object: cached
             ///< reads, boundary handling still in software (the "+Tex" rows)
  kArray2D,  ///< CUDA 2D array texture / OpenCL sampler with address mode:
             ///< hardware boundary handling, Clamp/Repeat only (the
             ///< "+2DTex" / "ImgBH" rows used by the manual baselines)
};

/// How boundary handling is compiled.
enum class BorderPolicy {
  kRegions,  ///< nine region-specialised variants (the paper's approach)
  kUniform,  ///< guards on every access for every thread (manual style)
  kNone,     ///< no guards even if the accessor declares a mode (Undefined)
};

struct CodegenOptions {
  ast::Backend backend = ast::Backend::kCuda;
  TexturePolicy texture = TexturePolicy::kNone;
  BorderPolicy border = BorderPolicy::kRegions;
  /// Stage input tiles into scratchpad memory (Listing 7). Rarely a win for
  /// small windows — Section IV-A — but supported, as in the paper.
  bool use_scratchpad = false;
  /// Place Mask objects in constant memory (Section IV-C). When off, mask
  /// reads are lowered to global-memory reads (the no-constant baseline).
  bool masks_in_constant_memory = true;
  /// Run the scalar optimizer (CSE + LICM) on lowered bodies — the stand-in
  /// for the vendor compiler's optimizations over the generated source.
  bool scalar_optimizer = true;
  /// Pack independent scalar operations into VLIW bundles for AMD's
  /// VLIW4/VLIW5 targets (Section VIII outlook). Modelled as improved ALU
  /// issue efficiency on those devices; a no-op elsewhere.
  bool vectorize_vliw = false;
  /// Pixels per thread: each thread computes this many vertically-adjacent
  /// outputs, amortising guards, mask reads and scratchpad staging. 1 =
  /// one output per thread (the classic mapping); 0 = let the hardware-model
  /// heuristic pick from {1, 2, 4, 8} per device.
  int pixels_per_thread = 1;
};

}  // namespace hipacc::codegen
