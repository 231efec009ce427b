// Kernel fusion at the DSL-source level. Three mergers, one per fusion kind,
// each building the merged kernel's source. The fusion planner
// (compiler/fusion_planner.*) calls them to build and score candidates; the
// graph plan compiles the accepted merge as it stands, so the driver
// fingerprints the fused source and fused and unfused compilations never
// collide in the cache:
//
//  * kPoint — producer→consumer fusion of a point-wise consumer (every
//    accessor a 1x1 window): the producer's output pixel becomes a local
//    variable substituted for the consumer's reads, eliminating the
//    intermediate image (one global write + re-read per pixel).
//
//  * kHorizontal — sibling fusion: two stages reading the same input over
//    the same iteration space merge into one multi-output kernel. The
//    sibling's `output()` writes are retargeted to a named extra output
//    (`output(<name>) = ...`, lowered to an `_out_<name>` buffer) and, when
//    the boundary semantics agree, the shared input collapses into one
//    accessor so scratchpad staging loads the tile once for both bodies.
//    Neither intermediate is eliminated — the win is the shared input
//    traffic and one launch instead of two.
//
//  * kHalo — producer→local-operator fusion with halo recomputation: an
//    expression-bodied producer (single `output() = expr;`) is inlined into
//    a consuming local operator *at every tap offset*. The consumer's read
//    of the intermediate at (x()+dx, y()+dy) becomes the producer expression
//    re-evaluated at the boundary-remapped coordinate, with the remap
//    (clamp / mirror, image extents baked in as literals) emitted as DSL
//    arithmetic so fused and unfused pixels agree bit for bit. The
//    producer's input accessors survive with their windows extended by the
//    consumer's window (the extended tile+halo region the scratchpad then
//    stages); the intermediate image is eliminated at the price of
//    re-computing the producer once per consumer tap.
//
// Legality is checked here (never assumed); profitability lives in the
// planner. The graph runtime adds the structural rules (single consumer
// edge for kPoint/kHalo, no external output, matching extents).
#pragma once

#include <string>

#include "frontend/parser.hpp"

namespace hipacc::compiler {

/// Candidate kind of one fusion rewrite.
enum class FuseKind { kPoint, kHorizontal, kHalo };

const char* to_string(FuseKind kind) noexcept;

/// Which fusion kinds the runtime may apply — the `--fuse=` flag.
enum class FusionMode { kOff, kPoint, kHorizontal, kHalo, kAll };

const char* to_string(FusionMode mode) noexcept;

/// Parses "off" | "point" | "horizontal" | "halo" | "all".
Result<FusionMode> ParseFusionMode(const std::string& text);

/// True when `mode` permits candidates of `kind`.
bool FusionModeAllows(FusionMode mode, FuseKind kind) noexcept;

/// Fuses one point-wise consumer into `producer`. The fused kernel is named
/// "<producer>_<consumer>"; its accessor list is the producer's accessors
/// followed by the consumer's remaining ones, so the producer's (windowed)
/// accessor keeps driving boundary-region selection.
Result<frontend::KernelSource> FusePointwise(
    const frontend::KernelSource& producer,
    const frontend::KernelSource& consumer, const std::string& accessor);

/// Merges sibling `b` into `a` as a multi-output kernel: `b`'s output()
/// writes become `output(<output_name>)`, and its reads of `b_accessor`
/// (the shared input) are redirected to `a_accessor` when the two agree on
/// boundary semantics (the merged accessor's window is the element-wise
/// max). `b` must not itself carry extra outputs; all other names must be
/// disjoint.
Result<frontend::KernelSource> FuseHorizontal(
    const frontend::KernelSource& a, const std::string& a_accessor,
    const frontend::KernelSource& b, const std::string& b_accessor,
    const std::string& output_name);

/// Inlines an expression-bodied `producer` into `consumer` at every read of
/// `accessor`, re-evaluating the producer at the boundary-remapped tap
/// coordinate (see file comment). Requires the consumed accessor's boundary
/// mode to be kClamp or kMirror (kRepeat breaks scratchpad tile locality,
/// kConstant would need f(c) != c, kUndefined has no defined remap) and the
/// consumer's window to fit the image (`image_width` / `image_height`).
Result<frontend::KernelSource> FuseHalo(const frontend::KernelSource& producer,
                                        const frontend::KernelSource& consumer,
                                        const std::string& accessor,
                                        int image_width, int image_height);

}  // namespace hipacc::compiler
