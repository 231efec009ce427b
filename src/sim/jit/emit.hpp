// C++ source emitter for the native tier: partial evaluation of the
// bytecode VM over one ProgramSet, with every instruction's fields (opcode,
// sub-op, types, coordinates, boundary mode, guard set, costs, immediates)
// baked in as constants.
//
// Each region program becomes one lane-fused function: one loop over lanes
// executes the whole instruction chain in scalar locals, with register
// *types* resolved statically at emit time (type tags are data-independent
// in straight-line code). Memory-model address lists are buffered per
// instruction during the lane loop and replayed after it in program order;
// stores are deferred the same way, so global-memory writes and model calls
// happen in exactly the VM's order and the results stay bit-identical.
//
// Fusion needs a program whose executed sequence is the same for every warp
// (no divergent jumps, loops with emit-time trip counts) and whose loaded
// and stored buffers are disjoint. A set moves to native code all or
// nothing: when any region program does not fuse, nothing is emitted and
// the set stays on the VM.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "ast/metadata.hpp"
#include "sim/bytecode.hpp"

namespace hipacc::sim::jit {

/// A generated translation unit for one ProgramSet: self-contained C++
/// (standard headers + the embedded ABI text only) exporting one
/// extern "C" warp function per region program.
struct EmittedSource {
  struct SymbolInfo {
    ast::Region region = ast::Region::kInterior;
    std::string symbol;
  };
  std::string source;
  std::vector<SymbolInfo> symbols;
};

/// Stable content fingerprint over every semantic field of every
/// instruction (plus the program/table shapes). Used both for symbol
/// naming and as the shared-object cache identity.
unsigned long long ProgramFingerprint(const ProgramSet& ps);

/// Emits the translation unit, or nullopt when some region program of `ps`
/// does not fuse. Symbol names are scoped by the program fingerprint.
std::optional<EmittedSource> EmitNativeSource(const ProgramSet& ps);

}  // namespace hipacc::sim::jit
