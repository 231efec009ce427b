// Persistent tier of the compilation cache: binary (de)serialisation of the
// two artifact levels (FrontendArtifacts, CompiledKernel) and the glue that
// lets CompilationCache fall through to a support::DiskStore on in-memory
// misses.
//
// The simulator bytecode (CompiledKernel::bytecode) is deliberately NOT
// serialised: it is a pure function of the device IR and recompiles in
// microseconds, so a disk hit re-attaches it via sim::CompileToBytecode.
// What the disk tier actually saves is the expensive part — parse, lower,
// estimate, Algorithm-2 selection, emission (and, in the JIT's store, the
// toolchain's .so build).
//
// Decoders are total: any truncated or tampered payload decodes to nullopt
// (treated as a miss by the caller), never to a malformed artifact. The
// payload layout is covered by support::kDiskStoreSchemaVersion — changing
// any Encode function requires bumping that version.
#pragma once

#include <optional>
#include <string>

#include "compiler/cache.hpp"

namespace hipacc::compiler {

std::string EncodeFrontendArtifacts(const FrontendArtifacts& artifacts);
std::optional<FrontendArtifacts> DecodeFrontendArtifacts(
    const std::string& payload);

/// `bytecode` is dropped on encode; DecodeCompiledKernel re-attaches it by
/// recompiling the device IR, and decodes to nullopt (a miss) when that
/// fails, so a decoded kernel always carries programs.
std::string EncodeCompiledKernel(const CompiledKernel& kernel);
std::optional<CompiledKernel> DecodeCompiledKernel(const std::string& payload);

}  // namespace hipacc::compiler
