// Content-addressed compilation cache (two levels, in memory).
//
// Keys are canonical serialisations of everything a compilation result
// depends on; a 64-bit FNV-1a hash indexes the store while the full
// canonical string is compared on lookup, so hash collisions can never
// alias two different kernels (two sources with the same name but
// different bodies are distinct entries).
//
//   frontend level  (source fingerprint, codegen options)
//                   -> KernelDecl + lowered DeviceKernel + resource estimate
//   target level    (frontend key, device, image extent, forced config)
//                   -> complete CompiledKernel, emitted source included
//
// A frontend hit lets a compile for another device, extent or forced
// configuration skip parse/lower/estimate; a target hit returns the cached
// CompiledKernel bit-identically. Lookups
// report into sim::TraceSink ("cache_{hit,miss}.{frontend,target}" counters
// plus instant events carrying the key hash). All methods are thread-safe —
// the parallel exploration engine shares one cache across lanes.
//
// The cache lives for one process and never touches the disk: its products
// recompile in ~2 ms per kernel. What costs seconds, the JIT toolchain's
// shared objects, persists in sim::jit::JitCache through support::DiskStore.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "compiler/driver.hpp"

namespace hipacc::support {
class DiskStore;
}  // namespace hipacc::support

namespace hipacc::compiler {

/// A content-addressed key: hash for indexing, canonical string for
/// collision-proof identity.
struct CacheKey {
  std::uint64_t hash = 0;
  std::string canonical;

  /// 16-digit lowercase hex of the hash (trace/event payloads).
  std::string hex() const;
};

/// Canonical serialisation of a kernel source: name, parameters, accessor
/// windows/boundary modes, mask shapes and static coefficients, body text.
std::string SourceFingerprint(const frontend::KernelSource& source);

/// Canonical serialisation of the codegen options (every field).
std::string OptionsFingerprint(const codegen::CodegenOptions& options);

/// FNV-1a hash of a source fingerprint (CompiledKernel::source_hash).
std::uint64_t SourceHash(const std::string& source_fingerprint);

/// Canonical device identity used in target-level and profile keys: the
/// name plus every occupancy-relevant resource limit, so a customised
/// DeviceSpec never aliases the stock one.
std::string DeviceIdentity(const hw::DeviceSpec& device);

/// Frontend-level key: source fingerprint + codegen options.
CacheKey MakeFrontendKey(const frontend::KernelSource& source,
                         const codegen::CodegenOptions& options);
/// Same, from an already computed fingerprint (the driver computes it once
/// for the key and the artifact's provenance).
CacheKey MakeFrontendKeyFromFingerprint(
    const std::string& source_fingerprint,
    const codegen::CodegenOptions& options);

/// Target-level key: frontend key + device identity + image extent +
/// forced configuration (if any). A profile pick reaches the key as a
/// forced configuration, so it shares its entry with the same configuration
/// forced by hand.
CacheKey MakeTargetKey(const CacheKey& frontend_key,
                       const hw::DeviceSpec& device, int image_width,
                       int image_height,
                       const std::optional<hw::KernelConfig>& forced_config);

/// Target-independent products of the pipeline's first three passes. The
/// frontend key fixes the source fingerprint and every codegen option, so
/// a hit takes those from the compile that looked it up.
struct FrontendArtifacts {
  ast::KernelDecl decl;
  ast::DeviceKernel device_ir;
  hw::KernelResources resources;
};

class CompilationCache {
 public:
  struct Stats {
    long long frontend_hits = 0;
    long long frontend_misses = 0;
    long long target_hits = 0;
    long long target_misses = 0;

    long long hits() const { return frontend_hits + target_hits; }
    long long misses() const { return frontend_misses + target_misses; }
  };

  /// Lookups count a hit or miss in stats and, when `trace` is non-null,
  /// report the access to the sink.
  std::optional<FrontendArtifacts> LookupFrontend(
      const CacheKey& key, sim::TraceSink* trace = nullptr);
  std::optional<CompiledKernel> LookupTarget(const CacheKey& key,
                                             sim::TraceSink* trace = nullptr);

  /// Stores overwrite an existing entry with the same canonical key.
  void StoreFrontend(const CacheKey& key, FrontendArtifacts value);
  void StoreTarget(const CacheKey& key, CompiledKernel value);

  /// No-op, kept for callers that pinned the cache to memory before it
  /// lost its disk tier; it is always in memory only.
  void set_disk_store(support::DiskStore*) {}

  Stats stats() const;
  /// Number of stored entries across both levels.
  std::size_t size() const;
  void Clear();

 private:
  /// Hash-indexed buckets; each slot keeps the canonical key alongside the
  /// value and is only returned when the canonical strings match.
  template <typename V>
  struct Entry {
    std::string canonical;
    V value;
  };
  template <typename V>
  using Store = std::unordered_map<std::uint64_t, std::vector<Entry<V>>>;

  mutable std::mutex mutex_;
  Store<FrontendArtifacts> frontend_;
  Store<CompiledKernel> target_;
  Stats stats_;
};

/// Process-wide cache of the runtimes whose RunOptions name no cache.
CompilationCache& GlobalCompilationCache();

}  // namespace hipacc::compiler
