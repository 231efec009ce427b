// Content-addressed on-disk blob store — the persistent tier of what costs
// seconds to rebuild: the simulator's JitCache (compiled .so bytes, the
// "jit" kind). tinygrad's @diskcache idiom, grown a schema.
//
// Layout:   <root>/v<schema>/<kind>/<fnv16hex-of-canonical>
// Each file is a self-describing frame:
//
//   "HPCC" | u32 schema | kind | canonical | payload | u64 fnv(payload)
//
// The filename hash is only an index; the canonical key string stored in the
// frame is compared on every Get, so hash collisions read as misses rather
// than wrong artifacts. Writes go through WriteFileAtomic (temp + rename),
// so concurrent processes race safely: both write complete frames, one
// rename wins, and since identical keys carry identical payloads either
// winner is correct. Any frame that fails to parse or checksum is unlinked
// and reported as a miss — corruption self-repairs on the next store.
//
// Versioning: the schema version is baked into both the directory name and
// the frame header. Bumping kSchemaVersion orphans old entries wholesale
// (they age out by LRU eviction) without any migration code. Kind
// directories no consumer reads any more (`frontend/` and `target/` from
// builds that persisted compiler artifacts, `profile/` from builds that
// persisted sweep records) age out the same way: eviction walks every kind
// directory under the version root.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

namespace hipacc::support {

/// Current on-disk schema. Bump when any serialised artifact layout changes;
/// every existing cache directory then reads as empty.
inline constexpr std::uint32_t kDiskStoreSchemaVersion = 1;

struct DiskStoreOptions {
  /// Cache root directory. Empty disables the store (every Get misses,
  /// every Put is dropped) — the hermetic default for libraries and tests.
  std::string root;
  /// Soft size cap across all kinds; least-recently-used entries are evicted
  /// after a Put pushes the total above it. 0 = unlimited.
  std::uint64_t max_bytes = 512ull << 20;
  /// Test hook: overrides kDiskStoreSchemaVersion when non-zero, so the
  /// version-bump invalidation path is testable without editing the header.
  std::uint32_t schema_version_override = 0;
};

/// Cumulative counters (process-local, not persisted).
struct DiskStoreStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stores = 0;    ///< frames actually written
  std::uint64_t dedup = 0;     ///< Puts skipped because an identical frame exists
  std::uint64_t evictions = 0;
  std::uint64_t corrupt = 0;   ///< frames unlinked after failing validation
};

class DiskStore {
 public:
  explicit DiskStore(DiskStoreOptions options = {});

  /// True when a root directory is configured; a disabled store is a valid
  /// object whose operations are all no-ops.
  bool enabled() const;
  std::string root() const;

  /// Looks up `canonical` under `kind` (the JitCache's "jit"). Returns the
  /// payload, or nullopt on miss/corruption.
  /// Hits refresh the entry's mtime (LRU touch).
  std::optional<std::string> Get(const std::string& kind,
                                 const std::string& canonical);

  /// Stores `payload` for `canonical` and returns whether a frame was
  /// written. Skips the write when an identical frame is already present
  /// (the common loser-of-a-race case). Triggers LRU eviction when the store
  /// exceeds max_bytes (counted in DiskStoreStats::evictions). Failures are
  /// swallowed: the disk tier is an accelerator, never a correctness
  /// dependency.
  bool Put(const std::string& kind, const std::string& canonical,
           const std::string& payload);

  DiskStoreStats stats() const;

  /// Swaps in a new configuration (used by ConfigureGlobalDiskStore after
  /// flag parsing) and resets the counters.
  void Configure(DiskStoreOptions options);

  /// Effective schema version (override or kDiskStoreSchemaVersion).
  std::uint32_t schema_version() const;

 private:
  std::string PathFor(const std::string& kind,
                      const std::string& canonical) const;
  std::string EncodeFrame(const std::string& kind,
                          const std::string& canonical,
                          const std::string& payload) const;
  std::optional<std::string> DecodeFrame(const std::string& frame,
                                         const std::string& kind,
                                         const std::string& canonical) const;
  void EvictIfNeeded();

  DiskStoreOptions options_;
  std::uint32_t schema_ = kDiskStoreSchemaVersion;
  std::string version_root_;  ///< <root>/v<schema>

  mutable std::mutex mutex_;
  DiskStoreStats stats_;
};

/// Resolves the cache directory from a CLI-style spec:
///   "off"      -> "" (disabled)
///   non-empty  -> the path itself
///   ""         -> $HIPACC_CACHE_DIR if set (itself honouring "off"),
///                 else ~/.cache/hipacc, else disabled.
std::string ResolveCacheDir(const std::string& spec);

/// The process-wide persistent tier: JitCache persists .so bytes through
/// it. Starts disabled; tools and benches enable it via
/// ConfigureGlobalDiskStore after flag parsing.
DiskStore& GlobalDiskStore();

/// Reconfigures the global store (thread-safe). Call once, right after flag
/// parsing and before the first compilation.
void ConfigureGlobalDiskStore(DiskStoreOptions options);

}  // namespace hipacc::support
