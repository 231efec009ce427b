// Native-tier caching and tiering state.
//
// Two layers share compiled objects:
//  - JitCache: a process-wide, content-addressed module cache (emitted
//    source + ABI version + toolchain identity). Exploration lanes and
//    retargeted kernels whose register programs are semantically identical
//    reuse one shared object, and concurrent requests for the same
//    fingerprint deduplicate in flight — only one lane pays the compile.
//    When support::GlobalDiskStore() is enabled, compiled .so bytes persist
//    under the same identity, so a warm second process pays a dlopen
//    instead of a toolchain run ("cache.disk.*" counters).
//  - TierState: per-ProgramSet tiering (hung off ProgramSet::jit_state, so
//    the target-level compilation cache shares it for free). The set's first
//    native launch compiles it; the state then holds the native program, or
//    latches the VM when the set does not fuse or the toolchain fails, so a
//    broken toolchain is probed exactly once.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "ast/metadata.hpp"
#include "sim/jit/abi.hpp"
#include "sim/jit/toolchain.hpp"

namespace hipacc::sim {

struct ProgramSet;
class TraceSink;

namespace jit {

/// The dlopened warp functions of one ProgramSet, region-addressed like
/// ProgramSet::Find.
struct NativeProgram {
  std::shared_ptr<NativeModule> module;
  struct Entry {
    ast::Region region = ast::Region::kInterior;
    JitWarpFn fn = nullptr;
  };
  std::vector<Entry> fns;

  JitWarpFn Find(ast::Region region) const {
    for (const Entry& e : fns)
      if (e.region == region) return e.fn;
    return nullptr;
  }
};

/// Per-ProgramSet tiering state. Created by CompileToBytecode; shared by
/// every Simulator (and exploration lane) holding the same ProgramSet.
struct TierState {
  /// 0 = not compiled yet, 1 = native ready, 2 = latched to the VM (the set
  /// does not fuse, or the toolchain failed).
  std::atomic<int> phase{0};
  std::mutex mu;
  std::shared_ptr<const NativeProgram> program;  // guarded by mu
  /// Lock-free fast path; set once under mu, read per launch.
  std::atomic<const NativeProgram*> fast{nullptr};
};

/// Process-wide module cache. Keyed by the emitted source text (itself a
/// canonical serialisation of the program semantics) hashed together with
/// the ABI version and toolchain identity; the full source is kept per
/// entry so a hash collision can never alias two programs.
class JitCache {
 public:
  static JitCache& Instance();

  /// `program` is null either on failure (`error` set) or, with an empty
  /// `error`, when some region program of the set does not fuse: then
  /// nothing was emitted, compiled or cached.
  struct Outcome {
    std::shared_ptr<const NativeProgram> program;
    bool compiled = false;  ///< this call invoked the toolchain
    std::string error;      ///< non-empty on failure
    /// Persistent-tier traffic of this call (support::GlobalDiskStore):
    /// checked at all / satisfied from a cached .so / wrote the .so back.
    bool disk_checked = false;
    bool disk_hit = false;
    bool disk_stored = false;
  };

  /// Returns the cached module for `ps` or compiles it (deduplicating
  /// concurrent requests for the same key). A set that does not fuse never
  /// reaches the toolchain.
  Outcome GetOrCompile(const ProgramSet& ps);

  /// Toolchain invocations since process start / last reset (tests).
  std::uint64_t compiles() const { return compiles_.load(); }
  void ResetForTesting();

 private:
  struct Entry {
    std::string source;  // canonical identity (collision guard)
    bool done = false;
    std::string error;
    std::shared_ptr<const NativeProgram> program;
  };

  std::mutex mu_;
  std::condition_variable cv_;
  // hash -> entries (collisions resolved by exact source compare).
  std::unordered_map<std::uint64_t, std::vector<std::shared_ptr<Entry>>> map_;
  std::atomic<std::uint64_t> compiles_{0};
};

/// The tiering decision for one launch with engine == kNative. Compiles
/// through JitCache on the set's first launch and returns the native
/// program when ready (else nullptr: run the VM). A set that does not fuse
/// is latched to the VM without an error or a warning. Emits jit.hit /
/// jit.compile / jit.cache_hit / jit.vm / jit.error trace counters on
/// `trace` when attached.
const NativeProgram* AcquireNative(const ProgramSet& ps, TraceSink* trace);

}  // namespace jit
}  // namespace hipacc::sim
