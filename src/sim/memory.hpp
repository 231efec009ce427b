// Simulated device memory system: buffer bindings plus the models for
// coalescing, the texture / L1 caches, constant broadcast, and shared-memory
// bank conflicts. The functional side is trivial (host memory); the value of
// this module is the per-warp transaction accounting feeding the timing
// model.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "hwmodel/device_spec.hpp"
#include "sim/metrics.hpp"
#include "support/status.hpp"

namespace hipacc::sim {

/// A device buffer bound to a kernel launch (input image, output image, or
/// a dynamic mask in global memory).
struct BufferBinding {
  std::string name;
  float* data = nullptr;
  int width = 0;
  int height = 0;
  int stride = 0;  ///< padded row stride in elements
  bool writable = false;
};

/// Exact-LRU cache over memory segments, used for both the texture cache
/// and Fermi's L1 for global loads. Capacity is in segments (hundreds at
/// realistic transaction sizes) and Access sits on the per-load inner loop
/// of every engine, so the index is a flat open-addressing table (linear
/// probing, backshift deletion) over an intrusive recency list: no
/// per-node allocation, no pointer-chasing bucket lists, and the table is
/// sized once at construction so it never rehashes. The recency list
/// orders entries exactly like the last-use-stamp scheme it replaced, so
/// the hit/miss/eviction sequence — and every metric derived from it — is
/// unchanged.
class SegmentCache {
 public:
  SegmentCache() { InitTable(); }
  explicit SegmentCache(int capacity_segments)
      : capacity_(capacity_segments > 0 ? capacity_segments : 1) {
    InitTable();
  }

  /// Touches a segment; returns true on hit.
  bool Access(std::uint64_t segment);

  void Clear() {
    std::fill(keys_.begin(), keys_.end(), kEmpty);
    segments_.clear();
    prev_.clear();
    next_.clear();
    head_ = tail_ = -1;
  }

 private:
  // Sentinel for an empty table slot. Segment numbers are element addresses
  // scaled to transactions (addr * 4 >> shift), so reaching ~0 would need a
  // buffer of ~2^62 elements — unrepresentable on the host.
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  void InitTable();
  std::size_t Hash(std::uint64_t segment) const {
    // Multiply-shift (Fibonacci) hashing: consecutive segments — the common
    // pattern for a sweeping warp — spread uniformly across the table.
    return static_cast<std::size_t>(
        (segment * 0x9E3779B97F4A7C15ull) >> shift_);
  }
  void EraseKey(std::uint64_t segment);
  void Unlink(int i);
  void PushFront(int i);

  int capacity_ = 64;
  std::vector<std::uint64_t> keys_;  ///< open-addressing table (kEmpty = free)
  std::vector<int> slot_node_;       ///< table slot -> node index
  std::size_t mask_ = 0;             ///< table size - 1 (power of two)
  int shift_ = 64;                   ///< 64 - log2(table size)
  std::vector<std::uint64_t> segments_;  ///< node payloads
  std::vector<int> prev_, next_;         ///< intrusive recency list
  int head_ = -1;  ///< most recently used
  int tail_ = -1;  ///< least recently used (eviction victim)
};

/// Per-warp memory-access accounting against one device model. A fresh
/// instance is used per thread block (caches are treated as block-private —
/// a coarse but adequate approximation for sampled simulation).
///
/// Each entry point has a span form (pointer + count) — the native tier
/// calls these directly from its trampoline without materialising a vector
/// — and a vector convenience wrapper used by the interpreter and the VM.
class MemoryModel {
 public:
  explicit MemoryModel(const hw::DeviceSpec& device);
  /// The model keeps `device` by reference, so a temporary would dangle.
  MemoryModel(hw::DeviceSpec&&) = delete;

  /// One warp-level global read/write: `addrs` holds the element addresses
  /// (linear element index into the buffer) of the active lanes.
  void GlobalAccess(const std::uint64_t* addrs, std::size_t count,
                    bool is_write, Metrics* metrics);
  void GlobalAccess(const std::vector<std::uint64_t>& addrs, bool is_write,
                    Metrics* metrics) {
    GlobalAccess(addrs.data(), addrs.size(), is_write, metrics);
  }

  /// One warp-level read through the texture path.
  void TextureAccess(const std::uint64_t* addrs, std::size_t count,
                     Metrics* metrics);
  void TextureAccess(const std::vector<std::uint64_t>& addrs,
                     Metrics* metrics) {
    TextureAccess(addrs.data(), addrs.size(), metrics);
  }

  /// One warp-level constant-memory read.
  void ConstantAccess(const std::uint64_t* addrs, std::size_t count,
                      Metrics* metrics);
  void ConstantAccess(const std::vector<std::uint64_t>& addrs,
                      Metrics* metrics) {
    ConstantAccess(addrs.data(), addrs.size(), metrics);
  }

  /// One warp-level scratchpad access; addresses are element offsets within
  /// the tile. Conflict degree = max lanes hitting one bank with distinct
  /// addresses (same-address lanes broadcast).
  void SharedAccess(const std::uint64_t* addrs, std::size_t count,
                    Metrics* metrics);
  void SharedAccess(const std::vector<std::uint64_t>& addrs,
                    Metrics* metrics) {
    SharedAccess(addrs.data(), addrs.size(), metrics);
  }

 private:
  std::uint64_t Segment(std::uint64_t element_addr) const {
    // Transaction sizes are powers of two on every modelled device, so the
    // division folds to a shift; the divide remains as a fallback for
    // hypothetical non-power-of-two specs.
    const std::uint64_t bytes = element_addr * sizeof(float);
    return seg_shift_ >= 0
               ? bytes >> seg_shift_
               : bytes / static_cast<std::uint64_t>(device_.mem_transaction_bytes);
  }

  /// Maps lane addresses to segments, deduplicating adjacent repeats, in a
  /// single pass. Succeeds only when the segment sequence is ascending —
  /// true for every coalesced warp — in which case `out` holds exactly the
  /// sorted distinct segments (a non-adjacent duplicate would break the
  /// ascending order, so adjacent dedup is complete). Returns false when
  /// the sequence is unsorted or too long; callers then take the
  /// sort+unique slow path, which produces the identical distinct set.
  bool CoalesceAscending(const std::uint64_t* addrs, std::size_t count,
                         std::uint64_t* out, std::size_t* out_count) const;

  /// Bumps the bank-counter generation, handling wraparound.
  void NextBankGen() {
    if (++bank_gen_ == 0) {
      bank_stamp_.fill(0);
      bank_gen_ = 1;
    }
  }

  const hw::DeviceSpec& device_;
  int seg_shift_ = -1;
  SegmentCache tex_cache_;
  SegmentCache l1_cache_;
  // Reused scratch for the sort+unique slow path (unsorted warps only).
  // The warp's distinct values are produced in ascending order, matching
  // the iteration order of the std::set this replaces, so the LRU caches
  // see the exact same access sequence.
  std::vector<std::uint64_t> scratch_;
  // Generation-stamped per-bank lane counts for SharedAccess: a stamp
  // mismatch means "count is stale, treat as zero", so no per-call zeroing
  // of the 64-entry array is needed.
  std::array<std::uint32_t, 64> bank_count_{};
  std::array<std::uint32_t, 64> bank_stamp_{};
  std::uint32_t bank_gen_ = 0;
};

}  // namespace hipacc::sim
