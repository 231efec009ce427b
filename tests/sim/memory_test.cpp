// Memory-system model: coalescing, caches, constant broadcast, and shared-
// memory bank conflicts (incl. the +1-column padding rationale).
#include "sim/memory.hpp"

#include <gtest/gtest.h>

#include "hwmodel/device_db.hpp"

namespace hipacc::sim {
namespace {

std::vector<std::uint64_t> Consecutive(std::uint64_t base, int count,
                                       int stride = 1) {
  std::vector<std::uint64_t> addrs;
  for (int i = 0; i < count; ++i)
    addrs.push_back(base + static_cast<std::uint64_t>(i) * stride);
  return addrs;
}

TEST(SegmentCacheTest, HitsAndLruEviction) {
  SegmentCache cache(2);
  EXPECT_FALSE(cache.Access(1));
  EXPECT_FALSE(cache.Access(2));
  EXPECT_TRUE(cache.Access(1));   // hit
  EXPECT_FALSE(cache.Access(3));  // evicts 2 (LRU)
  EXPECT_TRUE(cache.Access(1));
  EXPECT_FALSE(cache.Access(2));  // 2 was evicted
}

TEST(MemoryModelTest, CoalescedWarpReadIsOneTransaction) {
  const hw::DeviceSpec device = hw::QuadroFx5800();  // no global cache
  MemoryModel model(device);
  Metrics metrics;
  // 32 consecutive floats starting at a segment boundary: 128 B = 1 segment.
  model.GlobalAccess(Consecutive(0, 32), false, &metrics);
  EXPECT_EQ(metrics.global_transactions, 1u);
  EXPECT_EQ(metrics.global_read_instrs, 1u);
}

TEST(MemoryModelTest, MisalignedReadTouchesTwoSegments) {
  const hw::DeviceSpec device = hw::QuadroFx5800();
  MemoryModel model(device);
  Metrics metrics;
  model.GlobalAccess(Consecutive(16, 32), false, &metrics);
  EXPECT_EQ(metrics.global_transactions, 2u);
}

TEST(MemoryModelTest, StridedReadSerialisesToOneSegmentPerLane) {
  const hw::DeviceSpec device = hw::QuadroFx5800();
  MemoryModel model(device);
  Metrics metrics;
  // Stride of 32 elements = 128 B: every lane its own segment.
  model.GlobalAccess(Consecutive(0, 32, 32), false, &metrics);
  EXPECT_EQ(metrics.global_transactions, 32u);
}

TEST(MemoryModelTest, FermiL1CachesRepeatedReads) {
  const hw::DeviceSpec device = hw::TeslaC2050();  // has_global_l1
  MemoryModel model(device);
  Metrics metrics;
  model.GlobalAccess(Consecutive(0, 32), false, &metrics);
  model.GlobalAccess(Consecutive(0, 32), false, &metrics);
  EXPECT_EQ(metrics.global_transactions, 1u);  // second read hits
  EXPECT_EQ(metrics.l1_hits, 1u);
}

TEST(MemoryModelTest, WritesBypassTheCache) {
  const hw::DeviceSpec device = hw::TeslaC2050();
  MemoryModel model(device);
  Metrics metrics;
  model.GlobalAccess(Consecutive(0, 32), true, &metrics);
  model.GlobalAccess(Consecutive(0, 32), true, &metrics);
  EXPECT_EQ(metrics.global_transactions, 2u);
  EXPECT_EQ(metrics.global_write_instrs, 2u);
  EXPECT_EQ(metrics.l1_hits, 0u);
}

TEST(MemoryModelTest, TextureCacheHitsOnReuse) {
  const hw::DeviceSpec device = hw::QuadroFx5800();
  MemoryModel model(device);
  Metrics metrics;
  model.TextureAccess(Consecutive(0, 32), &metrics);
  model.TextureAccess(Consecutive(0, 32), &metrics);
  EXPECT_EQ(metrics.tex_transactions, 1u);
  EXPECT_EQ(metrics.tex_hits, 1u);
  EXPECT_EQ(metrics.tex_read_instrs, 2u);
}

TEST(MemoryModelTest, ConstantBroadcastVsSerialised) {
  const hw::DeviceSpec device = hw::TeslaC2050();
  MemoryModel model(device);
  Metrics metrics;
  // All lanes the same address: one broadcast (the mask access pattern the
  // constant cache is optimised for, Section IV-C).
  model.ConstantAccess(std::vector<std::uint64_t>(32, 7), &metrics);
  EXPECT_EQ(metrics.const_broadcasts, 1u);
  EXPECT_EQ(metrics.const_serialized, 0u);
  // Divergent addresses replay per distinct address.
  model.ConstantAccess(Consecutive(0, 32), &metrics);
  EXPECT_EQ(metrics.const_serialized, 32u);
}

TEST(MemoryModelTest, SharedMemoryBankConflicts) {
  const hw::DeviceSpec device = hw::QuadroFx5800();  // 16 banks
  MemoryModel model(device);
  Metrics metrics;
  // Consecutive addresses: all banks distinct, no conflict.
  model.SharedAccess(Consecutive(0, 16), &metrics);
  EXPECT_EQ(metrics.smem_conflict_cycles, 0u);
  // Stride 16 = bank count: every lane hits bank 0 -> 15 replay cycles.
  model.SharedAccess(Consecutive(0, 16, 16), &metrics);
  EXPECT_EQ(metrics.smem_conflict_cycles, 15u);
  // Same address in all lanes broadcasts without conflict.
  model.SharedAccess(std::vector<std::uint64_t>(16, 5), &metrics);
  EXPECT_EQ(metrics.smem_conflict_cycles, 15u);  // unchanged
}

TEST(MemoryModelTest, PaddedTileColumnAccessAvoidsConflicts) {
  // Listing 7's +1 padding: column walks of a (BSX + 1)-wide tile hit
  // different banks, while an unpadded power-of-two width conflicts.
  const hw::DeviceSpec device = hw::QuadroFx5800();  // 16 banks
  Metrics padded_metrics, unpadded_metrics;
  MemoryModel padded(device), unpadded(device);
  const int tile_w_unpadded = 32, tile_w_padded = 33;
  std::vector<std::uint64_t> col_unpadded, col_padded;
  for (int row = 0; row < 16; ++row) {
    col_unpadded.push_back(static_cast<std::uint64_t>(row) * tile_w_unpadded);
    col_padded.push_back(static_cast<std::uint64_t>(row) * tile_w_padded);
  }
  unpadded.SharedAccess(col_unpadded, &unpadded_metrics);
  padded.SharedAccess(col_padded, &padded_metrics);
  EXPECT_EQ(unpadded_metrics.smem_conflict_cycles, 15u);  // 16-way conflict
  EXPECT_EQ(padded_metrics.smem_conflict_cycles, 0u);     // fully parallel
}

// The flat open-addressing index (linear probing with backshift deletion)
// must behave exactly like a textbook LRU: random churn with a key space
// several times the capacity forces constant eviction, so every insert
// erases a key mid-cluster and every lookup crosses displaced entries. The
// reference is the obvious O(n) list-based LRU.
TEST(SegmentCacheTest, FlatTableMatchesReferenceLruUnderChurn) {
  constexpr int kCapacity = 13;  // odd, so table occupancy patterns vary
  SegmentCache cache(kCapacity);
  std::vector<std::uint64_t> reference;  // front = most recently used
  std::uint64_t state = 0x1234567u;
  for (int i = 0; i < 20000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    // Small key space (4x capacity) maximises hit/evict interleaving; keys
    // are scaled so their hashes land in unrelated table slots.
    const std::uint64_t key = ((state >> 33) % (4 * kCapacity)) * 977u;
    const bool hit = cache.Access(key);
    const auto it = std::find(reference.begin(), reference.end(), key);
    const bool ref_hit = it != reference.end();
    ASSERT_EQ(hit, ref_hit) << "access " << i << " key " << key;
    if (ref_hit) reference.erase(it);
    reference.insert(reference.begin(), key);
    if (static_cast<int>(reference.size()) > kCapacity) reference.pop_back();
  }
}

TEST(SegmentCacheTest, ClearEmptiesTableAndRecencyList) {
  SegmentCache cache(4);
  for (std::uint64_t k = 0; k < 4; ++k) EXPECT_FALSE(cache.Access(k));
  EXPECT_TRUE(cache.Access(2));
  cache.Clear();
  for (std::uint64_t k = 0; k < 4; ++k)
    EXPECT_FALSE(cache.Access(k)) << "stale entry survived Clear";
  EXPECT_TRUE(cache.Access(3));
}

// The one-pass ascending fast path and the sort+unique fallback must be
// observationally identical: permuting a warp's addresses may change which
// path runs, but never the modelled transactions or the cache sequence.
TEST(MemoryModelTest, ShuffledAddressesMatchAscendingGlobalAccess) {
  const std::vector<std::uint64_t> ascending =
      Consecutive(40, 24, 3);  // 3-element stride, crosses segments
  std::vector<std::uint64_t> shuffled = ascending;
  std::uint64_t state = 99;
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    std::swap(shuffled[i - 1], shuffled[(state >> 33) % i]);
  }
  ASSERT_NE(shuffled, ascending);
  for (const bool use_l1 : {false, true}) {
    const hw::DeviceSpec device =
        use_l1 ? hw::TeslaC2050() : hw::QuadroFx5800();
    MemoryModel a(device), b(device);
    Metrics ma, mb;
    // Interleave with a second, disjoint access so cache state evolves.
    for (int round = 0; round < 8; ++round) {
      a.GlobalAccess(ascending, false, &ma);
      a.GlobalAccess(Consecutive(4000 + 64 * round, 8), false, &ma);
      b.GlobalAccess(shuffled, false, &mb);
      b.GlobalAccess(Consecutive(4000 + 64 * round, 8), false, &mb);
    }
    EXPECT_EQ(ma.global_transactions, mb.global_transactions);
    EXPECT_EQ(ma.l1_hits, mb.l1_hits);
    EXPECT_EQ(ma.global_read_instrs, mb.global_read_instrs);
  }
}

TEST(MemoryModelTest, SharedAccessUnsortedAndDuplicatesMatchSorted) {
  const hw::DeviceSpec device = hw::QuadroFx5800();  // 16 banks
  MemoryModel a(device), b(device);
  Metrics ma, mb;
  // Two distinct addresses per bank over 8 banks (degree 2), presented
  // sorted to one model and reversed-with-duplicates to the other.
  std::vector<std::uint64_t> sorted;
  for (int i = 0; i < 8; ++i) {
    sorted.push_back(static_cast<std::uint64_t>(i));
    sorted.push_back(static_cast<std::uint64_t>(i) + 16);
  }
  std::vector<std::uint64_t> messy(sorted.rbegin(), sorted.rend());
  messy.push_back(sorted.front());  // duplicate
  messy.push_back(sorted.back());
  // Many rounds so the generation counter advances well past its initial
  // state; stale bank counts from prior rounds must never leak in.
  for (int round = 0; round < 100; ++round) {
    a.SharedAccess(sorted, &ma);
    b.SharedAccess(messy, &mb);
  }
  EXPECT_EQ(ma.smem_accesses, mb.smem_accesses);
  EXPECT_EQ(ma.smem_conflict_cycles, mb.smem_conflict_cycles);
  EXPECT_EQ(ma.smem_conflict_cycles, 100u);  // degree 2 -> +1 per round
}

TEST(MemoryModelTest, ConstantAccessFastPathMatchesSlowPath) {
  const hw::DeviceSpec device = hw::QuadroFx5800();
  MemoryModel model(device);
  Metrics metrics;
  // Warp-uniform read: broadcast regardless of lane count.
  model.ConstantAccess(std::vector<std::uint64_t>(32, 7), &metrics);
  EXPECT_EQ(metrics.const_broadcasts, 1u);
  EXPECT_EQ(metrics.const_serialized, 0u);
  // Two distinct values, unsorted with repeats: serialises to 2.
  model.ConstantAccess({9, 3, 9, 3, 9}, &metrics);
  EXPECT_EQ(metrics.const_broadcasts, 1u);
  EXPECT_EQ(metrics.const_serialized, 2u);
}

TEST(MetricsTest, AccumulateAndScale) {
  Metrics a, b;
  a.alu_ops = 10;
  a.global_transactions = 4;
  b.alu_ops = 5;
  b.oob_violations = 2;
  a += b;
  EXPECT_EQ(a.alu_ops, 15u);
  EXPECT_EQ(a.oob_violations, 2u);
  const Metrics scaled = a.Scaled(2.5);
  EXPECT_EQ(scaled.alu_ops, 38u);  // 37.5 rounded
  EXPECT_EQ(scaled.global_transactions, 10u);
}

}  // namespace
}  // namespace hipacc::sim
