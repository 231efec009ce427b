// DiskStore behaviour: round trips, the disabled no-op mode, corruption
// self-repair, schema-version invalidation, LRU eviction, dedup of racing
// writers, and thread safety of concurrent get-or-put on one key. Its one
// consumer is covered in tests/sim/jit_test.cpp (JIT objects);
// tests/compiler/cache_test.cpp checks that compiles never touch it.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "support/disk_store.hpp"

namespace hipacc::support {
namespace {

namespace fs = std::filesystem;

/// Fresh cache root per test so stores never see each other's entries.
std::string FreshRoot(const std::string& name) {
  const fs::path root = fs::path(::testing::TempDir()) / ("disk_store_" + name);
  fs::remove_all(root);
  return root.string();
}

DiskStoreOptions RootedOptions(const std::string& root) {
  DiskStoreOptions options;
  options.root = root;
  return options;
}

/// All regular files under `root`, sorted for determinism.
std::vector<fs::path> EntryFiles(const std::string& root) {
  std::vector<fs::path> files;
  if (!fs::exists(root)) return files;
  for (const auto& entry : fs::recursive_directory_iterator(root))
    if (entry.is_regular_file()) files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  return files;
}

TEST(DiskStoreTest, PutGetRoundTrip) {
  DiskStore store(RootedOptions(FreshRoot("roundtrip")));
  ASSERT_TRUE(store.enabled());

  EXPECT_FALSE(store.Get("target", "key-a").has_value());
  EXPECT_TRUE(store.Put("target", "key-a", "payload-a"));
  EXPECT_EQ(store.stats().evictions, 0u);

  const std::optional<std::string> got = store.Get("target", "key-a");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "payload-a");

  // Kinds are separate namespaces: the same canonical under another kind
  // misses.
  EXPECT_FALSE(store.Get("frontend", "key-a").has_value());

  const DiskStoreStats stats = store.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.stores, 1u);
}

TEST(DiskStoreTest, DisabledStoreIsANoOp) {
  DiskStore store;  // empty root
  EXPECT_FALSE(store.enabled());
  EXPECT_FALSE(store.Get("target", "key").has_value());
  EXPECT_FALSE(store.Put("target", "key", "payload"));
  EXPECT_FALSE(store.Get("target", "key").has_value());
}

TEST(DiskStoreTest, DedupSkipsIdenticalFrame) {
  DiskStore store(RootedOptions(FreshRoot("dedup")));
  EXPECT_TRUE(store.Put("jit", "key", "same-bytes"));
  EXPECT_FALSE(store.Put("jit", "key", "same-bytes"));
  EXPECT_EQ(store.stats().stores, 1u);
  EXPECT_EQ(store.stats().dedup, 1u);
  // A changed payload for the same key is rewritten, not deduped.
  EXPECT_TRUE(store.Put("jit", "key", "new-bytes"));
  EXPECT_EQ(*store.Get("jit", "key"), "new-bytes");
}

TEST(DiskStoreTest, CorruptEntryIsAMissAndSelfRepairs) {
  const std::string root = FreshRoot("corrupt");
  DiskStore store(RootedOptions(root));
  ASSERT_TRUE(store.Put("target", "key", "good payload"));

  const std::vector<fs::path> files = EntryFiles(root);
  ASSERT_EQ(files.size(), 1u);
  {
    std::ofstream garble(files[0], std::ios::binary | std::ios::trunc);
    garble << "HPCC but then garbage that cannot checksum";
  }

  // The tampered frame reads as a miss, is unlinked, and the next store
  // repairs it — no crash, no stale payload.
  EXPECT_FALSE(store.Get("target", "key").has_value());
  EXPECT_EQ(store.stats().corrupt, 1u);
  EXPECT_TRUE(EntryFiles(root).empty());
  EXPECT_TRUE(store.Put("target", "key", "good payload"));
  EXPECT_EQ(*store.Get("target", "key"), "good payload");

  // Truncation (the crash-mid-write shape WriteFileAtomic prevents, but a
  // hostile filesystem could still produce) is handled the same way.
  const std::vector<fs::path> repaired = EntryFiles(root);
  ASSERT_EQ(repaired.size(), 1u);
  fs::resize_file(repaired[0], 3);
  EXPECT_FALSE(store.Get("target", "key").has_value());
  EXPECT_EQ(store.stats().corrupt, 2u);
}

TEST(DiskStoreTest, SchemaVersionBumpInvalidatesOldEntries) {
  const std::string root = FreshRoot("version");
  DiskStore v_current(RootedOptions(root));
  ASSERT_TRUE(v_current.Put("target", "key", "old-schema payload"));

  DiskStoreOptions bumped = RootedOptions(root);
  bumped.schema_version_override = kDiskStoreSchemaVersion + 1;
  DiskStore v_next(bumped);
  EXPECT_EQ(v_next.schema_version(), kDiskStoreSchemaVersion + 1);

  // The bumped store sees an empty cache and repopulates under its own
  // version directory; the old store still reads its own entries.
  EXPECT_FALSE(v_next.Get("target", "key").has_value());
  EXPECT_TRUE(v_next.Put("target", "key", "new-schema payload"));
  EXPECT_EQ(*v_next.Get("target", "key"), "new-schema payload");
  EXPECT_EQ(*v_current.Get("target", "key"), "old-schema payload");
}

/// Rewinds a file's mtime — the LRU clock ticks in whole seconds, so tests
/// age entries explicitly instead of sleeping across tick boundaries.
void Backdate(const fs::path& file, int minutes) {
  fs::last_write_time(file,
                      fs::last_write_time(file) - std::chrono::minutes(minutes));
}

TEST(DiskStoreTest, LruEvictionUnderSizeCap) {
  const std::string root = FreshRoot("evict");
  const std::string payload(4096, 'x');
  DiskStoreOptions options = RootedOptions(root);
  options.max_bytes = 6 * 1024;  // fits one 4 KiB payload, not two
  DiskStore store(options);

  // The old entry sits under a kind no consumer reads any more, as entries
  // an older build left behind do: eviction walks every kind directory, so
  // it still counts toward the cap and ages out.
  ASSERT_TRUE(store.Put("target", "old", payload));
  for (const fs::path& file : EntryFiles(root)) Backdate(file, 60);
  EXPECT_TRUE(store.Put("jit", "new", payload));
  EXPECT_GE(store.stats().evictions, 1u);

  EXPECT_FALSE(store.Get("target", "old").has_value());
  const std::optional<std::string> kept = store.Get("jit", "new");
  ASSERT_TRUE(kept.has_value());
  EXPECT_EQ(*kept, payload);
  EXPECT_GE(store.stats().evictions, 1u);
}

TEST(DiskStoreTest, GetRefreshesLruRecency) {
  const std::string root = FreshRoot("lru_touch");
  const std::string payload(4096, 'x');
  DiskStoreOptions options = RootedOptions(root);
  options.max_bytes = 10 * 1024;  // fits two payloads, not three
  DiskStore store(options);

  ASSERT_TRUE(store.Put("target", "a", payload));
  const std::vector<fs::path> after_a = EntryFiles(root);
  ASSERT_EQ(after_a.size(), 1u);
  Backdate(after_a[0], 180);
  ASSERT_TRUE(store.Put("target", "b", payload));
  for (const fs::path& file : EntryFiles(root))
    if (file != after_a[0]) Backdate(file, 120);
  // Touch "a": its mtime refreshes to now, leaving "b" least recently used.
  ASSERT_TRUE(store.Get("target", "a").has_value());

  ASSERT_TRUE(store.Put("target", "c", payload));
  EXPECT_TRUE(store.Get("target", "a").has_value());
  EXPECT_FALSE(store.Get("target", "b").has_value());
  EXPECT_TRUE(store.Get("target", "c").has_value());
}

TEST(DiskStoreTest, ConcurrentGetOrPutYieldsOneConsistentEntry) {
  const std::string root = FreshRoot("race");
  const std::string payload = "the one true artifact for this key";
  constexpr int kThreads = 8;

  // Each worker owns its own DiskStore on the shared root — the
  // multi-process shape, where no in-process mutex serialises them.
  std::vector<std::thread> workers;
  std::vector<int> stored(kThreads, 0);
  workers.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    workers.emplace_back([&, i] {
      DiskStore local(RootedOptions(root));
      for (int round = 0; round < 16; ++round) {
        const std::optional<std::string> hit = local.Get("jit", "raced-key");
        if (hit.has_value()) {
          ASSERT_EQ(*hit, payload);
          continue;
        }
        if (local.Put("jit", "raced-key", payload)) stored[i] = 1;
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  // However the rename races resolved, the surviving entry is the payload,
  // bit-identical, and exactly one file exists for the key.
  DiskStore reader(RootedOptions(root));
  const std::optional<std::string> got = reader.Get("jit", "raced-key");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
  EXPECT_EQ(EntryFiles(root).size(), 1u);
}

/// Saves and restores one environment variable around a test body.
struct EnvGuard {
  explicit EnvGuard(const char* name) : name_(name) {
    const char* current = std::getenv(name);
    if (current != nullptr) saved_ = current;
    had_ = current != nullptr;
  }
  ~EnvGuard() {
    if (had_)
      ::setenv(name_, saved_.c_str(), 1);
    else
      ::unsetenv(name_);
  }
  const char* name_;
  std::string saved_;
  bool had_ = false;
};

TEST(ResolveCacheDirTest, SpecAndEnvironmentSemantics) {
  EnvGuard guard("HIPACC_CACHE_DIR");

  // Explicit spec wins outright; "off" disables.
  ::setenv("HIPACC_CACHE_DIR", "/env/cache", 1);
  EXPECT_EQ(ResolveCacheDir("/explicit/cache"), "/explicit/cache");
  EXPECT_EQ(ResolveCacheDir("off"), "");

  // Empty spec defers to the environment, which itself honours "off".
  EXPECT_EQ(ResolveCacheDir(""), "/env/cache");
  ::setenv("HIPACC_CACHE_DIR", "off", 1);
  EXPECT_EQ(ResolveCacheDir(""), "");

  // With no override at all the default lands under the user cache dir.
  ::unsetenv("HIPACC_CACHE_DIR");
  const std::string fallback = ResolveCacheDir("");
  if (!fallback.empty()) {
    EXPECT_NE(fallback.find("hipacc"), std::string::npos) << fallback;
  }
}

}  // namespace
}  // namespace hipacc::support
