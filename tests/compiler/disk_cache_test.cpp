// Persistent compilation-cache tier: a second cache instance (standing in
// for a second process) hits the shared disk store and reproduces the
// artifact bit-identically, corrupted entries repair instead of crash or
// poison, a schema-version bump invalidates wholesale, and concurrent
// get-or-compile races settle on one consistent artifact. The store's own
// frame mechanics live in tests/support/disk_store_test.cpp.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "compiler/cache.hpp"
#include "compiler/disk_cache.hpp"
#include "compiler/driver.hpp"
#include "ops/kernel_sources.hpp"
#include "sim/bytecode.hpp"
#include "support/disk_store.hpp"

namespace hipacc {
namespace {

namespace fs = std::filesystem;

frontend::KernelSource Source() {
  return ops::BilateralMaskSource(1, ast::BoundaryMode::kClamp);
}

compiler::CompileOptions Options(compiler::CompilationCache* cache) {
  compiler::CompileOptions options;
  options.image_width = 512;
  options.image_height = 512;
  options.cache = cache;
  return options;
}

std::string FreshRoot(const std::string& name) {
  const fs::path root = fs::path(::testing::TempDir()) / ("disk_cache_" + name);
  fs::remove_all(root);
  return root.string();
}

support::DiskStoreOptions RootedOptions(const std::string& root) {
  support::DiskStoreOptions options;
  options.root = root;
  return options;
}

compiler::CompiledKernel MustCompile(const compiler::CompileOptions& options) {
  Result<compiler::CompiledKernel> compiled = compiler::Compile(Source(), options);
  HIPACC_CHECK(compiled.ok());
  return std::move(compiled).take();
}

TEST(DiskCacheTest, DefaultCacheKeepsDiskTierQuiet) {
  // GlobalDiskStore starts disabled, so a plain cache never touches disk —
  // the hermetic default every other test in the suite relies on.
  compiler::CompilationCache cache;
  MustCompile(Options(&cache));
  const compiler::CompilationCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.disk_hits, 0);
  EXPECT_EQ(stats.disk_stores, 0);
  EXPECT_EQ(stats.target_misses, 1);
}

TEST(DiskCacheTest, SecondCacheInstanceHitsDiskBitIdentically) {
  support::DiskStore store(RootedOptions(FreshRoot("warm")));

  compiler::CompilationCache cold_cache;
  cold_cache.set_disk_store(&store);
  const compiler::CompiledKernel cold = MustCompile(Options(&cold_cache));
  EXPECT_GE(cold_cache.stats().disk_stores, 2);  // frontend + target levels
  EXPECT_EQ(cold_cache.stats().disk_hits, 0);

  // A fresh cache instance is a fresh process as far as the in-memory tier
  // is concerned: every level misses memory and must come off the disk.
  compiler::CompilationCache warm_cache;
  warm_cache.set_disk_store(&store);
  const compiler::CompiledKernel warm = MustCompile(Options(&warm_cache));
  const compiler::CompilationCache::Stats stats = warm_cache.stats();
  EXPECT_EQ(stats.target_misses, 0);
  EXPECT_EQ(stats.target_hits, 1);
  EXPECT_GE(stats.disk_hits, 1);
  EXPECT_EQ(stats.disk_stores, 0);

  EXPECT_EQ(warm.source, cold.source);
  EXPECT_EQ(warm.source_fingerprint, cold.source_fingerprint);
  EXPECT_EQ(warm.config.config, cold.config.config);
  EXPECT_EQ(warm.device_ir.ppt, cold.device_ir.ppt);
  // Bytecode is not serialised; the decode path re-attaches it.
  ASSERT_NE(warm.bytecode, nullptr);
  EXPECT_EQ(warm.bytecode->total_instructions,
            cold.bytecode->total_instructions);
}

TEST(DiskCacheTest, CorruptedEntriesRepairOnTheNextCompile) {
  const std::string root = FreshRoot("corrupt");
  support::DiskStore store(RootedOptions(root));

  compiler::CompilationCache seed_cache;
  seed_cache.set_disk_store(&store);
  const compiler::CompiledKernel seeded = MustCompile(Options(&seed_cache));

  for (const auto& entry : fs::recursive_directory_iterator(root))
    if (entry.is_regular_file()) {
      std::ofstream garble(entry.path(), std::ios::binary | std::ios::trunc);
      garble << "not a cache frame";
    }

  // Every disk probe now misses (and unlinks the wreckage); the compile
  // falls through to the real pipeline and restores the entries.
  compiler::CompilationCache repair_cache;
  repair_cache.set_disk_store(&store);
  const compiler::CompiledKernel repaired = MustCompile(Options(&repair_cache));
  EXPECT_EQ(repair_cache.stats().disk_hits, 0);
  EXPECT_EQ(repair_cache.stats().target_misses, 1);
  EXPECT_GE(repair_cache.stats().disk_stores, 2);
  EXPECT_EQ(repaired.source, seeded.source);

  compiler::CompilationCache verify_cache;
  verify_cache.set_disk_store(&store);
  MustCompile(Options(&verify_cache));
  EXPECT_GE(verify_cache.stats().disk_hits, 1);
}

TEST(DiskCacheTest, SchemaVersionBumpInvalidatesWholesale) {
  const std::string root = FreshRoot("version");
  support::DiskStore current(RootedOptions(root));
  compiler::CompilationCache seed_cache;
  seed_cache.set_disk_store(&current);
  MustCompile(Options(&seed_cache));
  ASSERT_GE(seed_cache.stats().disk_stores, 2);

  support::DiskStoreOptions bumped = RootedOptions(root);
  bumped.schema_version_override = support::kDiskStoreSchemaVersion + 1;
  support::DiskStore next(bumped);
  compiler::CompilationCache bumped_cache;
  bumped_cache.set_disk_store(&next);
  MustCompile(Options(&bumped_cache));
  EXPECT_EQ(bumped_cache.stats().disk_hits, 0);
  EXPECT_EQ(bumped_cache.stats().target_misses, 1);
  EXPECT_GE(bumped_cache.stats().disk_stores, 2);
}

TEST(DiskCacheTest, ConcurrentCachesRacingOneKeySettleOnOneArtifact) {
  const std::string root = FreshRoot("race");
  constexpr int kThreads = 6;
  std::vector<std::string> sources(kThreads);

  // Each thread models a separate process: its own DiskStore view and its
  // own CompilationCache, all racing get-or-compile on the same key.
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    workers.emplace_back([&, i] {
      support::DiskStore local(RootedOptions(root));
      compiler::CompilationCache cache;
      cache.set_disk_store(&local);
      sources[i] = MustCompile(Options(&cache)).source;
    });
  }
  for (std::thread& worker : workers) worker.join();

  for (int i = 1; i < kThreads; ++i) EXPECT_EQ(sources[i], sources[0]);

  // Whoever won each rename, the surviving entries serve a clean warm hit.
  support::DiskStore reader(RootedOptions(root));
  compiler::CompilationCache warm_cache;
  warm_cache.set_disk_store(&reader);
  EXPECT_EQ(MustCompile(Options(&warm_cache)).source, sources[0]);
  EXPECT_EQ(warm_cache.stats().target_misses, 0);
  EXPECT_GE(warm_cache.stats().disk_hits, 1);
}

TEST(DiskCacheTest, ArtifactCodecRejectsTamperedPayloads) {
  compiler::CompilationCache cache;
  const compiler::CompiledKernel kernel = MustCompile(Options(&cache));

  const std::string payload = compiler::EncodeCompiledKernel(kernel);
  const std::optional<compiler::CompiledKernel> decoded =
      compiler::DecodeCompiledKernel(payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->source, kernel.source);
  EXPECT_EQ(decoded->config.config, kernel.config.config);

  // Decoders are total: truncations yield nullopt, never a malformed
  // artifact (payload-content bit flips are caught one layer down by the
  // DiskStore frame checksum).
  for (const std::size_t cut : {payload.size() / 2, std::size_t{8}, std::size_t{0}})
    EXPECT_FALSE(
        compiler::DecodeCompiledKernel(payload.substr(0, cut)).has_value());
  EXPECT_FALSE(compiler::DecodeCompiledKernel("junk payload").has_value());

  // Every decoded kernel carries its programs, so an entry whose IR no
  // longer compiles to bytecode decodes as a miss.
  compiler::CompiledKernel unrebuildable = kernel;
  unrebuildable.device_ir.variants.front().body = ast::Block(
      {ast::Assign("undeclared", ast::AssignOp::kAssign, ast::FloatLit(0.0))});
  EXPECT_FALSE(compiler::DecodeCompiledKernel(
                   compiler::EncodeCompiledKernel(unrebuildable))
                   .has_value());
}

}  // namespace
}  // namespace hipacc
