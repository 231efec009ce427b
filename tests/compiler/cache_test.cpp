// Compilation cache: key construction, hit/miss semantics at both levels,
// bit-identical cached artifacts, collision safety (same kernel name with
// different source must miss), trace counters, stats accounting, and that
// compiles never touch the persistent store.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "compiler/cache.hpp"
#include "compiler/driver.hpp"
#include "ops/kernel_sources.hpp"
#include "sim/trace.hpp"
#include "support/disk_store.hpp"

namespace hipacc {
namespace {

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

TEST(CacheKeyTest, FrontendKeyDependsOnSourceAndOptions) {
  const frontend::KernelSource source = Source();
  const codegen::CodegenOptions defaults;
  const compiler::CacheKey base = compiler::MakeFrontendKey(source, defaults);
  EXPECT_EQ(base.canonical,
            compiler::MakeFrontendKey(source, defaults).canonical);

  codegen::CodegenOptions texture = defaults;
  texture.texture = codegen::TexturePolicy::kLinear;
  EXPECT_NE(base.canonical,
            compiler::MakeFrontendKey(source, texture).canonical);

  frontend::KernelSource edited = source;
  edited.body += " ";
  EXPECT_NE(base.canonical,
            compiler::MakeFrontendKey(edited, defaults).canonical);
}

TEST(CacheKeyTest, TargetKeyDependsOnDeviceExtentAndForcedConfig) {
  const compiler::CacheKey fe =
      compiler::MakeFrontendKey(Source(), codegen::CodegenOptions{});
  const compiler::CacheKey base =
      compiler::MakeTargetKey(fe, hw::TeslaC2050(), 512, 512, std::nullopt);
  EXPECT_EQ(base.canonical,
            compiler::MakeTargetKey(fe, hw::TeslaC2050(), 512, 512,
                                    std::nullopt)
                .canonical);
  EXPECT_NE(base.canonical,
            compiler::MakeTargetKey(fe, hw::RadeonHd5870(), 512, 512,
                                    std::nullopt)
                .canonical);
  EXPECT_NE(base.canonical,
            compiler::MakeTargetKey(fe, hw::TeslaC2050(), 1024, 512,
                                    std::nullopt)
                .canonical);
  EXPECT_NE(base.canonical,
            compiler::MakeTargetKey(fe, hw::TeslaC2050(), 512, 512,
                                    hw::KernelConfig{128, 1})
                .canonical);
  // 16 hex digits of the 64-bit hash.
  EXPECT_EQ(base.hex().size(), 16u);
}

TEST(CacheTest, RecompileIsTargetHitAndBitIdentical) {
  compiler::CompilationCache cache;
  const frontend::KernelSource source = Source();
  const compiler::CompileOptions options = Options(&cache);

  auto first = compiler::Compile(source, options);
  ASSERT_TRUE(first.ok());
  const compiler::CompilationCache::Stats cold = cache.stats();
  EXPECT_EQ(cold.target_hits, 0);
  EXPECT_EQ(cold.target_misses, 1);
  EXPECT_EQ(cold.frontend_misses, 1);
  EXPECT_GE(cache.size(), 2u);  // frontend + target entries

  auto second = compiler::Compile(source, options);
  ASSERT_TRUE(second.ok());
  const compiler::CompilationCache::Stats warm = cache.stats();
  EXPECT_EQ(warm.target_hits, 1);
  EXPECT_EQ(warm.target_misses, 1);

  // The cached artifact is bit-identical to the original.
  EXPECT_EQ(first.value().source, second.value().source);
  EXPECT_EQ(first.value().resources.regs_per_thread,
            second.value().resources.regs_per_thread);
  EXPECT_EQ(first.value().config.config, second.value().config.config);
  EXPECT_EQ(first.value().source_hash, second.value().source_hash);
}

TEST(CacheTest, ChangedExtentHitsFrontendOnly) {
  compiler::CompilationCache cache;
  const frontend::KernelSource source = Source();

  ASSERT_TRUE(compiler::Compile(source, Options(&cache)).ok());
  compiler::CompileOptions other = Options(&cache);
  other.image_width = 1024;
  ASSERT_TRUE(compiler::Compile(source, other).ok());

  const compiler::CompilationCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.target_hits, 0);
  EXPECT_EQ(stats.target_misses, 2);
  EXPECT_EQ(stats.frontend_hits, 1);  // lowered IR reused for new extent
  EXPECT_EQ(stats.frontend_misses, 1);
}

TEST(CacheTest, SameNameDifferentSourceMisses) {
  compiler::CompilationCache cache;
  const frontend::KernelSource source = Source();

  auto first = compiler::Compile(source, Options(&cache));
  ASSERT_TRUE(first.ok());

  // Same kernel name, different body: must not alias the cached entry.
  frontend::KernelSource renamed = ops::ThresholdSource();
  ASSERT_NE(renamed.body, source.body);
  renamed.name = source.name;
  auto other = compiler::Compile(renamed, Options(&cache));
  ASSERT_TRUE(other.ok());

  const compiler::CompilationCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.target_hits, 0);
  EXPECT_EQ(stats.frontend_hits, 0);
  EXPECT_NE(first.value().source, other.value().source);
  EXPECT_NE(first.value().source_hash, other.value().source_hash);
}

TEST(CacheTest, ColdLookupsReportMissesToTrace) {
  compiler::CompilationCache cache;
  sim::TraceSink sink;
  compiler::CompileOptions options = Options(&cache);
  options.trace = &sink;

  ASSERT_TRUE(compiler::Compile(Source(), options).ok());
  EXPECT_EQ(sink.counter("cache_miss.target"), 1);
  EXPECT_EQ(sink.counter("cache_miss.frontend"), 1);
  EXPECT_EQ(sink.counter("cache_hit.target"), 0);

  ASSERT_TRUE(compiler::Compile(Source(), options).ok());
  EXPECT_EQ(sink.counter("cache_hit.target"), 1);

  // The counters ride along in the serialised trace.
  const support::Json doc = sink.ToJson();
  const support::Json* counters = doc.Find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->Find("cache_hit.target"), nullptr);
  EXPECT_EQ(counters->Find("cache_hit.target")->int_value(), 1);
}

TEST(CacheTest, ClearEmptiesEverything) {
  compiler::CompilationCache cache;
  ASSERT_TRUE(compiler::Compile(Source(), Options(&cache)).ok());
  EXPECT_GT(cache.size(), 0u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().misses(), 0);

  ASSERT_TRUE(compiler::Compile(Source(), Options(&cache)).ok());
  EXPECT_EQ(cache.stats().target_misses, 1);
}

TEST(CacheTest, RetargetPopulatesAndHitsCache) {
  compiler::CompilationCache cache;
  const frontend::KernelSource source = Source();
  auto compiled = compiler::Compile(source, Options(&cache));
  ASSERT_TRUE(compiled.ok());

  // Another device: a target miss served by the frontend entry.
  compiler::CompileOptions amd = Options(&cache);
  amd.device = hw::RadeonHd5870();
  auto first = compiler::Compile(source, amd);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(cache.stats().target_misses, 2);
  EXPECT_EQ(cache.stats().frontend_hits, 1);

  // Compiling for that device again is a pure target hit.
  auto again = compiler::Compile(source, amd);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(cache.stats().target_hits, 1);
  EXPECT_EQ(first.value().source, again.value().source);
}

/// Points GlobalDiskStore at a fresh directory for one test, restoring the
/// disabled default on exit.
struct DiskStoreGuard {
  explicit DiskStoreGuard(const std::string& root) {
    std::filesystem::remove_all(root);
    support::DiskStoreOptions options;
    options.root = root;
    support::ConfigureGlobalDiskStore(std::move(options));
  }
  ~DiskStoreGuard() { support::ConfigureGlobalDiskStore({}); }
};

TEST(CacheTest, CompilesNeverTouchTheDiskStore) {
  // The cache lives in memory: with the persistent tier enabled, a cold
  // compile and a compile through a fresh cache (a second process, as far
  // as the cache can tell) neither read nor write it.
  const std::string root = ::testing::TempDir() + "/cache_test_disk_store";
  DiskStoreGuard guard(root);
  compiler::CompilationCache cold;
  ASSERT_TRUE(compiler::Compile(Source(), Options(&cold)).ok());
  compiler::CompilationCache fresh;
  ASSERT_TRUE(compiler::Compile(Source(), Options(&fresh)).ok());
  EXPECT_EQ(fresh.stats().target_misses, 1);

  const support::DiskStoreStats stats = support::GlobalDiskStore().stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.stores, 0u);
  if (std::filesystem::exists(root)) {
    for (const auto& entry :
         std::filesystem::recursive_directory_iterator(root)) {
      EXPECT_NE(entry.path().filename().string(), "frontend") << entry.path();
      EXPECT_NE(entry.path().filename().string(), "target") << entry.path();
    }
  }
}

}  // namespace
}  // namespace hipacc
