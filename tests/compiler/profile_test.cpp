// Profile-guided configuration selection: the pure DecideSelection pick
// (fastest entry, deterministic ties, the PPT pin), the per-PPT replace
// semantics of the store, and the end-to-end compile behaviour — a sweep's
// optimum becomes the pick, a pick overrides Algorithm 2 and compiles as
// the same configuration forced by hand (one cache entry, one failure
// mode), and an empty store and a device change both fall back
// bit-identically to the heuristic compile.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "compiler/cache.hpp"
#include "compiler/driver.hpp"
#include "compiler/explore.hpp"
#include "compiler/profile.hpp"
#include "hwmodel/device_db.hpp"
#include "ops/kernel_sources.hpp"
#include "runtime/run_options.hpp"
#include "sim/trace.hpp"

namespace hipacc {
namespace {

frontend::KernelSource Source() {
  return ops::BilateralMaskSource(1, ast::BoundaryMode::kClamp);
}

compiler::CompileOptions Options(const hw::DeviceSpec& device, int n = 512) {
  compiler::CompileOptions options;
  options.device = device;
  options.image_width = n;
  options.image_height = n;
  return options;
}

compiler::CompiledKernel MustCompile(
    const compiler::CompileOptions& options,
    const frontend::KernelSource& source = Source()) {
  Result<compiler::CompiledKernel> compiled =
      compiler::Compile(source, options);
  HIPACC_CHECK(compiled.ok());
  return std::move(compiled).take();
}

std::string KeyFor(const compiler::CompiledKernel& kernel,
                   const hw::DeviceSpec& device, int n = 512) {
  return compiler::MakeProfileKey(kernel.source_fingerprint, kernel.codegen,
                                  device, n, n);
}

TEST(DecideSelectionTest, WinnerIsTheFastestFreshEntry) {
  // Every entry is the latest sweep of its PPT, so every entry competes.
  compiler::ProfileRecord record;
  EXPECT_FALSE(compiler::DecideSelection(record).has_value());

  record.entries = {{{32, 6}, 1, 9.0}, {{64, 2}, 2, 4.0}, {{16, 4}, 4, 7.0}};
  std::optional<compiler::ProfileEntry> pick =
      compiler::DecideSelection(record);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(pick->config, (hw::KernelConfig{64, 2}));
  EXPECT_EQ(pick->ppt, 2);

  // Equal times break on fewer threads, then a narrower block, then a
  // smaller ppt, whatever the entry order.
  record.entries = {{{32, 4}, 1, 4.0}, {{16, 4}, 8, 4.0}, {{8, 8}, 4, 4.0},
                    {{8, 8}, 2, 4.0}};
  pick = compiler::DecideSelection(record);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(pick->config, (hw::KernelConfig{8, 8}));
  EXPECT_EQ(pick->ppt, 2);
}

TEST(DecideSelectionTest, RequirePptPinsTheAxis) {
  compiler::ProfileRecord record;
  record.entries = {{{64, 2}, 1, 4.0}, {{32, 6}, 2, 9.0}};  // faster at ppt 1

  std::optional<compiler::ProfileEntry> pick =
      compiler::DecideSelection(record, /*require_ppt=*/2);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(pick->config, (hw::KernelConfig{32, 6}));
  EXPECT_EQ(pick->ppt, 2);
  // No entry at the pinned PPT: no pick at all.
  EXPECT_FALSE(compiler::DecideSelection(record, 4).has_value());
}

TEST(DecideSelectionTest, StaleEntriesStopCompeting) {
  // A sweep after a model change replaces its PPT's entry even when the
  // new best is slower: the stale minimum never survives to be picked.
  compiler::ProfileStore store;
  store.Record("key", {{64, 2}, 1, 4.0});
  store.Record("key", {{16, 8}, 2, 6.0});
  store.Record("key", {{32, 6}, 1, 9.0});

  const compiler::ProfileRecord record = store.Lookup("key");
  ASSERT_EQ(record.entries.size(), 2u);
  std::optional<compiler::ProfileEntry> pick =
      compiler::DecideSelection(record);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(pick->config, (hw::KernelConfig{16, 8}));
  pick = compiler::DecideSelection(record, 1);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(pick->config, (hw::KernelConfig{32, 6}));
  EXPECT_DOUBLE_EQ(pick->ms, 9.0);
}

TEST(ProfileKeyTest, KeyTracksContextButNotPpt) {
  const codegen::CodegenOptions defaults;
  const std::string base = compiler::MakeProfileKey(
      "fingerprint", defaults, hw::TeslaC2050(), 512, 512);
  EXPECT_EQ(base, compiler::MakeProfileKey("fingerprint", defaults,
                                           hw::TeslaC2050(), 512, 512));
  EXPECT_NE(base, compiler::MakeProfileKey("other", defaults,
                                           hw::TeslaC2050(), 512, 512));
  EXPECT_NE(base, compiler::MakeProfileKey("fingerprint", defaults,
                                           hw::RadeonHd5870(), 512, 512));
  EXPECT_NE(base, compiler::MakeProfileKey("fingerprint", defaults,
                                           hw::TeslaC2050(), 1024, 512));
  codegen::CodegenOptions textured = defaults;
  textured.texture = codegen::TexturePolicy::kLinear;
  EXPECT_NE(base, compiler::MakeProfileKey("fingerprint", textured,
                                           hw::TeslaC2050(), 512, 512));

  // pixels_per_thread is normalised out: the sweeps of every PPT share one
  // record.
  codegen::CodegenOptions ppt8 = defaults;
  ppt8.pixels_per_thread = 8;
  EXPECT_EQ(base, compiler::MakeProfileKey("fingerprint", ppt8,
                                           hw::TeslaC2050(), 512, 512));
}

TEST(ProfileReselectionTest, MeasuredWinnerOverridesTheHeuristic) {
  const hw::DeviceSpec device = hw::TeslaC2050();
  const compiler::CompiledKernel baseline = MustCompile(Options(device));
  ASSERT_FALSE(baseline.source_fingerprint.empty());
  const hw::KernelConfig heuristic = baseline.config.config;

  // Prove the alternative configuration is valid for this kernel before
  // seeding it as the pick.
  const hw::KernelConfig alternative{64, 2};
  ASSERT_NE(alternative, heuristic);
  compiler::CompileOptions forced = Options(device);
  forced.forced_config = alternative;
  MustCompile(forced);

  compiler::ProfileStore profiles;
  const int ppt = baseline.device_ir.ppt;
  profiles.Record(KeyFor(baseline, device), {alternative, ppt, 1.0});

  compiler::CompileOptions learned_opts = Options(device);
  learned_opts.profiles = &profiles;
  const compiler::CompiledKernel learned = MustCompile(learned_opts);
  EXPECT_EQ(learned.config.config, alternative);
  EXPECT_EQ(learned.device_ir.ppt, ppt);

  // forced_config always wins over the pick.
  compiler::CompileOptions pinned = Options(device);
  pinned.profiles = &profiles;
  pinned.forced_config = heuristic;
  EXPECT_EQ(MustCompile(pinned).config.config, heuristic);
}

TEST(ProfileReselectionTest, NoHistoryIsABitIdenticalFallback) {
  const hw::DeviceSpec device = hw::TeslaC2050();
  compiler::CompilationCache cache;
  compiler::CompileOptions plain = Options(device);
  plain.cache = &cache;
  const compiler::CompiledKernel baseline = MustCompile(plain);

  // An empty store: the profiled compile is the heuristic compile, down to
  // sharing its cache entry.
  compiler::ProfileStore empty;
  compiler::CompileOptions no_history = plain;
  no_history.profiles = &empty;
  const compiler::CompiledKernel fallback = MustCompile(no_history);
  EXPECT_EQ(fallback.source, baseline.source);
  EXPECT_EQ(fallback.config.config, baseline.config.config);
  EXPECT_EQ(cache.stats().target_hits, 1);
  EXPECT_EQ(cache.stats().target_misses, 1);
}

TEST(ProfileReselectionTest, PickSharesTheForcedCompilesCacheEntry) {
  // A pick compiles as its configuration forced by hand at its PPT: the
  // second compile is a target hit, and the two artifacts agree on
  // everything select_config fills in.
  const hw::DeviceSpec device = hw::TeslaC2050();
  const compiler::CompiledKernel baseline = MustCompile(Options(device));
  compiler::ProfileStore profiles;
  const hw::KernelConfig config{64, 2};
  profiles.Record(KeyFor(baseline, device), {config, 2, 1.0});

  compiler::CompilationCache cache;
  compiler::CompileOptions learned_opts = Options(device);
  learned_opts.codegen.pixels_per_thread = 0;  // auto: the pick's PPT holds
  learned_opts.profiles = &profiles;
  learned_opts.cache = &cache;
  const compiler::CompiledKernel learned = MustCompile(learned_opts);

  compiler::CompileOptions forced_opts = Options(device);
  forced_opts.codegen.pixels_per_thread = 2;
  forced_opts.forced_config = config;
  forced_opts.cache = &cache;
  const compiler::CompiledKernel forced = MustCompile(forced_opts);

  EXPECT_EQ(cache.stats().target_misses, 1);
  EXPECT_EQ(cache.stats().target_hits, 1);
  EXPECT_EQ(learned.config.config, config);
  EXPECT_EQ(learned.device_ir.ppt, 2);
  EXPECT_GT(learned.config.border_threads, 0);
  EXPECT_EQ(forced.source, learned.source);
  EXPECT_EQ(forced.config.config, learned.config.config);
  EXPECT_EQ(forced.config.border_threads, learned.config.border_threads);
  EXPECT_EQ(forced.device_ir.ppt, learned.device_ir.ppt);
}

TEST(ProfileReselectionTest,
     PickThatDoesNotFitFailsLikeAForcedConfiguration) {
  // Only a hand-recorded entry can exceed the device: a sweep measures
  // only configurations that fit. Such a pick fails the compile the way
  // the same forced configuration does.
  const hw::DeviceSpec device = hw::TeslaC2050();
  ASSERT_LT(device.max_threads_per_block, 2048);
  const compiler::CompiledKernel baseline = MustCompile(Options(device));
  compiler::ProfileStore profiles;
  profiles.Record(KeyFor(baseline, device),
                  {{2048, 1}, baseline.device_ir.ppt, 1.0});

  sim::TraceSink trace;
  compiler::CompileOptions options = Options(device);
  options.profiles = &profiles;
  options.trace = &trace;
  const Result<compiler::CompiledKernel> compiled =
      compiler::Compile(Source(), options);
  ASSERT_FALSE(compiled.ok());
  EXPECT_EQ(compiled.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(compiled.status().message().find("2048x1"), std::string::npos)
      << compiled.status().ToString();
  EXPECT_EQ(trace.counter("reselect.measured"), 1);
}

TEST(ProfileReselectionTest, SweepOptimumIsThePick) {
  // A sweep over every PPT into one store. The auto-PPT compile must pick
  // the optimum over all points; a default (PPT 1) compile and a runtime's
  // compile (RunOptions mapped by MakeCompileOptions) must pick the best
  // PPT-1 point.
  constexpr int n = 128;
  const hw::DeviceSpec device = hw::TeslaC2050();
  const frontend::KernelSource source =
      ops::GaussianSource(3, 1.0f, ast::BoundaryMode::kClamp);
  dsl::Image<float> in(n, n), out(n, n);
  runtime::BindingSet bindings;
  bindings.Input("Input", in).Output(out);
  compiler::ProfileStore profiles;
  compiler::ExploreOptions explore;
  explore.jobs = 2;
  explore.profiles = &profiles;
  std::vector<compiler::ExplorePoint> points;
  for (const int ppt : {1, 2, 4, 8}) {
    compiler::CompileOptions options = Options(device, n);
    options.codegen.pixels_per_thread = ppt;
    Result<std::vector<compiler::ExplorePoint>> swept =
        compiler::ExploreConfigurations(MustCompile(options, source), device,
                                        bindings, explore);
    ASSERT_TRUE(swept.ok()) << swept.status().ToString();
    points.insert(points.end(), swept.value().begin(), swept.value().end());
  }
  const compiler::ExplorePoint* best = nullptr;
  const compiler::ExplorePoint* best_ppt1 = nullptr;
  for (const compiler::ExplorePoint& p : points) {
    if (best == nullptr || p.ms < best->ms) best = &p;
    if (p.ppt == 1 && (best_ppt1 == nullptr || p.ms < best_ppt1->ms))
      best_ppt1 = &p;
  }
  ASSERT_NE(best, nullptr);
  ASSERT_NE(best_ppt1, nullptr);

  compiler::CompileOptions auto_ppt = Options(device, n);
  auto_ppt.codegen.pixels_per_thread = 0;
  auto_ppt.profiles = &profiles;
  const compiler::CompiledKernel learned = MustCompile(auto_ppt, source);
  EXPECT_EQ(learned.config.config, best->config);
  EXPECT_EQ(learned.device_ir.ppt, best->ppt);

  compiler::CompileOptions ppt1 = Options(device, n);
  ppt1.profiles = &profiles;
  const compiler::CompiledKernel pinned = MustCompile(ppt1, source);
  EXPECT_EQ(pinned.config.config, best_ppt1->config);
  EXPECT_EQ(pinned.device_ir.ppt, 1);

  compiler::CompilationCache cache;
  const compiler::CompiledKernel runtime_pick = MustCompile(
      runtime::MakeCompileOptions(
          runtime::RunOptions().with_cache(&cache).with_profiles(&profiles), n,
          n),
      source);
  EXPECT_EQ(runtime_pick.config.config, best_ppt1->config);
  EXPECT_EQ(runtime_pick.device_ir.ppt, 1);
}

TEST(ProfileReselectionTest, DeviceChangeRecoversToTheHeuristic) {
  const hw::DeviceSpec tesla = hw::TeslaC2050();
  const hw::DeviceSpec radeon = hw::RadeonHd5870();
  const compiler::CompiledKernel baseline = MustCompile(Options(tesla));

  // Seed a dominant pick under the Tesla key.
  compiler::ProfileStore profiles;
  profiles.Record(KeyFor(baseline, tesla),
                  {{64, 2}, baseline.device_ir.ppt, 1.0});

  // The device change moves the profile key, so the Tesla record never
  // leaks: the Radeon compile matches its profile-less twin exactly.
  compiler::CompileOptions radeon_opts = Options(radeon);
  radeon_opts.codegen.backend = ast::Backend::kOpenCL;
  const compiler::CompiledKernel radeon_baseline = MustCompile(radeon_opts);
  compiler::CompileOptions radeon_learned = radeon_opts;
  radeon_learned.profiles = &profiles;
  const compiler::CompiledKernel recovered = MustCompile(radeon_learned);
  EXPECT_EQ(recovered.source, radeon_baseline.source);
  EXPECT_EQ(recovered.config.config, radeon_baseline.config.config);

  // A sweep under the new key starts the new context's record.
  const std::string radeon_key = KeyFor(recovered, radeon);
  EXPECT_NE(radeon_key, KeyFor(baseline, tesla));
  EXPECT_TRUE(profiles.Lookup(radeon_key).entries.empty());
  profiles.Record(radeon_key,
                  {recovered.config.config, recovered.device_ir.ppt, 2.0});
  EXPECT_EQ(profiles.Lookup(radeon_key).entries.size(), 1u);
}

}  // namespace
}  // namespace hipacc
