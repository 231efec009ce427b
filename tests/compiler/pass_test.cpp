// The pass pipeline: its fixed order, per-pass timings and diagnostics,
// trace spans, the dump hook and failure propagation (PassManagerTest, over
// RunPasses), and recompiles for another device or backend through the
// cache (RetargetTest): a frontend hit runs only the target-dependent tail
// and yields what a from-scratch compile yields.
#include <gtest/gtest.h>

#include "compiler/cache.hpp"
#include "compiler/driver.hpp"
#include "compiler/pass.hpp"
#include "ops/kernel_sources.hpp"
#include "sim/trace.hpp"

namespace hipacc {
namespace {

frontend::KernelSource Source() {
  return ops::BilateralMaskSource(1, ast::BoundaryMode::kClamp);
}

/// Names of the pass spans `sink` recorded, in order (cache lookups file
/// events of their own category).
std::vector<std::string> SpanNames(const sim::TraceSink& sink) {
  const support::Json doc = sink.ToJson();
  const support::Json* events = doc.Find("events");
  std::vector<std::string> names;
  if (events == nullptr) return names;
  for (size_t i = 0; i < events->size(); ++i)
    if ((*events)[i].Find("category")->string_value() == "compile")
      names.push_back((*events)[i].Find("name")->string_value());
  return names;
}

TEST(PassManagerTest, FullPipelineHasCanonicalOrder) {
  const std::vector<std::string> expected = {
      "parse", "lower", "estimate", "select_config", "emit", "bytecode"};
  EXPECT_EQ(compiler::DefaultPassNames(), expected);

  // A run that starts at a later pass runs exactly the tail.
  const frontend::KernelSource source = Source();
  auto compiled = compiler::Compile(source, {});
  ASSERT_TRUE(compiled.ok());
  compiler::CompilationContext ctx;
  ctx.artifact = compiled.value();
  ctx.artifact.bytecode.reset();
  ASSERT_TRUE(compiler::RunPasses(ctx, "select_config").ok());
  ASSERT_EQ(ctx.timings.size(), 3u);
  EXPECT_EQ(ctx.timings[0].pass, "select_config");
  EXPECT_EQ(ctx.timings[1].pass, "emit");
  EXPECT_EQ(ctx.timings[2].pass, "bytecode");

  const Status unknown = compiler::RunPasses(ctx, "fuse");
  EXPECT_EQ(unknown.code(), StatusCode::kInternal);
}

TEST(PassManagerTest, RunProducesArtifactTimingsAndDiagnostics) {
  const frontend::KernelSource source = Source();
  compiler::CompilationContext ctx;
  ctx.source = &source;
  ctx.options.image_width = 512;
  ctx.options.image_height = 512;

  const Status status = compiler::RunPasses(ctx, "parse");
  ASSERT_TRUE(status.ok()) << status.ToString();

  EXPECT_FALSE(ctx.artifact.decl.name.empty());
  EXPECT_FALSE(ctx.artifact.device_ir.variants.empty());
  EXPECT_FALSE(ctx.artifact.source.empty());
  EXPECT_GT(ctx.artifact.resources.regs_per_thread, 0);
  EXPECT_NE(ctx.artifact.bytecode, nullptr);

  // One timing per pass, in order; durations are non-negative.
  ASSERT_EQ(ctx.timings.size(), 6u);
  for (size_t i = 0; i < ctx.timings.size(); ++i) {
    EXPECT_EQ(ctx.timings[i].pass, compiler::DefaultPassNames()[i]);
    EXPECT_GE(ctx.timings[i].ms, 0.0);
  }

  // Every pass filed at least one note.
  for (const std::string& name : compiler::DefaultPassNames()) {
    bool found = false;
    for (const compiler::PassDiagnostic& d : ctx.diagnostics)
      found = found || (d.pass == name &&
                        d.severity == compiler::DiagSeverity::kNote);
    EXPECT_TRUE(found) << "no note from pass " << name;
  }
}

TEST(PassManagerTest, PassesRecordTraceSpans) {
  const frontend::KernelSource source = Source();
  sim::TraceSink sink;
  compiler::CompileOptions options;
  options.trace = &sink;
  auto compiled = compiler::Compile(source, options);
  ASSERT_TRUE(compiled.ok());

  const support::Json doc = sink.ToJson();
  const support::Json* events = doc.Find("events");
  ASSERT_NE(events, nullptr);
  for (size_t i = 0; i < events->size(); ++i)
    EXPECT_EQ((*events)[i].Find("category")->string_value(), "compile");
  const std::vector<std::string> names = SpanNames(sink);
  ASSERT_EQ(names.size(), 6u);
  for (size_t i = 0; i < names.size(); ++i)
    EXPECT_EQ(names[i],
              compiler::DefaultPassNames()[i] + " " + compiled.value().decl.name);
}

TEST(PassManagerTest, FailingPassStopsPipelineAndRecordsError) {
  // An unparsable body fails the parse pass; nothing later runs.
  frontend::KernelSource source = Source();
  source.body = "output() = ((";
  compiler::CompilationContext ctx;
  ctx.source = &source;
  const Status status = compiler::RunPasses(ctx, "parse");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  ASSERT_EQ(ctx.timings.size(), 1u);  // only parse ran
  bool has_error = false;
  for (const compiler::PassDiagnostic& d : ctx.diagnostics)
    has_error = has_error || (d.pass == "parse" &&
                              d.severity == compiler::DiagSeverity::kError);
  EXPECT_TRUE(has_error);
}

TEST(PassManagerTest, DumpHookFiresAfterNamedPass) {
  const frontend::KernelSource source = Source();
  compiler::CompilationContext ctx;
  ctx.source = &source;
  ctx.options.dump_after = "lower";
  std::vector<std::string> dumped;
  const Status status = compiler::RunPasses(
      ctx, "parse",
      [&](std::string_view pass, const compiler::CompilationContext& c) {
        dumped.emplace_back(pass);
        // The artifact already has lowered IR, but no source yet.
        EXPECT_FALSE(c.artifact.device_ir.variants.empty());
        EXPECT_TRUE(c.artifact.source.empty());
      });
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(dumped, std::vector<std::string>{"lower"});
}

TEST(RetargetTest, SameOptionsSkipLowerAndEstimate) {
  const frontend::KernelSource source = Source();
  compiler::CompilationCache cache;
  compiler::CompileOptions options;
  options.image_width = 512;
  options.image_height = 512;
  options.cache = &cache;
  auto compiled = compiler::Compile(source, options);
  ASSERT_TRUE(compiled.ok());

  sim::TraceSink sink;
  compiler::CompileOptions retarget = options;
  retarget.device = hw::FindDevice("GeForce GTX 580").value();
  retarget.trace = &sink;
  auto moved = compiler::Compile(source, retarget);
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(cache.stats().frontend_hits, 1);

  // Only the target-dependent tail ran: no parse/lower/estimate spans.
  const std::vector<std::string> names = SpanNames(sink);
  ASSERT_EQ(names.size(), 3u);
  const std::string kernel_name = compiled.value().decl.name;
  EXPECT_EQ(names[0], "select_config " + kernel_name);
  EXPECT_EQ(names[1], "emit " + kernel_name);
  EXPECT_EQ(names[2], "bytecode " + kernel_name);

  // The retargeted artifact matches a from-scratch compile bit for bit.
  compiler::CompileOptions fresh = retarget;
  fresh.trace = nullptr;
  fresh.cache = nullptr;
  auto recompiled = compiler::Compile(source, fresh);
  ASSERT_TRUE(recompiled.ok());
  EXPECT_EQ(moved.value().source, recompiled.value().source);
  EXPECT_EQ(moved.value().config.config, recompiled.value().config.config);
}

TEST(RetargetTest, ChangedCodegenOptionsRelower) {
  const frontend::KernelSource source = Source();
  compiler::CompilationCache cache;
  compiler::CompileOptions options;
  options.cache = &cache;
  auto compiled = compiler::Compile(source, options);
  ASSERT_TRUE(compiled.ok());

  sim::TraceSink sink;
  compiler::CompileOptions retarget = options;
  retarget.codegen.backend = ast::Backend::kOpenCL;
  retarget.trace = &sink;
  auto switched = compiler::Compile(source, retarget);
  ASSERT_TRUE(switched.ok());
  EXPECT_EQ(switched.value().device_ir.backend, ast::Backend::kOpenCL);

  // The codegen options are part of the frontend key, so the backend
  // switch misses it and the whole pipeline runs: lower ran.
  EXPECT_EQ(cache.stats().frontend_hits, 0);
  bool lowered = false;
  for (const std::string& name : SpanNames(sink))
    lowered |= name.rfind("lower ", 0) == 0;
  EXPECT_TRUE(lowered);
}

}  // namespace
}  // namespace hipacc
