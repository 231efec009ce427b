// Point-wise fusion: source-level legality checks plus end-to-end
// equivalence — a fused producer→consumer chain must compute bit-identical
// pixels to running the two kernels separately.
#include "compiler/fusion.hpp"

#include <gtest/gtest.h>

#include "compiler/driver.hpp"
#include "compiler/executable.hpp"
#include "image/metrics.hpp"
#include "image/synthetic.hpp"
#include "ops/kernel_sources.hpp"

namespace hipacc {
namespace {

using compiler::FusePointwise;

frontend::KernelSource Producer() {
  return ops::GaussianSource(3, 1.0f, ast::BoundaryMode::kClamp);
}

TEST(FusePointwiseTest, InlinesConsumerIntoProducer) {
  const frontend::KernelSource producer = Producer();
  const frontend::KernelSource consumer = ops::ScaleOffsetSource();
  Result<frontend::KernelSource> fused =
      FusePointwise(producer, consumer, "Input");
  ASSERT_TRUE(fused.ok()) << fused.status().ToString();
  EXPECT_EQ(fused.value().name, producer.name + "_" + consumer.name);
  // The consumer's read was substituted: no Input(...) read remains from
  // the consumer body, and the producer's output write became a local.
  EXPECT_EQ(fused.value().accessors.size(), producer.accessors.size());
  EXPECT_NE(fused.value().body.find("float fused_Input"), std::string::npos);
  // Consumer params ride along.
  ASSERT_EQ(fused.value().params.size(), 2u);
  EXPECT_EQ(fused.value().params[0].name, "scale");
  EXPECT_EQ(fused.value().params[1].name, "offset");
}

TEST(FusePointwiseTest, RejectsWindowedConsumer) {
  // A consumer with a real window needs producer values at neighbouring
  // points; inlining cannot provide them.
  const Result<frontend::KernelSource> fused = FusePointwise(
      Producer(), ops::GaussianSource(3, 1.0f, ast::BoundaryMode::kClamp),
      "Input");
  ASSERT_FALSE(fused.ok());
  EXPECT_NE(fused.status().message().find("point operators"),
            std::string::npos);
}

TEST(FusePointwiseTest, RejectsUnknownAccessor) {
  const Result<frontend::KernelSource> fused =
      FusePointwise(Producer(), ops::ScaleOffsetSource(), "NoSuch");
  ASSERT_FALSE(fused.ok());
  EXPECT_NE(fused.status().message().find("NoSuch"), std::string::npos);
}

TEST(FusePointwiseTest, RejectsNameCollision) {
  frontend::KernelSource consumer = ops::ScaleOffsetSource();
  consumer.params[0].name = "sum";  // collides with the producer's local
  const Result<frontend::KernelSource> fused =
      FusePointwise(Producer(), consumer, "Input");
  ASSERT_FALSE(fused.ok());
  EXPECT_NE(fused.status().message().find("sum"), std::string::npos);
}

/// Runs `kernel` over `input` through the full compile + simulate path.
HostImage<float> RunKernel(const frontend::KernelSource& kernel,
                           const HostImage<float>& input,
                           const std::vector<std::pair<std::string, double>>&
                               scalars) {
  compiler::CompileOptions copts;
  copts.image_width = input.width();
  copts.image_height = input.height();
  Result<compiler::CompiledKernel> compiled = compiler::Compile(kernel, copts);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  dsl::Image<float> in(input.width(), input.height());
  dsl::Image<float> out(input.width(), input.height());
  in.CopyFrom(input);
  runtime::BindingSet bindings;
  bindings.Input(compiled.value().decl.accessors.front().name, in);
  bindings.Output(out);
  for (const auto& [name, value] : scalars) bindings.Scalar(name, value);
  compiler::SimulatedExecutable exe(std::move(compiled).take(),
                                    hw::TeslaC2050());
  const Result<sim::LaunchStats> stats = exe.Run(bindings);
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  return out.getData();
}

TEST(FusionEquivalenceTest, FusedChainMatchesSeparateLaunchesBitExact) {
  const HostImage<float> input = MakeNoiseImage(64, 48, 7);
  const frontend::KernelSource conv = Producer();
  const frontend::KernelSource scale = ops::ScaleOffsetSource();

  // Separate: conv, then scale over the conv output.
  const HostImage<float> blurred = RunKernel(conv, input, {});
  const HostImage<float> separate =
      RunKernel(scale, blurred, {{"scale", 2.0}, {"offset", 0.25}});

  // Fused: the merged source compiled as it stands (what the graph runtime
  // compiles for a fused stage).
  const Result<frontend::KernelSource> merged =
      FusePointwise(conv, scale, "Input");
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  const HostImage<float> fused =
      RunKernel(merged.value(), input, {{"scale", 2.0}, {"offset", 0.25}});

  EXPECT_EQ(MaxAbsDiff(separate, fused), 0.0);
}

TEST(FusePointwiseTest, ChainsStepsInOrder) {
  const frontend::KernelSource threshold = ops::ThresholdSource();
  const frontend::KernelSource scale = ops::ScaleOffsetSource();

  const Result<frontend::KernelSource> fused =
      FusePointwise(Producer(), scale, "Input");
  ASSERT_TRUE(fused.ok()) << fused.status().ToString();
  EXPECT_EQ(fused.value().name, Producer().name + "_" + scale.name);
  // One more level: the next step treats the merged kernel as its producer.
  // threshold has no accessor named "Missing", so the step fails cleanly
  // rather than silently.
  const Result<frontend::KernelSource> again = FusePointwise(
      fused.value(), threshold, "Missing");
  EXPECT_FALSE(again.ok());
}

}  // namespace
}  // namespace hipacc
