// Fusion planner and the horizontal / halo mergers: legality rules,
// alpha-renaming, bit-exact equivalence of fused kernels against separate
// launches, and the profitability model's behaviour against device limits.
#include "compiler/fusion_planner.hpp"

#include <gtest/gtest.h>

#include "compiler/driver.hpp"
#include "compiler/executable.hpp"
#include "compiler/fusion.hpp"
#include "image/metrics.hpp"
#include "image/synthetic.hpp"
#include "ops/isp.hpp"
#include "ops/kernel_sources.hpp"
#include "ops/masks.hpp"

namespace hipacc {
namespace {

using ast::BoundaryMode;
using compiler::CandidateDecision;
using compiler::FuseHalo;
using compiler::FuseHorizontal;
using compiler::FuseKind;
using compiler::FusionMode;
using compiler::FusionPlannerOptions;
using compiler::ParseFusionMode;
using compiler::PlannerStage;
using compiler::PlanNextFusion;

frontend::KernelSource SobelX(BoundaryMode mode = BoundaryMode::kClamp) {
  return ops::ConvolutionSource("sobel_x", 3, 3, ops::SobelMaskX(), mode);
}
frontend::KernelSource SobelY(BoundaryMode mode = BoundaryMode::kClamp) {
  return ops::ConvolutionSource("sobel_y", 3, 3, ops::SobelMaskY(), mode);
}

TEST(FusionModeTest, ParsesAllSpellings) {
  EXPECT_EQ(ParseFusionMode("off").value(), FusionMode::kOff);
  EXPECT_EQ(ParseFusionMode("point").value(), FusionMode::kPoint);
  EXPECT_EQ(ParseFusionMode("horizontal").value(), FusionMode::kHorizontal);
  EXPECT_EQ(ParseFusionMode("halo").value(), FusionMode::kHalo);
  EXPECT_EQ(ParseFusionMode("all").value(), FusionMode::kAll);
  EXPECT_FALSE(ParseFusionMode("vertical").ok());
  EXPECT_FALSE(ParseFusionMode("").ok());
}

TEST(FusionModeTest, AllowsMatchingKindsOnly) {
  EXPECT_FALSE(FusionModeAllows(FusionMode::kOff, FuseKind::kPoint));
  EXPECT_TRUE(FusionModeAllows(FusionMode::kPoint, FuseKind::kPoint));
  EXPECT_FALSE(FusionModeAllows(FusionMode::kPoint, FuseKind::kHalo));
  EXPECT_TRUE(FusionModeAllows(FusionMode::kHalo, FuseKind::kHalo));
  EXPECT_TRUE(FusionModeAllows(FusionMode::kAll, FuseKind::kHorizontal));
}

// --- horizontal merger ------------------------------------------------

TEST(FuseHorizontalTest, MergesSobelPairWithAlphaRenaming) {
  // Both kernels come from the same factory: mask "M" and body locals
  // sum/xf/yf collide. The merger must rename b's copies, not reject.
  const Result<frontend::KernelSource> fused =
      FuseHorizontal(SobelX(), "Input", SobelY(), "Input", "gy");
  ASSERT_TRUE(fused.ok()) << fused.status().ToString();
  ASSERT_EQ(fused.value().extra_outputs.size(), 1u);
  EXPECT_EQ(fused.value().extra_outputs[0], "gy");
  // b's output write was retargeted to the named extra output.
  EXPECT_NE(fused.value().body.find("output(gy)"), std::string::npos);
  // Two masks with distinct names survive.
  ASSERT_EQ(fused.value().masks.size(), 2u);
  EXPECT_NE(fused.value().masks[0].name, fused.value().masks[1].name);
  // One shared accessor, not two.
  EXPECT_EQ(fused.value().accessors.size(), 1u);
}

TEST(FuseHorizontalTest, SobelPairBitIdenticalToSeparateLaunches) {
  const HostImage<float> input = MakeNoiseImage(48, 40, 21);
  compiler::CompileOptions copts;
  copts.image_width = input.width();
  copts.image_height = input.height();

  auto run_single = [&](const frontend::KernelSource& k) {
    Result<compiler::CompiledKernel> ck = compiler::Compile(k, copts);
    EXPECT_TRUE(ck.ok()) << ck.status().ToString();
    dsl::Image<float> in(input.width(), input.height());
    dsl::Image<float> out(input.width(), input.height());
    in.CopyFrom(input);
    runtime::BindingSet bindings;
    bindings.Input("Input", in).Output(out);
    compiler::SimulatedExecutable exe(std::move(ck).take(), hw::TeslaC2050());
    const Result<sim::LaunchStats> stats = exe.Run(bindings);
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
    return out.getData();
  };
  const HostImage<float> gx_ref = run_single(SobelX());
  const HostImage<float> gy_ref = run_single(SobelY());

  const Result<frontend::KernelSource> fused =
      FuseHorizontal(SobelX(), "Input", SobelY(), "Input", "gy");
  ASSERT_TRUE(fused.ok()) << fused.status().ToString();
  Result<compiler::CompiledKernel> ck = compiler::Compile(fused.value(), copts);
  ASSERT_TRUE(ck.ok()) << ck.status().ToString();
  dsl::Image<float> in(input.width(), input.height());
  dsl::Image<float> gx(input.width(), input.height());
  dsl::Image<float> gy(input.width(), input.height());
  in.CopyFrom(input);
  runtime::BindingSet bindings;
  bindings.Input("Input", in).Output(gx).Output("gy", gy);
  compiler::SimulatedExecutable exe(std::move(ck).take(), hw::TeslaC2050());
  const Result<sim::LaunchStats> stats = exe.Run(bindings);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  EXPECT_EQ(MaxAbsDiff(gx_ref, gx.getData()), 0.0);
  EXPECT_EQ(MaxAbsDiff(gy_ref, gy.getData()), 0.0);
}

TEST(FuseHorizontalTest, RejectsParamCollision) {
  // Two scale_offset siblings both bind scalars named scale/offset; the
  // runtime binds params by name, so merging them is ambiguous.
  const Result<frontend::KernelSource> fused = FuseHorizontal(
      ops::ScaleOffsetSource(), "Input", ops::ScaleOffsetSource(), "Input",
      "second");
  ASSERT_FALSE(fused.ok());
  EXPECT_NE(fused.status().message().find("scale"), std::string::npos);
}

TEST(FuseHorizontalTest, RejectsWindowedBoundaryMismatch) {
  // Both siblings window the shared image but disagree on the boundary
  // mode; a single merged accessor cannot honour both.
  const Result<frontend::KernelSource> fused = FuseHorizontal(
      SobelX(BoundaryMode::kClamp), "Input", SobelY(BoundaryMode::kMirror),
      "Input", "gy");
  ASSERT_FALSE(fused.ok());
  EXPECT_NE(fused.status().message().find("boundary"), std::string::npos);
}

TEST(FuseHorizontalTest, RejectsMultiOutputSecondSibling) {
  Result<frontend::KernelSource> pair =
      FuseHorizontal(SobelX(), "Input", SobelY(), "Input", "gy");
  ASSERT_TRUE(pair.ok());
  // Folding a multi-output kernel in as the *second* sibling is not
  // supported (its named writes cannot be retargeted); as the first
  // sibling it accumulates further outputs fine.
  const Result<frontend::KernelSource> bad = FuseHorizontal(
      ops::ScaleOffsetSource(), "Input", pair.value(), "Input", "third");
  ASSERT_FALSE(bad.ok());
  const Result<frontend::KernelSource> good = FuseHorizontal(
      pair.value(), "Input", ops::ThresholdSource(), "Input", "mask_img");
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(good.value().extra_outputs.size(), 2u);
}

// --- halo merger ------------------------------------------------------

/// Compiles and runs `kernel` over `input` on the simulator.
HostImage<float> RunOn(const frontend::KernelSource& kernel,
                       const HostImage<float>& input,
                       const std::vector<std::pair<std::string, double>>&
                           scalars = {}) {
  compiler::CompileOptions copts;
  copts.image_width = input.width();
  copts.image_height = input.height();
  Result<compiler::CompiledKernel> ck = compiler::Compile(kernel, copts);
  EXPECT_TRUE(ck.ok()) << ck.status().ToString();
  dsl::Image<float> in(input.width(), input.height());
  dsl::Image<float> out(input.width(), input.height());
  in.CopyFrom(input);
  runtime::BindingSet bindings;
  bindings.Input(ck.value().decl.accessors.front().name, in).Output(out);
  for (const auto& [name, value] : scalars) bindings.Scalar(name, value);
  compiler::SimulatedExecutable exe(std::move(ck).take(), hw::TeslaC2050());
  const Result<sim::LaunchStats> stats = exe.Run(bindings);
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  return out.getData();
}

TEST(FuseHaloTest, PointProducerIntoConvolutionBitExact) {
  // scale_offset -> sobel: the consumer re-evaluates the producer at every
  // tap, with boundary-remapped coordinates at the edges.
  const HostImage<float> input = MakeNoiseImage(40, 33, 3);
  for (const BoundaryMode mode : {BoundaryMode::kClamp, BoundaryMode::kMirror}) {
    const HostImage<float> scaled =
        RunOn(ops::ScaleOffsetSource(), input, {{"scale", 1.5}, {"offset", -0.2}});
    const HostImage<float> reference = RunOn(SobelX(mode), scaled);

    const Result<frontend::KernelSource> fused =
        FuseHalo(ops::ScaleOffsetSource(), SobelX(mode), "Input",
                 input.width(), input.height());
    ASSERT_TRUE(fused.ok()) << fused.status().ToString();
    const HostImage<float> got =
        RunOn(fused.value(), input, {{"scale", 1.5}, {"offset", -0.2}});
    EXPECT_EQ(MaxAbsDiff(reference, got), 0.0)
        << "mode " << static_cast<int>(mode);
  }
}

TEST(FuseHaloTest, ConvolveProducerIntoLaplacianBitExact) {
  // gaussian (expressed with the convolve() intrinsic) -> laplacian: the
  // producer's convolve is pre-expanded into a tap sum, then inlined at
  // every consumer tap. Both kernels name their mask "M" — legal, because
  // the producer's mask is fully consumed by the expansion.
  const HostImage<float> input = MakeAngiogramPhantom(48, 48, 0.02f, 5);
  const frontend::KernelSource producer =
      ops::GaussianConvolveSource(3, 1.0f, BoundaryMode::kClamp);
  const frontend::KernelSource consumer = ops::ConvolutionSource(
      "laplacian", 3, 3, ops::LaplacianMask3(), BoundaryMode::kClamp);

  const HostImage<float> reference = RunOn(consumer, RunOn(producer, input));

  const Result<frontend::KernelSource> fused =
      FuseHalo(producer, consumer, "Input", input.width(), input.height());
  ASSERT_TRUE(fused.ok()) << fused.status().ToString();
  // The producer's mask was folded into literals: one mask (the consumer's)
  // remains, and the fused accessor window widened from 3x3 to 5x5.
  EXPECT_EQ(fused.value().masks.size(), 1u);
  ASSERT_EQ(fused.value().accessors.size(), 1u);
  EXPECT_EQ(fused.value().accessors[0].window.size_x(), 5);
  EXPECT_EQ(fused.value().accessors[0].window.size_y(), 5);

  EXPECT_EQ(MaxAbsDiff(reference, RunOn(fused.value(), input)), 0.0);
}

TEST(FuseHaloTest, RejectsUnsupportedConsumerBoundary) {
  const frontend::KernelSource consumer = ops::ConvolutionSource(
      "box", 3, 3, ops::BoxMask(3), BoundaryMode::kRepeat);
  const Result<frontend::KernelSource> fused =
      FuseHalo(ops::ScaleOffsetSource(), consumer, "Input", 32, 32);
  ASSERT_FALSE(fused.ok());
  EXPECT_NE(fused.status().message().find("boundary"), std::string::npos);
}

TEST(FuseHaloTest, RejectsLoopBodiedProducer) {
  // ConvolutionSource bodies are for-loops, not a single `output() = expr;`
  // statement — the halo merger only inlines expression producers.
  const Result<frontend::KernelSource> fused =
      FuseHalo(SobelX(), SobelY(), "Input", 32, 32);
  ASSERT_FALSE(fused.ok());
  EXPECT_NE(fused.status().message().find("expression"), std::string::npos);
}

// --- planner ----------------------------------------------------------

std::vector<PlannerStage> TwoStageChain(const frontend::KernelSource& a,
                                        const frontend::KernelSource& b,
                                        int w, int h) {
  PlannerStage sa;
  sa.fusable = true;
  sa.name = "a";
  sa.source = &a;
  sa.inputs = {{"Input", "in"}};
  sa.width = w;
  sa.height = h;
  PlannerStage sb = sa;
  sb.name = "b";
  sb.source = &b;
  sb.inputs = {{"Input", "a"}};
  return {sa, sb};
}

TEST(FusionPlannerTest, PlansPointEdgeOverChain) {
  const frontend::KernelSource conv = SobelX();
  const frontend::KernelSource scale = ops::ScaleOffsetSource();
  const std::vector<PlannerStage> stages = TwoStageChain(conv, scale, 64, 64);
  FusionPlannerOptions options;
  const auto plan = PlanNextFusion(stages, options);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->request.kind, FuseKind::kPoint);
  EXPECT_EQ(plan->into, 1);
  EXPECT_EQ(plan->retired, 0);
}

TEST(FusionPlannerTest, RespectsModeRestriction) {
  const frontend::KernelSource conv = SobelX();
  const frontend::KernelSource scale = ops::ScaleOffsetSource();
  const std::vector<PlannerStage> stages = TwoStageChain(conv, scale, 64, 64);
  FusionPlannerOptions options;
  options.mode = FusionMode::kHorizontal;  // no siblings here
  EXPECT_FALSE(PlanNextFusion(stages, options).has_value());
  options.mode = FusionMode::kOff;
  EXPECT_FALSE(PlanNextFusion(stages, options).has_value());
}

TEST(FusionPlannerTest, RecordsStructuralRejectReasons) {
  // "a" is external: the planner must refuse to eliminate it and say why.
  const frontend::KernelSource conv = SobelX();
  const frontend::KernelSource scale = ops::ScaleOffsetSource();
  std::vector<PlannerStage> stages = TwoStageChain(conv, scale, 64, 64);
  stages[0].external = true;
  std::vector<CandidateDecision> decisions;
  FusionPlannerOptions options;
  options.decisions = &decisions;
  EXPECT_FALSE(PlanNextFusion(stages, options).has_value());
  ASSERT_FALSE(decisions.empty());
  bool saw_external = false;
  for (const CandidateDecision& d : decisions) {
    EXPECT_FALSE(d.accepted);
    saw_external |= d.reason.find("externally visible") != std::string::npos;
  }
  EXPECT_TRUE(saw_external);
}

TEST(FusionPlannerTest, DeclinesFusionExceedingDeviceResources) {
  // A device with a scratchpad too small for the widened fused tile: the
  // halo candidate is legal but must be declined by the profitability
  // model (Compile fails in config selection, not in the merger).
  const frontend::KernelSource producer =
      ops::GaussianConvolveSource(3, 1.0f, BoundaryMode::kClamp);
  const frontend::KernelSource consumer = ops::ConvolutionSource(
      "laplacian", 3, 3, ops::LaplacianMask3(), BoundaryMode::kClamp);
  std::vector<PlannerStage> stages = TwoStageChain(producer, consumer, 64, 64);

  hw::DeviceSpec tiny = hw::TeslaC2050();
  tiny.name = "tiny";
  tiny.smem_per_sm = 256;   // no staging tile with a 2-pixel halo fits
  tiny.regs_per_sm = 1024;

  std::vector<CandidateDecision> decisions;
  FusionPlannerOptions options;
  options.decisions = &decisions;
  options.compile.device = tiny;
  options.compile.codegen.use_scratchpad = true;
  EXPECT_FALSE(PlanNextFusion(stages, options).has_value());
  bool saw_resource_decline = false;
  for (const CandidateDecision& d : decisions)
    if (d.kind == FuseKind::kHalo && d.legal && !d.accepted &&
        d.reason.find("does not fit the device") != std::string::npos)
      saw_resource_decline = true;
  EXPECT_TRUE(saw_resource_decline);

  // The same candidate on the real device is accepted.
  decisions.clear();
  FusionPlannerOptions roomy;
  roomy.decisions = &decisions;
  const auto plan = PlanNextFusion(stages, roomy);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->request.kind, FuseKind::kHalo);
}

// --- host cost model ----------------------------------------------------

/// The decision recorded for (kind, producer, consumer), or null.
const CandidateDecision* FindDecision(
    const std::vector<CandidateDecision>& decisions, FuseKind kind,
    const std::string& producer, const std::string& consumer) {
  for (const CandidateDecision& d : decisions)
    if (d.kind == kind && d.producer == producer && d.consumer == consumer)
      return &d;
  return nullptr;
}

FusionPlannerOptions HostOptions(std::vector<CandidateDecision>* decisions) {
  FusionPlannerOptions options;
  options.host_stages = true;
  options.decisions = decisions;
  return options;
}

TEST(FusionPlannerHostModelTest, AcceptsPointEdge) {
  // Point fusion drops a store, a load and a stage: cheaper on the host.
  const frontend::KernelSource conv = SobelX();
  const frontend::KernelSource scale = ops::ScaleOffsetSource();
  const std::vector<PlannerStage> stages = TwoStageChain(conv, scale, 64, 64);
  std::vector<CandidateDecision> decisions;
  const auto plan = PlanNextFusion(stages, HostOptions(&decisions));
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->request.kind, FuseKind::kPoint);
  const CandidateDecision* d =
      FindDecision(decisions, FuseKind::kPoint, "a", "b");
  ASSERT_NE(d, nullptr);
  EXPECT_TRUE(d->accepted);
  EXPECT_EQ(d->model, compiler::CostModel::kHost);
  EXPECT_GT(d->score, 0.0);
  EXPECT_NE(d->reason.find("instructions/pixel"), std::string::npos)
      << d->reason;
}

TEST(FusionPlannerHostModelTest, AcceptsSobelHorizontalPair) {
  // A horizontal merge removes no instruction, only a stage: the positive
  // per-stage cost breaks the tie in its favour.
  const frontend::KernelSource gx = SobelX();
  const frontend::KernelSource gy = SobelY();
  std::vector<PlannerStage> stages = TwoStageChain(gx, gy, 64, 48);
  stages[1].inputs = {{"Input", "in"}};
  std::vector<CandidateDecision> decisions;
  const auto plan = PlanNextFusion(stages, HostOptions(&decisions));
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->request.kind, FuseKind::kHorizontal);
  const CandidateDecision* d =
      FindDecision(decisions, FuseKind::kHorizontal, "a", "b");
  ASSERT_NE(d, nullptr);
  EXPECT_TRUE(d->accepted) << d->reason;
  EXPECT_EQ(d->model, compiler::CostModel::kHost);
  EXPECT_GT(d->score, 0.0);
}

TEST(FusionPlannerHostModelTest, DeclinesIspLumaIntoDenoiseHaloEdge) {
  // The ISP's y -> y_dn: the device model accepts inlining the RGB->Y
  // matrix into the 3x3 Gaussian, the host model declines it (every tap
  // re-evaluates the matrix). r, g and b are sources here.
  const frontend::KernelSource y = ops::ColorMatrixSource("rgb2y");
  const frontend::KernelSource denoise =
      ops::GaussianSource(3, 0.8f, BoundaryMode::kClamp);
  std::vector<PlannerStage> stages = TwoStageChain(y, denoise, 256, 256);
  stages[0].name = "y";
  stages[0].inputs = {{"R", "r"}, {"G", "g"}, {"B", "b"}};
  stages[1].name = "y_dn";
  stages[1].inputs = {{"Input", "y"}};

  std::vector<CandidateDecision> decisions;
  EXPECT_FALSE(PlanNextFusion(stages, HostOptions(&decisions)).has_value());
  const CandidateDecision* host =
      FindDecision(decisions, FuseKind::kHalo, "y", "y_dn");
  ASSERT_NE(host, nullptr);
  EXPECT_TRUE(host->legal);
  EXPECT_FALSE(host->accepted);
  EXPECT_EQ(host->model, compiler::CostModel::kHost);
  EXPECT_LT(host->score, 0.0);
  EXPECT_NE(host->reason.find("instructions/pixel"), std::string::npos)
      << host->reason;

  decisions.clear();
  FusionPlannerOptions device;
  device.decisions = &decisions;
  const auto plan = PlanNextFusion(stages, device);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->request.kind, FuseKind::kHalo);
  const CandidateDecision* dev =
      FindDecision(decisions, FuseKind::kHalo, "y", "y_dn");
  ASSERT_NE(dev, nullptr);
  EXPECT_EQ(dev->model, compiler::CostModel::kDevice);
  EXPECT_NE(dev->reason.find("cycles/pixel"), std::string::npos)
      << dev->reason;
}

TEST(FusionPlannerHostModelTest, DeclinesFusionTheHostCannotRun) {
  // Each 3x3 stage has a 1-pixel halo, which a 3-pixel-wide image fits;
  // the fused 5x5 window's 2-pixel halo does not, so the host would hand
  // the fused stage to the simulator. The planner declines, naming why.
  const frontend::KernelSource producer =
      ops::GaussianConvolveSource(3, 1.0f, BoundaryMode::kClamp);
  const frontend::KernelSource consumer = ops::ConvolutionSource(
      "laplacian", 3, 3, ops::LaplacianMask3(), BoundaryMode::kClamp);
  const std::vector<PlannerStage> stages =
      TwoStageChain(producer, consumer, 3, 64);
  std::vector<CandidateDecision> decisions;
  FusionPlannerOptions options = HostOptions(&decisions);
  options.mode = FusionMode::kHalo;
  EXPECT_FALSE(PlanNextFusion(stages, options).has_value());
  const CandidateDecision* d =
      FindDecision(decisions, FuseKind::kHalo, "a", "b");
  ASSERT_NE(d, nullptr);
  EXPECT_TRUE(d->legal);
  EXPECT_FALSE(d->accepted);
  EXPECT_EQ(d->model, compiler::CostModel::kHost);
  EXPECT_NE(d->reason.find("onto the simulator"), std::string::npos)
      << d->reason;
  EXPECT_NE(d->reason.find("halo"), std::string::npos) << d->reason;
}

TEST(FusionPlannerTest, DedupeKeepsAcceptedVerdict) {
  std::vector<CandidateDecision> decisions;
  CandidateDecision reject;
  reject.kind = FuseKind::kHalo;
  reject.producer = "a";
  reject.consumer = "b";
  reject.reason = "first look: too expensive";
  CandidateDecision accept = reject;
  accept.legal = true;
  accept.accepted = true;
  accept.reason = "second look: profitable";
  CandidateDecision other = reject;
  other.kind = FuseKind::kPoint;
  decisions = {reject, accept, reject, other};
  compiler::DedupeDecisions(&decisions);
  ASSERT_EQ(decisions.size(), 2u);
  EXPECT_TRUE(decisions[0].accepted);  // accepted verdict wins
  EXPECT_EQ(decisions[1].kind, FuseKind::kPoint);
}

}  // namespace
}  // namespace hipacc
