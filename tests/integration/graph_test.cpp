// Pipeline graph runtime: DAG validation, scheduling, buffer pooling,
// fusion, and graph-vs-eager bit-identity of the multiresolution filter.
#include "runtime/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "compiler/cache.hpp"
#include "compiler/driver.hpp"
#include "image/metrics.hpp"
#include "image/synthetic.hpp"
#include "ops/isp.hpp"
#include "ops/kernel_sources.hpp"
#include "ops/masks.hpp"
#include "ops/pyramid.hpp"
#include "runtime/graph_plan.hpp"
#include "sim/trace.hpp"

namespace hipacc {
namespace {

using ast::BoundaryMode;
using runtime::GraphOptions;
using runtime::PipelineGraph;

frontend::KernelSource Conv3(BoundaryMode mode = BoundaryMode::kClamp) {
  return ops::GaussianSource(3, 1.0f, mode);
}

TEST(PipelineGraphTest, RejectsCycleWithStageNames) {
  PipelineGraph graph;
  graph.Kernel("a", ops::ScaleOffsetSource(), {{"Input", "b"}},
               {{"scale", 1.0}, {"offset", 0.0}});
  graph.Kernel("b", ops::ScaleOffsetSource(), {{"Input", "a"}},
               {{"scale", 1.0}, {"offset", 0.0}});
  graph.Output("b");
  HostImage<float> out(8, 8);
  const Status status = graph.Run({}, {{"b", &out}});
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("cycle"), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("a"), std::string::npos);
  EXPECT_NE(status.message().find("b"), std::string::npos);
}

TEST(PipelineGraphTest, RejectsUndeclaredImage) {
  PipelineGraph graph;
  graph.Source("in", 16, 16);
  graph.Kernel("blur", Conv3(), {{"Input", "nowhere"}});
  graph.Output("blur");
  HostImage<float> in = MakeNoiseImage(16, 16, 1), out(16, 16);
  const Status status = graph.Run({{"in", &in}}, {{"blur", &out}});
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("nowhere"), std::string::npos);
  EXPECT_NE(status.message().find("blur"), std::string::npos);
}

TEST(PipelineGraphTest, RejectsDuplicateProducer) {
  PipelineGraph graph;
  graph.Source("in", 16, 16);
  graph.Kernel("x", Conv3(), {{"Input", "in"}});
  graph.Kernel("x", Conv3(), {{"Input", "in"}});  // same virtual image
  graph.Output("x");
  HostImage<float> in = MakeNoiseImage(16, 16, 1), out(16, 16);
  const Status status = graph.Run({{"in", &in}}, {{"x", &out}});
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("more than one"), std::string::npos);
}

TEST(PipelineGraphTest, RejectsUnboundSourceAndUndeclaredOutput) {
  PipelineGraph graph;
  graph.Source("in", 16, 16);
  graph.Kernel("blur", Conv3(), {{"Input", "in"}});
  graph.Output("blur");
  HostImage<float> in = MakeNoiseImage(16, 16, 1), out(16, 16);
  EXPECT_FALSE(graph.Run({}, {{"blur", &out}}).ok());  // source unbound
  // Binding an image that is not a declared output is an error too.
  EXPECT_FALSE(graph.Run({{"in", &in}}, {{"in", &out}}).ok());
  // Extent mismatch between declaration and binding.
  HostImage<float> small = MakeNoiseImage(8, 8, 2);
  EXPECT_FALSE(graph.Run({{"small", &small}, {"in", &small}}, {{"blur", &out}})
                   .ok());
}

TEST(PipelineGraphTest, DiamondExecutesEachProducerOnce) {
  // in -> left, in -> right, (left, right) -> merge. Point-wise merge over
  // two blurred branches; fusion disabled so the stage count is exact.
  PipelineGraph graph;
  graph.Source("in", 32, 32)
      .Kernel("left", Conv3(), {{"Input", "in"}})
      .Kernel("right", Conv3(BoundaryMode::kMirror), {{"Input", "in"}})
      .Kernel("merge", ops::PyramidDetailSource(),
              {{"U", "left"}, {"Fine", "right"}})
      .Output("merge");
  sim::TraceSink trace;
  GraphOptions options;
  options.fuse = compiler::FusionMode::kOff;
  options.run.trace = &trace;
  HostImage<float> in = MakeNoiseImage(32, 32, 3), out(32, 32);
  ASSERT_TRUE(graph.Run({{"in", &in}}, {{"merge", &out}}, options).ok());
  // Four declared stages, each run exactly once.
  EXPECT_EQ(trace.counter("graph.stages"), 4);
  EXPECT_EQ(graph.stage_count(), 4u);

  // A second run executes them again (stages double), reusing pooled
  // buffers instead of allocating.
  const long long allocs = trace.counter("bufpool.alloc");
  ASSERT_TRUE(graph.Run({{"in", &in}}, {{"merge", &out}}, options).ok());
  EXPECT_EQ(trace.counter("graph.stages"), 8);
  EXPECT_EQ(trace.counter("bufpool.alloc"), allocs);
  EXPECT_GT(trace.counter("bufpool.reuse"), 0);
  EXPECT_GT(graph.pool().reuse_count(), 0);
}

TEST(PipelineGraphTest, FusesPointwiseConsumerAndStaysBitIdentical) {
  // conv -> scale: with fusion the scale stage disappears into the conv
  // launch; the pixels must not change.
  const HostImage<float> in = MakeNoiseImage(48, 40, 11);
  HostImage<float> fused_out(48, 40), eager_out(48, 40);
  for (const bool fuse : {true, false}) {
    PipelineGraph graph;
    graph.Source("in", 48, 40)
        .Kernel("blur", Conv3(), {{"Input", "in"}})
        .Kernel("scaled", ops::ScaleOffsetSource(), {{"Input", "blur"}},
                {{"scale", 2.0}, {"offset", 0.25}})
        .Output("scaled");
    sim::TraceSink trace;
    GraphOptions options;
    options.fuse =
        fuse ? compiler::FusionMode::kAll : compiler::FusionMode::kOff;
    options.run.trace = &trace;
    HostImage<float>& out = fuse ? fused_out : eager_out;
    ASSERT_TRUE(graph.Run({{"in", &in}}, {{"scaled", &out}}, options).ok());
    if (fuse)
      EXPECT_EQ(trace.counter("graph.fused_edges"), 1);
    else
      EXPECT_EQ(trace.counter("graph.fused_edges"), 0);
  }
  EXPECT_EQ(MaxAbsDiff(fused_out, eager_out), 0.0);
}

TEST(PipelineGraphTest, FusesSiblingSobelsHorizontally) {
  // Two Sobel stages read the same input: one multi-output launch must
  // produce both gradients, bit-identical to the unfused graph.
  const HostImage<float> in = MakeNoiseImage(64, 48, 13);
  HostImage<float> gx[2] = {{64, 48}, {64, 48}}, gy[2] = {{64, 48}, {64, 48}};
  for (const bool fuse : {true, false}) {
    PipelineGraph graph;
    graph.Source("in", 64, 48)
        .Kernel("gx", ops::ConvolutionSource("sobel_x", 3, 3,
                                             ops::SobelMaskX(),
                                             BoundaryMode::kClamp),
                {{"Input", "in"}})
        .Kernel("gy", ops::ConvolutionSource("sobel_y", 3, 3,
                                             ops::SobelMaskY(),
                                             BoundaryMode::kClamp),
                {{"Input", "in"}})
        .Output("gx")
        .Output("gy");
    sim::TraceSink trace;
    std::vector<compiler::CandidateDecision> decisions;
    GraphOptions options;
    options.fuse =
        fuse ? compiler::FusionMode::kHorizontal : compiler::FusionMode::kOff;
    options.explain = &decisions;
    options.run.trace = &trace;
    ASSERT_TRUE(graph
                    .Run({{"in", &in}},
                         {{"gx", &gx[fuse]}, {"gy", &gy[fuse]}}, options)
                    .ok());
    if (fuse) {
      EXPECT_EQ(trace.counter("graph.fused.horizontal"), 1);
      EXPECT_EQ(trace.counter("graph.fused_edges"), 1);
      EXPECT_EQ(trace.counter("graph.stages"), 2);  // source + fused pair
      // The accepted decision is visible through the explain sink.
      bool accepted = false;
      for (const compiler::CandidateDecision& d : decisions)
        accepted |= d.accepted && d.kind == compiler::FuseKind::kHorizontal;
      EXPECT_TRUE(accepted);
    } else {
      EXPECT_EQ(trace.counter("graph.fused_edges"), 0);
    }
  }
  EXPECT_EQ(MaxAbsDiff(gx[0], gx[1]), 0.0);
  EXPECT_EQ(MaxAbsDiff(gy[0], gy[1]), 0.0);
}

/// in -> smooth (3x3 Gaussian, an expression body) -> edges (3x3
/// Laplacian): a halo-fusion candidate.
void BuildSmoothEdges(PipelineGraph& graph) {
  graph.Source("in", 64, 64)
      .Kernel("smooth",
              ops::GaussianConvolveSource(3, 1.0f, BoundaryMode::kMirror),
              {{"Input", "in"}})
      .Kernel("edges",
              ops::ConvolutionSource("laplacian", 3, 3, ops::LaplacianMask3(),
                                     BoundaryMode::kMirror),
              {{"Input", "smooth"}})
      .Output("edges");
}

TEST(PipelineGraphTest, FusesHaloProducerIntoLocalOperator) {
  // gaussian -> laplacian: the point/halo planner inlines the producer into
  // the consuming convolution with halo recompute; pixels must not change.
  // On the simulated device the saved traffic pays for the recompute, so
  // the device model accepts the edge.
  const HostImage<float> in = MakeAngiogramPhantom(64, 64, 0.02f, 4);
  HostImage<float> out[2] = {{64, 64}, {64, 64}};
  for (const bool fuse : {true, false}) {
    PipelineGraph graph;
    BuildSmoothEdges(graph);
    sim::TraceSink trace;
    GraphOptions options;
    options.fuse =
        fuse ? compiler::FusionMode::kHalo : compiler::FusionMode::kOff;
    options.executor = GraphOptions::Executor::kSimulator;
    options.run.trace = &trace;
    ASSERT_TRUE(graph.Run({{"in", &in}}, {{"edges", &out[fuse]}}, options).ok());
    if (fuse) {
      EXPECT_EQ(trace.counter("graph.fused.halo"), 1);
      EXPECT_EQ(trace.counter("graph.stages"), 2);  // source + fused kernel
    } else {
      EXPECT_EQ(trace.counter("graph.fused_edges"), 0);
    }
  }
  EXPECT_EQ(MaxAbsDiff(out[0], out[1]), 0.0);
}

TEST(PipelineGraphTest, HostModelDeclinesHaloRecomputeOnTheHost) {
  // The same candidate under kAuto: the host runs all three kernels, saves
  // no bandwidth and pays for every recomputed tap in full, so the host
  // model declines the edge. The pixels equal the fused device run's.
  const HostImage<float> in = MakeAngiogramPhantom(64, 64, 0.02f, 4);
  HostImage<float> out[2] = {{64, 64}, {64, 64}};
  for (const auto executor :
       {GraphOptions::Executor::kAuto, GraphOptions::Executor::kSimulator}) {
    const bool on_host = executor == GraphOptions::Executor::kAuto;
    PipelineGraph graph;
    BuildSmoothEdges(graph);
    sim::TraceSink trace;
    std::vector<compiler::CandidateDecision> decisions;
    GraphOptions options;
    options.fuse = compiler::FusionMode::kHalo;
    options.executor = executor;
    options.explain = &decisions;
    options.run.trace = &trace;
    ASSERT_TRUE(
        graph.Run({{"in", &in}}, {{"edges", &out[on_host]}}, options).ok());
    const compiler::CandidateDecision* halo = nullptr;
    for (const compiler::CandidateDecision& d : decisions)
      if (d.kind == compiler::FuseKind::kHalo && d.producer == "smooth")
        halo = &d;
    ASSERT_NE(halo, nullptr);
    EXPECT_TRUE(halo->legal);
    EXPECT_EQ(halo->accepted, !on_host) << halo->reason;
    EXPECT_EQ(halo->model, on_host ? compiler::CostModel::kHost
                                   : compiler::CostModel::kDevice);
    EXPECT_NE(halo->reason.find(on_host ? "instructions/pixel"
                                        : "cycles/pixel"),
              std::string::npos)
        << halo->reason;
    EXPECT_EQ(trace.counter("graph.fused_edges"), on_host ? 0 : 1);
    if (on_host) {
      EXPECT_LT(halo->score, 0.0);
      EXPECT_EQ(trace.counter("graph.launches.host"), 2);
      EXPECT_EQ(trace.counter("graph.launches.sim"), 0);
    }
  }
  EXPECT_EQ(MaxAbsDiff(out[0], out[1]), 0.0);
}

TEST(PipelineGraphTest, IspHostPlanMergesSiblingsButKeepsLumaUnfused) {
  // The camera ISP under kAuto: the demosaic siblings r, g, b merge into one
  // stage (same instructions, two stages fewer), but y is not inlined into
  // every tap of the y_dn Gaussian. The device model fuses that edge too.
  // Both plans give the same pixels.
  constexpr int kSize = 64;
  const HostImage<float> raws[2] = {MakeNoiseImage(kSize, kSize, 0x15C),
                                    MakeNoiseImage(kSize, kSize, 0x15D)};
  const HostImage<float> gain = ops::MakeVignettingGain(kSize, kSize);
  std::vector<HostImage<float>> outs[2];
  for (const auto executor :
       {GraphOptions::Executor::kAuto, GraphOptions::Executor::kSimulator}) {
    const bool on_host = executor == GraphOptions::Executor::kAuto;
    PipelineGraph graph;
    ops::BuildCameraIspGraph(graph, kSize, kSize, BoundaryMode::kClamp);
    sim::TraceSink trace;
    GraphOptions options;
    options.executor = executor;
    options.run.trace = &trace;
    Result<runtime::GraphPlan> plan = runtime::GraphPlan::Build(graph, options);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    std::vector<std::string> names;
    int host_stages = 0;
    for (const runtime::GraphPlan::Stage& stage : plan.value().stages) {
      if (stage.name.empty()) continue;
      names.push_back(stage.name);
      host_stages += stage.host;
    }
    if (on_host) {
      EXPECT_EQ(names, (std::vector<std::string>{"raw", "gain", "shaded", "r",
                                                 "y", "u", "v", "y_dn"}));
      EXPECT_EQ(host_stages, 6);
      EXPECT_EQ(trace.counter("graph.fused_edges"), 2);
      EXPECT_EQ(trace.counter("graph.fused.horizontal"), 2);
    } else {
      // The device model inlines y into y_dn (and, at this small extent,
      // shaded into r as well).
      EXPECT_EQ(host_stages, 0);
      EXPECT_EQ(std::count(names.begin(), names.end(), "y"), 0);
      EXPECT_GE(trace.counter("graph.fused.halo"), 1);
    }

    options.run.trace = nullptr;
    for (const HostImage<float>& raw : raws) {
      HostImage<float> y(kSize, kSize), u(kSize, kSize), v(kSize, kSize);
      const Status run =
          graph.Run({{"raw", &raw}, {"gain", &gain}},
                    {{"y_dn", &y}, {"u", &u}, {"v", &v}}, options);
      ASSERT_TRUE(run.ok()) << run.ToString();
      for (HostImage<float>* image : {&y, &u, &v})
        outs[on_host].push_back(std::move(*image));
    }
  }
  ASSERT_EQ(outs[0].size(), outs[1].size());
  for (std::size_t i = 0; i < outs[0].size(); ++i)
    EXPECT_EQ(outs[0][i], outs[1][i]) << "output " << i;
}

TEST(PipelineGraphTest, EveryStageCompilesTheSourceItCarries) {
  // A fused stage holds one source, the merged kernel the planner built and
  // scored, and compiles exactly that: the kernel a plan runs is the one it
  // scored. Every fusion kind, under the host and the device cost model.
  struct Case {
    const char* name;
    std::function<void(PipelineGraph&)> build;
    compiler::FusionMode fuse = compiler::FusionMode::kAll;
    codegen::BorderPolicy border = codegen::BorderPolicy::kRegions;
  };
  const auto sobel_pair = [](PipelineGraph& graph) {
    graph.Source("in", 128, 128)
        .Kernel("gx", ops::ConvolutionSource("sobel_x", 3, 3,
                                             ops::SobelMaskX(),
                                             BoundaryMode::kClamp),
                {{"Input", "in"}})
        .Kernel("gy", ops::ConvolutionSource("sobel_y", 3, 3,
                                             ops::SobelMaskY(),
                                             BoundaryMode::kClamp),
                {{"Input", "in"}})
        .Output("gx")
        .Output("gy");
  };
  const auto gauss_laplace = [](PipelineGraph& graph) {
    graph.Source("in", 32, 32)
        .Kernel("smooth",
                ops::GaussianConvolveSource(3, 1.0f, BoundaryMode::kClamp),
                {{"Input", "in"}})
        .Kernel("edges",
                ops::ConvolutionSource("laplacian", 3, 3,
                                       ops::LaplacianMask3(),
                                       BoundaryMode::kClamp),
                {{"Input", "smooth"}})
        .Output("edges");
  };
  const std::vector<Case> cases = {
      {"isp256",
       [](PipelineGraph& g) {
         ops::BuildCameraIspGraph(g, 256, 256, BoundaryMode::kClamp);
       }},
      {"isp64",
       [](PipelineGraph& g) {
         ops::BuildCameraIspGraph(g, 64, 64, BoundaryMode::kClamp);
       }},
      {"multires256",
       [](PipelineGraph& g) {
         ops::BuildMultiresolutionGraph(g, 256, 256, 2, {2.5f, 1.8f},
                                        BoundaryMode::kMirror);
       }},
      {"gauss_laplace32", gauss_laplace, compiler::FusionMode::kHalo,
       codegen::BorderPolicy::kUniform},
      {"sobel_pair", sobel_pair, compiler::FusionMode::kHorizontal},
  };
  long long fused[3] = {0, 0, 0};  // point, horizontal, halo edges
  for (const Case& c : cases) {
    for (const auto executor :
         {GraphOptions::Executor::kAuto, GraphOptions::Executor::kSimulator}) {
      PipelineGraph graph;
      c.build(graph);
      sim::TraceSink trace;
      GraphOptions options;
      options.fuse = c.fuse;
      options.executor = executor;
      options.run.codegen.border = c.border;
      options.run.trace = &trace;
      Result<runtime::GraphPlan> plan =
          runtime::GraphPlan::Build(graph, options);
      ASSERT_TRUE(plan.ok()) << c.name << ": " << plan.status().ToString();
      for (const runtime::GraphPlan::Stage& stage : plan.value().stages) {
        if (stage.kind != PipelineGraph::Node::Kind::kKernel) continue;
        EXPECT_EQ(stage.compiled.source_fingerprint,
                  compiler::SourceFingerprint(stage.source))
            << c.name << " stage " << stage.name;
      }
      fused[0] += trace.counter("graph.fused.point");
      fused[1] += trace.counter("graph.fused.horizontal");
      fused[2] += trace.counter("graph.fused.halo");
    }
  }
  // The plans exercise every fusion kind.
  EXPECT_GT(fused[0], 0);
  EXPECT_GT(fused[1], 0);
  EXPECT_GT(fused[2], 0);
}

TEST(PipelineGraphTest, DoesNotFuseMultiConsumerOrOutputImages) {
  // "blur" feeds two consumers and is itself an output — neither edge may
  // fuse it away.
  PipelineGraph graph;
  graph.Source("in", 32, 32)
      .Kernel("blur", Conv3(), {{"Input", "in"}})
      .Kernel("a", ops::ScaleOffsetSource(), {{"Input", "blur"}},
              {{"scale", 2.0}, {"offset", 0.0}})
      .Kernel("b", ops::ScaleOffsetSource(), {{"Input", "blur"}},
              {{"scale", 3.0}, {"offset", 0.0}})
      .Output("a")
      .Output("b")
      .Output("blur");
  sim::TraceSink trace;
  GraphOptions options;
  options.run.trace = &trace;
  HostImage<float> in = MakeNoiseImage(32, 32, 5);
  HostImage<float> a(32, 32), b(32, 32), blur(32, 32);
  ASSERT_TRUE(graph
                  .Run({{"in", &in}},
                       {{"a", &a}, {"b", &b}, {"blur", &blur}}, options)
                  .ok());
  EXPECT_EQ(trace.counter("graph.fused_edges"), 0);
  // Sanity: a = 2*blur, b = 3*blur at every pixel.
  for (int y = 0; y < 32; ++y)
    for (int x = 0; x < 32; ++x) {
      EXPECT_EQ(a(x, y), 2.0f * blur(x, y));
      EXPECT_EQ(b(x, y), 3.0f * blur(x, y));
    }
}

TEST(PipelineGraphTest, MultiresBitIdenticalToEagerAcrossAllBoundaryModes) {
  const HostImage<float> in = MakeAngiogramPhantom(64, 64, 0.02f, 2);
  const std::vector<float> gains = {2.0f, 1.5f};
  for (const BoundaryMode mode :
       {BoundaryMode::kUndefined, BoundaryMode::kClamp, BoundaryMode::kRepeat,
        BoundaryMode::kMirror, BoundaryMode::kConstant}) {
    const HostImage<float> eager =
        ops::MultiresolutionFilterEager(in, 2, gains, mode);
    sim::TraceSink trace;
    GraphOptions options;
    options.run.trace = &trace;
    const Result<HostImage<float>> graph =
        ops::MultiresolutionFilterGraph(in, 2, gains, mode, options);
    ASSERT_TRUE(graph.ok()) << graph.status().ToString();
    EXPECT_EQ(MaxAbsDiff(eager, graph.value()), 0.0)
        << "mode " << static_cast<int>(mode);
    EXPECT_GT(trace.counter("graph.fused_edges"), 0);
    EXPECT_GT(trace.counter("bufpool.reuse"), 0);
  }
}

TEST(PipelineGraphTest, SimulatorExecutorMatchesHostExecutor) {
  const HostImage<float> in = MakeNoiseImage(64, 64, 9);
  HostImage<float> host_out(64, 64), sim_out(64, 64);
  for (const auto executor :
       {GraphOptions::Executor::kHost, GraphOptions::Executor::kSimulator}) {
    PipelineGraph graph;
    graph.Source("in", 64, 64)
        .Kernel("blur", Conv3(), {{"Input", "in"}})
        .Output("blur");
    GraphOptions options;
    options.executor = executor;
    HostImage<float>& out =
        executor == GraphOptions::Executor::kHost ? host_out : sim_out;
    const Status run = graph.Run({{"in", &in}}, {{"blur", &out}}, options);
    ASSERT_TRUE(run.ok()) << run.ToString();
  }
  EXPECT_EQ(MaxAbsDiff(host_out, sim_out), 0.0);
}

/// in -> scaled (point) -> blur (3x3 window) -> out (point), unfused. With
/// scratchpad staging the windowed stage is one the host executor rejects;
/// the point stages stay on the host.
void BuildScratchpadChain(PipelineGraph& graph) {
  graph.Source("in", 64, 64)
      .Kernel("scaled", ops::ScaleOffsetSource(), {{"Input", "in"}},
              {{"scale", 2.0}, {"offset", 0.0}})
      .Kernel("blur", Conv3(), {{"Input", "scaled"}})
      .Kernel("out", ops::ScaleOffsetSource(), {{"Input", "blur"}},
              {{"scale", 0.5}, {"offset", 1.0}})
      .Output("out");
}

GraphOptions ScratchpadOptions(GraphOptions::Executor executor, int workers,
                               sim::TraceSink* trace) {
  GraphOptions options;
  options.fuse = compiler::FusionMode::kOff;
  options.executor = executor;
  options.workers = workers;
  options.run.with_scratchpad().with_trace(trace);
  return options;
}

TEST(PipelineGraphTest, HostExecutorFailsNamingTheRejectedStage) {
  PipelineGraph graph;
  BuildScratchpadChain(graph);
  const HostImage<float> in = MakeNoiseImage(64, 64, 5);
  const HostImage<float> untouched(64, 64, -7.0f);
  HostImage<float> out = untouched;
  sim::TraceSink trace;
  const Status run = graph.Run(
      {{"in", &in}}, {{"out", &out}},
      ScratchpadOptions(GraphOptions::Executor::kHost, 4, &trace));
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.code(), StatusCode::kUnimplemented);
  EXPECT_NE(run.message().find("'blur'"), std::string::npos)
      << run.message();
  // The failed stage's consumer is never dispatched and the frame never
  // retires: no output copy, no completed run.
  EXPECT_EQ(trace.counter("graph.stages"), 2);
  EXPECT_EQ(trace.counter("graph.runs"), 0);
  EXPECT_EQ(out, untouched);
  EXPECT_EQ(graph.pool().live_count(), 0);

  // Every buffer went back to the pool: the same run on one worker is
  // served entirely from the free list.
  const long long allocs = trace.counter("bufpool.alloc");
  EXPECT_FALSE(graph
                   .Run({{"in", &in}}, {{"out", &out}},
                        ScratchpadOptions(GraphOptions::Executor::kHost, 1,
                                          &trace))
                   .ok());
  EXPECT_EQ(trace.counter("bufpool.alloc"), allocs);
  EXPECT_EQ(graph.pool().live_count(), 0);
}

TEST(PipelineGraphTest, BuildDecidesEachStageExecutor) {
  // The host/simulator split is part of the plan: decided by Build, before
  // any frame runs. Under kHost the scratchpad stage stays off the host
  // (it fails when it runs, see above); kSimulator puts nothing there.
  for (const auto executor :
       {GraphOptions::Executor::kAuto, GraphOptions::Executor::kHost,
        GraphOptions::Executor::kSimulator}) {
    PipelineGraph graph;
    BuildScratchpadChain(graph);
    sim::TraceSink trace;
    const GraphOptions options = ScratchpadOptions(executor, 4, &trace);
    Result<runtime::GraphPlan> plan = runtime::GraphPlan::Build(graph, options);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    const bool host = executor != GraphOptions::Executor::kSimulator;
    for (const runtime::GraphPlan::Stage& stage : plan.value().stages) {
      const bool point = stage.name == "scaled" || stage.name == "out";
      EXPECT_EQ(stage.host, point && host) << stage.name;
    }
    EXPECT_EQ(trace.counter("graph.stages"), 0);
    EXPECT_EQ(trace.counter("graph.launches.host"), 0);
    EXPECT_EQ(trace.counter("graph.launches.sim"), 0);
  }
}

TEST(PipelineGraphTest, AutoExecutorRunsRejectedStageOnSimulator) {
  const HostImage<float> in = MakeNoiseImage(64, 64, 5);
  HostImage<float> auto_out(64, 64), sim_out(64, 64);
  for (const auto executor :
       {GraphOptions::Executor::kAuto, GraphOptions::Executor::kSimulator}) {
    PipelineGraph graph;
    BuildScratchpadChain(graph);
    sim::TraceSink trace;
    HostImage<float>& out =
        executor == GraphOptions::Executor::kAuto ? auto_out : sim_out;
    const Status run = graph.Run({{"in", &in}}, {{"out", &out}},
                                 ScratchpadOptions(executor, 4, &trace));
    ASSERT_TRUE(run.ok()) << run.ToString();
    if (executor == GraphOptions::Executor::kAuto) {
      EXPECT_EQ(trace.counter("graph.launches.sim"), 1);
      EXPECT_EQ(trace.counter("graph.launches.host"), 2);
    }
  }
  EXPECT_EQ(MaxAbsDiff(auto_out, sim_out), 0.0);
}

TEST(RunOptionsTest, ChainableSettersCompose) {
  sim::TraceSink trace;
  const runtime::RunOptions options =
      runtime::RunOptions()
          .with_backend(ast::Backend::kOpenCL)
          .with_scratchpad()
          .with_device(hw::TeslaC2050())
          .with_trace(&trace);
  EXPECT_EQ(options.codegen.backend, ast::Backend::kOpenCL);
  EXPECT_TRUE(options.codegen.use_scratchpad);
  EXPECT_EQ(options.trace, &trace);
}

TEST(RunOptionsTest, MakeCompileOptionsMapsFields) {
  sim::TraceSink trace;
  runtime::RunOptions options;
  options.forced_config = hw::KernelConfig{32, 4};
  options.trace = &trace;
  const compiler::CompileOptions copts =
      runtime::MakeCompileOptions(options, 640, 480);
  EXPECT_EQ(copts.image_width, 640);
  EXPECT_EQ(copts.image_height, 480);
  ASSERT_TRUE(copts.forced_config.has_value());
  EXPECT_EQ(copts.forced_config->block_x, 32);
  EXPECT_EQ(copts.trace, &trace);
  EXPECT_NE(copts.cache, nullptr);  // defaults to the global cache
}

}  // namespace
}  // namespace hipacc
