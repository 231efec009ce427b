// Streaming frame executor: differential bit-identity against the one-shot
// graph path (serial and overlap windows, every boundary mode), cross-frame
// aliasing stress at full window depth, in-order retirement, compiles that
// a profile store does not repeat, streaming CLI flags, failure propagation
// from the bind/retire callbacks and from a stage failing beside running
// row bands, and the throughput model's failure path.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "compiler/cache.hpp"
#include "compiler/profile.hpp"
#include "image/synthetic.hpp"
#include "ops/isp.hpp"
#include "ops/kernel_sources.hpp"
#include "runtime/stream_executor.hpp"
#include "sim/trace.hpp"

namespace hipacc {
namespace {

constexpr int kSize = 48;

/// Workers are pinned above 1 so the overlap window actually overlaps even
/// on a single-core build machine (0 would resolve to hardware concurrency).
runtime::GraphOptions StreamGraphOptions() {
  runtime::GraphOptions options;
  options.workers = 4;
  return options;
}

HostImage<float> FrameRaw(long long frame) {
  return MakeNoiseImage(kSize, kSize, 977u + static_cast<std::uint64_t>(frame));
}

struct IspOutputs {
  HostImage<float> y{kSize, kSize};
  HostImage<float> u{kSize, kSize};
  HostImage<float> v{kSize, kSize};
};

/// One-shot reference: each frame through PipelineGraph::Run on a fresh
/// per-frame execution (the non-streaming path the executor must match bit
/// for bit).
std::vector<IspOutputs> OneShotReference(ast::BoundaryMode mode, int frames,
                                         const HostImage<float>& gain,
                                         const runtime::GraphOptions& options) {
  runtime::PipelineGraph graph;
  ops::BuildCameraIspGraph(graph, kSize, kSize, mode);
  std::vector<IspOutputs> outputs(static_cast<std::size_t>(frames));
  for (int f = 0; f < frames; ++f) {
    const HostImage<float> raw = FrameRaw(f);
    IspOutputs& out = outputs[static_cast<std::size_t>(f)];
    const Status run =
        graph.Run({{"raw", &raw}, {"gain", &gain}},
                  {{"y_dn", &out.y}, {"u", &out.u}, {"v", &out.v}}, options);
    EXPECT_TRUE(run.ok()) << run.ToString();
  }
  return outputs;
}

/// Streams `frames` frames and copies every retired frame's outputs aside.
std::vector<IspOutputs> StreamFrames(ast::BoundaryMode mode, int frames,
                                     const HostImage<float>& gain,
                                     runtime::StreamMode stream_mode,
                                     int in_flight,
                                     const runtime::GraphOptions& options,
                                     runtime::StreamStats* stats = nullptr) {
  runtime::PipelineGraph graph;
  ops::BuildCameraIspGraph(graph, kSize, kSize, mode);
  runtime::StreamOptions sopts;
  sopts.mode = stream_mode;
  sopts.in_flight = in_flight;
  runtime::StreamExecutor executor(graph, options, sopts);

  const int window = executor.window();
  std::vector<HostImage<float>> raws(static_cast<std::size_t>(window));
  std::vector<IspOutputs> slots(static_cast<std::size_t>(window));
  std::vector<IspOutputs> retired(static_cast<std::size_t>(frames));
  const Status run = executor.Run(
      frames,
      [&](long long frame, runtime::PipelineGraph::InputBindings* in,
          runtime::PipelineGraph::OutputBindings* out) {
        const std::size_t slot = static_cast<std::size_t>(frame % window);
        raws[slot] = FrameRaw(frame);
        in->assign({{"raw", &raws[slot]}, {"gain", &gain}});
        out->assign({{"y_dn", &slots[slot].y},
                     {"u", &slots[slot].u},
                     {"v", &slots[slot].v}});
        return Status::Ok();
      },
      [&](long long frame) {
        retired[static_cast<std::size_t>(frame)] =
            slots[static_cast<std::size_t>(frame % window)];
        return Status::Ok();
      });
  EXPECT_TRUE(run.ok()) << run.ToString();
  if (stats != nullptr) *stats = executor.stats();
  return retired;
}

TEST(StreamExecutorTest, SerialStreamMatchesOneShotRuns) {
  const HostImage<float> gain = ops::MakeVignettingGain(kSize, kSize);
  const runtime::GraphOptions options = StreamGraphOptions();
  const std::vector<IspOutputs> expected =
      OneShotReference(ast::BoundaryMode::kClamp, 4, gain, options);
  const std::vector<IspOutputs> streamed =
      StreamFrames(ast::BoundaryMode::kClamp, 4, gain,
                   runtime::StreamMode::kSerial, 1, options);
  for (std::size_t f = 0; f < expected.size(); ++f) {
    EXPECT_EQ(expected[f].y, streamed[f].y) << "frame " << f;
    EXPECT_EQ(expected[f].u, streamed[f].u) << "frame " << f;
    EXPECT_EQ(expected[f].v, streamed[f].v) << "frame " << f;
  }
}

TEST(StreamExecutorTest, OverlapBitIdenticalAcrossDepthsAndBoundaryModes) {
  const HostImage<float> gain = ops::MakeVignettingGain(kSize, kSize);
  const runtime::GraphOptions options = StreamGraphOptions();
  const int frames = 5;
  const ast::BoundaryMode modes[] = {
      ast::BoundaryMode::kUndefined, ast::BoundaryMode::kClamp,
      ast::BoundaryMode::kRepeat, ast::BoundaryMode::kMirror,
      ast::BoundaryMode::kConstant};
  for (const ast::BoundaryMode mode : modes) {
    const std::vector<IspOutputs> expected =
        OneShotReference(mode, frames, gain, options);
    for (const int in_flight : {1, 2, 3}) {
      const std::vector<IspOutputs> streamed =
          StreamFrames(mode, frames, gain, runtime::StreamMode::kOverlap,
                       in_flight, options);
      for (std::size_t f = 0; f < expected.size(); ++f) {
        EXPECT_EQ(expected[f].y, streamed[f].y)
            << "mode " << static_cast<int>(mode) << " in_flight " << in_flight
            << " frame " << f;
        EXPECT_EQ(expected[f].u, streamed[f].u);
        EXPECT_EQ(expected[f].v, streamed[f].v);
      }
    }
  }
}

// Holds frame 0 in the retire callback until the window is fully admitted,
// forcing every frame of the window to be genuinely in flight at once; each
// retired frame must still carry exactly its own frame's pixels (the
// per-frame FrameExec + BufferPool contract: no cross-frame aliasing).
TEST(StreamExecutorTest, FullWindowDepthDoesNotAliasFrames) {
  const HostImage<float> gain = ops::MakeVignettingGain(kSize, kSize);
  const runtime::GraphOptions options = StreamGraphOptions();
  const int frames = 8;
  const int in_flight = 3;
  const std::vector<IspOutputs> expected =
      OneShotReference(ast::BoundaryMode::kClamp, frames, gain, options);

  runtime::PipelineGraph graph;
  ops::BuildCameraIspGraph(graph, kSize, kSize, ast::BoundaryMode::kClamp);
  runtime::StreamOptions sopts;
  sopts.mode = runtime::StreamMode::kOverlap;
  sopts.in_flight = in_flight;
  runtime::StreamExecutor executor(graph, options, sopts);
  const int window = executor.window();
  ASSERT_EQ(window, in_flight);

  std::vector<HostImage<float>> raws(static_cast<std::size_t>(window));
  std::vector<IspOutputs> slots(static_cast<std::size_t>(window));
  std::vector<IspOutputs> retired(static_cast<std::size_t>(frames));
  std::atomic<int> admitted{0};
  const Status run = executor.Run(
      frames,
      [&](long long frame, runtime::PipelineGraph::InputBindings* in,
          runtime::PipelineGraph::OutputBindings* out) {
        const std::size_t slot = static_cast<std::size_t>(frame % window);
        raws[slot] = FrameRaw(frame);
        in->assign({{"raw", &raws[slot]}, {"gain", &gain}});
        out->assign({{"y_dn", &slots[slot].y},
                     {"u", &slots[slot].u},
                     {"v", &slots[slot].v}});
        admitted.fetch_add(1);
        return Status::Ok();
      },
      [&](long long frame) {
        if (frame == 0) {
          // The window can keep admitting while retirement is blocked; wait
          // for it to fill completely before letting any frame retire.
          while (admitted.load() < in_flight)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        retired[static_cast<std::size_t>(frame)] =
            slots[static_cast<std::size_t>(frame % window)];
        return Status::Ok();
      });
  ASSERT_TRUE(run.ok()) << run.ToString();
  EXPECT_EQ(executor.stats().max_in_flight, in_flight);
  for (std::size_t f = 0; f < expected.size(); ++f) {
    EXPECT_EQ(expected[f].y, retired[f].y) << "frame " << f;
    EXPECT_EQ(expected[f].u, retired[f].u) << "frame " << f;
    EXPECT_EQ(expected[f].v, retired[f].v) << "frame " << f;
  }
}

TEST(StreamExecutorTest, FramesRetireInOrderAndStatsCount) {
  const HostImage<float> gain = ops::MakeVignettingGain(kSize, kSize);
  runtime::GraphOptions options = StreamGraphOptions();
  sim::TraceSink trace;
  options.run.trace = &trace;

  runtime::PipelineGraph graph;
  ops::BuildCameraIspGraph(graph, kSize, kSize, ast::BoundaryMode::kClamp);
  runtime::StreamOptions sopts;
  sopts.mode = runtime::StreamMode::kOverlap;
  sopts.in_flight = 3;
  runtime::StreamExecutor executor(graph, options, sopts);

  const int frames = 6;
  // One raw image per frame: bound images must stay valid (and unchanged)
  // until their frame retires, and earlier frames are still in flight.
  std::vector<HostImage<float>> raws(static_cast<std::size_t>(frames));
  IspOutputs out;
  std::vector<long long> order;
  const Status run = executor.Run(
      frames,
      [&](long long frame, runtime::PipelineGraph::InputBindings* in,
          runtime::PipelineGraph::OutputBindings* outputs) {
        HostImage<float>& raw = raws[static_cast<std::size_t>(frame)];
        raw = FrameRaw(frame);
        in->assign({{"raw", &raw}, {"gain", &gain}});
        outputs->assign({{"y_dn", &out.y}, {"u", &out.u}, {"v", &out.v}});
        return Status::Ok();
      },
      [&](long long frame) {
        order.push_back(frame);
        return Status::Ok();
      });
  ASSERT_TRUE(run.ok()) << run.ToString();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(frames));
  for (int f = 0; f < frames; ++f) EXPECT_EQ(order[static_cast<std::size_t>(f)], f);
  EXPECT_EQ(executor.stats().frames, frames);
  EXPECT_EQ(executor.stats().latencies_ms.size(),
            static_cast<std::size_t>(frames));
  EXPECT_GE(executor.stats().max_in_flight, 1);
  EXPECT_LE(executor.stats().max_in_flight, 3);
  EXPECT_GT(executor.stats().fps, 0.0);
  EXPECT_GE(executor.stats().LatencyPercentile(99),
            executor.stats().LatencyPercentile(50));
  EXPECT_EQ(trace.counter("stream.frames"), frames);
  EXPECT_EQ(trace.counter("stream.runs"), 1);
}

// Launches never feed the profile store: a launch can only re-observe the
// configuration it was compiled with, and a store that changed under a
// running graph would move target keys and recompile stages for that same
// configuration. So with a store and one cache, only the first run of
// a graph compiles anything.
TEST(StreamExecutorTest, ProfiledRunsCompileOnlyOnce) {
  constexpr int n = 64;
  const HostImage<float> gain = ops::MakeVignettingGain(n, n);
  const HostImage<float> raw = MakeNoiseImage(n, n, 977u);
  HostImage<float> y(n, n), u(n, n), v(n, n);
  compiler::ProfileStore store;
  compiler::CompilationCache cache;
  runtime::GraphOptions options = StreamGraphOptions();
  options.executor = runtime::GraphOptions::Executor::kSimulator;
  options.run.profiles = &store;
  options.run.cache = &cache;

  runtime::PipelineGraph graph;
  ops::BuildCameraIspGraph(graph, n, n, ast::BoundaryMode::kClamp);
  std::vector<long long> misses;
  for (int run = 0; run < 3; ++run) {
    const long long before = cache.stats().target_misses;
    const Status status =
        graph.Run({{"raw", &raw}, {"gain", &gain}},
                  {{"y_dn", &y}, {"u", &u}, {"v", &v}}, options);
    ASSERT_TRUE(status.ok()) << status.ToString();
    misses.push_back(cache.stats().target_misses - before);
  }
  EXPECT_GT(misses[0], 0);
  EXPECT_EQ(misses[1], 0);
  EXPECT_EQ(misses[2], 0);
}

TEST(StreamExecutorTest, ModelledOverlapAtLeastMatchesSerial) {
  runtime::PipelineGraph graph;
  ops::BuildCameraIspGraph(graph, kSize, kSize, ast::BoundaryMode::kClamp);
  runtime::StreamOptions serial;
  serial.mode = runtime::StreamMode::kSerial;
  runtime::StreamExecutor serial_exec(graph, StreamGraphOptions(), serial);
  Result<runtime::StreamModel> serial_model = serial_exec.ModelThroughput(16);
  ASSERT_TRUE(serial_model.ok()) << serial_model.status().ToString();

  runtime::PipelineGraph graph2;
  ops::BuildCameraIspGraph(graph2, kSize, kSize, ast::BoundaryMode::kClamp);
  runtime::StreamOptions overlap;
  overlap.mode = runtime::StreamMode::kOverlap;
  overlap.in_flight = 2;
  runtime::StreamExecutor overlap_exec(graph2, StreamGraphOptions(), overlap);
  Result<runtime::StreamModel> overlap_model =
      overlap_exec.ModelThroughput(16);
  ASSERT_TRUE(overlap_model.ok()) << overlap_model.status().ToString();

  EXPECT_GT(serial_model.value().fps, 0.0);
  EXPECT_GE(overlap_model.value().fps, serial_model.value().fps);
  EXPECT_LE(serial_model.value().compute_utilisation, 1.0);
  EXPECT_LE(overlap_model.value().compute_utilisation, 1.0);
}

TEST(StreamExecutorTest, BinderAndRetirerErrorsAbortTheStream) {
  const HostImage<float> gain = ops::MakeVignettingGain(kSize, kSize);
  HostImage<float> raw = FrameRaw(0);
  IspOutputs out;
  const auto bind_ok = [&](long long, runtime::PipelineGraph::InputBindings* in,
                           runtime::PipelineGraph::OutputBindings* outputs) {
    in->assign({{"raw", &raw}, {"gain", &gain}});
    outputs->assign({{"y_dn", &out.y}, {"u", &out.u}, {"v", &out.v}});
    return Status::Ok();
  };

  runtime::PipelineGraph graph;
  ops::BuildCameraIspGraph(graph, kSize, kSize, ast::BoundaryMode::kClamp);
  runtime::StreamOptions sopts;
  sopts.mode = runtime::StreamMode::kOverlap;
  sopts.in_flight = 2;
  {
    runtime::StreamExecutor executor(graph, StreamGraphOptions(), sopts);
    const Status run = executor.Run(
        4,
        [&](long long frame, runtime::PipelineGraph::InputBindings* in,
            runtime::PipelineGraph::OutputBindings* outputs) {
          if (frame == 1) return Status::Invalid("no frame 1");
          return bind_ok(frame, in, outputs);
        },
        {});
    EXPECT_FALSE(run.ok());
  }
  {
    runtime::StreamExecutor executor(graph, StreamGraphOptions(), sopts);
    const Status run =
        executor.Run(4, bind_ok, [](long long frame) {
          return frame == 0 ? Status::Invalid("retire failed")
                            : Status::Ok();
        });
    EXPECT_FALSE(run.ok());
  }
  {
    // Unbound source: the per-frame binding validation rejects the frame.
    runtime::StreamExecutor executor(graph, StreamGraphOptions(), sopts);
    const Status run = executor.Run(
        2,
        [&](long long, runtime::PipelineGraph::InputBindings* in,
            runtime::PipelineGraph::OutputBindings* outputs) {
          in->assign({{"raw", &raw}});  // "gain" missing
          outputs->assign({{"y_dn", &out.y}, {"u", &out.u}, {"v", &out.v}});
          return Status::Ok();
        },
        {});
    EXPECT_FALSE(run.ok());
  }
  {
    // The executor stays usable after a failed stream.
    runtime::StreamExecutor executor(graph, StreamGraphOptions(), sopts);
    const Status run = executor.Run(2, bind_ok, {});
    EXPECT_TRUE(run.ok()) << run.ToString();
  }
}

// Binder failure at frame 2 with frames 0 and 1 possibly still in flight:
// admission stops, nothing from frame 2 on retires, and every buffer of the
// stranded frames returns to the pool.
TEST(StreamExecutorTest, BinderFailureMidWindowStopsRetirement) {
  const HostImage<float> gain = ops::MakeVignettingGain(kSize, kSize);
  std::vector<HostImage<float>> raws;
  for (int f = 0; f < 4; ++f) raws.push_back(FrameRaw(f));
  std::vector<IspOutputs> outs(4);
  runtime::PipelineGraph graph;
  ops::BuildCameraIspGraph(graph, kSize, kSize, ast::BoundaryMode::kClamp);
  runtime::StreamOptions sopts;
  sopts.mode = runtime::StreamMode::kOverlap;
  sopts.in_flight = 2;
  sim::TraceSink trace;

  long long allocs = 0;
  for (const int workers : {4, 1}) {
    runtime::GraphOptions options = StreamGraphOptions();
    options.workers = workers;
    options.run.trace = &trace;
    runtime::StreamExecutor executor(graph, options, sopts);
    std::vector<long long> bound, retired;
    const Status run = executor.Run(
        4,
        [&](long long frame, runtime::PipelineGraph::InputBindings* in,
            runtime::PipelineGraph::OutputBindings* out) {
          bound.push_back(frame);
          if (frame == 2) return Status::Invalid("no frame 2");
          const std::size_t f = static_cast<std::size_t>(frame);
          in->assign({{"raw", &raws[f]}, {"gain", &gain}});
          out->assign({{"y_dn", &outs[f].y}, {"u", &outs[f].u},
                       {"v", &outs[f].v}});
          return Status::Ok();
        },
        [&](long long frame) {
          retired.push_back(frame);
          return Status::Ok();
        });
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.message(), "no frame 2");
    EXPECT_EQ(bound, (std::vector<long long>{0, 1, 2}));
    // Frame 2 was admitted, so frame 0 had retired; frame 1 only retires if
    // it finished before the error was recorded (always, on one worker).
    ASSERT_GE(retired.size(), 1u);
    ASSERT_LE(retired.size(), 2u);
    for (std::size_t i = 0; i < retired.size(); ++i)
      EXPECT_EQ(retired[i], static_cast<long long>(i));
    if (workers == 1) {
      EXPECT_EQ(retired.size(), 2u);
    }
    EXPECT_EQ(executor.stats().frames,
              static_cast<long long>(retired.size()));
    // After the failure the same run on one worker allocates nothing new.
    if (workers == 1) {
      EXPECT_EQ(trace.counter("bufpool.alloc"), allocs);
    }
    allocs = trace.counter("bufpool.alloc");
    EXPECT_EQ(graph.pool().live_count(), 0);
  }
}

// A stage the host executor rejects (scratchpad staging) fails while a
// sibling host stage's row bands run on other workers, with two frames in
// flight. The run fails naming the rejected stage, no frame retires after
// the error, and the bands that were running finish and return every buffer.
TEST(StreamExecutorTest, StageFailureBesideRunningBandsReturnsEveryBuffer) {
  constexpr int kWidth = 64, kHeight = 512;
  runtime::PipelineGraph graph;
  graph.Source("in", kWidth, kHeight)
      .Kernel("scaled", ops::ScaleOffsetSource(), {{"Input", "in"}},
              {{"scale", 2.0}, {"offset", 0.0}})
      .Kernel("shifted", ops::ScaleOffsetSource(), {{"Input", "in"}},
              {{"scale", 1.0}, {"offset", 1.0}})
      .Kernel("blur", ops::GaussianSource(3, 1.0f, ast::BoundaryMode::kClamp),
              {{"Input", "shifted"}})
      .Output("scaled")
      .Output("blur");
  runtime::GraphOptions options = StreamGraphOptions();
  options.fuse = compiler::FusionMode::kOff;
  options.executor = runtime::GraphOptions::Executor::kHost;
  options.run.with_scratchpad();
  runtime::StreamOptions sopts;
  sopts.mode = runtime::StreamMode::kOverlap;
  sopts.in_flight = 2;

  const HostImage<float> in = MakeNoiseImage(kWidth, kHeight, 3);
  HostImage<float> scaled(kWidth, kHeight), blur(kWidth, kHeight);
  // The interleaving of the failure with the bands varies run to run.
  for (int round = 0; round < 5; ++round) {
    runtime::StreamExecutor executor(graph, options, sopts);
    std::vector<long long> retired;
    const Status run = executor.Run(
        4,
        [&](long long, runtime::PipelineGraph::InputBindings* inputs,
            runtime::PipelineGraph::OutputBindings* outputs) {
          inputs->assign({{"in", &in}});
          outputs->assign({{"scaled", &scaled}, {"blur", &blur}});
          return Status::Ok();
        },
        [&](long long frame) {
          retired.push_back(frame);
          return Status::Ok();
        });
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.code(), StatusCode::kUnimplemented);
    EXPECT_NE(run.message().find("'blur'"), std::string::npos)
        << run.message();
    EXPECT_TRUE(retired.empty());
    EXPECT_EQ(executor.stats().frames, 0);
    EXPECT_EQ(graph.pool().live_count(), 0);
  }
}

// A stage whose simulated measurement fails must fail every
// ModelThroughput call, not only the first one that measured it.
TEST(StreamExecutorTest, FailedStageMeasureFailsEveryModelCall) {
  runtime::PipelineGraph graph;
  graph.Source("in", 16, 16)
      .Kernel("blur", ops::GaussianSource(9, 2.0f, ast::BoundaryMode::kClamp),
              {{"Input", "in"}})
      .Output("blur");
  runtime::StreamExecutor executor(graph, StreamGraphOptions(), {});
  const Result<runtime::StreamModel> first = executor.ModelThroughput(4);
  ASSERT_FALSE(first.ok());
  EXPECT_NE(first.status().message().find("too small"), std::string::npos)
      << first.status().ToString();
  const Result<runtime::StreamModel> second = executor.ModelThroughput(4);
  EXPECT_FALSE(second.ok());
}

TEST(StreamExecutorTest, StreamCliFlagsRoundTrip) {
  runtime::StreamCliConfig config;
  support::CliParser cli("stream_test", "streaming flag test");
  runtime::RegisterStreamFlags(&cli, &config);
  const char* argv[] = {"stream_test", "--frames=9", "--in-flight=3",
                        "--fps-target=60", "--stream-mode=serial"};
  ASSERT_TRUE(cli.Parse(5, argv).ok());
  EXPECT_EQ(config.frames, 9);
  Result<runtime::StreamOptions> options = config.ToOptions();
  ASSERT_TRUE(options.ok());
  EXPECT_EQ(options.value().mode, runtime::StreamMode::kSerial);
  EXPECT_EQ(options.value().in_flight, 3);
  EXPECT_EQ(config.fps_target, 60);
  // Generated help mentions every streaming flag.
  const std::string help = cli.Help();
  for (const char* flag :
       {"--frames", "--in-flight", "--fps-target", "--stream-mode"})
    EXPECT_NE(help.find(flag), std::string::npos) << flag;

  config.mode = "sideways";
  EXPECT_FALSE(config.ToOptions().ok());
  config.mode = "overlap";
  config.in_flight = 0;
  EXPECT_FALSE(config.ToOptions().ok());
  config.in_flight = 2;
  config.frames = 0;
  EXPECT_FALSE(config.ToOptions().ok());
}

TEST(StreamExecutorTest, ZeroFramesIsANoOp) {
  runtime::PipelineGraph graph;
  ops::BuildCameraIspGraph(graph, kSize, kSize, ast::BoundaryMode::kClamp);
  runtime::StreamExecutor executor(graph, StreamGraphOptions(), {});
  const Status run = executor.Run(
      0,
      [](long long, runtime::PipelineGraph::InputBindings*,
         runtime::PipelineGraph::OutputBindings*) { return Status::Ok(); },
      {});
  EXPECT_TRUE(run.ok());
  EXPECT_EQ(executor.stats().frames, 0);
  EXPECT_EQ(executor.stats().LatencyPercentile(99), 0.0);
}

}  // namespace
}  // namespace hipacc
