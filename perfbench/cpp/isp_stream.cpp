// isp_stream: the camera-ISP graph at 256x256 streamed through
// StreamExecutor in overlap mode (2 frames in flight, 4 workers), cycling 4
// seeded raw frames, closed loop. The plan is built once, so per-frame host
// execution, the stream scheduler and the buffer pool do the work.
//
// Correctness: the first frame of each raw is checked against the
// hand-written ISP loops (isp_reference.hpp) within kTolerance; every later
// frame of that raw must be byte-identical to it.
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>

#include "compiler/cache.hpp"
#include "image/synthetic.hpp"
#include "isp_reference.hpp"
#include "ops/isp.hpp"
#include "runtime/stream_executor.hpp"
#include "sim/bytecode.hpp"
#include "stats.hpp"
#include "trace_out.hpp"

namespace perfbench {
namespace {

using hipacc::HostImage;
using hipacc::Status;
namespace runtime = hipacc::runtime;

constexpr int kSize = 256;
constexpr int kRaws = 4;
constexpr int kInFlight = 2;
constexpr int kWorkers = 4;
constexpr int kWarmupFrames = 64;
/// StreamExecutor runs frame f as FrameExec epoch f + 1 (epoch 0 is the
/// one-shot Run() lane), and a frame's "stage" spans go on its epoch's lane.
constexpr int kFirstStreamEpoch = 1;
constexpr double kTailP = 95.0;
/// Set-up is repeated this many times per run and reported as the median.
constexpr int kSetupReps = 21;
/// Same bound the ops tests hold the compiled operators to.
constexpr double kTolerance = 1e-6;

/// kWorkers workers, compiling through `cache` (which must outlive every
/// use), tracing into `trace` (may be null).
runtime::GraphOptions MakeGraphOptions(
    hipacc::compiler::CompilationCache* cache, hipacc::sim::TraceSink* trace) {
  runtime::GraphOptions options;
  options.workers = kWorkers;
  options.run.cache = cache;
  options.run.trace = trace;
  return options;
}

/// One cold GraphPlan::Build of `graph` under `options` (whose cache must be
/// empty and whose trace sink must be fresh), inside a "bench.plan_build"
/// span. Sets the layers the build determines: per-pass p50 of its compile
/// spans, its fusion decisions, and the size of what it compiled.
hipacc::Result<runtime::GraphPlan> TracedColdBuild(
    runtime::PipelineGraph& graph, const runtime::GraphOptions& options,
    LayerValues* layers) {
  hipacc::sim::TraceSink& sink = *options.run.trace;
  hipacc::Result<runtime::GraphPlan> plan = [&] {
    hipacc::sim::TraceSpan span(&sink, "bench.plan_build", "bench");
    return runtime::GraphPlan::Build(graph, options);
  }();
  if (!plan.ok()) return plan;

  std::map<std::string, std::vector<double>> ms_by_pass;
  const Ledger ledger = Ledger::FromTraceJson(sink.ToJson());
  for (const Span& span : ledger.spans()) {
    const hipacc::support::Json* pass =
        span.category == "compile" && span.args.is_object()
            ? span.args.Find("pass")
            : nullptr;
    if (pass != nullptr && pass->is_string())
      ms_by_pass[pass->string_value()].push_back(span.dur_ms);
  }
  SetPassP50(layers, ms_by_pass);
  layers->SetExact("compiler.fusion.fused_edges",
                   static_cast<double>(ledger.counter("graph.fused_edges")));
  layers->SetExact(
      "compiler.fusion.rejected",
      static_cast<double>(ledger.counter_prefix_sum("fuse.rejected.")));
  double emitted_bytes = 0.0, instructions = 0.0;
  for (const runtime::GraphPlan::Stage& stage : plan.value().stages) {
    if (stage.name.empty() ||
        stage.kind != runtime::PipelineGraph::Node::Kind::kKernel)
      continue;
    emitted_bytes += static_cast<double>(stage.compiled.source.size());
    if (stage.compiled.bytecode)
      instructions +=
          static_cast<double>(stage.compiled.bytecode->total_instructions);
  }
  layers->SetExact("codegen.emitted_kb", emitted_bytes / 1024.0);
  layers->SetExact("sim.bytecode_instrs", instructions);
  return plan;
}

/// runtime.plan_build_ms: median of repeated untraced GraphPlan::Build
/// calls against `options`' (warm) cache.
void SetWarmPlanBuild(runtime::PipelineGraph& graph,
                      runtime::GraphOptions options, Record* record,
                      LayerValues* layers) {
  constexpr int kReps = 21;
  options.run.trace = nullptr;
  std::vector<double> ms;
  for (int rep = 0; rep < kReps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    hipacc::Result<runtime::GraphPlan> plan =
        runtime::GraphPlan::Build(graph, options);
    ms.push_back(MsBetween(t0, Clock::now()));
    Require(record, plan.status(), "GraphPlan::Build");
  }
  layers->Set("runtime.plan_build_ms", Median(ms));
}

/// The ISP graph and a prepared executor, with one output set per window
/// slot. The cache behind `options` must outlive it.
struct Stream {
  explicit Stream(const runtime::GraphOptions& options) {
    hipacc::ops::BuildCameraIspGraph(graph, kSize, kSize,
                                     hipacc::ast::BoundaryMode::kClamp);
    runtime::StreamOptions stream;
    stream.mode = runtime::StreamMode::kOverlap;
    stream.in_flight = kInFlight;
    exec = std::make_unique<runtime::StreamExecutor>(graph, options, stream);
  }

  Status Prepare() {
    HIPACC_RETURN_IF_ERROR(exec->Prepare());
    for (auto* planes : {&y, &u, &v})
      planes->assign(static_cast<std::size_t>(exec->window()),
                     HostImage<float>(kSize, kSize));
    return Status::Ok();
  }

  runtime::PipelineGraph graph;
  std::unique_ptr<runtime::StreamExecutor> exec;
  std::vector<HostImage<float>> y, u, v;
};

/// Inputs, references, per-frame timestamps and the per-frame check.
class Harness {
 public:
  Harness(const RunArgs& args, Record* record)
      : record_(record), gain_(hipacc::ops::MakeVignettingGain(kSize, kSize)) {
    for (unsigned i = 0; i < kRaws; ++i) {
      raws_.push_back(
          hipacc::MakeNoiseImage(kSize, kSize, InputSeed(args.seed, i)));
      IspReference ref(kSize, kSize);
      std::memcpy(ref.raw_src.px.data(), raws_.back().data(),
                  raws_.back().size() * sizeof(float));
      std::memcpy(ref.gain_src.px.data(), gain_.data(),
                  gain_.size() * sizeof(float));
      ref.RunAll();
      expected_.push_back({ref.y_dn.px, ref.u.px, ref.v.px});
    }
    if (args.corrupt_reference) expected_[0][0][kSize * 7 + 5] += 0.5f;
    firsts_.resize(kRaws);
  }

  /// Streams `frames` frames; `on_retire` (optional) runs after each check.
  Status Run(Stream& s, long long frames,
             const std::function<void(long long)>& on_bind = {},
             const std::function<void(long long)>& on_retire = {}) {
    bind_.assign(static_cast<std::size_t>(frames), Clock::time_point{});
    retire_.assign(static_cast<std::size_t>(frames), Clock::time_point{});
    return s.exec->Run(
        frames,
        [&](long long f, runtime::PipelineGraph::InputBindings* in,
            runtime::PipelineGraph::OutputBindings* out) {
          bind_[static_cast<std::size_t>(f)] = Clock::now();
          if (on_bind) on_bind(f);
          const std::size_t slot =
              static_cast<std::size_t>(f % s.exec->window());
          in->assign({{"raw", &raws_[static_cast<std::size_t>(f % kRaws)]},
                      {"gain", &gain_}});
          out->assign(
              {{"y_dn", &s.y[slot]}, {"u", &s.u[slot]}, {"v", &s.v[slot]}});
          return Status::Ok();
        },
        [&](long long f) {
          Check(s, f);
          retire_[static_cast<std::size_t>(f)] = Clock::now();
          if (on_retire) on_retire(f);
          return Status::Ok();
        });
  }

  std::vector<double> LatenciesMs() const {
    std::vector<double> out;
    for (std::size_t f = 0; f < bind_.size(); ++f)
      out.push_back(MsBetween(bind_[f], retire_[f]));
    return out;
  }

  const HostImage<float>& raw(int i) const {
    return raws_[static_cast<std::size_t>(i)];
  }
  const HostImage<float>& gain() const { return gain_; }
  const std::vector<Clock::time_point>& retire_times() const { return retire_; }

 private:
  void Check(Stream& s, long long frame) {
    const std::size_t slot = static_cast<std::size_t>(frame % s.exec->window());
    const std::size_t raw = static_cast<std::size_t>(frame % kRaws);
    const HostImage<float>* got[3] = {&s.y[slot], &s.u[slot], &s.v[slot]};
    std::lock_guard<std::mutex> lock(mutex_);
    if (firsts_[raw].empty()) {
      double worst = 0.0;
      for (int c = 0; c < 3; ++c) {
        firsts_[raw].emplace_back(got[c]->data(),
                                  got[c]->data() + got[c]->size());
        worst = std::max(worst, MaxAbsDiff(firsts_[raw].back(),
                                           expected_[raw][static_cast<std::size_t>(c)]));
      }
      record_->Check(worst <= kTolerance,
                     "raw " + std::to_string(raw) +
                         ": first frame is " + std::to_string(worst) +
                         " off the hand-written ISP");
      return;
    }
    bool same = true;
    for (int c = 0; c < 3; ++c)
      same = same && std::memcmp(got[c]->data(),
                                 firsts_[raw][static_cast<std::size_t>(c)].data(),
                                 got[c]->size() * sizeof(float)) == 0;
    record_->Check(same, "frame " + std::to_string(frame) +
                             " is not byte-identical to raw " +
                             std::to_string(raw) + "'s first frame");
  }

  Record* record_;
  HostImage<float> gain_;
  std::vector<HostImage<float>> raws_;
  /// Per raw: y_dn, u, v from the hand-written ISP.
  std::vector<std::vector<std::vector<float>>> expected_;
  std::mutex mutex_;
  /// Per raw: the first streamed y_dn, u, v (later frames must match).
  std::vector<std::vector<std::vector<float>>> firsts_;
  std::vector<Clock::time_point> bind_, retire_;
};

/// Frames that fill `seconds` at the rate a warm-up stream retired frames
/// between its pipeline filling and draining (its middle half), and at
/// least enough for the tail percentile.
long long WarmUp(Harness& harness, Stream& s, double seconds, Record* record) {
  Require(record, harness.Run(s, kWarmupFrames), "warm-up stream");
  const std::vector<Clock::time_point>& retired = harness.retire_times();
  constexpr int kFirst = kWarmupFrames / 4, kLast = 3 * kWarmupFrames / 4;
  const double fps = (kLast - kFirst) /
                     (MsBetween(retired[kFirst], retired[kLast]) / 1e3);
  return std::max<long long>(static_cast<long long>(MinSamplesFor(kTailP)),
                             static_cast<long long>(fps * seconds));
}

/// Per plan stage: ns/pixel of the hand-written loops for every ISP op the
/// stage computes (its own image, horizontal siblings, and a producer it
/// absorbed by fusion).
std::map<std::string, double> SpeedOfLightNsPerPx(
    const Harness& harness, const runtime::GraphPlan& plan) {
  constexpr int kReps = 15;
  IspReference ref(kSize, kSize);
  std::memcpy(ref.raw_src.px.data(), harness.raw(0).data(),
              harness.raw(0).size() * sizeof(float));
  std::memcpy(ref.gain_src.px.data(), harness.gain().data(),
              harness.gain().size() * sizeof(float));
  ref.RunAll();
  std::map<std::string, double> image_ns;
  for (const char* image :
       {"raw", "gain", "shaded", "r", "g", "b", "y", "u", "v", "y_dn"}) {
    IspOp op;
    IspOpForImage(image, &op);
    std::vector<double> ms;
    for (int rep = 0; rep < kReps; ++rep) {
      const Clock::time_point t0 = Clock::now();
      ref.RunOp(op);
      ms.push_back(MsBetween(t0, Clock::now()));
    }
    image_ns[image] = Median(ms) * 1e6 / (kSize * kSize);
  }
  // y is the ISP graph's only single-consumer intermediate (it feeds y_dn),
  // so it is the only image fusion can eliminate.
  std::map<std::string, double> out;
  for (const runtime::GraphPlan::Stage& stage : plan.stages) {
    if (stage.name.empty()) continue;
    double ns = image_ns[stage.name];
    for (const auto& [output, image] : stage.extra_images) ns += image_ns[image];
    if (stage.name == "y_dn" && plan.producer.count("y") == 0)
      ns += image_ns["y"];
    out[stage.name] = ns;
  }
  return out;
}

void TracedSection(const RunArgs& args, Harness& harness, double seconds,
                   double untraced_fps, Record* record, LayerValues* layers) {
  hipacc::sim::TraceSink sink;
  hipacc::compiler::CompilationCache cache;
  cache.set_disk_store(nullptr);
  const runtime::GraphOptions options = MakeGraphOptions(&cache, &sink);

  Stream s(options);
  hipacc::Result<runtime::GraphPlan> plan =
      TracedColdBuild(s.graph, options, layers);
  Require(record, plan.status(), "traced cold plan build");
  SetWarmPlanBuild(s.graph, options, record, layers);

  const CacheCounters cache_before = ReadCacheCounters(sink);
  {
    hipacc::sim::TraceSpan span(&sink, "bench.prepare", "bench");
    Require(record, s.Prepare(), "traced prepare");
  }
  layers->SetExact("compiler.cache.hit_ratio",
                   HitRatio(cache_before, ReadCacheCounters(sink)));

  const long long frames = WarmUp(harness, s, seconds, record);
  const long long host_before = sink.counter("graph.launches.host");
  const long long sim_before = sink.counter("graph.launches.sim");
  // One bench span per frame, bind to retire, on the frame's epoch lane so
  // the executor's "stage" spans of that frame nest under it (checked
  // below).
  std::vector<double> frame_start(static_cast<std::size_t>(frames), 0.0);
  const double run_start_ms = sink.NowMs();
  Require(record,
          harness.Run(
              s, frames,
              [&](long long f) {
                frame_start[static_cast<std::size_t>(f)] = sink.NowMs();
              },
              [&](long long f) {
                const double start = frame_start[static_cast<std::size_t>(f)];
                hipacc::support::Json a = hipacc::support::Json::Object();
                a["frame"] = f;
                sink.AddSpan("bench.frame", "bench", start,
                             sink.NowMs() - start, std::move(a),
                             static_cast<int>(f) + kFirstStreamEpoch);
              }),
          "traced stream");
  const double run_ms = sink.NowMs() - run_start_ms;

  const Ledger ledger = Ledger::FromTraceJson(sink.ToJson());
  const std::vector<Span>& spans = ledger.spans();
  std::map<std::string, std::vector<double>> stage_ms;
  // Per bench.frame span (by index): its stage children and their time.
  std::map<int, int> frame_stages;
  std::map<int, double> frame_stage_ms;
  double busy_ms = 0.0;
  for (const Span& span : spans) {
    if (span.start_ms < run_start_ms || span.category != "graph" ||
        span.name.rfind("stage ", 0) != 0)
      continue;
    stage_ms[span.name.substr(6)].push_back(span.dur_ms);
    busy_ms += span.dur_ms;
    if (span.parent >= 0 &&
        spans[static_cast<std::size_t>(span.parent)].name == "bench.frame") {
      ++frame_stages[span.parent];
      frame_stage_ms[span.parent] += span.dur_ms;
    }
  }
  // Every frame must own exactly its own stage spans; otherwise the lanes
  // no longer line up and the per-frame attribution is wrong.
  int stages_per_frame = 0;
  for (const runtime::GraphPlan::Stage& stage : plan.value().stages)
    stages_per_frame += !stage.name.empty();
  std::vector<double> shares;
  long long misattributed = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name != "bench.frame") continue;
    const int index = static_cast<int>(i);
    misattributed += frame_stages[index] != stages_per_frame;
    shares.push_back(frame_stage_ms[index] / spans[i].dur_ms);
  }
  record->Check(shares.size() == static_cast<std::size_t>(frames) &&
                    misattributed == 0,
                std::to_string(misattributed) + " of " +
                    std::to_string(shares.size()) +
                    " traced frames do not own exactly their " +
                    std::to_string(stages_per_frame) + " stage spans");

  const std::map<std::string, double> sol =
      SpeedOfLightNsPerPx(harness, plan.value());
  for (const auto& [stage, ms] : stage_ms) {
    const std::string ns_name = "runtime.stage_ns_per_px." + stage;
    if (!layers->Lists(ns_name)) continue;
    const double ns_per_px = Median(ms) * 1e6 / (kSize * kSize);
    layers->Set(ns_name, ns_per_px);
    const std::string sol_name = "runtime.sol_ratio." + stage;
    auto it = sol.find(stage);
    if (it != sol.end() && it->second > 0.0 && layers->Lists(sol_name))
      layers->Set(sol_name, ns_per_px / it->second);
  }
  layers->Set("runtime.exec_share", shares.empty() ? 0.0 : Median(shares));
  layers->Set("runtime.worker_busy_frac", busy_ms / (kWorkers * run_ms));
  // The pool lives with the graph, so this stream's fresh graph allocates
  // its whole working set under the sink.
  const double reuse = static_cast<double>(sink.counter("bufpool.reuse"));
  const double alloc = static_cast<double>(sink.counter("bufpool.alloc"));
  layers->Set("runtime.bufpool.reuse_ratio",
              reuse + alloc > 0.0 ? reuse / (reuse + alloc) : 0.0);
  layers->Set("runtime.bufpool.peak_mb",
              static_cast<double>(sink.counter("bufpool.peak_bytes")) /
                  (1024.0 * 1024.0));
  layers->SetExact("runtime.launches_per_op.host",
                   static_cast<double>(sink.counter("graph.launches.host") -
                                       host_before) / frames);
  layers->SetExact("runtime.launches_per_op.sim",
                   static_cast<double>(sink.counter("graph.launches.sim") -
                                       sim_before) / frames);
  const double traced_fps = frames / (run_ms / 1e3);
  layers->Set("trace_overhead_pct", 100.0 * (untraced_fps / traced_fps - 1.0));
  WriteTraceArtifacts(args, sink, ledger, record);
}

}  // namespace

void RunIspStream(const RunArgs& args, Record* record) {
  Harness harness(args, record);

  // Setup: graph build, plan build and cold compile up to the first
  // retired frame, each time against an empty cache.
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    hipacc::compiler::CompilationCache cache;
    cache.set_disk_store(nullptr);
    Stream s(MakeGraphOptions(&cache, nullptr));
    Require(record, s.Prepare(), "prepare");
    Require(record, harness.Run(s, 1), "first frame");
    setup_s.push_back(MsBetween(t0, Clock::now()) / 1e3);
  }

  hipacc::compiler::CompilationCache cache;
  cache.set_disk_store(nullptr);
  Stream s(MakeGraphOptions(&cache, nullptr));
  Require(record, s.Prepare(), "prepare");
  const double measure_s = args.trace ? args.seconds / 2.0 : args.seconds;
  const long long frames = WarmUp(harness, s, measure_s, record);
  const Usage before = ReadUsage();
  const Clock::time_point t0 = Clock::now();
  Require(record, harness.Run(s, frames), "timed stream");
  const double wall_s = MsBetween(t0, Clock::now()) / 1e3;
  const Usage usage = UsageDelta(before, ReadUsage());
  const double fps = static_cast<double>(frames) / wall_s;

  AddEndToEnd(record, "throughput_per_s", fps, "1/s", "frames_per_s", frames);
  AddLatency(record, harness.LatenciesMs(), kTailP, "frame_ms_p50",
             "frame_ms_p95");
  AddEndToEnd(record, "setup_s", Median(setup_s), "s", "", kSetupReps);

  if (args.trace) {
    LayerValues layers(args.repo_root + "/BENCHMARK.json");
    layers.Set("runtime.ctx_switches_per_op",
               static_cast<double>(usage.context_switches()) / frames);
    TracedSection(args, harness, args.seconds / 2.0, fps, record, &layers);
    layers.EmitInto(record);
  }
}

}  // namespace perfbench
