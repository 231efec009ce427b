#include "runtime/stream_executor.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <map>
#include <mutex>
#include <thread>

#include "runtime/bindings.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "support/stopwatch.hpp"

namespace hipacc::runtime {

const char* to_string(StreamMode mode) noexcept {
  switch (mode) {
    case StreamMode::kSerial: return "serial";
    case StreamMode::kOverlap: return "overlap";
  }
  return "?";
}

Result<StreamMode> ParseStreamMode(const std::string& text) {
  if (text == "serial") return StreamMode::kSerial;
  if (text == "overlap") return StreamMode::kOverlap;
  return Status::Invalid("unknown stream mode '" + text +
                         "' (expected serial|overlap)");
}

Result<StreamOptions> StreamCliConfig::ToOptions() const {
  if (frames < 1) return Status::Invalid("--frames must be >= 1");
  if (in_flight < 1) return Status::Invalid("--in-flight must be >= 1");
  if (fps_target < 0) return Status::Invalid("--fps-target must be >= 0");
  Result<StreamMode> parsed = ParseStreamMode(mode);
  if (!parsed.ok()) return parsed.status();
  StreamOptions options;
  options.mode = parsed.value();
  options.in_flight = in_flight;
  return options;
}

void RegisterStreamFlags(support::CliParser* cli, StreamCliConfig* config) {
  cli->Int("frames", &config->frames, "N", "frames to stream");
  cli->Int("in-flight", &config->in_flight, "N",
           "max frames admitted but not yet retired (overlap mode)");
  cli->Int("fps-target", &config->fps_target, "N",
           "frame-rate target the report compares against (0 = none)");
  cli->String("stream-mode", &config->mode, "MODE",
              "frame window policy: serial | overlap");
}

double StreamStats::LatencyPercentile(double p) const {
  if (latencies_ms.empty()) return 0.0;
  std::vector<double> sorted = latencies_ms;
  std::sort(sorted.begin(), sorted.end());
  const double clamped = std::min(100.0, std::max(0.0, p));
  const double rank =
      clamped / 100.0 * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

namespace {

/// A band holds at least this many rows: a host stage of `rows` rows is cut
/// into max(1, min(workers, rows / kMinBandRows)) bands.
constexpr int kMinBandRows = 16;

/// One unit of work: begin a stage, or run its rows [y0, y1).
struct Task {
  int stage = 0;
  int y0 = 0;
  int y1 = -1;  ///< -1: the stage's begin step

  bool begin() const { return y1 < 0; }
};

/// One in-flight frame: its FrameExec, its caller-provided bindings, and the
/// per-frame scheduling state (remaining dependency counts).
struct FrameState {
  std::unique_ptr<FrameExec> exec;
  PipelineGraph::InputBindings inputs;
  PipelineGraph::OutputBindings outputs;
  std::vector<int> deps;        ///< remaining unfinished producers, per stage
  std::vector<int> bands_left;  ///< row bands still running, per stage
  int remaining = 0;            ///< stages not yet completed
  bool done = false;            ///< every stage ran; eligible to retire
  double admit_ms = 0.0;
};

/// The most tasks one frame of `plan` can have ready at once: a band per
/// kMinBandRows rows of each host kernel stage, one task for every other
/// stage.
long long MaxTasksPerFrame(const GraphPlan& plan) {
  long long tasks = 0;
  for (const GraphPlan::Stage& stage : plan.stages)
    tasks += stage.host ? std::max(1, stage.height / kMinBandRows) : 1;
  return tasks;
}

/// The workers' shared scheduling state. One mutex guards everything; stage
/// and band execution, binding, and retirement all happen with it released.
/// Fail, Execute, QueueBands, Complete, Admit and RetireInOrder are called
/// with the mutex held.
struct FrameLoop {
  FrameLoop(const GraphPlan& plan, long long total, int window,
            long long first_epoch, int workers, const FrameBinder& binder,
            const FrameRetirer& retirer)
      : plan(plan),
        total(total),
        window(window),
        first_epoch(first_epoch),
        workers(workers),
        binder(binder),
        retirer(retirer) {}

  void Work();
  void Fail(const Status& status);
  void Execute(std::unique_lock<std::mutex>& lock);
  void QueueBands(long long frame, int stage, int rows);
  void Complete(std::unique_lock<std::mutex>& lock, long long frame,
                int stage);
  void Admit(std::unique_lock<std::mutex>& lock);
  void RetireInOrder(std::unique_lock<std::mutex>& lock);

  const GraphPlan& plan;
  const long long total;
  const int window;
  const long long first_epoch;
  const int workers;
  const FrameBinder& binder;
  const FrameRetirer& retirer;

  std::mutex mutex;
  std::condition_variable cv;
  long long admitted = 0;
  long long retired = 0;
  bool binding = false;   ///< a worker is inside the bind callback
  bool retiring = false;  ///< a worker is driving the in-order retire chain
  int executing = 0;      ///< tasks (and stage ends) currently running
  Status error = Status::Ok();
  std::map<long long, FrameState> frames;
  /// Ready tasks, keyed by frame: workers always drain the *oldest* frame
  /// first so frames retire (and their buffers free) as early as possible.
  std::map<long long, std::vector<Task>> ready;
  Stopwatch clock;
  std::vector<double> latencies;
  int max_in_flight = 0;
};

void FrameLoop::Work() {
  std::unique_lock<std::mutex> lock(mutex);
  for (;;) {
    if (error.ok() && !ready.empty()) {
      Execute(lock);
    } else if (error.ok() && !binding && admitted < total &&
               admitted - retired < window) {
      // Binding is exclusive, so bind callbacks run one at a time, in frame
      // order.
      Admit(lock);
    } else if (error.ok() ? retired == total
                          : executing == 0 && !binding && !retiring) {
      // Done — every frame retired, or a failure fully drained.
      cv.notify_all();
      return;
    } else {
      cv.wait(lock);
      continue;
    }
    cv.notify_all();
  }
}

void FrameLoop::Fail(const Status& status) {
  if (error.ok()) error = status;
  ready.clear();
}

void FrameLoop::Execute(std::unique_lock<std::mutex>& lock) {
  auto oldest = ready.begin();
  const long long frame = oldest->first;
  const Task task = oldest->second.back();
  oldest->second.pop_back();
  if (oldest->second.empty()) ready.erase(oldest);
  FrameState& state = frames.at(frame);
  ++executing;
  lock.unlock();
  // A begin step returns the rows it left for bands (0: it ran whole).
  Result<int> rows = 0;
  if (task.begin())
    rows = state.exec->BeginStage(task.stage);
  else
    state.exec->RunBand(task.stage, task.y0, task.y1);
  lock.lock();
  --executing;
  if (!rows.ok()) return Fail(rows.status());
  if (!error.ok()) return;  // another task failed meanwhile
  if (rows.value() > 0) return QueueBands(frame, task.stage, rows.value());
  // Whichever worker finishes a stage's last band completes the stage.
  if (!task.begin() &&
      --state.bands_left[static_cast<std::size_t>(task.stage)] > 0)
    return;
  ++executing;
  lock.unlock();
  state.exec->EndStage(task.stage);
  lock.lock();
  --executing;
  if (!error.ok()) return;
  Complete(lock, frame, task.stage);
}

void FrameLoop::QueueBands(long long frame, int stage, int rows) {
  const int bands = std::max(1, std::min(workers, rows / kMinBandRows));
  frames.at(frame).bands_left[static_cast<std::size_t>(stage)] = bands;
  std::vector<Task>& queue = ready[frame];
  for (int b = 0; b < bands; ++b)
    queue.push_back(Task{stage, static_cast<int>(1LL * rows * b / bands),
                         static_cast<int>(1LL * rows * (b + 1) / bands)});
}

void FrameLoop::Complete(std::unique_lock<std::mutex>& lock, long long frame,
                         int stage) {
  FrameState& state = frames.at(frame);
  for (int consumer : plan.dag.consumers[static_cast<std::size_t>(stage)])
    if (--state.deps[static_cast<std::size_t>(consumer)] == 0)
      ready[frame].push_back(Task{consumer});
  if (--state.remaining > 0) return;
  state.done = true;
  // Frames retire strictly in admission order; a frame that finished early
  // waits for its elders. One worker drives the whole chain.
  if (!retiring && frame == retired) RetireInOrder(lock);
}

void FrameLoop::Admit(std::unique_lock<std::mutex>& lock) {
  const long long frame = admitted++;
  binding = true;
  FrameState state;
  state.admit_ms = clock.ElapsedMs();
  lock.unlock();
  Status status = binder(frame, &state.inputs, &state.outputs);
  if (status.ok()) status = plan.ValidateBindings(state.inputs, state.outputs);
  if (status.ok()) {
    state.exec = std::make_unique<FrameExec>(plan, first_epoch + frame);
    state.deps = plan.dag.dependencies;
    state.bands_left.assign(plan.stages.size(), 0);
    state.remaining = plan.dag.node_count();
  }
  lock.lock();
  binding = false;
  if (!status.ok()) return Fail(status);
  if (!error.ok()) return;  // the run failed while this frame was binding
  FrameState& placed = frames[frame] = std::move(state);
  placed.exec->BindInputs(&placed.inputs);
  std::vector<Task>& queue = ready[frame];
  for (int i = 0; i < plan.dag.node_count(); ++i)
    if (plan.dag.dependencies[static_cast<std::size_t>(i)] == 0)
      queue.push_back(Task{i});
  max_in_flight =
      std::max(max_in_flight, static_cast<int>(admitted - retired));
}

void FrameLoop::RetireInOrder(std::unique_lock<std::mutex>& lock) {
  retiring = true;
  for (auto oldest = frames.find(retired);
       error.ok() && oldest != frames.end() && oldest->second.done;
       oldest = frames.find(retired)) {
    FrameState& frame = oldest->second;
    const long long index = retired;
    lock.unlock();
    Status status = frame.exec->CopyOutputs(frame.outputs);
    frame.exec->ReleaseRemaining();
    const double latency = clock.ElapsedMs() - frame.admit_ms;
    if (status.ok() && retirer) status = retirer(index);
    lock.lock();
    latencies.push_back(latency);
    frames.erase(oldest);
    ++retired;
    if (!status.ok()) Fail(status);
  }
  retiring = false;
}

}  // namespace

Status RunFrames(const GraphPlan& plan, long long frames, int window,
                 long long first_epoch, const FrameBinder& binder,
                 const FrameRetirer& retirer, StreamStats* stats) {
  const long long requested =
      plan.options->workers > 0
          ? plan.options->workers
          : std::max(1u, std::thread::hardware_concurrency());
  const int workers = static_cast<int>(
      std::min<long long>(requested, MaxTasksPerFrame(plan) * window));
  FrameLoop loop(plan, frames, window, first_epoch, workers, binder, retirer);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(workers - 1));
  for (int i = 1; i < workers; ++i)
    threads.emplace_back([&loop] { loop.Work(); });
  loop.Work();
  for (std::thread& thread : threads) thread.join();

  // On failure, frames can be stranded mid-window: return their buffers.
  for (auto& [frame, state] : loop.frames)
    if (state.exec != nullptr) state.exec->ReleaseRemaining();

  *stats = StreamStats{};
  stats->frames = static_cast<long long>(loop.latencies.size());
  stats->wall_ms = loop.clock.ElapsedMs();
  stats->fps = stats->wall_ms > 0.0 ? static_cast<double>(stats->frames) /
                                          (stats->wall_ms / 1000.0)
                                    : 0.0;
  stats->max_in_flight = loop.max_in_flight;
  stats->latencies_ms = std::move(loop.latencies);
  return loop.error;
}

StreamExecutor::StreamExecutor(PipelineGraph& graph,
                               GraphOptions graph_options, StreamOptions stream)
    : graph_(graph),
      graph_options_(std::move(graph_options)),
      stream_(stream) {}

StreamExecutor::~StreamExecutor() = default;

int StreamExecutor::window() const noexcept {
  return stream_.mode == StreamMode::kSerial ? 1
                                             : std::max(1, stream_.in_flight);
}

Status StreamExecutor::Prepare() {
  if (prepared_) return Status::Ok();
  Result<GraphPlan> plan = GraphPlan::Build(graph_, graph_options_);
  if (!plan.ok()) return plan.status();
  plan_ = std::move(plan).take();
  prepared_ = true;
  return Status::Ok();
}

Status StreamExecutor::Run(long long frames, const FrameBinder& binder,
                           const FrameRetirer& retirer) {
  HIPACC_RETURN_IF_ERROR(Prepare());
  stats_ = StreamStats{};
  if (frames < 0) return Status::Invalid("stream frame count must be >= 0");
  if (frames == 0) return Status::Ok();
  if (!binder) return Status::Invalid("stream run needs a frame binder");

  // Epoch frame+1: epoch 0 is the one-shot Run() lane in traces.
  const Status status = RunFrames(plan_, frames, window(), /*first_epoch=*/1,
                                  binder, retirer, &stats_);
  if (graph_options_.run.trace != nullptr) {
    if (stats_.frames > 0)
      graph_options_.run.trace->IncrementCounter("stream.frames",
                                                 stats_.frames);
    graph_options_.run.trace->IncrementCounter("stream.runs");
  }
  return status;
}

namespace {

long long ImageBytes(const GraphPlan::Stage& stage) {
  return static_cast<long long>(stage.width) * stage.height *
         static_cast<long long>(sizeof(float));
}

}  // namespace

Status StreamExecutor::MeasureStageCosts() {
  if (!stage_model_ms_.empty()) return Status::Ok();
  // Kept only once every stage measured, so a failed Measure fails every
  // later ModelThroughput call too instead of modelling that stage as free.
  std::vector<double> costs(plan_.stages.size(), 0.0);
  for (std::size_t i = 0; i < plan_.stages.size(); ++i) {
    const GraphPlan::Stage& stage = plan_.stages[i];
    if (stage.name.empty()) continue;
    switch (stage.kind) {
      case GraphPlan::Node::Kind::kSource:
        break;  // modelled as an H2D copy, not compute
      case GraphPlan::Node::Kind::kDecimate:
      case GraphPlan::Node::Kind::kUpsample:
        // Host resampling loops are bandwidth-shaped; charge the output's
        // bytes at interconnect bandwidth as a stand-in compute cost.
        costs[i] =
            sim::ModelCopyMs(ImageBytes(stage), graph_options_.run.device);
        break;
      case GraphPlan::Node::Kind::kKernel: {
        BindingSet bindings;
        std::vector<BufferPool::ImagePtr> held;
        for (const auto& [accessor, image] : stage.inputs) {
          const GraphPlan::Stage& producer = plan_.stages[
              static_cast<std::size_t>(plan_.producer.at(image))];
          held.push_back(plan_.pool->Acquire(producer.width, producer.height));
          bindings.Input(accessor, *held.back());
        }
        held.push_back(plan_.pool->Acquire(stage.width, stage.height));
        bindings.Output(*held.back());
        for (const auto& [output_name, image] : stage.extra_images) {
          held.push_back(plan_.pool->Acquire(stage.width, stage.height));
          bindings.Output(output_name, *held.back());
        }
        for (const auto& [name, value] : stage.scalars)
          bindings.Scalar(name, value);
        const compiler::CompiledKernel& ck = stage.compiled;
        Result<LaunchHolder> holder =
            BuildLaunch(ck.device_ir, ck.config.config, bindings);
        Result<sim::LaunchStats> stats = holder.status();
        if (holder.ok()) {
          holder.value().launch.programs = ck.bytecode.get();
          sim::Simulator simulator(graph_options_.run.device);
          stats = simulator.Measure(holder.value().launch);
        }
        for (BufferPool::ImagePtr& image : held)
          plan_.pool->Release(std::move(image));
        if (!stats.ok()) return stats.status();
        costs[i] = stats.value().timing.total_ms;
        break;
      }
    }
  }
  stage_model_ms_ = std::move(costs);
  return Status::Ok();
}

Result<StreamModel> StreamExecutor::ModelThroughput(long long frames) {
  HIPACC_RETURN_IF_ERROR(Prepare());
  if (frames < 1)
    return Status::Invalid("throughput model needs at least one frame");
  HIPACC_RETURN_IF_ERROR(MeasureStageCosts());

  Result<std::vector<int>> order =
      TopologicalOrder(plan_.dag, [this](int i) {
        return plan_.stages[static_cast<std::size_t>(i)].name;
      });
  if (!order.ok()) return order.status();

  sim::StreamTimeline timeline(stream_.mode == StreamMode::kOverlap);
  const int depth = window();
  std::vector<double> frame_finish;
  frame_finish.reserve(static_cast<std::size_t>(frames));
  std::map<std::string, double> done;  // image -> modelled availability
  for (long long f = 0; f < frames; ++f) {
    // Frame f reuses the window slot frame f-depth held: its first op may
    // not start before that frame fully finished (buffer recycling), which
    // is exactly what bounds frames-in-flight on a real device.
    const double frame_ready =
        f >= depth ? frame_finish[static_cast<std::size_t>(f - depth)] : 0.0;
    done.clear();
    for (int index : order.value()) {
      const GraphPlan::Stage& stage =
          plan_.stages[static_cast<std::size_t>(index)];
      if (stage.name.empty()) continue;  // retired fusion producer
      double ready = frame_ready;
      for (const auto& [accessor, image] : stage.inputs)
        ready = std::max(ready, done.at(image));
      double end;
      if (stage.kind == GraphPlan::Node::Kind::kSource) {
        end = timeline.Enqueue(
            sim::StreamQueue::kCopyH2D, ready,
            sim::ModelCopyMs(ImageBytes(stage), graph_options_.run.device));
      } else {
        end = timeline.Enqueue(sim::StreamQueue::kCompute, ready,
                               stage_model_ms_[static_cast<std::size_t>(index)]);
      }
      done[stage.name] = end;
      for (const auto& [output_name, image] : stage.extra_images)
        done[image] = end;
    }
    double finish = frame_ready;
    for (const std::string& name : plan_.outputs) {
      const GraphPlan::Stage& producer = plan_.stages[
          static_cast<std::size_t>(plan_.producer.at(name))];
      finish = std::max(
          finish, timeline.Enqueue(sim::StreamQueue::kCopyD2H, done.at(name),
                                   sim::ModelCopyMs(ImageBytes(producer),
                                                    graph_options_.run.device)));
    }
    frame_finish.push_back(finish);
  }

  StreamModel model;
  model.finish_ms = timeline.finish_ms();
  model.fps = model.finish_ms > 0.0
                  ? static_cast<double>(frames) / (model.finish_ms / 1000.0)
                  : 0.0;
  model.compute_utilisation = timeline.utilisation(sim::StreamQueue::kCompute);
  model.h2d_utilisation = timeline.utilisation(sim::StreamQueue::kCopyH2D);
  model.d2h_utilisation = timeline.utilisation(sim::StreamQueue::kCopyD2H);
  return model;
}

}  // namespace hipacc::runtime
