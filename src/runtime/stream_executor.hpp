// The runtime's one scheduler, and the streaming executor built on it.
//
// RunFrames is the frame loop every graph execution goes through: it runs a
// compiled GraphPlan over a sequence of frames with up to `window` frames in
// flight. PipelineGraph::Run is one frame through it (window 1, epoch 0);
// StreamExecutor builds the plan once and streams many frames — while frame
// k's late stages still run, frame k+1's sources are already being bound
// and its early stages scheduled on the same workers. Every in-flight frame
// owns a private FrameExec (its own buffer map and refcounts over the shared
// BufferPool), so overlapped frames can never alias each other's
// intermediates; outputs are therefore bit-identical to running the frames
// one by one, and the differential test suite
// (tests/runtime/stream_executor_test.cpp) holds the executor to that.
//
// Tasks: a stage runs as a begin step, then row bands, then an end step
// (FrameExec::BeginStage / RunBand / EndStage). Begin acquires the stage's
// buffers and prepares its host launch; sources, resamplers and simulated
// launches run whole there. A prepared host stage of `rows` rows is cut into
// max(1, min(workers, rows / 16)) bands that any idle worker may run, and
// whichever worker finishes the last band ends the stage. The ready queue
// holds begin and band tasks, keyed by frame.
//
// Workers: min(GraphOptions::workers, the tasks window frames can have ready
// at once), where workers 0 means hardware concurrency, so a one-kernel
// graph still uses every worker. The calling thread is one of them, so
// workers == 1 runs everything on the caller and starts no thread. A worker
// takes the oldest frame's ready tasks first and otherwise admits the next
// frame when the window has room.
//
// Ordering contract: frames are *admitted* in order, *retire* in order
// (outputs copied, buffers released), and only the stages in between
// overlap. The retire callback for frame k runs before the one for frame
// k+1, so a caller that reuses output images per in-flight slot reads each
// frame's pixels before they can be overwritten.
//
// Failure contract: the first error (a stage, the binder, binding
// validation, or the retirer) is recorded and returned. From then on no
// stage or band is dispatched and no frame is admitted or retired; tasks
// already running finish, and every in-flight frame's buffers return to the
// pool.
//
// Serial mode (--stream-mode=serial) runs the identical machinery with the
// window clamped to one frame — the baseline the overlap speedup is measured
// against (bench/stream_isp.cpp gates overlap >= 1.3x serial).
//
// ModelThroughput() is the simulated-device view of the same pipeline: each
// kernel stage's modelled launch time (sim::Simulator::Measure) plus
// PCIe-modelled H2D/D2H copies (sim::ModelCopyMs) replayed onto per-queue
// sim::StreamTimelines, reporting the modelled sustained fps and per-queue
// utilisation with and without copy/compute overlap.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "runtime/graph_plan.hpp"
#include "sim/timing.hpp"
#include "support/cli.hpp"

namespace hipacc::runtime {

/// How the frame window advances.
enum class StreamMode {
  kSerial,   ///< one frame at a time (the baseline; window forced to 1)
  kOverlap,  ///< up to `in_flight` frames pipelined across the worker pool
};

const char* to_string(StreamMode mode) noexcept;

/// Parses "serial" / "overlap" (the --stream-mode vocabulary).
Result<StreamMode> ParseStreamMode(const std::string& text);

struct StreamOptions {
  StreamMode mode = StreamMode::kOverlap;
  /// Maximum frames admitted but not yet retired (>= 1; serial mode always
  /// behaves as 1). Bounds buffer-pool footprint: the pool's widest cut
  /// grows linearly with the window.
  int in_flight = 2;
};

/// The streaming flags every streaming binary shares (--frames, --in-flight,
/// --fps-target, --stream-mode), registered through the unified CliParser so
/// the generated --help stays in sync. Call RegisterStreamFlags, parse, then
/// ToOptions() to validate and convert.
struct StreamCliConfig {
  int frames = 32;
  int in_flight = 2;
  int fps_target = 0;
  std::string mode = "overlap";

  /// Validates (frames >= 1, in_flight >= 1, known mode) and converts.
  Result<StreamOptions> ToOptions() const;
};

void RegisterStreamFlags(support::CliParser* cli, StreamCliConfig* config);

/// What one run of the frame loop observed, for reports and gates.
struct StreamStats {
  long long frames = 0;     ///< frames retired
  double wall_ms = 0.0;     ///< admission of frame 0 to last retire
  double fps = 0.0;         ///< frames / wall seconds
  int max_in_flight = 0;    ///< deepest admitted-but-not-retired window seen
  /// Per-frame latency, admission (before the bind callback) to retire
  /// (outputs copied, buffers released), in frame order.
  std::vector<double> latencies_ms;

  /// Interpolated percentile over latencies_ms (p in [0, 100]; 0 when no
  /// frames ran). LatencyPercentile(99) is the bench's p99 column.
  double LatencyPercentile(double p) const;
};

/// Modelled steady-state throughput of the pipeline on the simulated device
/// (see StreamExecutor::ModelThroughput).
struct StreamModel {
  double finish_ms = 0.0;  ///< modelled end of the last frame's readback
  double fps = 0.0;        ///< frames / modelled seconds
  double compute_utilisation = 0.0;  ///< busy fraction of the compute queue
  double h2d_utilisation = 0.0;
  double d2h_utilisation = 0.0;
};

/// Fills one frame's bindings. Called once per frame, in frame order, from
/// a worker thread (thread-safe with respect to other frames' execution;
/// never concurrently with itself). The bound images must stay valid until
/// the frame retired.
using FrameBinder =
    std::function<Status(long long frame, PipelineGraph::InputBindings* in,
                         PipelineGraph::OutputBindings* out)>;
/// Runs after `frame`'s outputs were copied into its bound images, in strict
/// frame order. Optional; a failure aborts the run.
using FrameRetirer = std::function<Status(long long frame)>;

/// The frame loop (see file comment): executes frames [0, frames) of `plan`
/// with at most `window` (>= 1) admitted but not retired, frame f as
/// FrameExec epoch `first_epoch + f`. Worker count and trace sink come from
/// the plan's GraphOptions. Fills `stats` and returns the first
/// error.
Status RunFrames(const GraphPlan& plan, long long frames, int window,
                 long long first_epoch, const FrameBinder& binder,
                 const FrameRetirer& retirer, StreamStats* stats);

class StreamExecutor {
 public:
  /// The graph must outlive the executor; `graph_options` and `stream`
  /// are copied.
  StreamExecutor(PipelineGraph& graph, GraphOptions graph_options,
                 StreamOptions stream);
  ~StreamExecutor();

  StreamExecutor(const StreamExecutor&) = delete;
  StreamExecutor& operator=(const StreamExecutor&) = delete;

  /// Builds and compiles the frame-invariant plan. Idempotent; Run calls it
  /// implicitly, exposed so callers can front-load compilation (and its
  /// cache misses) before the timed region.
  Status Prepare();

  /// Executes `frames` frames through the window (RunFrames, streamed frame
  /// f on epoch f + 1). On failure the first error is returned, admission
  /// stops, and every in-flight frame's buffers are returned to the pool.
  Status Run(long long frames, const FrameBinder& binder,
             const FrameRetirer& retirer = {});

  /// Statistics of the last completed Run().
  const StreamStats& stats() const noexcept { return stats_; }

  /// Window depth actually used (1 in serial mode).
  int window() const noexcept;

  /// Replays `frames` frames of the compiled pipeline onto per-queue
  /// simulated timelines (compute, H2D copy, D2H copy): kernel stages cost
  /// their sim::Simulator::Measure modelled time, copies are PCIe-modelled
  /// from image bytes. Overlap mode advances the three queues independently
  /// (copy/compute overlap + frames-in-flight); serial mode serialises
  /// everything onto one timeline, exactly like the pre-streaming
  /// single-launch-stream model.
  Result<StreamModel> ModelThroughput(long long frames);

 private:
  Status MeasureStageCosts();

  PipelineGraph& graph_;
  GraphOptions graph_options_;
  StreamOptions stream_;
  bool prepared_ = false;
  GraphPlan plan_;
  StreamStats stats_;
  /// Modelled per-stage compute cost (ms), by stage index; filled lazily by
  /// ModelThroughput once every stage measured, empty until then.
  std::vector<double> stage_model_ms_;
};

}  // namespace hipacc::runtime
