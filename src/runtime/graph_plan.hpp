// Split of the pipeline graph runtime into a reusable *plan* and per-frame
// *execution state*, so one planning/compilation pass serves a whole frame
// stream with several frames' worth of mutable state alive at once:
//
//   GraphPlan   — everything about a graph that is frame-invariant: the
//                 validated, separated, fused, *compiled* stage list, the
//                 scheduling DAG, and the per-frame buffer refcount
//                 template. Built once (GraphPlan::Build), immutable
//                 afterwards, safe to execute from many frames/threads
//                 concurrently.
//   FrameExec   — one frame's mutable state over a plan: the live buffer
//                 map, the remaining-consumer refcounts, the bound inputs
//                 and each begun stage's launch (what its row bands read).
//                 Each in-flight frame owns its own FrameExec, so
//                 overlapped frames can never alias each other's buffers —
//                 they draw from the shared BufferPool, which hands every
//                 Acquire a distinct image.
//
// Neither starts a thread at execution time. The frame loop
// (runtime::RunFrames, stream_executor.hpp) is the one scheduler that drives
// FrameExecs: PipelineGraph::Run is one frame through it, StreamExecutor
// keeps the plan and pipelines N frames.
#pragma once

#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "compiler/driver.hpp"
#include "runtime/bindings.hpp"
#include "runtime/graph.hpp"
#include "runtime/host_exec.hpp"

namespace hipacc::runtime {

/// Dependency structure of a plan's stages. Stage `i` may start once all of
/// its `dependencies[i]` producers completed; when it completes, each stage
/// in `consumers[i]` loses one pending dependency.
struct DagSpec {
  std::vector<std::vector<int>> consumers;
  std::vector<int> dependencies;

  int node_count() const { return static_cast<int>(dependencies.size()); }
};

/// Kahn's algorithm. Returns a valid execution order, or Invalid naming the
/// stages on a cycle ("a -> b -> a") via the `label` callback.
Result<std::vector<int>> TopologicalOrder(
    const DagSpec& dag, const std::function<std::string(int)>& label);

/// Frame-invariant execution plan of one PipelineGraph under fixed
/// GraphOptions. Holds pointers to the graph's buffer pool and the options'
/// trace sink; the graph and options must outlive the plan.
struct GraphPlan {
  using Node = PipelineGraph::Node;

  /// One schedulable stage after separation/fusion. `source` is the kernel
  /// the stage compiles: the node's own, a separated row or column pass, or
  /// the merged kernel the fusion planner built and scored.
  struct Stage {
    Node::Kind kind = Node::Kind::kSource;
    std::string name;
    frontend::KernelSource source;
    std::vector<std::pair<std::string, std::string>> inputs;
    /// extra-output name -> virtual image: further images this stage
    /// produces after horizontal fusion (the absorbed siblings' outputs).
    std::vector<std::pair<std::string, std::string>> extra_images;
    std::vector<std::pair<std::string, double>> scalars;
    int width = 0;
    int height = 0;
    compiler::CompiledKernel compiled;
    /// The host bytecode executor runs this kernel stage: decided at Build
    /// by HostLaunch::Supports, never under Executor::kSimulator. A kernel
    /// stage without it runs on the simulator, or fails under kHost.
    bool host = false;
  };

  /// Validates the graph structure (undeclared images, duplicate producers,
  /// cycles — with stage-named diagnostics), plans separation and fusion,
  /// compiles every kernel stage concurrently through the compilation
  /// cache, and decides which executor runs each stage. Per-frame binding
  /// checks (source extents, null outputs) live in ValidateBindings so a
  /// streaming run re-checks each frame cheaply.
  static Result<GraphPlan> Build(PipelineGraph& graph,
                                 const GraphOptions& options);

  /// Per-frame half of the old Validate(): every declared source bound with
  /// the declared extent, every bound output declared and non-null.
  Status ValidateBindings(const PipelineGraph::InputBindings& inputs,
                          const PipelineGraph::OutputBindings& outputs) const;

  const GraphOptions* options = nullptr;
  sim::TraceSink* trace = nullptr;
  BufferPool* pool = nullptr;
  std::vector<Stage> stages;
  std::map<std::string, int> producer;  ///< image name -> stage index
  std::vector<std::string> outputs;     ///< externally visible images
  DagSpec dag;
  /// Per-frame buffer refcount template: consumer edges per image, plus one
  /// for externally visible outputs (held until copied out).
  std::map<std::string, int> base_refcount;
};

/// Mutable state of one frame's execution over a GraphPlan. A stage runs in
/// three steps: BeginStage, then RunBand over every band of the rows it
/// returned, then EndStage. Begin and End are thread-safe across *distinct*
/// stages of the same frame, RunBand across disjoint bands of one begun
/// stage (the frame loop's contract); distinct frames are fully independent.
class FrameExec {
 public:
  /// `epoch` is 0 for one-shot Run() and frame index + 1 in a streaming run;
  /// it labels trace spans and launches.
  FrameExec(const GraphPlan& plan, long long epoch);

  /// Binds this frame's source images. The pointee vectors must stay alive
  /// until the frame completed. Call once before executing stages.
  void BindInputs(const PipelineGraph::InputBindings* inputs);

  /// Begins stage `index`: acquires its output buffers from the pool and
  /// builds its launch. A host kernel stage (Stage::host) is prepared for
  /// RunBand, and its row count is returned. Every other stage (source,
  /// resampler, simulated launch) runs whole here, and 0 is returned.
  /// Either way EndStage completes it.
  Result<int> BeginStage(int index);

  /// Runs rows [y0, y1) of a host stage BeginStage prepared. Infallible.
  void RunBand(int index, int y0, int y1) const;

  /// Completes stage `index` after its last row ran: counts it, releases
  /// inputs whose last consumer this was, and files its "stage" span, which
  /// runs from BeginStage to now.
  void EndStage(int index);

  /// Copies every bound output's pixels out. Call after all stages ran.
  Status CopyOutputs(const PipelineGraph::OutputBindings& outputs);

  /// Returns every remaining live buffer (outputs, unconsumed leaves) to
  /// the pool. Safe to call after failures; idempotent.
  void ReleaseRemaining();

  long long epoch() const noexcept { return epoch_; }

 private:
  /// One stage between BeginStage and EndStage.
  struct StageRun {
    double start_ms = 0.0;  ///< BeginStage time, where the stage span starts
    LaunchHolder launch;    ///< the launch a prepared host run reads
    std::optional<HostLaunch> host;  ///< set when the host runs the rows
  };

  Status BeginKernelStage(const GraphPlan::Stage& stage, StageRun* run);
  void FileStageSpan(const GraphPlan::Stage& stage, const StageRun& run);
  void ReleaseConsumed(const GraphPlan::Stage& stage);

  const GraphPlan& plan_;
  long long epoch_ = 0;
  /// By stage index. Sized once, so workers on distinct stages never touch
  /// the same element.
  std::vector<StageRun> runs_;
  std::mutex mutex_;
  std::map<std::string, BufferPool::ImagePtr> buffers_;
  std::map<std::string, int> refcount_;
  const PipelineGraph::InputBindings* inputs_ = nullptr;
};

}  // namespace hipacc::runtime
