// Pipeline graph runtime (the PR 4 tentpole): applications declare a DAG of
// DSL kernel stages over *named virtual images*, and the runtime does what
// HIPAcc's generated host code would otherwise hard-code per application —
// topologically schedules the stages, compiles every kernel through the
// compilation cache (concurrently for independent stages), executes
// independent branches on worker threads, recycles intermediate device
// buffers through an extent-keyed BufferPool, and runs the fusion planner
// (compiler/fusion_planner.hpp) over the DAG: point-wise chains like
// "convolve -> scale-and-subtract" collapse into one launch, sibling stages
// reading the same image merge into one multi-output kernel, and small
// producers are inlined into consuming local operators with halo recompute
// — whichever candidates are legal and modelled as profitable.
//
//   PipelineGraph graph;
//   graph.Source("in", w, h)
//        .Kernel("blur", ops::ConvolutionSource(...), {{"Input", "in"}})
//        .Kernel("edge", ops::ThresholdSource(), {{"Input", "blur"}},
//                {{"threshold", 0.5}})
//        .Output("edge");
//   graph.Run({{"in", &host_in}}, {{"edge", &host_out}});
//
// Stage declaration is order-free: a stage may consume an image that is
// declared later. Run() validates the graph — unknown images, duplicate
// producers, and cycles are reported with the offending stage names — then
// builds a GraphPlan (graph_plan.hpp) and runs it as one frame through the
// runtime's frame loop (RunFrames, stream_executor.hpp), the same scheduler
// that streams frames.
//
// Execution semantics: every stage runs exactly once per Run(), producers
// before consumers; outputs are bit-identical to running the same kernels
// eagerly one by one (the host bytecode executor and the simulator engines
// share per-operation float semantics; point and horizontal fusion compose
// unchanged per-pixel arithmetic, and halo fusion re-evaluates the producer
// at boundary-remapped coordinates that reproduce the eliminated image's
// reads exactly).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "compiler/fusion_planner.hpp"
#include "frontend/parser.hpp"
#include "image/host_image.hpp"
#include "runtime/buffer_pool.hpp"
#include "runtime/run_options.hpp"

namespace hipacc::runtime {

struct GraphOptions {
  /// How kernels run. The plan decides each kernel stage's executor once,
  /// when it is built (runtime::HostLaunch::Supports), and under kAuto and
  /// kHost the fusion planner scores a candidate with the host cost model
  /// when the host runs its kernels (compiler/fusion_planner.hpp).
  enum class Executor {
    kAuto,       ///< host bytecode executor, simulator where unsupported
    kHost,       ///< host bytecode executor only; unsupported stages fail
                 ///< when they run
    kSimulator,  ///< simulated device for every stage, device-model fusion
  };

  /// Compilation and launch options shared by every stage.
  RunOptions run;
  /// Which fusion kinds the planner (compiler/fusion_planner.hpp) may apply:
  /// point-wise producer→consumer inlining, horizontal sibling merges into
  /// multi-output kernels, halo-recompute inlining into local operators —
  /// or any combination. All outputs stay bit-identical to running the
  /// stages unfused.
  compiler::FusionMode fuse = compiler::FusionMode::kAll;
  /// When set, every fusion candidate the planner examined appends its
  /// accept/reject decision here (the --explain-fusion flag).
  std::vector<compiler::CandidateDecision>* explain = nullptr;
  /// Rewrite rank-1 (separable) 2D convolution stages into a row pass plus
  /// a column pass over a pooled intermediate image (compiler/separate.hpp).
  /// Off by default: the split reorders float arithmetic, so results match
  /// the direct kernel only up to factorization rounding (~1e-6 relative),
  /// not bit-exactly.
  bool separate = false;
  /// Bounds every thread that runs stages and their row bands: the frame
  /// loop uses at most this many workers, the calling thread among them
  /// (0 = hardware concurrency), and cuts each host stage into at most this
  /// many bands. 1 means the caller's thread only, for every stage and row
  /// of a one-shot run too. Results are identical for any worker count.
  int workers = 0;
  Executor executor = Executor::kAuto;
};

class PipelineGraph {
 public:
  using InputBindings =
      std::vector<std::pair<std::string, const HostImage<float>*>>;
  using OutputBindings = std::vector<std::pair<std::string, HostImage<float>*>>;

  /// Declares an external input image of the given extent. The virtual
  /// image `name` must be bound in Run()'s inputs.
  PipelineGraph& Source(std::string name, int width, int height);

  /// Declares a DSL kernel stage producing virtual image `name` (extent:
  /// that of its first input). `inputs` maps the kernel's accessor names to
  /// virtual images; `scalars` binds scalar kernel parameters.
  PipelineGraph& Kernel(
      std::string name, frontend::KernelSource kernel,
      std::vector<std::pair<std::string, std::string>> inputs,
      std::vector<std::pair<std::string, double>> scalars = {});

  /// Factor-2 decimation (host stage): out(x, y) = in(2x, 2y), extent
  /// ((w+1)/2, (h+1)/2). Not expressible as a local operator (the paper's
  /// DSL iterates output-aligned windows), hence a built-in.
  PipelineGraph& Decimate2(std::string name, std::string input);

  /// Zero-insertion upsampling (host stage): out(2x, 2y) = in(x, y), all
  /// other pixels 0, to an explicit target extent.
  PipelineGraph& ZeroUpsample(std::string name, std::string input, int width,
                              int height);

  /// Marks a virtual image as an external output, to be bound in Run().
  PipelineGraph& Output(std::string name);

  /// Validates, schedules, and executes the graph. Each entry of `outputs`
  /// is overwritten with its image's pixels.
  Status Run(const InputBindings& inputs, const OutputBindings& outputs,
             const GraphOptions& options = {});

  /// Declared stages (sources count; fusion does not change this).
  std::size_t stage_count() const { return nodes_.size(); }

  /// The pool backing intermediate images. Persistent across Run() calls,
  /// so repeated runs reuse every buffer of the first.
  const BufferPool& pool() const { return pool_; }

  /// One declared stage. Public so the execution plan (graph_plan.hpp) can
  /// speak the same vocabulary; applications use the builder methods above.
  struct Node {
    enum class Kind { kSource, kKernel, kDecimate, kUpsample };
    Kind kind = Kind::kSource;
    std::string name;  ///< the virtual image this stage produces
    frontend::KernelSource kernel;  ///< kKernel only
    /// accessor -> virtual image (kKernel); single entry with empty
    /// accessor for the host stages.
    std::vector<std::pair<std::string, std::string>> inputs;
    std::vector<std::pair<std::string, double>> scalars;
    int width = 0;   ///< declared extent (kSource / kUpsample)
    int height = 0;
  };

 private:
  friend struct GraphPlan;

  PipelineGraph& AddNode(Node node);

  std::vector<Node> nodes_;
  std::vector<std::string> outputs_;
  /// First declaration-time error (duplicate producer, ...), surfaced by
  /// Run() — the chainable builder cannot return Status.
  Status deferred_error_ = Status::Ok();
  BufferPool pool_;
};

}  // namespace hipacc::runtime
