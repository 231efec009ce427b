#include "runtime/graph_plan.hpp"

#include <algorithm>
#include <cmath>

#include "compiler/cache.hpp"
#include "compiler/separate.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "support/parallel_for.hpp"
#include "support/string_utils.hpp"

namespace hipacc::runtime {

Result<std::vector<int>> TopologicalOrder(
    const DagSpec& dag, const std::function<std::string(int)>& label) {
  const int n = dag.node_count();
  std::vector<int> pending = dag.dependencies;
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(n));
  std::vector<int> ready;
  for (int i = 0; i < n; ++i)
    if (pending[static_cast<std::size_t>(i)] == 0) ready.push_back(i);
  while (!ready.empty()) {
    const int node = ready.back();
    ready.pop_back();
    order.push_back(node);
    for (int consumer : dag.consumers[static_cast<std::size_t>(node)])
      if (--pending[static_cast<std::size_t>(consumer)] == 0)
        ready.push_back(consumer);
  }
  if (static_cast<int>(order.size()) == n) return order;

  // Every unprocessed node still has a pending producer, so following any
  // chain of unprocessed producers must revisit a node: that walk is the
  // cycle we report. Rebuild producer edges locally (the spec only stores
  // consumers).
  std::vector<std::vector<int>> producers(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    for (int consumer : dag.consumers[static_cast<std::size_t>(i)])
      producers[static_cast<std::size_t>(consumer)].push_back(i);
  int start = 0;
  while (pending[static_cast<std::size_t>(start)] == 0) ++start;
  std::vector<int> walk;
  std::vector<bool> seen(static_cast<std::size_t>(n), false);
  int node = start;
  while (!seen[static_cast<std::size_t>(node)]) {
    seen[static_cast<std::size_t>(node)] = true;
    walk.push_back(node);
    for (int producer : producers[static_cast<std::size_t>(node)]) {
      if (pending[static_cast<std::size_t>(producer)] != 0 ||
          std::find(walk.begin(), walk.end(), producer) != walk.end()) {
        node = producer;
        break;
      }
    }
  }
  // `node` closes the cycle; trim the lead-in and print it producer-first.
  std::string message = "pipeline graph has a cycle: ";
  const auto entry = std::find(walk.begin(), walk.end(), node);
  for (auto it = entry; it != walk.end(); ++it)
    message += label(*it) + " -> ";
  message += label(node);
  return Status::Invalid(message);
}

namespace {

using Node = PipelineGraph::Node;

/// Structural validation on the *declared* graph: every consumed image has
/// a producer, no self-loops, every output is produced.
Status ValidateStructure(const std::vector<Node>& nodes,
                         const std::vector<std::string>& outputs,
                         const std::map<std::string, int>& producer) {
  for (const Node& node : nodes) {
    for (const auto& [accessor, image] : node.inputs) {
      if (producer.find(image) == producer.end())
        return Status::Invalid("stage '" + node.name +
                               "' consumes undeclared image '" + image + "'");
      if (image == node.name)
        return Status::Invalid("pipeline graph has a cycle: " + node.name +
                               " -> " + node.name);
    }
  }
  for (const std::string& name : outputs) {
    if (producer.find(name) == producer.end())
      return Status::Invalid("output '" + name +
                             "' is not produced by any stage");
  }
  return Status::Ok();
}

/// Kahn order over the declared nodes (cycle diagnostics speak the user's
/// stage names; fusion afterwards preserves acyclicity), then per-stage
/// extent propagation into the plan's stage list.
Result<std::vector<int>> OrderAndExtents(const std::vector<Node>& nodes,
                                         GraphPlan* plan) {
  DagSpec dag;
  dag.dependencies.assign(nodes.size(), 0);
  dag.consumers.assign(nodes.size(), {});
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (const auto& [accessor, image] : nodes[i].inputs) {
      dag.dependencies[i] += 1;
      dag.consumers[static_cast<std::size_t>(plan->producer.at(image))]
          .push_back(static_cast<int>(i));
    }
  }
  Result<std::vector<int>> order = TopologicalOrder(
      dag, [&nodes](int i) { return nodes[static_cast<std::size_t>(i)].name; });
  if (!order.ok()) return order.status();

  plan->stages.resize(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const Node& node = nodes[i];
    GraphPlan::Stage& stage = plan->stages[i];
    stage.kind = node.kind;
    stage.name = node.name;
    stage.source = node.kernel;
    stage.inputs = node.inputs;
    stage.scalars = node.scalars;
    stage.width = node.width;
    stage.height = node.height;
  }
  for (int index : order.value()) {
    GraphPlan::Stage& stage = plan->stages[static_cast<std::size_t>(index)];
    if (stage.kind == Node::Kind::kSource) continue;
    const GraphPlan::Stage& first =
        plan->stages[static_cast<std::size_t>(
            plan->producer.at(stage.inputs.front().second))];
    switch (stage.kind) {
      case Node::Kind::kKernel:
        stage.width = first.width;
        stage.height = first.height;
        break;
      case Node::Kind::kDecimate:
        stage.width = (first.width + 1) / 2;
        stage.height = (first.height + 1) / 2;
        break;
      case Node::Kind::kUpsample:
        if (stage.width < first.width || stage.height < first.height)
          return Status::Invalid(StrFormat(
              "upsample stage '%s' target %dx%d is smaller than its input "
              "%dx%d",
              stage.name.c_str(), stage.width, stage.height, first.width,
              first.height));
        break;
      case Node::Kind::kSource:
        break;
    }
  }
  return order;
}

void PlanSeparation(GraphPlan* plan) {
  if (!plan->options->separate) return;
  // Runs before fusion: a fused convolution body no longer matches the
  // canonical form, while a separated column pass is still a convolution
  // a point-wise consumer can fuse into afterwards.
  const std::size_t count = plan->stages.size();
  for (std::size_t s = 0; s < count; ++s) {
    if (plan->stages[s].kind != Node::Kind::kKernel) continue;
    if (plan->stages[s].inputs.size() != 1) continue;
    std::optional<compiler::SeparatedStages> sep =
        compiler::SeparateConvolution(plan->stages[s].source);
    if (!sep) continue;
    const std::string intermediate = plan->stages[s].name + ".sep_row";
    if (plan->producer.find(intermediate) != plan->producer.end()) continue;

    // The appended row stage consumes the original input edge and produces
    // the intermediate virtual image; the original slot becomes the column
    // pass so the stage keeps producing its externally visible name.
    GraphPlan::Stage row;
    row.kind = Node::Kind::kKernel;
    row.name = intermediate;
    row.source = std::move(sep->row);
    row.inputs = plan->stages[s].inputs;
    row.width = plan->stages[s].width;
    row.height = plan->stages[s].height;
    const std::string accessor = row.inputs.front().first;
    plan->stages.push_back(std::move(row));  // may reallocate: re-index below

    GraphPlan::Stage& col = plan->stages[s];
    col.source = std::move(sep->col);
    col.inputs = {{accessor, intermediate}};
    plan->producer[intermediate] = static_cast<int>(plan->stages.size() - 1);
    if (plan->trace != nullptr) plan->trace->IncrementCounter("separate.edges");
  }
}

void PlanFusion(GraphPlan* plan) {
  const GraphOptions& options = *plan->options;
  if (options.fuse == compiler::FusionMode::kOff) return;
  compiler::FusionPlannerOptions popts;
  popts.mode = options.fuse;
  popts.compile = MakeCompileOptions(options.run, 0, 0);
  popts.host_stages = options.executor != GraphOptions::Executor::kSimulator;
  std::vector<compiler::CandidateDecision> decisions;
  popts.decisions = &decisions;

  while (true) {
    // The planner sees the current (post-separation, partially fused) stage
    // list; one accepted step is applied per round until none remains.
    std::vector<compiler::PlannerStage> view(plan->stages.size());
    for (std::size_t i = 0; i < plan->stages.size(); ++i) {
      const GraphPlan::Stage& stage = plan->stages[i];
      view[i].fusable =
          stage.kind == Node::Kind::kKernel && !stage.name.empty();
      view[i].name = stage.name;
      view[i].source = &stage.source;
      view[i].inputs = stage.inputs;
      for (const auto& [output_name, image] : stage.extra_images)
        view[i].extra_images.push_back(image);
      view[i].width = stage.width;
      view[i].height = stage.height;
      view[i].external =
          std::find(plan->outputs.begin(), plan->outputs.end(), stage.name) !=
          plan->outputs.end();
    }
    std::optional<compiler::PlannedFusion> fusion =
        compiler::PlanNextFusion(view, popts);
    if (!fusion) break;

    GraphPlan::Stage& into = plan->stages[static_cast<std::size_t>(fusion->into)];
    GraphPlan::Stage& retired =
        plan->stages[static_cast<std::size_t>(fusion->retired)];
    // `into` compiles the merged kernel the planner built and scored.
    into.source = std::move(fusion->fused);
    if (fusion->request.kind == compiler::FuseKind::kHorizontal) {
      // Sibling merge: `into` absorbs `retired`, whose image it keeps
      // producing as a named extra output. The sibling's shared-input edge
      // collapsed into `into`'s accessor; its other inputs carry over.
      for (const auto& [accessor, image] : retired.inputs)
        if (accessor != fusion->request.peer_accessor)
          into.inputs.emplace_back(accessor, image);
      into.scalars.insert(into.scalars.end(), retired.scalars.begin(),
                          retired.scalars.end());
      into.extra_images.emplace_back(fusion->request.output_name, retired.name);
      plan->producer[retired.name] = fusion->into;
    } else {
      // Producer→consumer merge (point or halo): the consumer's slot now
      // consumes the producer's inputs plus its own remaining ones, and
      // still produces the consumer's image. The intermediate image
      // disappears.
      for (std::size_t e = 0; e < into.inputs.size(); ++e) {
        if (into.inputs[e].first == fusion->request.accessor &&
            into.inputs[e].second == retired.name) {
          into.inputs.erase(into.inputs.begin() +
                            static_cast<std::ptrdiff_t>(e));
          break;
        }
      }
      into.inputs.insert(into.inputs.begin(), retired.inputs.begin(),
                         retired.inputs.end());
      into.scalars.insert(into.scalars.end(), retired.scalars.begin(),
                          retired.scalars.end());
      plan->producer[into.name] = fusion->into;
      plan->producer.erase(retired.name);
    }
    // Retire the absorbed stage in place (erasing would invalidate the
    // `producer` index map); the DAG build skips retired stages.
    retired.kind = Node::Kind::kSource;
    retired.inputs.clear();
    retired.name.clear();
    if (plan->trace != nullptr) {
      plan->trace->IncrementCounter("graph.fused_edges");
      plan->trace->IncrementCounter(std::string("graph.fused.") +
                                    compiler::to_string(fusion->request.kind));
    }
  }

  // One decision per candidate (the planner re-examines surviving rejects
  // every round): rejected candidates feed the fuse.rejected.* counters and
  // the --explain-fusion sink.
  compiler::DedupeDecisions(&decisions);
  if (plan->trace != nullptr) {
    for (const compiler::CandidateDecision& d : decisions) {
      if (d.accepted) continue;
      plan->trace->IncrementCounter(d.legal ? "fuse.rejected.profitability"
                                            : "fuse.rejected.legality");
    }
  }
  if (options.explain != nullptr)
    options.explain->insert(options.explain->end(), decisions.begin(),
                            decisions.end());
}

/// Whether the host executor runs a compiled kernel stage.
Status HostSupports(const GraphPlan::Stage& stage) {
  const compiler::CompiledKernel& ck = stage.compiled;
  return HostLaunch::Supports(*ck.bytecode, stage.width, stage.height,
                              ck.device_ir.bh_window.half_x,
                              ck.device_ir.bh_window.half_y);
}

Status CompileStages(GraphPlan* plan) {
  sim::TraceSpan span(plan->trace, "graph compile", "graph");
  std::vector<Status> statuses(plan->stages.size());
  // Concurrent compilation through the (thread-safe) compilation cache;
  // repeated extents and repeated Build() calls hit instead of recompiling.
  ParallelFor(0, static_cast<int>(plan->stages.size()), [&](int i) {
    GraphPlan::Stage& stage = plan->stages[static_cast<std::size_t>(i)];
    if (stage.kind != Node::Kind::kKernel) return;
    compiler::CompileOptions copts =
        MakeCompileOptions(plan->options->run, stage.width, stage.height);
    Result<compiler::CompiledKernel> compiled =
        compiler::Compile(stage.source, copts);
    if (!compiled.ok()) {
      statuses[static_cast<std::size_t>(i)] =
          Status::Invalid("stage '" + stage.name +
                          "': " + compiled.status().message());
      return;
    }
    stage.compiled = std::move(compiled).take();
    stage.host =
        plan->options->executor != GraphOptions::Executor::kSimulator &&
        HostSupports(stage).ok();
  });
  for (const Status& status : statuses) HIPACC_RETURN_IF_ERROR(status);
  return Status::Ok();
}

void BuildDagAndRefcounts(GraphPlan* plan) {
  plan->dag.dependencies.assign(plan->stages.size(), 0);
  plan->dag.consumers.assign(plan->stages.size(), {});
  for (std::size_t i = 0; i < plan->stages.size(); ++i) {
    // Retired fusion producers keep their slot but have no inputs and no
    // name; they run as zero-cost no-ops.
    for (const auto& [accessor, image] : plan->stages[i].inputs) {
      plan->dag.dependencies[i] += 1;
      plan->dag.consumers[static_cast<std::size_t>(plan->producer.at(image))]
          .push_back(static_cast<int>(i));
      plan->base_refcount[image] += 1;
    }
  }
  // A consumed image is released to the pool once its last consumer edge
  // ran; externally visible outputs hold one extra reference until copied.
  for (const std::string& name : plan->outputs)
    if (plan->producer.find(name) != plan->producer.end())
      plan->base_refcount[name] += 1;
}

}  // namespace

Result<GraphPlan> GraphPlan::Build(PipelineGraph& graph,
                                   const GraphOptions& options) {
  HIPACC_RETURN_IF_ERROR(graph.deferred_error_);
  if (graph.nodes_.empty())
    return Status::Invalid("pipeline graph has no stages");

  GraphPlan plan;
  plan.options = &options;
  plan.trace = options.run.trace;
  plan.pool = &graph.pool_;
  plan.outputs = graph.outputs_;
  for (std::size_t i = 0; i < graph.nodes_.size(); ++i)
    plan.producer[graph.nodes_[i].name] = static_cast<int>(i);

  HIPACC_RETURN_IF_ERROR(
      ValidateStructure(graph.nodes_, graph.outputs_, plan.producer));
  {
    Result<std::vector<int>> order = OrderAndExtents(graph.nodes_, &plan);
    if (!order.ok()) return order.status();
  }
  PlanSeparation(&plan);
  PlanFusion(&plan);
  HIPACC_RETURN_IF_ERROR(CompileStages(&plan));
  BuildDagAndRefcounts(&plan);
  return plan;
}

Status GraphPlan::ValidateBindings(
    const PipelineGraph::InputBindings& inputs,
    const PipelineGraph::OutputBindings& outputs) const {
  for (const auto& [name, image] : outputs) {
    if (image == nullptr)
      return Status::Invalid("output '" + name + "' bound to null");
    if (std::find(this->outputs.begin(), this->outputs.end(), name) ==
        this->outputs.end())
      return Status::Invalid("'" + name +
                             "' is not declared as a graph output");
  }
  for (const Stage& stage : stages) {
    if (stage.kind != Node::Kind::kSource || stage.name.empty()) continue;
    const HostImage<float>* bound = nullptr;
    for (const auto& [name, image] : inputs)
      if (name == stage.name) bound = image;
    if (bound == nullptr)
      return Status::Invalid("source '" + stage.name + "' is not bound");
    if (bound->width() != stage.width || bound->height() != stage.height)
      return Status::Invalid(StrFormat(
          "source '%s' declared %dx%d but bound %dx%d", stage.name.c_str(),
          stage.width, stage.height, bound->width(), bound->height()));
  }
  return Status::Ok();
}

FrameExec::FrameExec(const GraphPlan& plan, long long epoch)
    : plan_(plan),
      epoch_(epoch),
      runs_(plan.stages.size()),
      refcount_(plan.base_refcount) {}

void FrameExec::BindInputs(const PipelineGraph::InputBindings* inputs) {
  inputs_ = inputs;
}

Status FrameExec::BeginKernelStage(const GraphPlan::Stage& stage,
                                   StageRun* run) {
  const GraphOptions& options = *plan_.options;
  BindingSet bindings;
  for (const auto& [accessor, image] : stage.inputs) {
    dsl::Image<float>* bound = nullptr;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      bound = buffers_.at(image).get();
    }
    bindings.Input(accessor, *bound);
  }
  dsl::Image<float>* out = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out = buffers_.at(stage.name).get();
  }
  bindings.Output(*out);
  for (const auto& [output_name, image] : stage.extra_images) {
    dsl::Image<float>* extra = nullptr;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      extra = buffers_.at(image).get();
    }
    bindings.Output(output_name, *extra);
  }
  for (const auto& [name, value] : stage.scalars) bindings.Scalar(name, value);

  const compiler::CompiledKernel& ck = stage.compiled;
  Result<LaunchHolder> holder =
      BuildLaunch(ck.device_ir, ck.config.config, bindings);
  if (!holder.ok()) return holder.status();
  run->launch = std::move(holder).take();
  sim::Launch& launch = run->launch.launch;
  launch.programs = ck.bytecode.get();
  launch.epoch = epoch_;

  if (stage.host) {
    Result<HostLaunch> host = HostLaunch::Prepare(
        launch, ck.device_ir.bh_window.half_x, ck.device_ir.bh_window.half_y);
    if (!host.ok()) return host.status();
    run->host = std::move(host).take();
    return Status::Ok();
  }
  if (options.executor == GraphOptions::Executor::kHost)
    return Status::Unimplemented(
        "stage '" + stage.name +
        "' is not supported by the host executor (GraphOptions::Executor::"
        "kHost): " + HostSupports(stage).message());
  sim::Simulator simulator(options.run.device);
  Result<sim::LaunchStats> stats = simulator.Execute(launch);
  if (!stats.ok()) return stats.status();
  if (plan_.trace != nullptr) {
    plan_.trace->IncrementCounter("graph.launches.sim");
    // Modelled device time of the whole graph, in nanoseconds rounded per
    // launch — what the fusion benches gate on (host wall-clock would
    // mis-charge the halo recompute the device model absorbs in its memory
    // bounds).
    plan_.trace->IncrementCounter(
        "graph.modelled_ns",
        std::llround(stats.value().timing.total_ms * 1e6));
  }
  return Status::Ok();
}

void FrameExec::ReleaseConsumed(const GraphPlan::Stage& stage) {
  for (const auto& [accessor, image] : stage.inputs) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = refcount_.find(image);
    if (it == refcount_.end() || --it->second > 0) continue;
    refcount_.erase(it);
    auto buffer = buffers_.find(image);
    if (buffer != buffers_.end()) {
      plan_.pool->Release(std::move(buffer->second));
      buffers_.erase(buffer);
    }
  }
}

void FrameExec::FileStageSpan(const GraphPlan::Stage& stage,
                              const StageRun& run) {
  if (plan_.trace == nullptr) return;
  plan_.trace->AddSpan("stage " + stage.name, "graph", run.start_ms,
                       plan_.trace->NowMs() - run.start_ms, support::Json(),
                       static_cast<int>(epoch_));
}

Result<int> FrameExec::BeginStage(int index) {
  const GraphPlan::Stage& stage =
      plan_.stages[static_cast<std::size_t>(index)];
  if (stage.name.empty()) return 0;  // retired fusion producer
  StageRun& run = runs_[static_cast<std::size_t>(index)];
  if (plan_.trace != nullptr) run.start_ms = plan_.trace->NowMs();

  BufferPool::ImagePtr out =
      plan_.pool->Acquire(stage.width, stage.height, plan_.trace);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_[stage.name] = std::move(out);
  }
  // A horizontally fused stage fills several virtual images in one launch;
  // each gets its own pooled buffer under its declared name.
  for (const auto& [output_name, image] : stage.extra_images) {
    BufferPool::ImagePtr extra =
        plan_.pool->Acquire(stage.width, stage.height, plan_.trace);
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_[image] = std::move(extra);
  }

  Status status = Status::Ok();
  switch (stage.kind) {
    case Node::Kind::kSource: {
      const HostImage<float>* host = nullptr;
      for (const auto& [name, image] : *inputs_)
        if (name == stage.name) host = image;
      std::lock_guard<std::mutex> lock(mutex_);
      buffers_.at(stage.name)->CopyFrom(*host);
      break;
    }
    case Node::Kind::kDecimate: {
      dsl::Image<float>* in = nullptr;
      dsl::Image<float>* dst = nullptr;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        in = buffers_.at(stage.inputs.front().second).get();
        dst = buffers_.at(stage.name).get();
      }
      for (int y = 0; y < stage.height; ++y)
        for (int x = 0; x < stage.width; ++x)
          dst->at(x, y) = in->at(2 * x, 2 * y);
      break;
    }
    case Node::Kind::kUpsample: {
      dsl::Image<float>* in = nullptr;
      dsl::Image<float>* dst = nullptr;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        in = buffers_.at(stage.inputs.front().second).get();
        dst = buffers_.at(stage.name).get();
      }
      for (int y = 0; y < stage.height; ++y)
        for (int x = 0; x < stage.width; ++x) dst->at(x, y) = 0.0f;
      for (int y = 0; y < in->height(); ++y)
        for (int x = 0; x < in->width(); ++x) {
          const int tx = 2 * x, ty = 2 * y;
          if (tx < stage.width && ty < stage.height)
            dst->at(tx, ty) = in->at(x, y);
        }
      break;
    }
    case Node::Kind::kKernel:
      status = BeginKernelStage(stage, &run);
      break;
  }
  if (!status.ok()) {
    FileStageSpan(stage, run);
    return status;
  }
  return run.host ? stage.height : 0;
}

void FrameExec::RunBand(int index, int y0, int y1) const {
  runs_[static_cast<std::size_t>(index)].host->RunRows(y0, y1);
}

void FrameExec::EndStage(int index) {
  const GraphPlan::Stage& stage =
      plan_.stages[static_cast<std::size_t>(index)];
  if (stage.name.empty()) return;  // retired fusion producer
  StageRun& run = runs_[static_cast<std::size_t>(index)];
  if (plan_.trace != nullptr) {
    if (run.host) plan_.trace->IncrementCounter("graph.launches.host");
    plan_.trace->IncrementCounter("graph.stages");
  }
  ReleaseConsumed(stage);
  FileStageSpan(stage, run);
}

Status FrameExec::CopyOutputs(const PipelineGraph::OutputBindings& outputs) {
  for (const auto& [name, image] : outputs) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = buffers_.find(name);
    if (it == buffers_.end())
      return Status::Internal("output '" + name + "' was never produced");
    *image = it->second->getData();
  }
  return Status::Ok();
}

void FrameExec::ReleaseRemaining() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, buffer] : buffers_) plan_.pool->Release(std::move(buffer));
  buffers_.clear();
  refcount_.clear();
}

}  // namespace hipacc::runtime
