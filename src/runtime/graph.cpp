#include "runtime/graph.hpp"

#include <algorithm>

#include "runtime/graph_plan.hpp"
#include "runtime/stream_executor.hpp"
#include "sim/trace.hpp"

namespace hipacc::runtime {

PipelineGraph& PipelineGraph::AddNode(Node node) {
  for (const Node& existing : nodes_) {
    if (existing.name == node.name) {
      if (deferred_error_.ok())
        deferred_error_ = Status::Invalid("image '" + node.name +
                                          "' is produced by more than one "
                                          "stage");
      return *this;
    }
  }
  nodes_.push_back(std::move(node));
  return *this;
}

PipelineGraph& PipelineGraph::Source(std::string name, int width, int height) {
  if (width <= 0 || height <= 0) {
    if (deferred_error_.ok())
      deferred_error_ =
          Status::Invalid("source '" + name + "' needs a positive extent");
    return *this;
  }
  Node node;
  node.kind = Node::Kind::kSource;
  node.name = std::move(name);
  node.width = width;
  node.height = height;
  return AddNode(std::move(node));
}

PipelineGraph& PipelineGraph::Kernel(
    std::string name, frontend::KernelSource kernel,
    std::vector<std::pair<std::string, std::string>> inputs,
    std::vector<std::pair<std::string, double>> scalars) {
  if (inputs.empty()) {
    if (deferred_error_.ok())
      deferred_error_ = Status::Invalid(
          "kernel stage '" + name +
          "' needs at least one input (its extent is inferred from the "
          "first)");
    return *this;
  }
  Node node;
  node.kind = Node::Kind::kKernel;
  node.name = std::move(name);
  node.kernel = std::move(kernel);
  node.inputs = std::move(inputs);
  node.scalars = std::move(scalars);
  return AddNode(std::move(node));
}

PipelineGraph& PipelineGraph::Decimate2(std::string name, std::string input) {
  Node node;
  node.kind = Node::Kind::kDecimate;
  node.name = std::move(name);
  node.inputs.emplace_back(std::string(), std::move(input));
  return AddNode(std::move(node));
}

PipelineGraph& PipelineGraph::ZeroUpsample(std::string name, std::string input,
                                           int width, int height) {
  if (width <= 0 || height <= 0) {
    if (deferred_error_.ok())
      deferred_error_ = Status::Invalid("upsample stage '" + name +
                                        "' needs a positive target extent");
    return *this;
  }
  Node node;
  node.kind = Node::Kind::kUpsample;
  node.name = std::move(name);
  node.inputs.emplace_back(std::string(), std::move(input));
  node.width = width;
  node.height = height;
  return AddNode(std::move(node));
}

PipelineGraph& PipelineGraph::Output(std::string name) {
  if (std::find(outputs_.begin(), outputs_.end(), name) == outputs_.end())
    outputs_.push_back(std::move(name));
  return *this;
}

Status PipelineGraph::Run(const InputBindings& inputs,
                          const OutputBindings& outputs,
                          const GraphOptions& options) {
  // One-shot execution is one frame through the frame loop: window 1,
  // epoch 0, and no stream.* counters. The streaming executor
  // (stream_executor.hpp) holds the plan across frames instead.
  sim::TraceSpan span(options.run.trace, "graph run", "graph");
  Result<GraphPlan> plan = GraphPlan::Build(*this, options);
  if (!plan.ok()) return plan.status();
  StreamStats stats;
  HIPACC_RETURN_IF_ERROR(RunFrames(
      plan.value(), /*frames=*/1, /*window=*/1, /*first_epoch=*/0,
      [&](long long, InputBindings* in, OutputBindings* out) {
        *in = inputs;
        *out = outputs;
        return Status::Ok();
      },
      {}, &stats));
  if (options.run.trace != nullptr)
    options.run.trace->IncrementCounter("graph.runs");
  return Status::Ok();
}

}  // namespace hipacc::runtime
