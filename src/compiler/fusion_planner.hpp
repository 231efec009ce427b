// Fusion planner: decides *which* fusion rewrites (compiler/fusion.hpp) to
// apply to a pipeline of kernel stages. The planner separates three
// concerns the old point-wise-only rewrite conflated:
//
//  * candidate enumeration — point-wise and halo producer→consumer edges
//    (single-consumer, non-external intermediates of matching extent) and
//    horizontal sibling groups (independent stages sharing an input image
//    over the same iteration space);
//
//  * legality — structural rules per kind, delegated to the Fuse* mergers,
//    which reject rather than assume (multi-output producers, name capture,
//    unsupported boundary modes, non-expression producer bodies, ...);
//
//  * profitability — the candidate's fused kernel is compiled (Compile,
//    through the caller's cache) against the target device: when no launch
//    configuration fits the device's register file / scratchpad, the
//    candidate is declined outright. Otherwise the cost model of the
//    executor that will run the fused stage compares it with the two
//    stages it replaces (halo fusion re-evaluates the producer once per
//    consumer tap). The device model weighs saved global traffic +
//    launch overhead against that recompute, in cycles per pixel. When
//    stages run on the host (FusionPlannerOptions::host_stages) and the
//    host executor runs all three kernels, the host model compares
//    interpreted instructions per pixel plus a per-stage cost
//    (runtime::HostLaunch::CostPerPixel): the host saves no bandwidth, so
//    recompute pays in full. A fusion that would move two host stages onto
//    the simulator is declined.
//
// Each call plans ONE step; the caller applies it to its stage list and
// calls again until no candidate is both legal and profitable. The step
// carries the merged source the planner built and scored: the surviving
// stage compiles exactly that kernel. Every examined candidate leaves a
// CandidateDecision for --explain-fusion and the
// fuse.rejected.{legality,profitability} counters.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "compiler/driver.hpp"
#include "compiler/fusion.hpp"

namespace hipacc::compiler {

/// The planner's view of one schedulable stage. Non-kernel stages (sources,
/// host-side resample stages) participate as barriers only.
struct PlannerStage {
  /// A DSL kernel stage whose source the planner may rewrite.
  bool fusable = false;
  /// Virtual image the stage produces (stage identity in decisions).
  std::string name;
  /// The stage's current (possibly already fused) kernel source. Owned by
  /// the caller; must outlive the PlanNextFusion call.
  const frontend::KernelSource* source = nullptr;
  /// accessor name -> virtual image consumed.
  std::vector<std::pair<std::string, std::string>> inputs;
  /// Further virtual images the stage produces as named extra outputs
  /// (earlier horizontal fusions). Such images cannot be eliminated by
  /// point/halo fusion, but stages reading them still resolve their
  /// producer for dependence checks.
  std::vector<std::string> extra_images;
  int width = 0;
  int height = 0;
  /// Externally visible image: its buffer must materialise, so the stage
  /// cannot be eliminated as a point/halo fusion producer (it can still be
  /// merged horizontally — both outputs survive).
  bool external = false;
};

/// The cost model that scored a candidate, named after the executor whose
/// time it models.
enum class CostModel {
  kDevice,  ///< simulated device: modelled cycles per pixel
  kHost,    ///< host bytecode executor: interior instructions per pixel
};

const char* to_string(CostModel model);
/// The unit of a CandidateDecision::score scored by `model`.
const char* ScoreUnits(CostModel model);

/// Why (or why not) one examined candidate was applied.
struct CandidateDecision {
  FuseKind kind = FuseKind::kPoint;
  std::string producer;  ///< producer stage (point/halo) or first sibling
  std::string consumer;  ///< consumer stage (point/halo) or second sibling
  bool legal = false;
  bool accepted = false;
  /// The model that judged profitability (legal == true only).
  CostModel model = CostModel::kDevice;
  /// Reject reason, or the accepted candidate's cost summary, in the
  /// model's units.
  std::string reason;
  /// Modelled per-pixel cost saved (unfused minus fused), in
  /// ScoreUnits(model); meaningful only when the model ran (legal == true).
  double score = 0.0;
};

/// Keeps one decision per (kind, producer, consumer): the planner is
/// re-invoked after every applied step and re-examines surviving rejected
/// candidates, so callers accumulating decisions across calls dedupe before
/// reporting (an accepted decision always wins over earlier rejections).
void DedupeDecisions(std::vector<CandidateDecision>* decisions);

/// How one fusion step rewires the plan's edges. Point / halo: `accessor`
/// is the consumer's accessor fed by the producer. Horizontal: `accessor`
/// is the first sibling's accessor of the shared input, `peer_accessor`
/// the second sibling's, and `output_name` the extra-output name the
/// second sibling's image is written under.
struct FusionRequest {
  FuseKind kind = FuseKind::kPoint;
  std::string accessor;
  std::string peer_accessor;
  std::string output_name;
};

/// One planned fusion step, ready to apply.
struct PlannedFusion {
  FusionRequest request;
  /// The merged source the planner compiled and scored: what the surviving
  /// stage compiles from now on.
  frontend::KernelSource fused;
  /// Index (into the planner's stage view) of the stage that absorbs the
  /// fusion: the consumer for point/halo, the first sibling for horizontal.
  int into = -1;
  /// Index of the stage the step retires. Point/halo: the producer (its
  /// image disappears). Horizontal: the second sibling (its image is then
  /// produced by `into` as a named extra output).
  int retired = -1;
};

struct FusionPlannerOptions {
  /// Candidate kinds the planner may consider (the --fuse= flag).
  FusionMode mode = FusionMode::kAll;
  /// Compilation options for candidate profitability compiles: device,
  /// codegen options, cache, trace. Image extents are overridden per
  /// candidate. Sharing the caller's cache makes the winning candidate's
  /// compile a warm hit when the stage compiles for real.
  CompileOptions compile;
  /// Stages run on the host bytecode executor where it supports them (the
  /// graph runtime's kAuto and kHost), so the host model scores candidates
  /// whose kernels it runs. False: every candidate is scored by the device
  /// model.
  bool host_stages = false;
  /// When set, every examined candidate appends its decision.
  std::vector<CandidateDecision>* decisions = nullptr;
};

/// Plans the next fusion step over the current stage view, or nullopt when
/// no candidate is legal and profitable. Candidates are tried point-wise
/// edges first (a strict traffic win), then halo edges, then horizontal
/// sibling pairs; within a kind, in stage order (deterministic).
std::optional<PlannedFusion> PlanNextFusion(
    const std::vector<PlannerStage>& stages,
    const FusionPlannerOptions& options);

}  // namespace hipacc::compiler
