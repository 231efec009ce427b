#include "compiler/fusion_planner.hpp"

#include <algorithm>
#include <cctype>
#include <map>

#include "runtime/host_exec.hpp"
#include "sim/timing.hpp"
#include "support/string_utils.hpp"

namespace hipacc::compiler {
namespace {

/// Modelled steady-state cost of one kernel launch, in chip cycles per
/// output pixel: the larger of the compute-throughput bound and the DRAM
/// bandwidth bound (the same two bounds the simulator's timing model takes
/// the max of; exposed latency is occupancy-dependent and left to the
/// simulator). Global traffic counts one transfer per pixel per image
/// buffer — scratchpad staging amortises the halo, and global-memory masks
/// are loaded once per block, not per pixel.
double PerPixelCycles(const CompiledKernel& ck, const hw::DeviceSpec& device) {
  const double ppt = std::max(1, ck.resources.ppt);
  const double ops = static_cast<double>(ck.resources.approx_ops) / ppt;
  int images = 0;
  for (const ast::BufferParam& buf : ck.device_ir.buffers) {
    bool is_mask = false;
    for (const ast::MaskInfo& mask : ck.device_ir.global_masks)
      is_mask |= mask.name == buf.name;
    if (!is_mask) ++images;
  }
  const double bytes = 4.0 * images;
  const double ops_per_cycle =
      static_cast<double>(device.num_sms) * device.alus_per_sm;
  const double bytes_per_cycle =
      device.mem_bandwidth_gbps / device.core_clock_ghz;
  return std::max(ops / ops_per_cycle, bytes / bytes_per_cycle);
}

/// Fixed launch overhead in chip cycles.
double LaunchOverheadCycles(const hw::DeviceSpec& device) {
  return sim::kLaunchOverheadMs * 1e-3 * device.core_clock_ghz * 1e9;
}

/// Whether the host executor runs `ck` over `stage`'s extent.
Status HostSupports(const CompiledKernel& ck, const PlannerStage& stage) {
  return runtime::HostLaunch::Supports(*ck.bytecode, stage.width, stage.height,
                                       ck.device_ir.bh_window.half_x,
                                       ck.device_ir.bh_window.half_y);
}

double HostCost(const CompiledKernel& ck, const PlannerStage& stage) {
  return runtime::HostLaunch::CostPerPixel(*ck.bytecode, stage.width,
                                           stage.height);
}

/// Accepts a candidate whose fused cost undercuts the unfused one, and
/// writes the verdict in the decision's model units; `loss` phrases a
/// decline.
bool Judge(double fused, double unfused, const char* loss,
           CandidateDecision* decision) {
  const char* units = ScoreUnits(decision->model);
  decision->score = unfused - fused;
  if (fused >= unfused) {
    decision->reason =
        StrFormat("%s (%.4f vs %.4f %s)", loss, fused, unfused, units);
    return false;
  }
  decision->reason = StrFormat("saves %.4f %s (%.4f fused vs %.4f unfused)",
                               unfused - fused, units, fused, unfused);
  return true;
}

/// A valid extra-output / buffer-suffix identifier derived from a virtual
/// image name ("lap.sep_row" -> "lap_sep_row").
std::string SanitizeOutputName(const std::string& image) {
  std::string name;
  for (char c : image)
    name += std::isalnum(static_cast<unsigned char>(c)) != 0 ? c : '_';
  if (name.empty() || std::isdigit(static_cast<unsigned char>(name[0])) != 0)
    name = "o" + name;
  return name;
}

struct Planner {
  const std::vector<PlannerStage>& stages;
  const FusionPlannerOptions& options;
  std::map<std::string, int> producer;  ///< image name -> stage index

  explicit Planner(const std::vector<PlannerStage>& s,
                   const FusionPlannerOptions& o)
      : stages(s), options(o) {
    for (std::size_t i = 0; i < stages.size(); ++i) {
      if (!stages[i].name.empty())
        producer[stages[i].name] = static_cast<int>(i);
      for (const std::string& image : stages[i].extra_images)
        producer[image] = static_cast<int>(i);
    }
  }

  int EdgeCount(const std::string& image) const {
    int count = 0;
    for (const PlannerStage& stage : stages)
      for (const auto& [accessor, input] : stage.inputs)
        if (input == image) ++count;
    return count;
  }

  /// True when stage `to` is (transitively) an input of stage `from` —
  /// merging two stages with a path between them would create a cycle.
  bool Reaches(int from, int to) const {
    if (from == to) return true;
    for (const auto& [accessor, image] : stages[static_cast<std::size_t>(from)]
                                             .inputs) {
      auto it = producer.find(image);
      if (it != producer.end() && Reaches(it->second, to)) return true;
    }
    return false;
  }

  void Record(CandidateDecision decision) const {
    if (options.decisions != nullptr)
      options.decisions->push_back(std::move(decision));
  }

  Result<CompiledKernel> CompileFor(const frontend::KernelSource& source,
                                    const PlannerStage& stage) const {
    CompileOptions copts = options.compile;
    copts.image_width = stage.width;
    copts.image_height = stage.height;
    return Compile(source, copts);
  }

  /// Profitability: the fused kernel must launch on the device at all
  /// (Compile runs Algorithm 2 — register / scratchpad exhaustion fails
  /// it), and its cost must undercut the two separate stages' under the
  /// model of the executor that runs them (see file comment). Fills
  /// `decision` either way; returns true on accept.
  bool Profitable(const frontend::KernelSource& fused,
                  const PlannerStage& into, const PlannerStage& retired,
                  CandidateDecision* decision) const {
    Result<CompiledKernel> fused_ck = CompileFor(fused, into);
    if (!fused_ck.ok()) {
      decision->reason =
          "fused kernel does not fit the device: " + fused_ck.status().message();
      return false;
    }
    Result<CompiledKernel> a_ck = CompileFor(*into.source, into);
    Result<CompiledKernel> b_ck = CompileFor(*retired.source, retired);
    if (!a_ck.ok() || !b_ck.ok()) {
      decision->reason = "unfused stage does not compile";
      return false;
    }
    if (options.host_stages && HostSupports(a_ck.value(), into).ok() &&
        HostSupports(b_ck.value(), retired).ok()) {
      decision->model = CostModel::kHost;
      const Status fused_host = HostSupports(fused_ck.value(), into);
      if (!fused_host.ok()) {
        decision->reason =
            "fusing would move host work onto the simulator: " +
            fused_host.message();
        return false;
      }
      return Judge(HostCost(fused_ck.value(), into),
                   HostCost(a_ck.value(), into) +
                       HostCost(b_ck.value(), retired),
                   "recompute outweighs the saved stage", decision);
    }
    const double pixels =
        static_cast<double>(into.width) * static_cast<double>(into.height);
    const double overhead = LaunchOverheadCycles(options.compile.device) /
                            std::max(1.0, pixels);
    const double unfused = PerPixelCycles(a_ck.value(), options.compile.device) +
                           PerPixelCycles(b_ck.value(), options.compile.device) +
                           2.0 * overhead;
    const double fused_cost =
        PerPixelCycles(fused_ck.value(), options.compile.device) + overhead;
    return Judge(fused_cost, unfused, "recompute outweighs saved traffic",
                 decision);
  }

  /// Producer→consumer candidates of one kind (kPoint or kHalo) over every
  /// single-consumer, non-external kernel→kernel edge of matching extent.
  std::optional<PlannedFusion> PlanEdge(FuseKind kind) const {
    for (std::size_t c = 0; c < stages.size(); ++c) {
      const PlannerStage& consumer = stages[c];
      if (!consumer.fusable) continue;
      for (const auto& [accessor, image] : consumer.inputs) {
        const auto it = producer.find(image);
        if (it == producer.end()) continue;
        const std::size_t p = static_cast<std::size_t>(it->second);
        const PlannerStage& prod = stages[p];
        if (!prod.fusable || p == c) continue;

        CandidateDecision decision;
        decision.kind = kind;
        decision.producer = prod.name;
        decision.consumer = consumer.name;

        // Structural legality: the intermediate image must be eliminable.
        if (prod.name != image) {
          decision.reason = "intermediate '" + image +
                            "' is a named extra output of a fused stage";
          Record(std::move(decision));
          continue;
        }
        if (prod.external) {
          decision.reason = "intermediate '" + image +
                            "' is an externally visible output";
          Record(std::move(decision));
          continue;
        }
        if (EdgeCount(image) != 1) {
          decision.reason = "intermediate '" + image +
                            "' has more than one consumer edge";
          Record(std::move(decision));
          continue;
        }
        if (prod.width != consumer.width || prod.height != consumer.height) {
          decision.reason = "iteration spaces differ";
          Record(std::move(decision));
          continue;
        }

        Result<frontend::KernelSource> fused =
            kind == FuseKind::kPoint
                ? FusePointwise(*prod.source, *consumer.source, accessor)
                : FuseHalo(*prod.source, *consumer.source, accessor,
                           consumer.width, consumer.height);
        if (!fused.ok()) {
          decision.reason = fused.status().message();
          Record(std::move(decision));
          continue;
        }
        decision.legal = true;
        if (!Profitable(fused.value(), consumer, prod, &decision)) {
          Record(std::move(decision));
          continue;
        }
        decision.accepted = true;
        Record(std::move(decision));

        PlannedFusion plan;
        plan.request.kind = kind;
        plan.request.accessor = accessor;
        plan.fused = std::move(fused).take();
        plan.into = static_cast<int>(c);
        plan.retired = static_cast<int>(p);
        return plan;
      }
    }
    return std::nullopt;
  }

  /// Horizontal candidates: independent kernel-stage pairs sharing an input
  /// image over the same iteration space. Neither image is eliminated, so
  /// external outputs and multi-consumer images are fine; the second
  /// sibling must still be single-output (chains fold fresh siblings into
  /// the accumulated multi-output kernel one by one).
  std::optional<PlannedFusion> PlanHorizontal() const {
    for (std::size_t a = 0; a < stages.size(); ++a) {
      const PlannerStage& sa = stages[a];
      if (!sa.fusable) continue;
      for (std::size_t b = a + 1; b < stages.size(); ++b) {
        const PlannerStage& sb = stages[b];
        if (!sb.fusable) continue;

        // A shared input image read by both stages.
        std::string a_acc, b_acc, shared;
        for (const auto& [aa, ai] : sa.inputs) {
          for (const auto& [ba, bi] : sb.inputs) {
            if (ai != bi || !shared.empty()) continue;
            a_acc = aa;
            b_acc = ba;
            shared = ai;
          }
        }
        if (shared.empty()) continue;

        CandidateDecision decision;
        decision.kind = FuseKind::kHorizontal;
        decision.producer = sa.name;
        decision.consumer = sb.name;

        if (sa.width != sb.width || sa.height != sb.height) {
          decision.reason = "iteration spaces differ";
          Record(std::move(decision));
          continue;
        }
        if (Reaches(static_cast<int>(a), static_cast<int>(b)) ||
            Reaches(static_cast<int>(b), static_cast<int>(a))) {
          decision.reason = "stages are not independent (one feeds the other)";
          Record(std::move(decision));
          continue;
        }

        const std::string output_name = SanitizeOutputName(sb.name);
        Result<frontend::KernelSource> fused = FuseHorizontal(
            *sa.source, a_acc, *sb.source, b_acc, output_name);
        if (!fused.ok()) {
          decision.reason = fused.status().message();
          Record(std::move(decision));
          continue;
        }
        decision.legal = true;
        if (!Profitable(fused.value(), sa, sb, &decision)) {
          Record(std::move(decision));
          continue;
        }
        decision.accepted = true;
        Record(std::move(decision));

        PlannedFusion plan;
        plan.request.kind = FuseKind::kHorizontal;
        plan.request.accessor = a_acc;
        plan.request.peer_accessor = b_acc;
        plan.request.output_name = output_name;
        plan.fused = std::move(fused).take();
        plan.into = static_cast<int>(a);
        plan.retired = static_cast<int>(b);
        return plan;
      }
    }
    return std::nullopt;
  }
};

}  // namespace

const char* to_string(CostModel model) {
  return model == CostModel::kHost ? "host" : "device";
}

const char* ScoreUnits(CostModel model) {
  return model == CostModel::kHost ? "instructions/pixel" : "cycles/pixel";
}

void DedupeDecisions(std::vector<CandidateDecision>* decisions) {
  std::vector<CandidateDecision> unique;
  for (const CandidateDecision& d : *decisions) {
    CandidateDecision* existing = nullptr;
    for (CandidateDecision& u : unique)
      if (u.kind == d.kind && u.producer == d.producer &&
          u.consumer == d.consumer)
        existing = &u;
    if (existing == nullptr)
      unique.push_back(d);
    else if (!existing->accepted)
      *existing = d;  // keep the latest (or the accepted) verdict
  }
  *decisions = std::move(unique);
}

std::optional<PlannedFusion> PlanNextFusion(
    const std::vector<PlannerStage>& stages,
    const FusionPlannerOptions& options) {
  Planner planner(stages, options);
  // Point-wise edges first (a strict traffic win at no recompute), then
  // halo edges (they subsume fewer cases the earlier kinds could have
  // taken), then horizontal sibling merges over what remains.
  if (FusionModeAllows(options.mode, FuseKind::kPoint))
    if (auto plan = planner.PlanEdge(FuseKind::kPoint)) return plan;
  if (FusionModeAllows(options.mode, FuseKind::kHalo))
    if (auto plan = planner.PlanEdge(FuseKind::kHalo)) return plan;
  if (FusionModeAllows(options.mode, FuseKind::kHorizontal))
    if (auto plan = planner.PlanHorizontal()) return plan;
  return std::nullopt;
}

}  // namespace hipacc::compiler
