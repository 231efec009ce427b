#include "runtime/host_exec.hpp"

#include <algorithm>

#include "ast/type.hpp"
#include "sim/bytecode.hpp"
#include "sim/lanes.hpp"
#include "support/string_utils.hpp"

namespace hipacc::runtime {
namespace {

using namespace hipacc::ast;
using sim::Coord;
using sim::CoordKind;
using sim::Insn;
using sim::Op;
using sim::Program;
using sim::ProgramSet;

/// Pixels interpreted per dispatch of one instruction: the lane group width.
/// Wider groups amortise dispatch further but grow the per-thread register
/// file (num_regs * width doubles); 256 keeps a typical kernel's file inside
/// L1/L2.
constexpr int kLaneWidth = 256;

/// CostPerPixel's fixed per-stage cost, in interior instructions: what one
/// stage costs besides its pixels (pool acquire, BuildLaunch, Prepare, band
/// scheduling, EndStage). It must be positive: a horizontal merge saves no
/// instruction, only a stage. Calibrated once on a 4-vCPU x86-64 VM
/// (RelWithDebInfo, one worker, two runs): a chain of 1x1 point stages
/// spent 0.97-1.73 us per stage through FrameExec and 1.34-2.26 us through
/// the frame loop, and the ISP's 256x256 stages ran 2.9-4.4, 12.2-19.3 and
/// 36.9-64.6 ns/px for interior programs of 4, 10 and 45 instructions, so
/// about 1 ns per instruction: the stage costs 1,000-2,300 instructions.
constexpr double kStageCostInstructions = 2000.0;

/// Everything resolved once per launch and read by every row: the launch's
/// bindings and the nine-region pixel partition.
struct ExecPlan {
  sim::LaunchBindings bind;
  int width = 0;
  int height = 0;
  // Band boundaries of the nine-region pixel partition (x: [0,x1) [x1,x2)
  // [x2,W), same for y), and the program chosen for each band pair.
  int x1 = 0, x2 = 0, y1 = 0, y2 = 0;
  const Program* grid[3][3] = {};
};

constexpr Region kRegionGrid[3][3] = {
    {Region::kTopLeft, Region::kTop, Region::kTopRight},
    {Region::kLeft, Region::kInterior, Region::kRight},
    {Region::kBottomLeft, Region::kBottom, Region::kBottomRight},
};

/// Rejects programs whose host execution could diverge from the simulator:
/// scratchpad staging (tile contents depend on the block shape), texture or
/// hardware-resolved boundary handling, and any thread/block-shape dependent
/// index. Pure value computations pass.
Status ValidateProgram(const Program& prog, const std::string& kernel) {
  auto unsupported = [&](const char* what) {
    return Status::Unimplemented(
        StrFormat("host executor: kernel '%s' uses %s",
                           kernel.c_str(), what));
  };
  for (const Insn& I : prog.code) {
    if (I.op == Op::kLoadShared) return unsupported("scratchpad staging");
    if (I.op == Op::kLoadImage && (I.sub == 1 || I.hw_bh))
      return unsupported("texture/hardware boundary handling");
    if (I.op == Op::kThreadIdx) {
      const ThreadIndexKind kind = static_cast<ThreadIndexKind>(I.sub);
      if (kind != ThreadIndexKind::kGlobalIdX &&
          kind != ThreadIndexKind::kGlobalIdY)
        return unsupported("block-shape dependent thread indexing");
    }
    for (const Coord* c : {&I.cx, &I.cy})
      if (c->kind == CoordKind::kTidX || c->kind == CoordKind::kTidY)
        return unsupported("thread-local coordinates");
  }
  return Status::Ok();
}

/// Builds the band partition and per-band program table. With a single
/// program variant the whole image is one band; otherwise the halo cuts
/// three bands per axis and each band pair maps to its Figure 3 region.
Status PlanRegions(const ProgramSet& ps, int width, int height, int halo_x,
                   int halo_y, ExecPlan* plan) {
  // PPT kernels map one thread to several pixels; the host executor's
  // one-virtual-thread-per-pixel iteration cannot reproduce that (the
  // interior variants carry no rejectable node, so gate on the set itself).
  if (ps.ppt > 1)
    return Status::Unimplemented(StrFormat(
        "host executor: kernel '%s' uses %d pixels per thread",
        ps.kernel_name.c_str(), ps.ppt));
  if (ps.programs.size() == 1) {
    plan->x1 = 0;
    plan->x2 = width;
    plan->y1 = 0;
    plan->y2 = height;
    for (auto& row : plan->grid)
      for (auto& cell : row) cell = &ps.programs.front();
    return ValidateProgram(ps.programs.front(), ps.kernel_name);
  }
  if (halo_x < 0 || halo_y < 0 || width < 2 * halo_x || height < 2 * halo_y)
    return Status::Unimplemented(StrFormat(
        "host executor: %dx%d image smaller than twice the %dx%d halo",
        width, height, halo_x, halo_y));
  plan->x1 = halo_x;
  plan->x2 = width - halo_x;
  plan->y1 = halo_y;
  plan->y2 = height - halo_y;
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) {
      const Program* prog = ps.Find(kRegionGrid[r][c]);
      if (prog == nullptr)
        return Status::Unimplemented(StrFormat(
            "host executor: kernel '%s' has no %s program",
            ps.kernel_name.c_str(), to_string(kRegionGrid[r][c])));
      HIPACC_RETURN_IF_ERROR(ValidateProgram(*prog, ps.kernel_name));
      plan->grid[r][c] = prog;
    }
  }
  return Status::Ok();
}

}  // namespace

struct HostLaunch::Plan : ExecPlan {};

HostLaunch::HostLaunch(std::unique_ptr<const Plan> plan)
    : plan_(std::move(plan)) {}
HostLaunch::HostLaunch(HostLaunch&&) noexcept = default;
HostLaunch& HostLaunch::operator=(HostLaunch&&) noexcept = default;
HostLaunch::~HostLaunch() = default;

Status HostLaunch::Supports(const ProgramSet& programs, int width, int height,
                            int halo_x, int halo_y) {
  ExecPlan plan;
  return PlanRegions(programs, width, height, halo_x, halo_y, &plan);
}

double HostLaunch::CostPerPixel(const ProgramSet& programs, int width,
                                int height) {
  const Program* interior = programs.programs.size() == 1
                                ? &programs.programs.front()
                                : programs.Find(Region::kInterior);
  HIPACC_CHECK(interior != nullptr);  // Supports requires it
  const double pixels =
      std::max(1.0, static_cast<double>(width) * static_cast<double>(height));
  return static_cast<double>(interior->code.size()) +
         kStageCostInstructions / pixels;
}

Result<HostLaunch> HostLaunch::Prepare(const sim::Launch& launch, int halo_x,
                                       int halo_y) {
  // Every launch carries its kernel and programs.
  HIPACC_CHECK(launch.kernel != nullptr && launch.programs != nullptr);
  const ProgramSet& ps = *launch.programs;
  auto plan = std::make_unique<Plan>();
  plan->width = launch.width;
  plan->height = launch.height;
  HIPACC_RETURN_IF_ERROR(PlanRegions(ps, launch.width, launch.height, halo_x,
                                     halo_y, plan.get()));
  HIPACC_RETURN_IF_ERROR(sim::CheckBindings(launch));
  plan->bind = sim::ResolveBindings(ps, launch);
  return HostLaunch(std::move(plan));
}

[[gnu::aligned(64)]] void HostLaunch::RunRows(int y0, int y1) const {
  const ExecPlan& plan = *plan_;
  sim::LaneFile<kLaneWidth>& file = sim::LaneFile<kLaneWidth>::ForThread();
  sim::LaneGroup<kLaneWidth> g;
  g.image_w = plan.width;
  g.image_h = plan.height;
  const int xs[4] = {0, plan.x1, plan.x2, plan.width};
  for (int y = y0; y < y1; ++y) {
    const int row = y < plan.y1 ? 0 : (y < plan.y2 ? 1 : 2);
    for (int col = 0; col < 3; ++col) {
      const Program& prog = *plan.grid[row][col];
      for (int x0 = xs[col]; x0 < xs[col + 1]; x0 += kLaneWidth) {
        g.SetRow(x0, y, std::min(kLaneWidth, xs[col + 1] - x0));
        sim::RunLanes<kLaneWidth, false>(prog, plan.bind, g, file, {});
      }
    }
  }
}

}  // namespace hipacc::runtime
