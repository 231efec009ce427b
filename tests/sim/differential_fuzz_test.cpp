// Four-way differential fuzz harness: the proof that the bytecode VM and
// the native tier both match the reference oracle (a tree-walking
// interpreter over the device IR, tests/oracle), and that the host executor
// (runtime/host_exec.hpp) writes the VM's pixels. A seeded generator emits
// random DSL kernels — convolution masks of random shapes and values
// (including rank-1 masks that trigger the separable decomposition),
// static-bound stencil loops with random arithmetic bodies (the native
// tier's unrolled-fusion path), runtime-bound loops (which do not fuse, so
// the native engine runs them on the VM), divergent if/else bodies (some
// redeclaring a name with a new type in each branch), and point-operator
// chains — across all five boundary modes, odd extents, random codegen
// variants (pixels-per-thread 1/2/4/8, scratchpad staging, texture paths,
// constant vs global masks, both backends), then runs every case on the
// oracle and both engines and requires them to be observably
// indistinguishable: output pixels bit for bit, every metric counter, and
// the modelled time. The sampled Measure, which computes only what the
// model observes, must also equal the oracle's on metrics and modelled time.
// Each case is also compiled in a host-eligible variant
// (one pixel per thread, no scratchpad, no texture path), which the host
// executor and the VM must run to the same pixels bit for bit; random
// graphs run once more under the graph runtime's automatic executor choice,
// which sends every eligible stage to the host.
//
// Two entry points: a pinned sweep that always runs under ctest (fixed
// seed, every generator kind), and an env-scaled sweep for CI fuzz jobs —
// HIPACC_FUZZ_CASES / HIPACC_FUZZ_SEED select the budget and seed matrix.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include <map>
#include <set>

#include "compiler/driver.hpp"
#include "compiler/executable.hpp"
#include "ops/kernel_sources.hpp"
#include "oracle/interpreter.hpp"
#include "runtime/bindings.hpp"
#include "runtime/graph.hpp"
#include "runtime/host_exec.hpp"
#include "sim/bytecode.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "support/rng.hpp"
#include "support/string_utils.hpp"

namespace hipacc {
namespace {

using ast::BoundaryMode;
using ast::ScalarType;

constexpr BoundaryMode kAllModes[] = {
    BoundaryMode::kUndefined, BoundaryMode::kClamp, BoundaryMode::kRepeat,
    BoundaryMode::kMirror, BoundaryMode::kConstant};

// ---------------------------------------------------------------------------
// Random kernel generation
// ---------------------------------------------------------------------------

/// One generated fuzz case: the kernel source plus everything needed to
/// compile and launch it deterministically.
struct FuzzCase {
  frontend::KernelSource source;
  runtime::BindingSet scalars;
  codegen::CodegenOptions codegen;
  std::optional<hw::KernelConfig> forced_config;
  int width = 0;
  int height = 0;
  std::string summary;
};

enum class FuzzKind {
  kConvolution,   ///< random mask shape/values via ConvolutionSource
  kStaticLoop,    ///< literal-bound loop nest, random arithmetic body
  kRuntimeLoop,   ///< parameter-bound loop nest (native engine's VM fallback)
  kPointChain,    ///< straight-line point-operator chain
};
constexpr FuzzKind kAllKinds[] = {FuzzKind::kConvolution, FuzzKind::kStaticLoop,
                                  FuzzKind::kRuntimeLoop,
                                  FuzzKind::kPointChain};

std::string FloatLit(Rng& rng) {
  static const char* kPool[] = {"0.0f",   "1.0f",  "0.5f",    "-0.75f",
                                "2.0f",   "-1.5f", "0.125f",  "3.0f",
                                "-0.25f", "0.1f",  "0.3333f", "-2.5f"};
  return kPool[rng.NextInt(0, 11)];
}

/// Random arithmetic expression over `atoms` (in-scope value names). Every
/// operator maps onto DSL constructs the oracle and both engines implement;
/// divides
/// are denominator-guarded and exp is range-clamped so images stay mostly
/// finite — an all-NaN image would make the bitwise comparison vacuous.
std::string RandomExpr(Rng& rng, const std::vector<std::string>& atoms,
                       int depth) {
  if (depth <= 0 || rng.NextInt(0, 3) == 0) {
    if (!atoms.empty() && rng.NextInt(0, 2) != 0)
      return atoms[static_cast<std::size_t>(
          rng.NextInt(0, static_cast<int>(atoms.size()) - 1))];
    return FloatLit(rng);
  }
  const std::string a = RandomExpr(rng, atoms, depth - 1);
  const std::string b = RandomExpr(rng, atoms, depth - 1);
  switch (rng.NextInt(0, 7)) {
    case 0: return "(" + a + " + " + b + ")";
    case 1: return "(" + a + " - " + b + ")";
    case 2: return "(" + a + " * " + b + ")";
    case 3: return "(" + a + " / (0.5f + " + b + " * " + b + "))";
    case 4: return "fmin(" + a + ", " + b + ")";
    case 5: return "fmax(" + a + ", " + b + ")";
    case 6: return "exp(fmin(4.0f, " + a + "))";
    default: return "sqrt(fabs(" + a + "))";
  }
}

/// Statements executed once per window tap; mutates `acc` (always live) and
/// sometimes a secondary loop-carried value `w`. A random divergent
/// if/else exercises the masked-execution paths of all engines; half of
/// them declare `k` in both branches, an int in one and a float in the
/// other, which the bytecode compiler gives two registers.
std::string RandomTapBody(Rng& rng, std::vector<std::string> atoms) {
  std::string body;
  body += "        float t = " + RandomExpr(rng, atoms, 2) + ";\n";
  atoms.push_back("t");
  if (rng.NextInt(0, 1) == 0) {
    const bool sibling_types = rng.NextInt(0, 1) == 0;
    body += "        if (" + RandomExpr(rng, atoms, 1) + " > " +
            FloatLit(rng) + ") {\n";
    if (sibling_types)
      body += StrFormat("          int k = %d;\n", rng.NextInt(-3, 3)) +
              "          acc = acc + k * t;\n";
    body += "          acc = acc + " + RandomExpr(rng, atoms, 1) + ";\n";
    body += "        } else {\n";
    if (sibling_types)
      body += "          float k = " + RandomExpr(rng, atoms, 1) +
              ";\n          acc = acc + k;\n";
    body += "          acc = acc - " + FloatLit(rng) + " * t;\n";
    body += "        }\n";
  } else {
    body += "        acc = acc + t * " + FloatLit(rng) + ";\n";
  }
  if (rng.NextInt(0, 2) == 0)
    body += "        w = 0.5f * w + " + RandomExpr(rng, atoms, 1) + ";\n";
  return body;
}

ast::AccessorInfo FuzzAccessor(int wx, int wy, BoundaryMode mode,
                               float constant_value) {
  ast::AccessorInfo acc;
  acc.name = "Input";
  acc.window = ast::WindowExtent::FromSize(wx, wy);
  acc.boundary = mode;
  acc.constant_value = constant_value;
  return acc;
}

FuzzCase MakeConvolutionCase(Rng& rng) {
  FuzzCase fc;
  const int wx = 2 * rng.NextInt(0, 2) + 1;
  const int wy = 2 * rng.NextInt(0, 2) + 1;
  std::vector<float> mask(static_cast<std::size_t>(wx) * wy);
  const bool rank1 = wx == wy && wx > 1 && rng.NextInt(0, 1) == 0;
  if (rank1) {
    // Outer product of random vectors: exactly rank 1, so the separable
    // decomposition fires and the native tier sees both passes.
    std::vector<float> u(static_cast<std::size_t>(wy)),
        v(static_cast<std::size_t>(wx));
    for (float& x : u) x = 2.0f * rng.NextFloat() - 0.5f;
    for (float& x : v) x = 2.0f * rng.NextFloat() - 0.5f;
    for (int y = 0; y < wy; ++y)
      for (int x = 0; x < wx; ++x)
        mask[static_cast<std::size_t>(y) * wx + x] =
            u[static_cast<std::size_t>(y)] * v[static_cast<std::size_t>(x)];
  } else {
    for (float& x : mask) x = 4.0f * rng.NextFloat() - 2.0f;
  }
  const BoundaryMode mode = kAllModes[rng.NextInt(0, 4)];
  fc.source = ops::ConvolutionSource("fuzz_conv", wx, wy, mask, mode,
                                     2.0f * rng.NextFloat() - 1.0f);
  fc.summary = StrFormat("conv %dx%d mode=%d rank1=%d", wx, wy,
                         static_cast<int>(mode), rank1 ? 1 : 0);
  return fc;
}

FuzzCase MakeStencilCase(Rng& rng, bool runtime_bounds) {
  FuzzCase fc;
  const int rx = rng.NextInt(0, 2);
  const int ry = rng.NextInt(0, 2);
  const int wx = runtime_bounds ? 5 : 2 * rx + 1;
  const int wy = runtime_bounds ? 5 : 2 * ry + 1;
  const BoundaryMode mode = kAllModes[rng.NextInt(0, 4)];
  fc.source.name = runtime_bounds ? "fuzz_rt_stencil" : "fuzz_stencil";
  fc.source.params = {{"p0", ScalarType::kFloat}};
  fc.source.accessors = {
      FuzzAccessor(wx, wy, mode, 2.0f * rng.NextFloat() - 1.0f)};
  std::vector<std::string> atoms = {"Input(xf, yf)", "Input()", "acc", "w"};
  if (rng.NextInt(0, 1) == 0) {
    ast::MaskInfo m;
    m.name = "M";
    m.size_x = wx;
    m.size_y = wy;
    m.static_values.resize(static_cast<std::size_t>(wx) * wy);
    for (float& x : m.static_values) x = 2.0f * rng.NextFloat() - 1.0f;
    fc.source.masks = {m};
    atoms.push_back("M(xf, yf)");
  }
  std::string bounds_y, bounds_x;
  if (runtime_bounds) {
    fc.source.params.push_back({"r", ScalarType::kInt});
    fc.scalars.Scalar("r", rng.NextInt(0, 2));
    bounds_y = bounds_x = "r";
  } else {
    bounds_y = StrFormat("%d", ry);
    bounds_x = StrFormat("%d", rx);
  }
  fc.source.body = StrFormat(R"(
    float acc = %s;
    float w = p0;
    for (int yf = -%s; yf <= %s; yf++) {
      for (int xf = -%s; xf <= %s; xf++) {
%s      }
    }
    output() = acc + w * %s;
  )",
                             FloatLit(rng).c_str(), bounds_y.c_str(),
                             bounds_y.c_str(), bounds_x.c_str(),
                             bounds_x.c_str(), RandomTapBody(rng, atoms).c_str(),
                             FloatLit(rng).c_str());
  fc.scalars.Scalar("p0", 2.0 * rng.NextDouble() - 1.0);
  fc.summary = StrFormat("%s window=%dx%d mode=%d mask=%d",
                         fc.source.name.c_str(), wx, wy,
                         static_cast<int>(mode),
                         fc.source.masks.empty() ? 0 : 1);
  return fc;
}

FuzzCase MakePointChainCase(Rng& rng) {
  FuzzCase fc;
  fc.source.name = "fuzz_point";
  fc.source.params = {{"p0", ScalarType::kFloat}};
  fc.source.accessors =
      {FuzzAccessor(1, 1, BoundaryMode::kUndefined, 0.0f)};
  const int stages = rng.NextInt(3, 9);
  std::string body = "\n    float v = Input();\n    float u = " +
                     FloatLit(rng) + ";\n";
  const std::vector<std::string> atoms = {"v", "u", "p0"};
  for (int s = 0; s < stages; ++s) {
    body += std::string("    ") + (s % 2 == 0 ? "v" : "u") + " = " +
            RandomExpr(rng, atoms, 2) + ";\n";
  }
  body += "    output() = v + u;\n  ";
  fc.source.body = body;
  fc.scalars.Scalar("p0", 2.0 * rng.NextDouble() - 1.0);
  fc.summary = StrFormat("point chain stages=%d", stages);
  return fc;
}

/// Draws codegen/launch variation shared by all kinds: pixels-per-thread,
/// memory paths, backend, block configuration, and an odd image extent.
void RandomizeLaunch(Rng& rng, FuzzCase* fc) {
  static const int kPpt[] = {1, 2, 4, 8};
  fc->codegen.pixels_per_thread = kPpt[rng.NextInt(0, 3)];
  fc->codegen.use_scratchpad = rng.NextInt(0, 3) == 0;
  fc->codegen.masks_in_constant_memory = rng.NextInt(0, 3) != 0;
  fc->codegen.scalar_optimizer = rng.NextInt(0, 3) != 0;
  if (rng.NextInt(0, 3) == 0)
    fc->codegen.texture = rng.NextInt(0, 1) == 0
                              ? codegen::TexturePolicy::kLinear
                              : codegen::TexturePolicy::kArray2D;
  if (rng.NextInt(0, 3) == 0)
    fc->codegen.border = codegen::BorderPolicy::kUniform;
  if (rng.NextInt(0, 3) == 0) fc->codegen.backend = ast::Backend::kOpenCL;
  switch (rng.NextInt(0, 2)) {
    case 0: fc->forced_config = hw::KernelConfig{32, 2}; break;
    case 1: fc->forced_config = hw::KernelConfig{16, 4}; break;
    default: break;  // heuristic-selected
  }
  fc->width = 2 * rng.NextInt(8, 48) + 1;   // odd, 17..97
  fc->height = 2 * rng.NextInt(6, 32) + 1;  // odd, 13..65
  fc->summary += StrFormat(" ppt=%d smem=%d tex=%d border=%d be=%d %dx%d",
                           fc->codegen.pixels_per_thread,
                           fc->codegen.use_scratchpad ? 1 : 0,
                           static_cast<int>(fc->codegen.texture),
                           static_cast<int>(fc->codegen.border),
                           static_cast<int>(fc->codegen.backend), fc->width,
                           fc->height);
}

FuzzCase MakeCase(Rng& rng, FuzzKind kind) {
  FuzzCase fc;
  switch (kind) {
    case FuzzKind::kConvolution: fc = MakeConvolutionCase(rng); break;
    case FuzzKind::kStaticLoop: fc = MakeStencilCase(rng, false); break;
    case FuzzKind::kRuntimeLoop: fc = MakeStencilCase(rng, true); break;
    case FuzzKind::kPointChain: fc = MakePointChainCase(rng); break;
  }
  RandomizeLaunch(rng, &fc);
  return fc;
}

// ---------------------------------------------------------------------------
// Execution and comparison
// ---------------------------------------------------------------------------

struct EngineRun {
  Status status = Status::Ok();
  std::vector<float> output;
  sim::LaunchStats stats;
};

HostImage<float> RandomInput(int w, int h, Rng& rng) {
  HostImage<float> img(w, h);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x)
      img(x, y) = 4.0f * rng.NextFloat() - 1.0f;
  return img;
}

/// What runs the blocks of a launch: the oracle or one of the engines.
enum class Runner { kOracle, kBytecode, kNative };

/// Executes `kernel` over `input` on `runner`, or measures it with
/// `samples_per_region` sampled blocks per region when that is set.
EngineRun RunEngine(const compiler::CompiledKernel& kernel,
                    const HostImage<float>& input,
                    const runtime::BindingSet& scalars, Runner runner,
                    std::optional<int> samples_per_region = std::nullopt) {
  EngineRun run;
  dsl::Image<float> in(input.width(), input.height());
  dsl::Image<float> out(input.width(), input.height());
  in.CopyFrom(input);
  runtime::BindingSet bindings = scalars;
  bindings.Input("Input", in).Output(out);
  Result<runtime::LaunchHolder> holder =
      runtime::BuildLaunch(kernel.device_ir, kernel.config.config, bindings);
  if (!holder.ok()) {
    run.status = holder.status();
    return run;
  }
  holder.value().launch.programs = kernel.bytecode.get();
  sim::SimulatorOptions options;
  if (runner == Runner::kNative) options.engine = sim::ExecEngine::kNative;
  sim::Simulator simulator(hw::TeslaC2050(), options);
  const sim::BlockFn block =
      runner == Runner::kOracle ? sim::BlockFn(oracle::RunBlock) : nullptr;
  Result<sim::LaunchStats> stats =
      simulator.Run(holder.value().launch, block, samples_per_region);
  if (!stats.ok()) {
    run.status = stats.status();
    return run;
  }
  run.stats = stats.value();
  const HostImage<float>& data = out.getData();
  run.output.assign(data.data(), data.data() + data.size());
  return run;
}

/// Runs `kernel` over `input` on the host executor, every row in one band.
/// Returns false, leaving `run` untouched, when the host does not run it.
bool RunHost(const compiler::CompiledKernel& kernel,
             const HostImage<float>& input, const runtime::BindingSet& scalars,
             EngineRun* run) {
  const ast::WindowExtent& halo = kernel.device_ir.bh_window;
  if (!runtime::HostLaunch::Supports(*kernel.bytecode, input.width(),
                                     input.height(), halo.half_x, halo.half_y)
           .ok())
    return false;
  dsl::Image<float> in(input.width(), input.height());
  dsl::Image<float> out(input.width(), input.height());
  in.CopyFrom(input);
  runtime::BindingSet bindings = scalars;
  bindings.Input("Input", in).Output(out);
  Result<runtime::LaunchHolder> holder =
      runtime::BuildLaunch(kernel.device_ir, kernel.config.config, bindings);
  if (!holder.ok()) return false;
  holder.value().launch.programs = kernel.bytecode.get();
  Result<runtime::HostLaunch> host = runtime::HostLaunch::Prepare(
      holder.value().launch, halo.half_x, halo.half_y);
  if (!host.ok()) {
    run->status = host.status();
    return true;
  }
  host.value().RunRows(0, input.height());
  const HostImage<float>& data = out.getData();
  run->output.assign(data.data(), data.data() + data.size());
  return true;
}

void ExpectMetricsEqual(const sim::Metrics& a, const sim::Metrics& b) {
  EXPECT_EQ(a.alu_ops, b.alu_ops);
  EXPECT_EQ(a.sfu_calls, b.sfu_calls);
  EXPECT_EQ(a.global_read_instrs, b.global_read_instrs);
  EXPECT_EQ(a.global_write_instrs, b.global_write_instrs);
  EXPECT_EQ(a.global_transactions, b.global_transactions);
  EXPECT_EQ(a.l1_hits, b.l1_hits);
  EXPECT_EQ(a.tex_read_instrs, b.tex_read_instrs);
  EXPECT_EQ(a.tex_hits, b.tex_hits);
  EXPECT_EQ(a.tex_transactions, b.tex_transactions);
  EXPECT_EQ(a.const_broadcasts, b.const_broadcasts);
  EXPECT_EQ(a.const_serialized, b.const_serialized);
  EXPECT_EQ(a.smem_accesses, b.smem_accesses);
  EXPECT_EQ(a.smem_conflict_cycles, b.smem_conflict_cycles);
  EXPECT_EQ(a.oob_violations, b.oob_violations);
}

/// Holds two runs to the same status, metrics and modelled time, and with
/// `pixels` to the same output bit for bit.
void ExpectRunsIdentical(const EngineRun& ref, const EngineRun& other,
                         const char* label, bool pixels = true) {
  SCOPED_TRACE(label);
  ASSERT_EQ(ref.status.ok(), other.status.ok())
      << "ref: " << ref.status.ToString()
      << " other: " << other.status.ToString();
  if (!ref.status.ok()) {
    EXPECT_EQ(ref.status.ToString(), other.status.ToString());
    return;
  }
  if (pixels) {
    ASSERT_EQ(ref.output.size(), other.output.size());
    EXPECT_EQ(std::memcmp(ref.output.data(), other.output.data(),
                          ref.output.size() * sizeof(float)),
              0)
        << "output pixels differ bitwise";
  }
  ExpectMetricsEqual(ref.stats.metrics, other.stats.metrics);
  EXPECT_EQ(ref.stats.timing.total_ms, other.stats.timing.total_ms);
}

/// Compiles and runs one fuzz case on the oracle and both engines, measures
/// it on the oracle and the VM, then runs its host-eligible variant on the
/// VM and the host executor, and increments
/// `*host_ran` when the host ran it. Returns false when the case did not
/// compile (the sweep tracks the rate: a generator change that drifts into
/// mostly-invalid programs must fail loudly, not silently shrink coverage).
bool RunFuzzCase(const FuzzCase& fc, Rng& rng, int* host_ran = nullptr) {
  compiler::CompileOptions options;
  options.codegen = fc.codegen;
  options.device = hw::TeslaC2050();
  options.image_width = fc.width;
  options.image_height = fc.height;
  options.forced_config = fc.forced_config;
  Result<compiler::CompiledKernel> compiled =
      compiler::Compile(fc.source, options);
  if (!compiled.ok()) return false;

  const HostImage<float> input = RandomInput(fc.width, fc.height, rng);
  const EngineRun ref =
      RunEngine(compiled.value(), input, fc.scalars, Runner::kOracle);
  const EngineRun vm =
      RunEngine(compiled.value(), input, fc.scalars, Runner::kBytecode);
  const EngineRun native =
      RunEngine(compiled.value(), input, fc.scalars, Runner::kNative);
  SCOPED_TRACE(fc.summary);
  ExpectRunsIdentical(ref, vm, "oracle vs bytecode");
  ExpectRunsIdentical(ref, native, "oracle vs native");
  // Measure computes only what the model observes and writes no pixel; the
  // generator's taps branch on loaded values, so a slice that drops the
  // code feeding a mask or an address shows here.
  ExpectRunsIdentical(
      RunEngine(compiled.value(), input, fc.scalars, Runner::kOracle, 1),
      RunEngine(compiled.value(), input, fc.scalars, Runner::kBytecode, 1),
      "oracle vs bytecode Measure", /*pixels=*/false);

  // The host executor runs one pixel per virtual thread and no scratchpad or
  // texture path, so it is held to the VM on the variant that avoids them.
  options.codegen.pixels_per_thread = 1;
  options.codegen.use_scratchpad = false;
  options.codegen.texture = codegen::TexturePolicy::kNone;
  Result<compiler::CompiledKernel> eligible =
      compiler::Compile(fc.source, options);
  if (!eligible.ok()) return true;
  const EngineRun eligible_vm =
      RunEngine(eligible.value(), input, fc.scalars, Runner::kBytecode);
  if (!eligible_vm.status.ok()) return true;  // a device-limit launch error
  EngineRun host;
  if (!RunHost(eligible.value(), input, fc.scalars, &host)) return true;
  SCOPED_TRACE("bytecode vs host");
  EXPECT_TRUE(host.status.ok()) << host.status.ToString();
  EXPECT_EQ(eligible_vm.output.size(), host.output.size());
  if (eligible_vm.output.size() == host.output.size()) {
    EXPECT_EQ(std::memcmp(eligible_vm.output.data(), host.output.data(),
                          host.output.size() * sizeof(float)),
              0)
        << "host pixels differ bitwise from the VM";
  }
  if (host_ran != nullptr) ++*host_ran;
  return true;
}

std::uint64_t EnvU64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (!v || !*v) return fallback;
  return std::strtoull(v, nullptr, 0);
}

// ---------------------------------------------------------------------------
// Multi-stage graph generation (fusion planner differential coverage)
// ---------------------------------------------------------------------------

/// A random linear-algebra-free DAG of single-input kernel stages. Stages
/// draw their input from any earlier image, so the generator naturally
/// produces point chains (point fusion), shared-input siblings (horizontal
/// fusion), and expression producers feeding convolutions (halo fusion).
struct GraphCase {
  struct Stage {
    std::string name;   ///< virtual image the stage produces
    frontend::KernelSource source;
    std::string input;  ///< virtual image consumed (accessor "Input")
    std::vector<std::pair<std::string, double>> scalars;
  };
  std::vector<Stage> stages;
  int width = 0;
  int height = 0;
  std::string summary;
};

GraphCase MakeGraphCase(Rng& rng, BoundaryMode mode) {
  GraphCase gc;
  gc.width = 2 * rng.NextInt(10, 24) + 1;   // odd, 21..49
  gc.height = 2 * rng.NextInt(8, 16) + 1;   // odd, 17..33
  const int n = rng.NextInt(2, 5);
  std::vector<std::string> images = {"in"};
  for (int s = 0; s < n; ++s) {
    GraphCase::Stage st;
    st.name = StrFormat("s%d", s);
    st.input = images[static_cast<std::size_t>(
        rng.NextInt(0, static_cast<int>(images.size()) - 1))];
    switch (rng.NextInt(0, 2)) {
      case 0: {  // point stage, per-stage unique scalar name
        const std::string p = StrFormat("p%d", s);
        st.source.name = StrFormat("point%d", s);
        st.source.params = {{p, ScalarType::kFloat}};
        st.source.accessors = {
            FuzzAccessor(1, 1, BoundaryMode::kUndefined, 0.0f)};
        st.source.body =
            "output() = Input() * " + p + " + " + FloatLit(rng) + ";";
        st.scalars = {{p, 2.0 * rng.NextDouble() - 1.0}};
        break;
      }
      case 1: {  // loop-bodied random convolution (halo consumer)
        const int w = 2 * rng.NextInt(1, 2) + 1;  // 3 or 5
        std::vector<float> mask(static_cast<std::size_t>(w) * w);
        for (float& x : mask) x = 2.0f * rng.NextFloat() - 1.0f;
        st.source = ops::ConvolutionSource(StrFormat("conv%d", s), w, w,
                                           std::move(mask), mode,
                                           2.0f * rng.NextFloat() - 1.0f);
        break;
      }
      default: {  // convolve()-intrinsic gaussian (halo-fusable producer)
        st.source =
            ops::GaussianConvolveSource(3, 0.5f + rng.NextFloat(), mode);
        break;
      }
    }
    images.push_back(st.name);
    gc.stages.push_back(std::move(st));
  }
  gc.summary = StrFormat("graph stages=%d mode=%d %dx%d", n,
                         static_cast<int>(mode), gc.width, gc.height);
  return gc;
}

/// Runs one graph case four ways — per-stage eager simulation, the graph
/// runtime on the simulator with fusion off and with the full planner, and
/// the full planner under the automatic executor choice (host where the
/// host runs a stage) — and requires every externally visible image to
/// match bit for bit. Accumulates the simulator planner's applied-edge count
/// and the automatic leg's host launches, so sweeps can assert that fusion
/// engaged and that the host ran. Increments `*ran` only when the case's
/// kernels all compile (small odd extents legitimately reject some
/// window/config combinations); sweeps assert on the ran-rate so a
/// generator drifting into mostly-invalid graphs fails loudly.
void RunGraphCase(const GraphCase& gc, int ppt, Rng& rng,
                  long long* fused_edges, int* ran,
                  long long* host_launches = nullptr) {
  SCOPED_TRACE(gc.summary + StrFormat(" ppt=%d", ppt));
  const HostImage<float> input = RandomInput(gc.width, gc.height, rng);

  // Sinks (images nothing consumes) become the graph's external outputs.
  std::set<std::string> consumed;
  for (const GraphCase::Stage& st : gc.stages) consumed.insert(st.input);
  std::vector<std::string> sinks;
  for (const GraphCase::Stage& st : gc.stages)
    if (consumed.count(st.name) == 0) sinks.push_back(st.name);

  // Eager reference: each stage compiled and simulated on its own, with
  // intermediates round-tripped through host images.
  std::map<std::string, HostImage<float>> eager;
  eager.emplace("in", input);
  for (const GraphCase::Stage& st : gc.stages) {
    compiler::CompileOptions copts;
    copts.codegen.pixels_per_thread = ppt;
    // Uniform border guards: the regioned boundary layout rejects launches
    // when a block row spans more than half a small fuzz image, which would
    // skip most high-ppt cases (the regioned path has its own coverage).
    copts.codegen.border = codegen::BorderPolicy::kUniform;
    copts.image_width = gc.width;
    copts.image_height = gc.height;
    Result<compiler::CompiledKernel> ck = compiler::Compile(st.source, copts);
    if (!ck.ok()) return;  // config rejected for this extent — skip the case
    dsl::Image<float> in(gc.width, gc.height), out(gc.width, gc.height);
    in.CopyFrom(eager.at(st.input));
    runtime::BindingSet bindings;
    bindings.Input("Input", in).Output(out);
    for (const auto& [name, value] : st.scalars) bindings.Scalar(name, value);
    compiler::SimulatedExecutable exe(std::move(ck).take(), hw::TeslaC2050());
    const Result<sim::LaunchStats> stats = exe.Run(bindings);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    eager.emplace(st.name, out.getData());
  }
  if (ran != nullptr) ++*ran;

  using Executor = runtime::GraphOptions::Executor;
  const std::pair<compiler::FusionMode, Executor> legs[] = {
      {compiler::FusionMode::kOff, Executor::kSimulator},
      {compiler::FusionMode::kAll, Executor::kSimulator},
      {compiler::FusionMode::kAll, Executor::kAuto},
  };
  for (const auto& [fuse, executor] : legs) {
    runtime::PipelineGraph graph;
    graph.Source("in", gc.width, gc.height);
    for (const GraphCase::Stage& st : gc.stages)
      graph.Kernel(st.name, st.source, {{"Input", st.input}}, st.scalars);
    std::map<std::string, HostImage<float>> outs;
    runtime::PipelineGraph::OutputBindings out_bindings;
    for (const std::string& s : sinks) {
      graph.Output(s);
      outs.emplace(s, HostImage<float>(gc.width, gc.height));
    }
    for (auto& [name, image] : outs) out_bindings.emplace_back(name, &image);
    sim::TraceSink trace;
    runtime::GraphOptions gopts;
    gopts.fuse = fuse;
    gopts.executor = executor;
    gopts.run.codegen.pixels_per_thread = ppt;
    gopts.run.codegen.border = codegen::BorderPolicy::kUniform;
    gopts.run.trace = &trace;
    const Status run = graph.Run({{"in", &input}}, out_bindings, gopts);
    ASSERT_TRUE(run.ok()) << run.ToString();
    if (executor == Executor::kAuto) {
      if (host_launches != nullptr)
        *host_launches += trace.counter("graph.launches.host");
    } else if (fuse == compiler::FusionMode::kAll && fused_edges != nullptr) {
      *fused_edges += trace.counter("graph.fused_edges");
    }
    for (const std::string& s : sinks) {
      SCOPED_TRACE(StrFormat("sink %s fuse=%s executor=%s", s.c_str(),
                             to_string(fuse),
                             executor == Executor::kAuto ? "auto" : "sim"));
      const HostImage<float>& want = eager.at(s);
      const HostImage<float>& got = outs.at(s);
      ASSERT_EQ(want.size(), got.size());
      EXPECT_EQ(std::memcmp(want.data(), got.data(),
                            want.size() * sizeof(float)),
                0)
          << "graph output differs bitwise from eager";
    }
  }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

// Always-on pinned sweep: a fixed seed and one case of every generator kind,
// so every ctest run exercises each engine path end to end and a divergence
// reproduces byte for byte from the seed alone.
TEST(DifferentialFuzzTest, PinnedKindsAgree) {
  Rng rng(0x5EEDF00Du);
  int compiled = 0, host_ran = 0;
  for (const FuzzKind kind : kAllKinds) {
    for (int i = 0; i < 2; ++i) {
      if (RunFuzzCase(MakeCase(rng, kind), rng, &host_ran)) ++compiled;
    }
  }
  // All kinds are constructed from always-valid templates; at most the
  // occasional codegen combination may be rejected.
  EXPECT_GE(compiled, 6);
  EXPECT_GT(host_ran, 0);
}

// Deterministic fused-arithmetic anchors: the generator draws kernels at
// random, so a short sweep can miss the native tier's unrolled-fusion
// float paths entirely. These two sources are known to fuse and between
// them cover float add/sub/mul/div chains, exp, masked accumulation, and
// loop-carried state — a mutation in the fused emitter fails here even
// when the random sweep gets unlucky.
TEST(DifferentialFuzzTest, PinnedFusedArithmeticAgrees) {
  Rng rng(0xFA57C0DEu);
  {
    FuzzCase fc;
    fc.source = ops::ToneCurveSource(6);
    fc.scalars.Scalar("center", 0.4).Scalar("weight", 0.7);
    fc.width = 65;
    fc.height = 33;
    fc.summary = "tone_curve pinned";
    EXPECT_TRUE(RunFuzzCase(fc, rng));
  }
  {
    FuzzCase fc;
    fc.source = ops::BilateralFixedSource(1, BoundaryMode::kMirror);
    fc.scalars.Scalar("sigma_r", 4);
    fc.width = 49;
    fc.height = 27;
    fc.summary = "bilateral_fixed pinned";
    EXPECT_TRUE(RunFuzzCase(fc, rng));
  }
}

// Pixels-per-thread matrix under a fixed generator seed: the codegen knob
// with the most layout-sensitive interaction with the fused native body.
TEST(DifferentialFuzzTest, PptMatrixAgrees) {
  for (const int ppt : {1, 2, 4, 8}) {
    Rng rng(0x9977AA55u ^ static_cast<std::uint64_t>(ppt));
    FuzzCase fc = MakeCase(rng, FuzzKind::kStaticLoop);
    fc.codegen.pixels_per_thread = ppt;
    RunFuzzCase(fc, rng);
  }
}

// Pinned fusion-planner matrix: every boundary mode crossed with every
// pixels-per-thread variant, each on a fresh random multi-stage graph.
// Fused, unfused, and eager execution must be observably identical, and
// the sweep as a whole must have applied at least one fusion (a planner
// that silently rejects everything would make the comparison vacuous).
TEST(DifferentialFuzzTest, GraphFusionMatrixAgrees) {
  Rng rng(0x6F5A9EEDu);
  long long fused_edges = 0, host_launches = 0;
  int ran = 0, cases = 0;
  for (const BoundaryMode mode : kAllModes)
    for (const int ppt : {1, 2, 4, 8}) {
      RunGraphCase(MakeGraphCase(rng, mode), ppt, rng, &fused_edges, &ran,
                   &host_launches);
      ++cases;
    }
  EXPECT_GT(fused_edges, 0);
  EXPECT_GT(host_launches, 0);
  EXPECT_GE(ran * 2, cases) << ran << " of " << cases << " graphs ran";
}

// Env-scaled graph sweep for the CI fuzz job (the graph matrix entry):
// HIPACC_FUZZ_CASES random graphs drawn from HIPACC_FUZZ_SEED, each with a
// random boundary mode and pixels-per-thread.
TEST(DifferentialFuzzTest, GraphSeededSweep) {
  const std::uint64_t seed = EnvU64("HIPACC_FUZZ_SEED", 0x6EED0002u);
  const std::uint64_t budget = EnvU64("HIPACC_FUZZ_CASES", 4);
  const int cases = static_cast<int>(budget > 200 ? 200 : budget);
  static const int kPpt[] = {1, 2, 4, 8};
  Rng rng(seed ^ 0x9A57u);
  long long fused_edges = 0, host_launches = 0;
  int ran = 0;
  for (int i = 0; i < cases; ++i)
    RunGraphCase(MakeGraphCase(rng, kAllModes[rng.NextInt(0, 4)]),
                 kPpt[rng.NextInt(0, 3)], rng, &fused_edges, &ran,
                 &host_launches);
  std::printf("%d of %d graphs ran, %lld fused edges, %lld host launches\n",
              ran, cases, fused_edges, host_launches);
  if (cases >= 8) {
    EXPECT_GT(fused_edges, 0);
    EXPECT_GT(host_launches, 0);
    EXPECT_GE(ran * 2, cases) << ran << " of " << cases << " graphs ran";
  }
}

// Env-scaled sweep for the CI fuzz job: HIPACC_FUZZ_CASES cases drawn from
// HIPACC_FUZZ_SEED. Defaults keep the ctest run quick; CI raises the budget.
TEST(DifferentialFuzzTest, SeededSweep) {
  const std::uint64_t seed = EnvU64("HIPACC_FUZZ_SEED", 0x5EED0001u);
  const std::uint64_t budget = EnvU64("HIPACC_FUZZ_CASES", 8);
  const int cases = static_cast<int>(budget > 500 ? 500 : budget);
  Rng rng(seed);
  int compiled = 0, host_ran = 0;
  for (int i = 0; i < cases; ++i) {
    const FuzzKind kind = kAllKinds[rng.NextInt(0, 3)];
    if (RunFuzzCase(MakeCase(rng, kind), rng, &host_ran)) ++compiled;
  }
  std::printf("%d of %d cases compiled, %d ran on the host\n", compiled,
              cases, host_ran);
  // Guard against generator rot: the bulk of generated programs must
  // compile, or the sweep is fuzzing nothing; and most of them must reach
  // the host executor, or its leg checks nothing.
  EXPECT_GE(compiled * 10, cases * 6)
      << compiled << " of " << cases << " cases compiled";
  EXPECT_GE(host_ran * 2, compiled)
      << host_ran << " of " << compiled << " cases ran on the host";
}

}  // namespace
}  // namespace hipacc
