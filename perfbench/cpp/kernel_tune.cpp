// kernel_tune: the compiler's two user-facing loops, with no runtime work.
//
//  1. Cold compiler::Compile (no cache) of a corpus, repeated in whole
//     passes: every ops factory that has a DSL functional reference
//     (bilateral with and without mask, Gaussian 5x5, Sobel 3x3, erode 5x5,
//     in all 5 boundary modes; scale-offset, a point operator), plus
//     examples/kernels/*.hipacc, for every device of hw::DeviceDatabase()
//     and both backends.
//  2. compiler::ExploreConfigurations with 4 jobs over every Clamp variant at
//     1024x1024, on Tesla C2050 / CUDA (Figure 4's device) and Radeon HD
//     5870 / OpenCL.
//
// Set-up is the cold compile of the swept kernels, repeated once per round
// so that, like the two loops, it samples the whole run; the corpus and the
// sweep images are made once, outside it.
//
// Correctness: every compile must succeed, and each swept kernel's
// heuristic configuration, run on the simulator at kCheckSize, must match
// its ops/dsl_ops.hpp class within kTolerance.
#include <algorithm>
#include <filesystem>
#include <memory>

#include "compiler/cache.hpp"
#include "compiler/driver.hpp"
#include "compiler/executable.hpp"
#include "compiler/explore.hpp"
#include "compiler/kernel_file.hpp"
#include "compiler/pass.hpp"
#include "hwmodel/device_db.hpp"
#include "image/synthetic.hpp"
#include "ops/dsl_ops.hpp"
#include "ops/kernel_sources.hpp"
#include "ops/masks.hpp"
#include "sim/bytecode.hpp"
#include "stats.hpp"
#include "trace_out.hpp"

namespace perfbench {
namespace {

using hipacc::HostImage;
using hipacc::ast::BoundaryMode;
namespace compiler = hipacc::compiler;
namespace ops = hipacc::ops;

constexpr int kSweepSize = 1024;
constexpr int kCheckSize = 96;
constexpr int kSweepJobs = 4;
constexpr int kSigmaD = 1;  // 5x5 bilateral window
constexpr int kSigmaR = 4;
constexpr float kGaussSigma = 1.0f;
constexpr float kScale = 1.5f, kOffset = -0.25f;
constexpr std::size_t kMinCompiles = 2500;
constexpr double kTailP = 99.0;
constexpr double kTolerance = 1e-6;

enum class Op { kBilateral, kBilateralMask, kGaussian, kSobel, kErode,
                kScaleOffset, kFile };

struct CorpusKernel {
  Op op;
  hipacc::frontend::KernelSource source;
};

struct Target {
  hipacc::hw::DeviceSpec device;
  hipacc::ast::Backend backend;
};

std::vector<CorpusKernel> FactoryKernels(BoundaryMode mode) {
  return {{Op::kBilateral, ops::BilateralSource(kSigmaD, mode)},
          {Op::kBilateralMask, ops::BilateralMaskSource(kSigmaD, mode)},
          {Op::kGaussian, ops::GaussianSource(5, kGaussSigma, mode)},
          {Op::kSobel, ops::ConvolutionSource("sobel3", 3, 3,
                                              ops::SobelMaskX(), mode)},
          {Op::kErode, ops::ErodeSource(5, mode)}};
}

/// The compile corpus in a fixed order (files sorted by name).
std::vector<CorpusKernel> BuildCorpus(const RunArgs& args, Record* record) {
  std::vector<CorpusKernel> corpus;
  for (const BoundaryMode mode :
       {BoundaryMode::kUndefined, BoundaryMode::kClamp, BoundaryMode::kRepeat,
        BoundaryMode::kMirror, BoundaryMode::kConstant})
    for (CorpusKernel& k : FactoryKernels(mode)) corpus.push_back(std::move(k));
  corpus.push_back({Op::kScaleOffset, ops::ScaleOffsetSource()});
  std::vector<std::string> files;
  const std::filesystem::path dir =
      std::filesystem::path(args.repo_root) / "examples" / "kernels";
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec))
    if (entry.path().extension() == ".hipacc") files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  record->Check(!ec && !files.empty(),
                "no .hipacc kernels under " + dir.string());
  for (const std::string& file : files) {
    hipacc::Result<hipacc::frontend::KernelSource> src =
        compiler::LoadKernelFile(file);
    Require(record, src.status(), "LoadKernelFile");
    corpus.push_back({Op::kFile, src.value()});
  }
  return corpus;
}

std::vector<Target> CompileTargets() {
  std::vector<Target> targets;
  for (const hipacc::hw::DeviceSpec& device : hipacc::hw::DeviceDatabase())
    for (const hipacc::ast::Backend backend :
         {hipacc::ast::Backend::kCuda, hipacc::ast::Backend::kOpenCL})
      targets.push_back({device, backend});
  return targets;
}

compiler::CompileOptions OptionsFor(const Target& target, int size) {
  compiler::CompileOptions options;
  options.codegen.backend = target.backend;
  options.device = target.device;
  options.image_width = size;
  options.image_height = size;
  return options;
}

void BindScalars(Op op, hipacc::runtime::BindingSet* bindings) {
  if (op == Op::kBilateral || op == Op::kBilateralMask)
    bindings->Scalar("sigma_d", kSigmaD).Scalar("sigma_r", kSigmaR);
  if (op == Op::kScaleOffset)
    bindings->Scalar("scale", kScale).Scalar("offset", kOffset);
}

/// Output of the kernel's ops/dsl_ops.hpp class on the host (Clamp).
HostImage<float> DslReference(Op op, const HostImage<float>& input) {
  using namespace hipacc::dsl;
  Image<float> in(input.width(), input.height());
  Image<float> out(input.width(), input.height());
  in.CopyFrom(input);
  const int window = op == Op::kBilateral || op == Op::kBilateralMask
                         ? 4 * kSigmaD + 1
                         : op == Op::kSobel ? 3 : op == Op::kScaleOffset ? 1 : 5;
  BoundaryCondition<float> bc(in, window, window, BoundaryMode::kClamp);
  Accessor<float> acc(bc);
  Accessor<float> point(in);
  IterationSpace<float> is(out);
  Mask<float> mask(window, window);
  const Domain domain(window, window);
  std::unique_ptr<Kernel<float>> kernel;
  switch (op) {
    case Op::kBilateral:
      kernel = std::make_unique<ops::BilateralFilter>(is, acc, kSigmaD, kSigmaR);
      break;
    case Op::kBilateralMask:
      mask = ops::BilateralClosenessMask(kSigmaD);
      kernel = std::make_unique<ops::BilateralFilterMask>(is, acc, mask,
                                                          kSigmaD, kSigmaR);
      break;
    case Op::kGaussian:
      mask = ops::GaussianMask2D(5, kGaussSigma);
      kernel = std::make_unique<ops::Convolution>(is, acc, mask);
      break;
    case Op::kSobel:
      mask = ops::SobelMaskX();
      kernel = std::make_unique<ops::Convolution>(is, acc, mask);
      break;
    case Op::kErode:
      kernel = std::make_unique<ops::Morphology>(is, acc, domain,
                                                 ops::Morphology::Op::kErode);
      break;
    case Op::kScaleOffset:
      kernel = std::make_unique<ops::ScaleOffset>(is, point, kScale, kOffset);
      break;
    case Op::kFile:
      break;
  }
  kernel->execute();
  return out.getData();
}

/// One kernel the sweep explores: compiled at kSweepSize for its target.
struct SweepKernel {
  Op op;
  hipacc::frontend::KernelSource source;
  Target target;
  compiler::CompiledKernel compiled;
};

/// Everything the timed rounds read. The corpus and the sweep images are
/// made once; `sweep` is what set-up produces (CompileSweep).
struct Setup {
  explicit Setup(std::vector<CorpusKernel> kernels)
      : corpus(std::move(kernels)) {}

  std::vector<CorpusKernel> corpus;
  hipacc::dsl::Image<float> in{kSweepSize, kSweepSize};
  hipacc::dsl::Image<float> out{kSweepSize, kSweepSize};
  std::vector<SweepKernel> sweep;
};

/// Set-up, what a tuner pays before its first sweep: cold compile of every
/// swept kernel (the Clamp variants on both sweep targets) at kSweepSize
/// through a fresh cache, which `trace` (may be null) sees.
std::vector<SweepKernel> CompileSweep(Record* record,
                                      hipacc::sim::TraceSink* trace) {
  compiler::CompilationCache cache;
  cache.set_disk_store(nullptr);
  const Target targets[] = {
      {hipacc::hw::TeslaC2050(), hipacc::ast::Backend::kCuda},
      {hipacc::hw::RadeonHd5870(), hipacc::ast::Backend::kOpenCL}};
  std::vector<SweepKernel> sweep;
  for (const Target& target : targets) {
    std::vector<CorpusKernel> variants = FactoryKernels(BoundaryMode::kClamp);
    variants.push_back({Op::kScaleOffset, ops::ScaleOffsetSource()});
    for (const CorpusKernel& k : variants) {
      compiler::CompileOptions options = OptionsFor(target, kSweepSize);
      options.cache = &cache;
      options.trace = trace;
      hipacc::Result<compiler::CompiledKernel> compiled =
          compiler::Compile(k.source, options);
      Require(record, compiled.status(), "sweep kernel compile");
      sweep.push_back({k.op, k.source, target, compiled.value()});
    }
  }
  return sweep;
}

/// What the measured rounds observed.
struct Measured {
  std::vector<double> setup_s;
  std::vector<double> compile_ms;
  Usage compile_usage;          ///< getrusage growth over the corpus passes
  double emitted_bytes = -1.0;  ///< per corpus pass
  double instructions = -1.0;   ///< per corpus pass
  double configs = 0.0;
  double sweep_ms = 0.0;
  std::vector<double> pick_ms;        ///< heuristic pick's modelled ms
  std::vector<double> pick_over_opt;  ///< pick ms / sweep optimum ms
  bool first_set = true;
};

/// One set-up (CompileSweep), timed from outside, inside a "bench.setup"
/// span when tracing.
void SetupOnce(Setup& setup, Record* record, hipacc::sim::TraceSink* trace,
               Measured* m) {
  hipacc::sim::TraceSpan span(trace, "bench.setup", "bench");
  const Clock::time_point start = Clock::now();
  setup.sweep = CompileSweep(record, trace);
  m->setup_s.push_back(MsBetween(start, Clock::now()) / 1e3);
}

/// One pass of cold compiles over the whole corpus and every target. Each
/// Compile is timed from outside, inside a "bench.compile" span when
/// tracing.
void CorpusPass(const Setup& setup, Record* record, hipacc::sim::TraceSink* trace,
                std::vector<compiler::PassTiming>* pass_timings, Measured* m) {
  const Usage before = ReadUsage();
  double emitted = 0.0, instructions = 0.0;
  for (const CorpusKernel& k : setup.corpus)
    for (const Target& target : CompileTargets()) {
      compiler::CompileOptions options = OptionsFor(target, kSweepSize);
      options.trace = trace;
      options.pass_timings = pass_timings;
      const double span_start = trace ? trace->NowMs() : 0.0;
      const Clock::time_point start = Clock::now();
      hipacc::Result<compiler::CompiledKernel> compiled =
          compiler::Compile(k.source, options);
      m->compile_ms.push_back(MsBetween(start, Clock::now()));
      if (trace) {
        hipacc::support::Json a = hipacc::support::Json::Object();
        a["compile"] = static_cast<long long>(m->compile_ms.size() - 1);
        trace->AddSpan("bench.compile", "bench", span_start,
                       trace->NowMs() - span_start, std::move(a));
      }
      record->Check(compiled.ok(), k.source.name + " on " +
                                       target.device.name + ": " +
                                       compiled.status().ToString());
      if (!compiled.ok()) continue;
      emitted += static_cast<double>(compiled.value().source.size());
      if (compiled.value().bytecode)
        instructions += static_cast<double>(
            compiled.value().bytecode->total_instructions);
    }
  const Usage delta = UsageDelta(before, ReadUsage());
  m->compile_usage.voluntary_ctx += delta.voluntary_ctx;
  m->compile_usage.involuntary_ctx += delta.involuntary_ctx;
  // Cold compiles are deterministic: every pass emits the same code.
  if (m->emitted_bytes < 0.0) {
    m->emitted_bytes = emitted;
    m->instructions = instructions;
  }
  record->Check(emitted == m->emitted_bytes && instructions == m->instructions,
                "a corpus pass emitted different code than the first");
}

/// Sweeps every sweep kernel once with 4 jobs.
void SweepSet(Setup& setup, Record* record, hipacc::sim::TraceSink* trace,
              Measured* m) {
  std::vector<double> pick_ms, ratios;
  for (const SweepKernel& k : setup.sweep) {
    hipacc::runtime::BindingSet bindings;
    bindings.Input("Input", setup.in).Output(setup.out);
    BindScalars(k.op, &bindings);
    compiler::ExploreOptions options;
    options.jobs = kSweepJobs;
    options.trace = trace;
    const double span_start = trace ? trace->NowMs() : 0.0;
    const Clock::time_point start = Clock::now();
    hipacc::Result<std::vector<compiler::ExplorePoint>> points =
        compiler::ExploreConfigurations(k.compiled, k.target.device, bindings,
                                        options);
    m->sweep_ms += MsBetween(start, Clock::now());
    if (trace)
      trace->AddSpan("bench.sweep", "bench", span_start,
                     trace->NowMs() - span_start);
    Require(record, points.status(), "ExploreConfigurations");
    m->configs += static_cast<double>(points.value().size());
    const compiler::ExplorePoint* best = nullptr;
    const compiler::ExplorePoint* pick = nullptr;
    for (const compiler::ExplorePoint& p : points.value()) {
      if (best == nullptr || p.ms < best->ms) best = &p;
      if (p.config == k.compiled.config.config) pick = &p;
    }
    record->Check(best != nullptr && pick != nullptr && best->ms > 0.0,
                  k.compiled.decl.name + " on " + k.target.device.name +
                      ": heuristic configuration missing from the sweep");
    if (best == nullptr || pick == nullptr || !(best->ms > 0.0)) continue;
    pick_ms.push_back(pick->ms);
    ratios.push_back(pick->ms / best->ms);
  }
  // Modelled times are deterministic: every set must agree with the first.
  if (m->first_set) {
    m->pick_ms = pick_ms;
    m->pick_over_opt = ratios;
    m->first_set = false;
  }
  record->Check(pick_ms == m->pick_ms && ratios == m->pick_over_opt,
                "a sweep set modelled different times than the first");
}

/// Rounds of one set-up, one corpus pass and one sweep set until `seconds`
/// passed and kMinCompiles compiles ran, so all three sample the whole run's
/// machine conditions rather than one contiguous slice each.
Measured RunRounds(Setup& setup, double seconds, Record* record,
                   hipacc::sim::TraceSink* trace,
                   std::vector<compiler::PassTiming>* pass_timings) {
  Measured m;
  const Clock::time_point t0 = Clock::now();
  do {
    SetupOnce(setup, record, trace, &m);
    CorpusPass(setup, record, trace, pass_timings, &m);
    SweepSet(setup, record, trace, &m);
  } while (MsBetween(t0, Clock::now()) < seconds * 1e3 ||
           m.compile_ms.size() < kMinCompiles);
  return m;
}

/// Runs each sweep kernel's heuristic pick on the simulator at kCheckSize
/// and compares it with the DSL class.
void CheckPicks(const RunArgs& args, const Setup& setup, Record* record) {
  const HostImage<float> input =
      hipacc::MakeNoiseImage(kCheckSize, kCheckSize, InputSeed(args.seed, 11));
  for (const SweepKernel& k : setup.sweep) {
    HostImage<float> expected = DslReference(k.op, input);
    if (args.corrupt_reference) expected.data()[kCheckSize + 3] += 0.5f;
    compiler::CompileOptions options = OptionsFor(k.target, kCheckSize);
    options.forced_config = k.compiled.config.config;
    hipacc::Result<compiler::CompiledKernel> compiled =
        compiler::Compile(k.source, options);
    Require(record, compiled.status(), "check compile");
    hipacc::dsl::Image<float> in(kCheckSize, kCheckSize), out(kCheckSize, kCheckSize);
    in.CopyFrom(input);
    hipacc::runtime::BindingSet bindings;
    bindings.Input("Input", in).Output(out);
    BindScalars(k.op, &bindings);
    compiler::SimulatedExecutable exe(compiled.value(), k.target.device);
    Require(record, exe.Run(bindings).status(), "simulated run");
    const HostImage<float> got = out.getData();
    const double diff = MaxAbsDiff(
        std::vector<float>(got.data(), got.data() + got.size()),
        std::vector<float>(expected.data(), expected.data() + expected.size()));
    record->Check(diff <= kTolerance,
                  k.compiled.decl.name + " on " + k.target.device.name +
                      ": heuristic pick is " + std::to_string(diff) +
                      " off its DSL class");
  }
}

void AddExact(Record* record, const std::string& name, double value,
              const std::string& unit) {
  Metric m;
  m.name = name;
  m.value = value;
  m.unit = unit;
  m.kind = Kind::kExact;
  record->Add(std::move(m));
}

}  // namespace

void RunKernelTune(const RunArgs& args, Record* record) {
  Setup setup(BuildCorpus(args, record));
  setup.in.CopyFrom(hipacc::MakeNoiseImage(kSweepSize, kSweepSize,
                                           InputSeed(args.seed, 7)));
  setup.sweep = CompileSweep(record, nullptr);
  CheckPicks(args, setup, record);

  const double measure_s = args.trace ? args.seconds / 2.0 : args.seconds;
  const Measured m = RunRounds(setup, measure_s, record, nullptr, nullptr);
  const double configs_per_s = m.configs / (m.sweep_ms / 1e3);

  AddEndToEnd(record, "throughput_per_s", configs_per_s, "1/s",
              "configs_per_s", static_cast<long long>(m.configs));
  AddLatency(record, m.compile_ms, kTailP, "compile_ms_p50", "compile_ms_p99");
  AddEndToEnd(record, "setup_s", Median(m.setup_s), "s", "",
              static_cast<long long>(m.setup_s.size()));
  if (!m.pick_over_opt.empty()) {
    AddExact(record, "modelled_gap_pct",
             100.0 * (Geomean(m.pick_over_opt) - 1.0), "%");
    AddExact(record, "modelled_ms_geomean", Geomean(m.pick_ms), "ms");
  }
  AddExact(record, "corpus_compiles_per_pass",
           static_cast<double>(setup.corpus.size() * CompileTargets().size()),
           "count");
  AddExact(record, "swept_kernels", static_cast<double>(setup.sweep.size()),
           "count");
  if (!args.trace) return;

  LayerValues layers(args.repo_root + "/BENCHMARK.json");
  layers.Set("runtime.ctx_switches_per_op",
             static_cast<double>(m.compile_usage.context_switches()) /
                 static_cast<double>(m.compile_ms.size()));
  layers.SetExact("codegen.emitted_kb", m.emitted_bytes / 1024.0);
  layers.SetExact("sim.bytecode_instrs", m.instructions);

  hipacc::sim::TraceSink sink;
  std::vector<compiler::PassTiming> timings;
  const Measured traced =
      RunRounds(setup, args.seconds / 2.0, record, &sink, &timings);
  // Only the set-ups compile through a cache.
  layers.SetExact("compiler.cache.hit_ratio",
                  HitRatio(CacheCounters{}, ReadCacheCounters(sink)));
  std::map<std::string, std::vector<double>> ms_by_pass;
  for (const compiler::PassTiming& t : timings) ms_by_pass[t.pass].push_back(t.ms);
  SetPassP50(&layers, ms_by_pass);

  const Ledger ledger = Ledger::FromTraceJson(sink.ToJson());
  double candidates = 0.0, pruned = 0.0;
  std::vector<double> measure_ms;
  for (const Span& span : ledger.spans()) {
    if (span.category == "explore" && span.args.is_object()) {
      candidates += span.args.Find("candidates")->number_value();
      pruned += span.args.Find("pruned")->number_value();
    } else if (span.category == "sim" && span.name.rfind("launch ", 0) == 0) {
      measure_ms.push_back(span.dur_ms);
    }
  }
  layers.SetExact("hwmodel.pruned_frac",
                  candidates > 0.0 ? pruned / candidates : 0.0);
  layers.Set("sim.measure_ms_p50", measure_ms.empty() ? 0.0 : Median(measure_ms));
  const double traced_configs_per_s = traced.configs / (traced.sweep_ms / 1e3);
  layers.Set("trace_overhead_pct",
             100.0 * (configs_per_s / traced_configs_per_s - 1.0));
  WriteTraceArtifacts(args, sink, ledger, record);
  layers.EmitInto(record);
}

}  // namespace perfbench
