// Source-to-source compiler driver: kernel source + metadata in, compiled
// artifact out. The artifact bundles the lowered IR (what the simulated
// device executes), the emitted CUDA/OpenCL source text (what the paper's
// compiler writes to disk), the resource estimate (the nvcc stand-in), and
// the launch configuration chosen by Algorithm 2 — or forced by the caller,
// as the evaluation tables do with 128x1.
//
// Internally the driver is a thin orchestrator over the pass pipeline
// (compiler/pass.hpp): parse -> lower -> estimate -> select_config -> emit,
// each pass reporting diagnostics and timing into the CompilationContext.
// When CompileOptions::cache is set, compilation is memoised at two levels
// (compiler/cache.hpp): the target-independent frontend artifacts and the
// fully configured CompiledKernel.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "codegen/emit.hpp"
#include "codegen/options.hpp"
#include "compiler/fusion.hpp"
#include "compiler/profile.hpp"
#include "frontend/parser.hpp"
#include "hwmodel/device_db.hpp"
#include "hwmodel/heuristic.hpp"

namespace hipacc::sim {
class TraceSink;
struct ProgramSet;
}  // namespace hipacc::sim

namespace hipacc::compiler {

class CompilationCache;
struct PassTiming;

struct CompileOptions {
  codegen::CodegenOptions codegen;
  hw::DeviceSpec device = hw::TeslaC2050();
  /// Image extent the kernel will run on; used by the configuration
  /// heuristic and baked into the emitted source's region constants.
  int image_width = 0;
  int image_height = 0;
  /// Skip Algorithm 2 and use this configuration (evaluation tables).
  std::optional<hw::KernelConfig> forced_config;
  /// Optional observability sink: per-pass compile durations (parse, lower,
  /// estimate, select_config, emit) are recorded as spans, cache lookups as
  /// instant events and aggregate counters.
  sim::TraceSink* trace = nullptr;
  /// Optional content-addressed memoisation of compilation results, keyed
  /// by (kernel-source fingerprint, codegen options, device, image extent).
  /// Null compiles from scratch every time.
  CompilationCache* cache = nullptr;
  /// Optional measured-timing history (compiler/profile.hpp): select_config
  /// prefers a trustworthy measured winner over the Algorithm-2/PPT
  /// heuristic, re-lowering at the winner's pixels-per-thread if needed.
  /// forced_config always wins over profiles; with no (fresh) history the
  /// compile is bit-identical to a profile-less one.
  ProfileStore* profiles = nullptr;
  ProfilePolicy profile_policy;
  /// When set, the per-pass wall-clock timings of every executed pipeline
  /// are appended here (the CLI's --print-pass-timings).
  std::vector<PassTiming>* pass_timings = nullptr;
  /// When non-empty, the driver prints the pipeline state to stderr after
  /// the named pass finishes (the CLI's --dump-after; see
  /// DefaultPassNames() for the vocabulary).
  std::string dump_after;
  /// Point-wise consumers to inline into this kernel before parsing (the
  /// "fuse" pass; see compiler/fusion.hpp for the legality rule). The
  /// driver fingerprints the *fused* source, so cache entries of fused and
  /// unfused variants never alias. Ignored by Retarget — its input artifact
  /// is already fused.
  std::vector<FusionRequest> fusion;
};

struct CompiledKernel {
  ast::KernelDecl decl;
  ast::DeviceKernel device_ir;
  std::string source;  ///< emitted CUDA or OpenCL kernel text
  hw::KernelResources resources;
  hw::HeuristicChoice config;  ///< selected (or forced) configuration
  /// Simulator bytecode compiled from device_ir by the "bytecode" pass.
  /// Shared: artifact copies (compilation-cache entries, exploration lanes)
  /// all reference the same programs. Never null on a compiled kernel.
  std::shared_ptr<const sim::ProgramSet> bytecode;

  /// Provenance: the codegen options the IR was lowered with. Retarget
  /// skips re-lowering when they match the requested options.
  codegen::CodegenOptions codegen;
  /// Canonical serialisation of the kernel source this artifact came from
  /// (cache key material; empty for hand-built artifacts) and its hash.
  std::string source_fingerprint;
  std::uint64_t source_hash = 0;
};

/// Runs the full pipeline: parse -> lower -> estimate -> select config ->
/// emit. Errors propagate from any stage (parse errors, unsupported
/// backend/mode combinations, resource exhaustion).
Result<CompiledKernel> Compile(const frontend::KernelSource& source,
                               const CompileOptions& options);

/// Re-selects the launch configuration of an already-compiled kernel for a
/// (possibly different) device and image size, re-emitting the source. When
/// the codegen options match the kernel's provenance, the lowered IR and
/// resource estimate are reused instead of being recomputed.
Result<CompiledKernel> Retarget(const CompiledKernel& kernel,
                                const CompileOptions& options);

}  // namespace hipacc::compiler
