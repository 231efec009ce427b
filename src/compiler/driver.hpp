// Source-to-source compiler driver: kernel source + metadata in, compiled
// artifact out. The artifact bundles the lowered IR (what the simulated
// device executes), the emitted CUDA/OpenCL source text (what the paper's
// compiler writes to disk), the resource estimate (the nvcc stand-in), the
// launch configuration chosen by Algorithm 2 — or forced by the caller, as
// the evaluation tables do with 128x1 — and the simulator's register
// programs.
//
// Compile is the driver's only entry point. It runs the fixed pass list
// (compiler/pass.hpp): parse -> lower -> estimate -> select_config -> emit
// -> bytecode, each pass reporting diagnostics and timing into the
// CompilationContext. When CompileOptions::cache is set, compilation is
// memoised at two levels (compiler/cache.hpp): a target hit returns the
// cached CompiledKernel, and a frontend hit (the same source and codegen
// options for another device, extent or forced configuration) starts the
// pipeline at select_config.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "codegen/emit.hpp"
#include "codegen/options.hpp"
#include "frontend/parser.hpp"
#include "hwmodel/device_db.hpp"
#include "hwmodel/heuristic.hpp"

namespace hipacc::sim {
class TraceSink;
struct ProgramSet;
}  // namespace hipacc::sim

namespace hipacc::compiler {

class CompilationCache;
class ProfileStore;
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
  /// estimate, select_config, emit, bytecode) are recorded as spans, cache
  /// lookups as instant events and aggregate counters.
  sim::TraceSink* trace = nullptr;
  /// Optional content-addressed memoisation of compilation results, keyed
  /// by (kernel-source fingerprint, codegen options, device, image extent).
  /// Null compiles from scratch every time.
  CompilationCache* cache = nullptr;
  /// Optional sweep records (compiler/profile.hpp): the record's fastest
  /// entry compiles as forced_config at that entry's pixels_per_thread, in
  /// place of the Algorithm-2/PPT heuristic. An explicit pixels_per_thread
  /// pins the pick to that PPT, and forced_config always wins over it; with
  /// no pick the compile is bit-identical to a profile-less one.
  ProfileStore* profiles = nullptr;
  /// When set, the per-pass wall-clock timings of every executed pipeline
  /// are appended here (the CLI's --print-pass-timings).
  std::vector<PassTiming>* pass_timings = nullptr;
  /// When non-empty, the driver prints the pipeline state to stderr after
  /// the named pass finishes (the CLI's --dump-after; see
  /// DefaultPassNames() for the vocabulary).
  std::string dump_after;
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

  /// Provenance: the codegen options the IR was lowered with.
  codegen::CodegenOptions codegen;
  /// Canonical serialisation of the kernel source this artifact came from
  /// (cache key material; empty for hand-built artifacts) and its hash.
  std::string source_fingerprint;
  std::uint64_t source_hash = 0;
};

/// Compiles `source` for the options' device, extent and codegen options:
/// parse -> lower -> estimate -> select_config -> emit -> bytecode, from
/// select_config on a frontend-cache hit, not at all on a target-cache hit.
/// Errors propagate from any pass (parse errors, unsupported backend/mode
/// combinations, resource exhaustion).
Result<CompiledKernel> Compile(const frontend::KernelSource& source,
                               const CompileOptions& options);

}  // namespace hipacc::compiler
