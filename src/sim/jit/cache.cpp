#include "sim/jit/cache.hpp"

#include "sim/bytecode.hpp"
#include "sim/jit/emit.hpp"
#include "sim/trace.hpp"
#include "support/disk_store.hpp"
#include "support/hash.hpp"
#include "support/log.hpp"
#include "support/string_utils.hpp"

namespace hipacc::sim::jit {

JitCache& JitCache::Instance() {
  static JitCache* cache = new JitCache();  // immortal: lanes may outlive main
  return *cache;
}

void JitCache::ResetForTesting() {
  const std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
  compiles_.store(0);
}

JitCache::Outcome JitCache::GetOrCompile(const ProgramSet& ps) {
  Outcome out;
  std::optional<EmittedSource> fused = EmitNativeSource(ps);
  if (!fused) return out;
  const EmittedSource& emitted = *fused;

  support::Fnv1a key;
  key.Mix(emitted.source);
  key.Mix(kJitAbiVersion);
  key.Mix(ToolchainIdentity());
  const std::uint64_t digest = key.digest();

  std::shared_ptr<Entry> entry;
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto& bucket = map_[digest];
    for (const auto& e : bucket)
      if (e->source == emitted.source) entry = e;
    if (!entry) {
      entry = std::make_shared<Entry>();
      entry->source = emitted.source;
      bucket.push_back(entry);
    } else {
      // In-flight deduplication: wait for the compiling thread.
      cv_.wait(lock, [&] { return entry->done; });
      out.program = entry->program;
      out.error = entry->error;
      return out;
    }
  }

  // Owner path: resolve outside the lock (toolchain runs take ~0.5 s).
  // The persistent tier is consulted first: a cached .so skips the
  // toolchain entirely and only pays a dlopen.
  const std::string tag = "hipacc_" + support::Fnv1a().Mix(digest).hex();
  // Canonical disk identity mirrors the in-memory key: full source text
  // plus ABI and toolchain identity, so neither an ABI bump nor a compiler
  // switch can ever reuse a stale object.
  const std::string canonical =
      StrFormat("abi=%d|toolchain=", kJitAbiVersion) +
      ToolchainIdentity() + "|" + emitted.source;
  support::DiskStore& disk = support::GlobalDiskStore();

  auto resolve = [&emitted](std::shared_ptr<NativeModule> module,
                            std::string* error)
      -> std::shared_ptr<const NativeProgram> {
    auto native = std::make_shared<NativeProgram>();
    native->module = std::move(module);
    for (const auto& si : emitted.symbols) {
      NativeProgram::Entry e;
      e.region = si.region;
      e.fn = reinterpret_cast<JitWarpFn>(
          native->module->Sym(si.symbol.c_str()));
      if (!e.fn) {
        *error = "missing jit symbol " + si.symbol;
        return nullptr;
      }
      native->fns.push_back(e);
    }
    return native;
  };

  std::shared_ptr<const NativeProgram> program;
  std::string error;
  if (disk.enabled()) {
    out.disk_checked = true;
    if (std::optional<std::string> so_bytes = disk.Get("jit", canonical)) {
      Result<std::shared_ptr<NativeModule>> module =
          OpenSharedObjectBytes(*so_bytes, tag);
      if (module.ok()) {
        program = resolve(module.value(), &error);
        out.disk_hit = program != nullptr;
        error.clear();  // a bad cached object falls through to a fresh build
      }
    }
  }

  if (!program) {
    out.compiled = true;
    std::string so_bytes;
    Result<std::shared_ptr<NativeModule>> module = CompileSharedObject(
        emitted.source, tag, disk.enabled() ? &so_bytes : nullptr);
    // Count actual toolchain invocations; a missing toolchain
    // (Unimplemented) never ran anything.
    if (module.ok() ||
        module.status().code() != StatusCode::kUnimplemented)
      compiles_.fetch_add(1);
    if (module.ok()) {
      program = resolve(module.value(), &error);
      if (program && !so_bytes.empty())
        out.disk_stored = disk.Put("jit", canonical, so_bytes);
    } else {
      error = module.status().ToString();
    }
  }

  {
    const std::lock_guard<std::mutex> lock(mu_);
    entry->done = true;
    entry->error = error;
    entry->program = program;
  }
  cv_.notify_all();
  out.program = std::move(program);
  out.error = std::move(error);
  return out;
}

const NativeProgram* AcquireNative(const ProgramSet& ps, TraceSink* trace) {
  TierState* ts = ps.jit_state.get();
  if (!ts) return nullptr;

  // Lock-free hot path once tiered up.
  if (const NativeProgram* fast = ts->fast.load(std::memory_order_acquire)) {
    if (trace) trace->IncrementCounter("jit.hit");
    return fast;
  }
  if (ts->phase.load(std::memory_order_relaxed) == 2) {
    if (trace) trace->IncrementCounter("jit.vm");
    return nullptr;
  }

  const std::lock_guard<std::mutex> lock(ts->mu);
  if (const NativeProgram* fast = ts->fast.load(std::memory_order_acquire)) {
    if (trace) trace->IncrementCounter("jit.hit");
    return fast;
  }
  if (ts->phase.load(std::memory_order_relaxed) == 2) {
    if (trace) trace->IncrementCounter("jit.vm");
    return nullptr;
  }

  JitCache::Outcome outcome = JitCache::Instance().GetOrCompile(ps);
  if (trace && outcome.disk_checked) {
    trace->IncrementCounter(outcome.disk_hit ? "cache.disk.hit"
                                             : "cache.disk.miss");
    if (outcome.disk_stored) trace->IncrementCounter("cache.disk.store");
  }
  if (!outcome.program) {
    // Latched either way. An empty error means the set does not fuse, which
    // is not a failure: the VM is simply its executor.
    ts->phase.store(2, std::memory_order_release);
    if (trace) trace->IncrementCounter("jit.vm");
    if (!outcome.error.empty()) {
      if (trace) trace->IncrementCounter("jit.error");
      LogWarn("native tier unavailable for " + ps.kernel_name + ": " +
              outcome.error + " — staying on the VM");
    }
    return nullptr;
  }
  ts->program = outcome.program;
  ts->phase.store(1, std::memory_order_release);
  ts->fast.store(ts->program.get(), std::memory_order_release);
  if (trace) {
    trace->IncrementCounter(outcome.compiled ? "jit.compile"
                                             : "jit.cache_hit");
    trace->IncrementCounter("jit.hit");
  }
  return ts->program.get();
}

}  // namespace hipacc::sim::jit
