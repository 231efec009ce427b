#include "compiler/cache.hpp"

#include <cstdio>

#include "sim/trace.hpp"
#include "support/hash.hpp"
#include "support/string_utils.hpp"

namespace hipacc::compiler {
namespace {

CacheKey KeyFromCanonical(std::string canonical) {
  support::Fnv1a hasher;
  hasher.Mix(canonical);
  return CacheKey{hasher.digest(), std::move(canonical)};
}

template <typename V, typename Store>
std::optional<V> Lookup(const Store& store, const CacheKey& key) {
  const auto bucket = store.find(key.hash);
  if (bucket == store.end()) return std::nullopt;
  for (const auto& entry : bucket->second)
    if (entry.canonical == key.canonical) return entry.value;
  return std::nullopt;
}

template <typename V, typename Store>
void Insert(Store& store, const CacheKey& key, V value) {
  auto& bucket = store[key.hash];
  for (auto& entry : bucket) {
    if (entry.canonical == key.canonical) {
      entry.value = std::move(value);
      return;
    }
  }
  bucket.push_back({key.canonical, std::move(value)});
}

}  // namespace

std::string CacheKey::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

std::string SourceFingerprint(const frontend::KernelSource& source) {
  std::string out = "kernel=" + source.name;
  out += ";params=[";
  for (const ast::ParamInfo& p : source.params)
    out += StrFormat("%s:%d,", p.name.c_str(), static_cast<int>(p.type));
  out += "];accessors=[";
  for (const ast::AccessorInfo& a : source.accessors)
    out += StrFormat("%s:%dx%d:%s:%g,", a.name.c_str(), a.window.half_x,
                     a.window.half_y, to_string(a.boundary),
                     static_cast<double>(a.constant_value));
  out += "];masks=[";
  for (const ast::MaskInfo& m : source.masks) {
    out += StrFormat("%s:%dx%d:(", m.name.c_str(), m.size_x, m.size_y);
    for (const float v : m.static_values)
      out += StrFormat("%g,", static_cast<double>(v));
    out += "),";
  }
  out += "];body=" + source.body;
  return out;
}

std::string OptionsFingerprint(const codegen::CodegenOptions& options) {
  // pixels_per_thread is key material: the lowered IR bakes the PPT loop
  // in, so compiles differing only in ppt must never share an entry.
  return StrFormat(
      "backend=%s;tex=%d;border=%d;smem=%d;constmask=%d;scalaropt=%d;"
      "vliw=%d;ppt=%d",
      to_string(options.backend), static_cast<int>(options.texture),
      static_cast<int>(options.border), options.use_scratchpad ? 1 : 0,
      options.masks_in_constant_memory ? 1 : 0,
      options.scalar_optimizer ? 1 : 0, options.vectorize_vliw ? 1 : 0,
      options.pixels_per_thread);
}

std::uint64_t SourceHash(const std::string& source_fingerprint) {
  support::Fnv1a hasher;
  hasher.Mix(source_fingerprint);
  return hasher.digest();
}

CacheKey MakeFrontendKey(const frontend::KernelSource& source,
                         const codegen::CodegenOptions& options) {
  return MakeFrontendKeyFromFingerprint(SourceFingerprint(source), options);
}

CacheKey MakeFrontendKeyFromFingerprint(
    const std::string& source_fingerprint,
    const codegen::CodegenOptions& options) {
  return KeyFromCanonical(source_fingerprint + "|" +
                          OptionsFingerprint(options));
}

std::string DeviceIdentity(const hw::DeviceSpec& device) {
  return StrFormat("%s:%d:%d:%d:%d:%d:%d:%d:%d:%d", device.name.c_str(),
                   device.compute_capability, device.simd_width,
                   device.max_threads_per_block, device.max_threads_per_sm,
                   device.max_blocks_per_sm, device.regs_per_sm,
                   device.reg_alloc_granularity, device.smem_per_sm,
                   device.smem_alloc_granularity);
}

CacheKey MakeTargetKey(const CacheKey& frontend_key,
                       const hw::DeviceSpec& device, int image_width,
                       int image_height,
                       const std::optional<hw::KernelConfig>& forced_config) {
  std::string canonical = frontend_key.canonical + "|device=" +
                          DeviceIdentity(device) +
                          StrFormat("|extent=%dx%d", image_width, image_height);
  if (forced_config)
    canonical +=
        StrFormat("|forced=%dx%d", forced_config->block_x,
                  forced_config->block_y);
  else
    canonical += "|forced=auto";
  return KeyFromCanonical(std::move(canonical));
}

std::optional<FrontendArtifacts> CompilationCache::LookupFrontend(
    const CacheKey& key, sim::TraceSink* trace) {
  std::optional<FrontendArtifacts> hit;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    hit = Lookup<FrontendArtifacts>(frontend_, key);
    (hit ? stats_.frontend_hits : stats_.frontend_misses)++;
  }
  if (trace != nullptr)
    trace->RecordCacheAccess("frontend", hit.has_value(), key.hex());
  return hit;
}

std::optional<CompiledKernel> CompilationCache::LookupTarget(
    const CacheKey& key, sim::TraceSink* trace) {
  std::optional<CompiledKernel> hit;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    hit = Lookup<CompiledKernel>(target_, key);
    (hit ? stats_.target_hits : stats_.target_misses)++;
  }
  if (trace != nullptr)
    trace->RecordCacheAccess("target", hit.has_value(), key.hex());
  return hit;
}

void CompilationCache::StoreFrontend(const CacheKey& key,
                                     FrontendArtifacts value) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Insert(frontend_, key, std::move(value));
}

void CompilationCache::StoreTarget(const CacheKey& key, CompiledKernel value) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Insert(target_, key, std::move(value));
}

CompilationCache::Stats CompilationCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t CompilationCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const auto& [hash, bucket] : frontend_) n += bucket.size();
  for (const auto& [hash, bucket] : target_) n += bucket.size();
  return n;
}

void CompilationCache::Clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  frontend_.clear();
  target_.clear();
  stats_ = Stats{};
}

CompilationCache& GlobalCompilationCache() {
  static CompilationCache* cache = new CompilationCache();
  return *cache;
}

}  // namespace hipacc::compiler
