#include "support/disk_store.hpp"

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "support/atomic_file.hpp"
#include "support/hash.hpp"
#include "support/serial.hpp"
#include "support/string_utils.hpp"

namespace hipacc::support {
namespace {

constexpr char kMagic[4] = {'H', 'P', 'C', 'C'};

std::uint64_t PayloadChecksum(const std::string& payload) {
  return Fnv1a().Mix(payload).digest();
}

}  // namespace

DiskStore::DiskStore(DiskStoreOptions options) { Configure(std::move(options)); }

void DiskStore::Configure(DiskStoreOptions options) {
  std::lock_guard<std::mutex> lock(mutex_);
  options_ = std::move(options);
  schema_ = options_.schema_version_override != 0
                ? options_.schema_version_override
                : kDiskStoreSchemaVersion;
  version_root_ =
      options_.root.empty()
          ? std::string()
          : StrFormat("%s/v%u", options_.root.c_str(), schema_);
  stats_ = {};
}

bool DiskStore::enabled() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return !options_.root.empty();
}

std::string DiskStore::root() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return options_.root;
}

std::uint32_t DiskStore::schema_version() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return schema_;
}

std::string DiskStore::PathFor(const std::string& kind,
                               const std::string& canonical) const {
  return StrFormat("%s/%s/%s", version_root_.c_str(), kind.c_str(),
                   Fnv1a().Mix(canonical).hex().c_str());
}

std::string DiskStore::EncodeFrame(const std::string& kind,
                                   const std::string& canonical,
                                   const std::string& payload) const {
  BinaryWriter w;
  w.Str(std::string_view(kMagic, sizeof(kMagic)));
  w.U32(schema_);
  w.Str(kind);
  w.Str(canonical);
  w.Str(payload);
  w.U64(PayloadChecksum(payload));
  return w.Take();
}

std::optional<std::string> DiskStore::DecodeFrame(
    const std::string& frame, const std::string& kind,
    const std::string& canonical) const {
  BinaryReader r(frame);
  if (r.Str() != std::string_view(kMagic, sizeof(kMagic))) return std::nullopt;
  if (r.U32() != schema_) return std::nullopt;
  if (r.Str() != kind) return std::nullopt;
  // Full-string comparison: the filename hash is only an index, so a
  // colliding key decodes as a miss, never as someone else's artifact.
  if (r.Str() != canonical) return std::nullopt;
  std::string payload = r.Str();
  const std::uint64_t checksum = r.U64();
  if (!r.AtEnd() || checksum != PayloadChecksum(payload)) return std::nullopt;
  return payload;
}

std::optional<std::string> DiskStore::Get(const std::string& kind,
                                          const std::string& canonical) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (options_.root.empty()) return std::nullopt;
  const std::string path = PathFor(kind, canonical);
  std::optional<std::string> frame = ReadFileIfExists(path);
  if (!frame.has_value()) {
    ++stats_.misses;
    return std::nullopt;
  }
  std::optional<std::string> payload = DecodeFrame(*frame, kind, canonical);
  if (!payload.has_value()) {
    // Torn, truncated, or foreign frame: self-repair by unlinking so the
    // next Put rewrites it, and report a miss.
    RemoveFileQuiet(path);
    ++stats_.corrupt;
    ++stats_.misses;
    return std::nullopt;
  }
  TouchFile(path);
  ++stats_.hits;
  return payload;
}

bool DiskStore::Put(const std::string& kind, const std::string& canonical,
                    const std::string& payload) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (options_.root.empty()) return false;
  const std::string path = PathFor(kind, canonical);
  const std::string frame = EncodeFrame(kind, canonical, payload);
  // Dedup read: when several threads/processes race get-or-compile on one
  // key, the losers find the winner's identical frame and skip the write.
  if (std::optional<std::string> existing = ReadFileIfExists(path);
      existing.has_value() && *existing == frame) {
    ++stats_.dedup;
    return false;
  }
  if (!EnsureDirs(StrFormat("%s/%s", version_root_.c_str(), kind.c_str()))
           .ok())
    return false;
  if (!WriteFileAtomic(path, frame).ok()) return false;
  ++stats_.stores;
  EvictIfNeeded();
  return true;
}

void DiskStore::EvictIfNeeded() {
  if (options_.max_bytes == 0) return;
  std::vector<DirEntry> entries;
  std::uint64_t total = 0;
  for (const std::string& kind : ListSubdirs(version_root_)) {
    for (DirEntry& entry : ListDirFiles(version_root_ + "/" + kind)) {
      total += entry.size;
      entries.push_back(std::move(entry));
    }
  }
  if (total <= options_.max_bytes) return;
  std::sort(entries.begin(), entries.end(),
            [](const DirEntry& a, const DirEntry& b) {
              return a.mtime != b.mtime ? a.mtime < b.mtime : a.path < b.path;
            });
  for (const DirEntry& entry : entries) {
    if (total <= options_.max_bytes) break;
    RemoveFileQuiet(entry.path);
    total -= std::min(total, entry.size);
    ++stats_.evictions;
  }
}

DiskStoreStats DiskStore::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::string ResolveCacheDir(const std::string& spec) {
  if (spec == "off") return "";
  if (!spec.empty()) return spec;
  if (const char* env = std::getenv("HIPACC_CACHE_DIR")) {
    const std::string from_env = env;
    if (from_env == "off") return "";
    if (!from_env.empty()) return from_env;
  }
  return UserCacheDir("hipacc");
}

DiskStore& GlobalDiskStore() {
  // Intentionally leaked: cache stores may be consulted from static
  // destructors of other translation units.
  static DiskStore* store = new DiskStore();
  return *store;
}

void ConfigureGlobalDiskStore(DiskStoreOptions options) {
  GlobalDiskStore().Configure(std::move(options));
}

}  // namespace hipacc::support
