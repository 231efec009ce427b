#include "compiler/profile.hpp"

#include <algorithm>
#include <cmath>

#include "compiler/cache.hpp"
#include "support/atomic_file.hpp"
#include "support/disk_store.hpp"
#include "support/json.hpp"
#include "support/string_utils.hpp"

namespace hipacc::compiler {
namespace {

/// Strict-weak entry ordering of the pick: faster first, then fewer
/// threads, then narrower block, then smaller ppt — fully deterministic
/// for equal timings.
bool BetterEntry(const ProfileEntry& a, const ProfileEntry& b) {
  if (a.ms != b.ms) return a.ms < b.ms;
  if (a.config.threads() != b.config.threads())
    return a.config.threads() < b.config.threads();
  if (a.config.block_x != b.config.block_x)
    return a.config.block_x < b.config.block_x;
  return a.ppt < b.ppt;
}

/// Reads member `name` of `object` as an integer in [lo, hi]. The range
/// is checked on the double, so junk never reaches an integer cast.
bool ReadInt(const support::Json& object, const char* name, int lo, int hi,
             int* out) {
  const support::Json* value = object.Find(name);
  if (value == nullptr || !value->is_number()) return false;
  const double number = value->number_value();
  if (!(number >= lo && number <= hi) || number != std::floor(number))
    return false;
  *out = static_cast<int>(number);
  return true;
}

}  // namespace

std::optional<ProfileEntry> DecideSelection(const ProfileRecord& record,
                                            int require_ppt) {
  const ProfileEntry* winner = nullptr;
  for (const ProfileEntry& entry : record.entries) {
    if (require_ppt > 0 && entry.ppt != require_ppt) continue;
    if (winner == nullptr || BetterEntry(entry, *winner)) winner = &entry;
  }
  if (winner == nullptr) return std::nullopt;
  return *winner;
}

std::string MakeProfileKey(const std::string& source_fingerprint,
                           const codegen::CodegenOptions& options,
                           const hw::DeviceSpec& device, int image_width,
                           int image_height) {
  // Normalise the PPT axis out of the options: the sweeps of every PPT
  // share one record, and every entry carries its own ppt.
  codegen::CodegenOptions normalized = options;
  normalized.pixels_per_thread = 0;
  return source_fingerprint + "|" + OptionsFingerprint(normalized) +
         "|device=" + DeviceIdentity(device) +
         StrFormat("|extent=%dx%d", image_width, image_height);
}

std::string ProfileSalt(const std::optional<ProfileEntry>& pick) {
  if (!pick) return "";
  return StrFormat("m:%dx%dx%d", pick->config.block_x, pick->config.block_y,
                   pick->ppt);
}

std::string EncodeProfileRecord(const ProfileRecord& record) {
  support::Json doc = support::Json::Object();
  doc["v"] = 2;
  support::Json entries = support::Json::Array();
  for (const ProfileEntry& entry : record.entries) {
    support::Json e = support::Json::Object();
    e["bx"] = entry.config.block_x;
    e["by"] = entry.config.block_y;
    e["ppt"] = entry.ppt;
    e["ms"] = entry.ms;
    entries.push_back(std::move(e));
  }
  doc["entries"] = std::move(entries);
  return doc.Dump();
}

bool DecodeProfileRecord(const std::string& payload, ProfileRecord* out) {
  // Block dimensions stay small enough that threads() cannot overflow;
  // whether a block fits the device is the occupancy check's business.
  constexpr int kMaxBlockDim = 1 << 15;
  constexpr int kMaxPpt = 32;  // the cap of every --ppt flag
  Result<support::Json> parsed = support::Json::Parse(payload);
  if (!parsed.ok()) return false;
  const support::Json& doc = parsed.value();
  int version = 0;
  if (!ReadInt(doc, "v", 2, 2, &version)) return false;
  const support::Json* entries = doc.Find("entries");
  if (entries == nullptr || !entries->is_array()) return false;
  ProfileRecord record;
  for (const support::Json& e : entries->elements()) {
    ProfileEntry entry;
    const support::Json* ms = e.Find("ms");
    if (!ReadInt(e, "bx", 1, kMaxBlockDim, &entry.config.block_x) ||
        !ReadInt(e, "by", 1, kMaxBlockDim, &entry.config.block_y) ||
        !ReadInt(e, "ppt", 1, kMaxPpt, &entry.ppt) || ms == nullptr ||
        !ms->is_number() || !std::isfinite(ms->number_value()) ||
        ms->number_value() < 0.0)
      return false;
    entry.ms = ms->number_value();
    record.entries.push_back(entry);
  }
  *out = std::move(record);
  return true;
}

ProfileStore::ProfileStore(support::DiskStore* disk) : disk_(disk) {}

bool ProfileStore::on_disk() const {
  return disk_ != nullptr && disk_->enabled();
}

void ProfileStore::Record(const std::string& key, const ProfileEntry& best) {
  std::lock_guard<std::mutex> lock(mutex_);
  ProfileRecord& record = records_[key];
  // Read–replace–write under an advisory lock: re-reading the disk side
  // keeps the entries another process recorded for other PPTs. Losing the
  // lock race degrades to last-writer-wins, which may drop such an entry
  // but never corrupts (writes stay atomic).
  std::optional<support::FileLock> file_lock;
  if (on_disk()) {
    file_lock.emplace(disk_->root() + "/profile.lock");
    if (std::optional<std::string> payload = disk_->Get("profile", key))
      DecodeProfileRecord(*payload, &record);
  }
  auto same_ppt =
      std::find_if(record.entries.begin(), record.entries.end(),
                   [&](const ProfileEntry& e) { return e.ppt == best.ppt; });
  if (same_ppt == record.entries.end())
    record.entries.push_back(best);
  else
    *same_ppt = best;
  if (on_disk()) disk_->Put("profile", key, EncodeProfileRecord(record));
}

ProfileRecord ProfileStore::Lookup(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = records_.try_emplace(key);
  if (inserted && on_disk())
    if (std::optional<std::string> payload = disk_->Get("profile", key))
      DecodeProfileRecord(*payload, &it->second);
  return it->second;
}

}  // namespace hipacc::compiler
