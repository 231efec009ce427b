#include "compiler/profile.hpp"

#include <algorithm>

#include "compiler/cache.hpp"
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

void ProfileStore::Record(const std::string& key, const ProfileEntry& best) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ProfileEntry>& entries = records_[key].entries;
  auto same_ppt =
      std::find_if(entries.begin(), entries.end(),
                   [&](const ProfileEntry& e) { return e.ppt == best.ppt; });
  if (same_ppt == entries.end())
    entries.push_back(best);
  else
    *same_ppt = best;
}

ProfileRecord ProfileStore::Lookup(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = records_.find(key);
  return it != records_.end() ? it->second : ProfileRecord{};
}

}  // namespace hipacc::compiler
