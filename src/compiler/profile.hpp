// Profile-guided configuration selection.
//
// The Algorithm-2 heuristic (hwmodel/heuristic.hpp) picks a launch
// configuration from the static occupancy model; an exploration sweep
// (compiler/explore.hpp, the paper's Figure 4) measures every configuration
// and so knows the optimum. The ProfileStore keeps that optimum for later
// compiles (the ImageCL-style learned-autotuning loop the paper leaves as
// future work): one record per profile key, holding the best measured
// (config, ppt, ms) of each pixels-per-thread value swept. Each sweep
// replaces the entry of its own PPT, and select_config installs the
// record's fastest entry — the optimum over every point swept.
//
// Measured times are the simulator's modelled times, which are
// deterministic: a sweep is the whole truth about its points, so a record
// keeps no averages, sample counts or ages. Launches do not feed the store
// either; a launch can only re-observe the configuration it was compiled
// with.
//
// A device or options change moves the profile key, so a record never
// leaks across incompatible contexts: the compile falls back to the
// heuristic until a sweep fills the new key.
#pragma once

#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "codegen/options.hpp"
#include "hwmodel/config.hpp"
#include "hwmodel/device_spec.hpp"

namespace hipacc::support {
class DiskStore;
}  // namespace hipacc::support

namespace hipacc::compiler {

/// The best measured point of one sweep, at one pixels-per-thread value.
struct ProfileEntry {
  hw::KernelConfig config;
  int ppt = 1;
  double ms = 0.0;  ///< modelled kernel time
};

/// Everything stored under one profile key: at most one entry per ppt.
struct ProfileRecord {
  std::vector<ProfileEntry> entries;
};

/// The pick: the fastest entry, among those at `require_ppt` when it is
/// > 0 (an explicit PPT request pins the axis). Ties break on fewer
/// threads, then a narrower block, then a smaller ppt. None when no entry
/// competes.
std::optional<ProfileEntry> DecideSelection(const ProfileRecord& record,
                                            int require_ppt = 0);

/// Canonical profile key. pixels_per_thread is normalised out of the
/// options so the sweeps of every PPT share one record — each entry keeps
/// its own `ppt` — and the salt of profile-influenced cache entries stays
/// orthogonal to the PPT the caller happened to request.
std::string MakeProfileKey(const std::string& source_fingerprint,
                           const codegen::CodegenOptions& options,
                           const hw::DeviceSpec& device, int image_width,
                           int image_height);

/// Cache-key salt of a pick: "m:<bx>x<by>x<ppt>", or "" without one (such
/// a compile is a profile-less compile and shares its cache entries).
std::string ProfileSalt(const std::optional<ProfileEntry>& pick);

/// Thread-safe store of profile records, in memory with optional
/// write-through to the "profile" kind of a support::DiskStore.
class ProfileStore {
 public:
  /// `disk` null = in-memory only. The store does not own the DiskStore.
  explicit ProfileStore(support::DiskStore* disk = nullptr);

  /// Replaces the entry for `best.ppt` under `key` with `best`, the best
  /// point of one sweep. Disk-backed, this re-reads the key's record under
  /// a FileLock, replaces the entry and writes the record back, so
  /// processes that sweep different PPTs of one key keep each other's
  /// entries.
  void Record(const std::string& key, const ProfileEntry& best);

  /// The key's record (read from disk on the first touch of `key`).
  ProfileRecord Lookup(const std::string& key) const;

 private:
  bool on_disk() const;

  support::DiskStore* disk_ = nullptr;
  mutable std::mutex mutex_;
  mutable std::unordered_map<std::string, ProfileRecord> records_;
};

/// JSON codec of one record, the disk payload:
/// {"v":2,"entries":[{"bx","by","ppt","ms"}...]}. Decoding rejects the
/// whole record when an entry has a block dimension outside 1..32768, a
/// ppt outside 1..32 or an ms that is negative or not finite, and reads
/// any other version (v1 included) as no record.
std::string EncodeProfileRecord(const ProfileRecord& record);
bool DecodeProfileRecord(const std::string& payload, ProfileRecord* out);

}  // namespace hipacc::compiler
