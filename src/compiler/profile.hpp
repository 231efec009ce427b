// Profile-guided configuration selection.
//
// The Algorithm-2 heuristic (hwmodel/heuristic.hpp) picks a launch
// configuration from the static occupancy model; an exploration sweep
// (compiler/explore.hpp, the paper's Figure 4) measures every configuration
// and so knows the optimum. The ProfileStore keeps that optimum for the
// later compiles of the process that swept (the ImageCL-style
// learned-autotuning loop the paper leaves as future work): one record per
// profile key, holding the best measured (config, ppt, ms) of each
// pixels-per-thread value swept. Each sweep replaces the entry of its own
// PPT, and Compile turns the record's fastest entry into a forced
// configuration at that entry's PPT — the optimum over every point swept.
//
// Measured times are the simulator's modelled times, which are
// deterministic: a sweep is the whole truth about its points, so a record
// keeps no averages, sample counts or ages. Launches do not feed the store
// either; a launch can only re-observe the configuration it was compiled
// with.
//
// Records live in memory for one process. A device or options change moves
// the profile key, so a record never leaks across incompatible contexts:
// the compile falls back to the heuristic until a sweep fills the new key.
#pragma once

#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "codegen/options.hpp"
#include "hwmodel/config.hpp"
#include "hwmodel/device_spec.hpp"

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
/// options so the sweeps of every PPT share one record; each entry keeps
/// its own `ppt`.
std::string MakeProfileKey(const std::string& source_fingerprint,
                           const codegen::CodegenOptions& options,
                           const hw::DeviceSpec& device, int image_width,
                           int image_height);

/// Thread-safe in-memory store of profile records.
class ProfileStore {
 public:
  /// Replaces the entry for `best.ppt` under `key` with `best`, the best
  /// point of one sweep.
  void Record(const std::string& key, const ProfileEntry& best);

  /// The key's record; empty when nothing was recorded under `key`.
  ProfileRecord Lookup(const std::string& key) const;

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::string, ProfileRecord> records_;
};

}  // namespace hipacc::compiler
