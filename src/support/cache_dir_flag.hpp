// Shared --cache-dir=PATH|off flag for every user-facing binary (the
// compiler CLI, benchmarks, examples): steers the process-wide persistent
// cache tier (support/disk_store.hpp) that holds the JIT object cache's
// shared objects and nothing else. Compilation products and sweep records
// are never persisted: a kernel recompiles in milliseconds, and a sweep's
// records serve the later compiles of the process that swept.
//
// Libraries and tests stay hermetic — GlobalDiskStore() starts disabled —
// so enabling-by-default is an explicit, binary-level decision made by
// registering this flag.
#pragma once

#include "support/cli.hpp"
#include "support/disk_store.hpp"

namespace hipacc::support {

/// Registers `--cache-dir=PATH|off` on `cli` and immediately enables the
/// process-wide persistent cache at its resolved default location
/// ($HIPACC_CACHE_DIR, else ~/.cache/hipacc), so a binary that never passes
/// the flag still warm-starts. Parsing a value reconfigures the store in
/// place before any compilation runs; "off" disables the tier entirely.
inline CliParser& RegisterCacheDirFlag(CliParser& cli) {
  DiskStoreOptions defaults;
  defaults.root = ResolveCacheDir("");
  ConfigureGlobalDiskStore(std::move(defaults));
  return cli.Value(
      "cache-dir", "PATH|off",
      "persistent JIT object cache directory (default: "
      "$HIPACC_CACHE_DIR, else ~/.cache/hipacc; off disables)",
      [](const std::string& value) -> Status {
        DiskStoreOptions options;
        options.root = ResolveCacheDir(value);
        ConfigureGlobalDiskStore(std::move(options));
        return Status::Ok();
      });
}

}  // namespace hipacc::support
