// Crash-safe filesystem primitives for the on-disk JIT object cache
// (support/disk_store.hpp). The core protocol is write-to-temp + atomic
// rename: a writer materialises the full contents under a unique temporary
// name in the destination directory, then rename(2)s it over the final
// path. Readers therefore only ever observe complete files — a crashed or
// concurrent writer leaves at worst a stale temp file, never a torn entry.
// rename() is atomic within one filesystem, which holds because the temp
// name lives next to its destination.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "support/status.hpp"

namespace hipacc::support {

/// mkdir -p: creates `path` and every missing parent. Succeeds when the
/// directory already exists.
Status EnsureDirs(const std::string& path);

/// Writes `contents` to `path` via the temp-file + atomic-rename protocol.
/// The parent directory must exist (EnsureDirs it first).
Status WriteFileAtomic(const std::string& path, const std::string& contents);

/// Reads the whole file; std::nullopt when it does not exist (any other
/// I/O failure also reads as absent — callers treat both as a cache miss).
std::optional<std::string> ReadFileIfExists(const std::string& path);

/// Deletes a file; missing files are not an error.
void RemoveFileQuiet(const std::string& path);

/// One regular file inside a directory listing.
struct DirEntry {
  std::string path;        ///< full path
  std::uint64_t size = 0;  ///< bytes
  std::int64_t mtime = 0;  ///< seconds since epoch (LRU ordering)
};

/// Lists the regular files directly inside `dir` (non-recursive); an absent
/// directory lists as empty.
std::vector<DirEntry> ListDirFiles(const std::string& dir);

/// Lists the immediate subdirectory names (not paths) of `dir`.
std::vector<std::string> ListSubdirs(const std::string& dir);

/// Sets a file's modification time to now (LRU touch on cache hits).
/// Best-effort: failures are ignored.
void TouchFile(const std::string& path);

/// The per-user cache root: $XDG_CACHE_HOME or $HOME/.cache, with `app`
/// appended ("~/.cache/<app>"). Empty when neither variable resolves.
std::string UserCacheDir(const std::string& app);

}  // namespace hipacc::support
