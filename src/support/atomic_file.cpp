#include "support/atomic_file.hpp"

#include <dirent.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>
#include <utime.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "support/string_utils.hpp"

namespace hipacc::support {
namespace {

bool IsDir(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

/// Process-unique suffix for temp names: pid + a monotonic counter, so
/// concurrent writers (threads or processes) never collide on the temp file
/// even when racing for the same destination.
std::string TempSuffix() {
  static std::atomic<std::uint64_t> counter{0};
  return StrFormat(".tmp.%d.%llu", static_cast<int>(::getpid()),
                   static_cast<unsigned long long>(
                       counter.fetch_add(1, std::memory_order_relaxed)));
}

}  // namespace

Status EnsureDirs(const std::string& path) {
  if (path.empty()) return Status::Invalid("EnsureDirs: empty path");
  if (IsDir(path)) return Status::Ok();
  std::string partial;
  for (const std::string& part : Split(path, '/')) {
    partial += part;
    partial += '/';
    if (part.empty() || IsDir(partial)) continue;
    if (::mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST)
      return Status::Internal(StrFormat("mkdir %s failed: %s", partial.c_str(),
                                        std::strerror(errno)));
  }
  return Status::Ok();
}

Status WriteFileAtomic(const std::string& path, const std::string& contents) {
  const std::string tmp = path + TempSuffix();
  FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr)
    return Status::Internal(StrFormat("open %s for write failed: %s",
                                      tmp.c_str(), std::strerror(errno)));
  const std::size_t written =
      contents.empty() ? 0 : std::fwrite(contents.data(), 1, contents.size(), f);
  const bool flushed = std::fflush(f) == 0;
  std::fclose(f);
  if (written != contents.size() || !flushed) {
    std::remove(tmp.c_str());
    return Status::Internal("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal(StrFormat("rename %s -> %s failed: %s", tmp.c_str(),
                                      path.c_str(), std::strerror(errno)));
  }
  return Status::Ok();
}

std::optional<std::string> ReadFileIfExists(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  std::string out;
  char buffer[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0)
    out.append(buffer, n);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!ok) return std::nullopt;
  return out;
}

void RemoveFileQuiet(const std::string& path) { std::remove(path.c_str()); }

std::vector<DirEntry> ListDirFiles(const std::string& dir) {
  std::vector<DirEntry> out;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return out;
  while (const dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    const std::string path = dir + "/" + name;
    struct stat st{};
    if (::stat(path.c_str(), &st) != 0 || !S_ISREG(st.st_mode)) continue;
    out.push_back({path, static_cast<std::uint64_t>(st.st_size),
                   static_cast<std::int64_t>(st.st_mtime)});
  }
  ::closedir(d);
  return out;
}

std::vector<std::string> ListSubdirs(const std::string& dir) {
  std::vector<std::string> out;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return out;
  while (const dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    if (IsDir(dir + "/" + name)) out.push_back(name);
  }
  ::closedir(d);
  return out;
}

void TouchFile(const std::string& path) { ::utime(path.c_str(), nullptr); }

std::string UserCacheDir(const std::string& app) {
  if (const char* xdg = std::getenv("XDG_CACHE_HOME"))
    if (xdg[0] != '\0') return std::string(xdg) + "/" + app;
  if (const char* home = std::getenv("HOME"))
    if (home[0] != '\0') return std::string(home) + "/.cache/" + app;
  return "";
}

}  // namespace hipacc::support
