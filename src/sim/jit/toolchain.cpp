#include "sim/jit/toolchain.hpp"

#include <dlfcn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>

#include "support/string_utils.hpp"

#ifndef HIPACC_JIT_CXX_DEFAULT
#define HIPACC_JIT_CXX_DEFAULT ""
#endif

namespace hipacc::sim::jit {
namespace {

// Flags: -ffp-contract=off forbids FMA contraction so every emitted
// arithmetic statement rounds exactly like the VM's separately compiled
// handlers; the rest matches the simulator's own build enough for identical
// libm/SSE semantics. HIPACC_JIT_CXXFLAGS replaces the optimisation flags
// (everything but the mandatory -fPIC -shared -std -ffp-contract tail) for
// experiments; bit-exactness only survives flags that keep IEEE semantics.
constexpr const char kMandatoryFlags[] =
    "-fPIC -shared -std=c++17 -ffp-contract=off";

std::string Flags() {
  const char* opt = std::getenv("HIPACC_JIT_CXXFLAGS");
  return std::string(opt && opt[0] ? opt : "-O2") + " " + kMandatoryFlags;
}

std::string& OverrideSlot() {
  static std::string value;
  return value;
}
bool& OverrideActive() {
  static bool active = false;
  return active;
}
std::mutex& OverrideMutex() {
  static std::mutex mu;
  return mu;
}

/// std::system returns a wait status, not an exit code: "exit 1" for a
/// compiler that failed, "signal 9" for one that was killed.
std::string DescribeWaitStatus(int status) {
  if (status == -1) return "could not start the shell";
  if (WIFEXITED(status)) return StrFormat("exit %d", WEXITSTATUS(status));
  if (WIFSIGNALED(status)) return StrFormat("signal %d", WTERMSIG(status));
  return StrFormat("wait status %d", status);
}

bool Runnable(const std::string& compiler) {
  if (compiler.empty()) return false;
  // `--version` probes both existence and executability without touching
  // the filesystem layout assumptions of any particular compiler.
  const std::string cmd =
      "\"" + compiler + "\" --version > /dev/null 2>&1";
  return std::system(cmd.c_str()) == 0;
}

/// Discovers the compiler once per distinct override state. Not cached
/// across override changes so tests can flip between real / missing /
/// broken toolchains.
std::string DetectCompiler() {
  {
    const std::lock_guard<std::mutex> lock(OverrideMutex());
    if (OverrideActive()) return OverrideSlot();
  }
  if (const char* env = std::getenv("HIPACC_JIT_DISABLE"))
    if (env[0] && env[0] != '0') return "";
  if (const char* env = std::getenv("HIPACC_JIT_CXX"))
    if (env[0]) return env;
  static const std::string detected = [] {
    const std::string baked = HIPACC_JIT_CXX_DEFAULT;
    if (Runnable(baked)) return baked;
    for (const char* candidate : {"c++", "g++", "clang++"})
      if (Runnable(candidate)) return std::string(candidate);
    return std::string();
  }();
  return detected;
}

}  // namespace

NativeModule::~NativeModule() {
  if (handle_) dlclose(handle_);
}

void* NativeModule::Sym(const char* name) const {
  return handle_ ? dlsym(handle_, name) : nullptr;
}

std::string ToolchainIdentity() {
  return DetectCompiler() + " " + Flags();
}

bool ToolchainAvailable() { return !DetectCompiler().empty(); }

Result<std::shared_ptr<NativeModule>> CompileSharedObject(
    const std::string& source, const std::string& tag,
    std::string* so_bytes_out) {
  const std::string compiler = DetectCompiler();
  if (compiler.empty())
    return Status::Unimplemented("no host toolchain for the native tier");

  char dir_template[] = "/tmp/hipacc_jit_XXXXXX";
  if (!mkdtemp(dir_template))
    return Status::Internal("mkdtemp failed for jit workspace");
  const std::string dir = dir_template;
  const std::string cpp = dir + "/" + tag + ".cpp";
  const std::string so = dir + "/" + tag + ".so";
  const std::string log = dir + "/" + tag + ".log";

  auto cleanup = [&] {
    std::remove(cpp.c_str());
    std::remove(so.c_str());
    std::remove(log.c_str());
    rmdir(dir.c_str());
  };

  {
    std::ofstream out(cpp);
    out << source;
    if (!out.good()) {
      cleanup();
      return Status::Internal("failed to write jit source " + cpp);
    }
  }

  const std::string cmd = "\"" + compiler + "\" " + Flags() + " -o \"" + so +
                          "\" \"" + cpp + "\" > \"" + log + "\" 2>&1";
  const int rc = std::system(cmd.c_str());
  if (rc != 0) {
    std::string diag;
    {
      std::ifstream in(log);
      std::stringstream ss;
      ss << in.rdbuf();
      diag = ss.str();
      if (diag.size() > 2000) diag.resize(2000);
    }
    cleanup();
    return Status::Internal(StrFormat("jit compile failed (%s) with %s: %s",
                                      DescribeWaitStatus(rc).c_str(),
                                      compiler.c_str(), diag.c_str()));
  }

  if (so_bytes_out != nullptr) {
    std::ifstream in(so, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    *so_bytes_out = ss.str();
  }

  void* handle = dlopen(so.c_str(), RTLD_NOW | RTLD_LOCAL);
  cleanup();  // mapping keeps the object alive; nothing left on disk
  if (!handle) {
    const char* err = dlerror();
    return Status::Internal(std::string("dlopen failed: ") +
                            (err ? err : "unknown"));
  }
  return std::make_shared<NativeModule>(handle);
}

Result<std::shared_ptr<NativeModule>> OpenSharedObjectBytes(
    const std::string& so_bytes, const std::string& tag) {
  char dir_template[] = "/tmp/hipacc_jit_XXXXXX";
  if (!mkdtemp(dir_template))
    return Status::Internal("mkdtemp failed for jit workspace");
  const std::string dir = dir_template;
  const std::string so = dir + "/" + tag + ".so";
  {
    std::ofstream out(so, std::ios::binary);
    out.write(so_bytes.data(),
              static_cast<std::streamsize>(so_bytes.size()));
    if (!out.good()) {
      std::remove(so.c_str());
      rmdir(dir.c_str());
      return Status::Internal("failed to materialise cached jit object " + so);
    }
  }
  void* handle = dlopen(so.c_str(), RTLD_NOW | RTLD_LOCAL);
  std::remove(so.c_str());  // mapping keeps the object alive
  rmdir(dir.c_str());
  if (!handle) {
    const char* err = dlerror();
    return Status::Internal(std::string("dlopen of cached object failed: ") +
                            (err ? err : "unknown"));
  }
  return std::make_shared<NativeModule>(handle);
}

void SetToolchainOverrideForTesting(const char* compiler) {
  const std::lock_guard<std::mutex> lock(OverrideMutex());
  OverrideActive() = compiler != nullptr;
  OverrideSlot() = compiler ? compiler : "";
}

}  // namespace hipacc::sim::jit
