// Host toolchain driver for the native tier: writes an emitted translation
// unit to a temp directory, invokes the system C++ compiler to build a
// shared object, and dlopens it. Discovery order: $HIPACC_JIT_CXX, the
// compiler the simulator itself was built with (baked in by CMake), then
// PATH fallbacks. A missing or failing toolchain is a soft condition —
// callers degrade to the bytecode VM, never crash.
#pragma once

#include <memory>
#include <string>

#include "support/status.hpp"

namespace hipacc::sim::jit {

/// RAII wrapper around one dlopened shared object. The backing file is
/// unlinked immediately after opening (the mapping keeps it alive), so no
/// artifacts outlive the process.
class NativeModule {
 public:
  explicit NativeModule(void* handle) : handle_(handle) {}
  ~NativeModule();
  NativeModule(const NativeModule&) = delete;
  NativeModule& operator=(const NativeModule&) = delete;

  /// Resolves an exported symbol; null when absent.
  void* Sym(const char* name) const;

 private:
  void* handle_ = nullptr;
};

/// Identity of the active toolchain (path + flags). Part of the module
/// cache key so a compiler switch (e.g. via $HIPACC_JIT_CXX) never reuses
/// objects built by another compiler.
std::string ToolchainIdentity();

/// True when a usable host compiler was found (and jitting is not disabled
/// via $HIPACC_JIT_DISABLE or the test override).
bool ToolchainAvailable();

/// Compiles `source` into a shared object and dlopens it. `tag` scopes the
/// temp file names. Fails with Unavailable when no toolchain exists and
/// Internal (with the compiler's stderr) when compilation errors. When
/// `so_bytes_out` is non-null the raw shared-object bytes are copied into
/// it before the temp file is unlinked — the persistent JIT cache stores
/// them so a later process can skip the toolchain entirely.
Result<std::shared_ptr<NativeModule>> CompileSharedObject(
    const std::string& source, const std::string& tag,
    std::string* so_bytes_out = nullptr);

/// Reopens a shared object from raw bytes (a persistent-cache hit): the
/// bytes are materialised under a temp name, dlopened, and unlinked — the
/// mapping keeps the object alive, exactly like CompileSharedObject.
Result<std::shared_ptr<NativeModule>> OpenSharedObjectBytes(
    const std::string& so_bytes, const std::string& tag);

/// Test hook: overrides toolchain discovery. nullptr restores the real
/// discovery; "" simulates a machine without any compiler; any other value
/// is used as the compiler command verbatim (e.g. /bin/false to exercise
/// compile failures).
void SetToolchainOverrideForTesting(const char* compiler);

}  // namespace hipacc::sim::jit
