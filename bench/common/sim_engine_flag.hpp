// Shared --sim-engine=bytecode|ast|native flag for the benchmark binaries:
// selects the simulator execution engine process-wide (sim/options.hpp), so
// the CI perf-smoke can run the same table under each engine and diff the
// output.
#pragma once

#include "sim/options.hpp"
#include "support/cli.hpp"

namespace hipacc::bench {

/// Registers `--sim-engine=ENGINE` on `cli`; parsing a value updates the
/// process-wide DefaultSimulatorOptions() in place.
inline support::CliParser& RegisterSimEngineFlag(support::CliParser& cli) {
  return cli.Value("sim-engine", "ENGINE",
                   "simulator engine: bytecode (default), ast, or native "
                   "(jit-compiled host code for kernels that fuse, VM "
                   "otherwise)",
                   [](const std::string& value) -> Status {
                     Result<sim::ExecEngine> engine =
                         sim::ParseExecEngine(value);
                     if (!engine.ok()) return engine.status();
                     sim::DefaultSimulatorOptions().engine = engine.value();
                     return Status::Ok();
                   });
}

}  // namespace hipacc::bench
