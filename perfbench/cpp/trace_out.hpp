// Helpers both workloads share: per-layer values read off a trace (per-pass
// p50, compile-cache hit ratio), the artifacts a traced run writes (Chrome
// trace, per-layer self-time table), and the check that aborts a workload.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "ledger.hpp"
#include "sim/trace.hpp"
#include "workload.hpp"

namespace perfbench {

/// Per-pass p50 (ms) into the per-layer pass metrics. Keys are the compile
/// pipeline's pass names (parse, lower, estimate, select_config, emit,
/// bytecode, fuse).
void SetPassP50(LayerValues* layers,
                const std::map<std::string, std::vector<double>>& ms_by_pass);

/// Compile-cache lookups counted by a sink (cache_hit.* / cache_miss.*).
struct CacheCounters {
  long long hits = 0;
  long long misses = 0;
};
CacheCounters ReadCacheCounters(const hipacc::sim::TraceSink& sink);
/// Hits over lookups between two snapshots; 0 when nothing was looked up.
double HitRatio(const CacheCounters& before, const CacheCounters& after);

/// Writes <out_dir>/<workload>-seed<N>.trace.json (Chrome trace_event) and
/// <workload>-seed<N>.layers.txt, prints the layer table, and attaches it
/// to the record.
void WriteTraceArtifacts(const RunArgs& args,
                         const hipacc::sim::TraceSink& sink,
                         const Ledger& ledger, Record* record);

/// Counts `status` as one checked operation and throws on failure: the
/// workloads cannot continue past a failed setup or run.
void Require(Record* record, const hipacc::Status& status, const char* what);

}  // namespace perfbench
