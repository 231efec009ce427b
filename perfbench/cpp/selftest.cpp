// Self-tests of the benchmark's helpers: percentiles with the sample-count
// guard, geomean, getrusage deltas, the span ledger, the record's wall /
// exact separation, and the hand-written ISP reference. Exits non-zero when
// any check failed (checks stay active in optimised builds).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <thread>

#include "isp_reference.hpp"
#include "ledger.hpp"
#include "record.hpp"
#include "stats.hpp"

namespace {

using namespace perfbench;
using hipacc::support::Json;

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (ok) return;
  std::fprintf(stderr, "selftest.cpp:%d: FAILED: %s\n", line, what);
  ++failures;
}
#define EXPECT(cond) Expect((cond), #cond, __LINE__)

bool Near(double a, double b, double tol = 1e-12) { return std::fabs(a - b) <= tol; }

template <typename F>
bool Throws(F f) {
  try {
    f();
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

std::vector<double> Ramp(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void TestPercentile() {
  EXPECT(Near(Percentile({5, 1, 3, 2, 4}, 50), 3));
  EXPECT(Near(Percentile({1, 2}, 50), 1.5));
  EXPECT(Near(Percentile({1, 2, 3, 4, 5}, 25), 2));
  EXPECT(Near(Percentile({7}, 99), 7));
  EXPECT(Near(Percentile(Ramp(101), 95), 96));
  EXPECT(Near(Median({4, 1, 3, 2}), 2.5));
  EXPECT(Throws([] { Percentile({}, 50); }));
}

void TestGuard() {
  // At least ten samples must lie beyond a reported tail percentile.
  EXPECT(MinSamplesFor(50) == 1);
  EXPECT(MinSamplesFor(95) == 200);
  EXPECT(MinSamplesFor(99) == 1000);
  EXPECT(!GuardedPercentile(Ramp(199), 95).has_value());
  EXPECT(GuardedPercentile(Ramp(200), 95).has_value());
  EXPECT(Near(*GuardedPercentile(Ramp(200), 95), Percentile(Ramp(200), 95)));
  EXPECT(!GuardedPercentile(Ramp(999), 99).has_value());
  EXPECT(GuardedPercentile(Ramp(1000), 99).has_value());
  EXPECT(!GuardedPercentile({}, 50).has_value());
}

void TestMaxAbsDiff() {
  EXPECT(MaxAbsDiff({1, 2}, {1, 2.5}) == 0.5);
  EXPECT(MaxAbsDiff({}, {}) == 0.0);
  EXPECT(std::isinf(MaxAbsDiff({1}, {1, 2})));
  EXPECT(std::isinf(MaxAbsDiff({NAN}, {1})));
}

void TestGeomean() {
  EXPECT(Near(Geomean({1, 4}), 2));
  EXPECT(Near(Geomean({2, 8, 4}), 4, 1e-12));
  EXPECT(Near(Geomean({1.5}), 1.5));
  EXPECT(Throws([] { Geomean({1, 0}); }));
  EXPECT(Throws([] { Geomean({-1, 2}); }));
  EXPECT(Throws([] { Geomean({}); }));
}

void TestUsage() {
  Usage a, b;
  a.voluntary_ctx = 10;
  a.involuntary_ctx = 3;
  a.max_rss_mb = 20;
  b = a;
  b.voluntary_ctx = 15;
  b.involuntary_ctx = 4;
  b.max_rss_mb = 30;
  const Usage d = UsageDelta(a, b);
  EXPECT(d.voluntary_ctx == 5 && d.involuntary_ctx == 1);
  EXPECT(d.context_switches() == 6);
  EXPECT(Near(d.max_rss_mb, 30));  // a peak, not a difference

  // Real probe: sleeping blocks, which is a voluntary switch; the peak RSS
  // of a running process is never zero.
  const Usage before = ReadUsage();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const Usage delta = UsageDelta(before, ReadUsage());
  EXPECT(delta.voluntary_ctx >= 1);
  EXPECT(delta.max_rss_mb > 0.0);
}

Json Event(const char* name, const char* category, double start, double dur,
           int tid, Json args = Json()) {
  Json e = Json::Object();
  e["name"] = name;
  e["category"] = category;
  e["start_ms"] = start;
  e["dur_ms"] = dur;
  e["tid"] = tid;
  if (!args.is_null()) e["args"] = args;
  return e;
}

void TestLedger() {
  Json pass = Json::Object();
  pass["pass"] = "lower";
  Json events = Json::Array();
  // Frame 1: a bench span [0, 10] with three concurrent stage spans on its
  // lane (c lies inside b in time but is its sibling), a compile pass
  // nested in the first stage, and an exploration launch on another lane
  // that only the bench span contains in time.
  events.push_back(Event("bench.frame", "bench", 0, 10, 1));
  events.push_back(Event("stage a", "graph", 1, 3, 1));
  events.push_back(Event("lower k", "compile", 1.5, 1, 1, pass));
  events.push_back(Event("stage b", "graph", 3, 3, 1));
  events.push_back(Event("stage c", "graph", 4.5, 1, 1));
  events.push_back(Event("launch k", "sim", 7, 2, 2));
  events.push_back(Event("cache", "compile", 8, 0, 0));  // instant: ignored
  Json doc = Json::Object();
  doc["events"] = events;
  Json counters = Json::Object();
  counters["fuse.rejected.legality"] = 3;
  counters["fuse.rejected.profitability"] = 2;
  counters["graph.fused_edges"] = 4;
  doc["counters"] = counters;

  const Ledger ledger = Ledger::FromTraceJson(doc);
  const std::vector<Span>& s = ledger.spans();
  EXPECT(s.size() == 6);
  EXPECT(s[1].parent == 0 && s[2].parent == 1 && s[3].parent == 0);
  EXPECT(s[4].parent == 0);  // a sibling stage, not a child of b
  EXPECT(s[5].parent == 0);  // cross-lane fallback to the bench span
  EXPECT(s[2].layer == "codegen" && s[5].layer == "sim" && s[1].layer == "runtime");
  // Stages cover [1, 6] and the launch [7, 9]: 7 of the frame's 10 ms.
  EXPECT(Near(s[0].self_ms, 3));
  EXPECT(Near(s[1].self_ms, 2));  // 3 minus the nested 1 ms pass
  EXPECT(Near(s[3].self_ms, 3));
  EXPECT(Near(s[4].self_ms, 1));
  EXPECT(ledger.counter_prefix_sum("fuse.rejected.") == 5);
  EXPECT(ledger.counter("graph.fused_edges") == 4);
  EXPECT(ledger.counter("absent") == 0);

  double self_total = 0.0, runtime_total = 0.0;
  for (const LayerRow& row : ledger.LayerTable()) {
    self_total += row.self_ms;
    if (row.layer == "runtime") runtime_total = row.total_ms;
  }
  // Concurrent siblings each keep their own self time, so the overlaps
  // [3, 4] and [4.5, 5.5] of the stages count twice: 10 ms of wall, 12 ms
  // of work.
  EXPECT(Near(self_total, 12));
  EXPECT(Near(runtime_total, 7));
  EXPECT(NestingKind("graph", "stage y_dn") == "graph stage");
  EXPECT(NestingKind("compile", "lower k") == NestingKind("compile", "emit j"));
}

void TestRecord() {
  Record record("w", 7, 10, false);
  record.Check(true, "");
  record.Check(false, "boom");
  Metric wall{"latency_p50_ms", 1.25, "ms", Kind::kWall, "", 0};
  Metric exact{"modelled_gap_pct", 0.5, "%", Kind::kExact, "", 0};
  record.Add(wall);
  record.Add(exact);
  const Json doc = record.ToJson();
  EXPECT(!record.correct());
  EXPECT(doc.Find("attempted")->int_value() == 2);
  EXPECT(doc.Find("failed")->int_value() == 1);
  EXPECT(Near(doc.Find("error_rate")->number_value(), 0.5));
  EXPECT(doc.Find("wall")->Find("latency_p50_ms") != nullptr);
  EXPECT(doc.Find("wall")->Find("modelled_gap_pct") == nullptr);
  EXPECT(doc.Find("exact")->Find("modelled_gap_pct") != nullptr);
  EXPECT(doc.Find("exact")->Find("latency_p50_ms") == nullptr);
  EXPECT(!Record("w", 1, 1, false).correct());  // nothing attempted
}

void TestIspReference() {
  // A flat frame under unit gain stays flat through every stage: each mask
  // sums to 1, Y's row sums to 1, and U and V land on their 0.5 bias.
  IspReference ref(16, 12);
  for (float& p : ref.raw_src.px) p = 0.25f;
  for (float& p : ref.gain_src.px) p = 1.0f;
  ref.RunAll();
  double worst_y = 0.0, worst_uv = 0.0;
  for (std::size_t k = 0; k < ref.y_dn.px.size(); ++k) {
    worst_y = std::max(worst_y, std::fabs(ref.y_dn.px[k] - 0.25));
    worst_uv = std::max({worst_uv, std::fabs(ref.u.px[k] - 0.5),
                         std::fabs(ref.v.px[k] - 0.5)});
  }
  EXPECT(worst_y < 1e-6 && worst_uv < 1e-6);

  // An impulse spreads into the bilinear tent on R and the diamond on G.
  IspReference imp(5, 5);
  imp.raw_src.px[12] = 1.0f;
  for (float& p : imp.gain_src.px) p = 1.0f;
  imp.RunAll();
  EXPECT(Near(imp.r.px[12], 0.25, 1e-7) && Near(imp.r.px[6], 0.0625, 1e-7));
  EXPECT(Near(imp.g.px[12], 0.5, 1e-7) && Near(imp.g.px[6], 0.0, 1e-7) &&
         Near(imp.g.px[7], 0.125, 1e-7));

  IspOp op;
  EXPECT(IspOpForImage("y_dn", &op) && op == IspOp::kDenoise);
  EXPECT(!IspOpForImage("nope", &op));
}

}  // namespace

int main() {
  TestPercentile();
  TestGuard();
  TestMaxAbsDiff();
  TestGeomean();
  TestUsage();
  TestLedger();
  TestRecord();
  TestIspReference();
  if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
