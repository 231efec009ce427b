#include "ledger.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <utility>

namespace perfbench {

using hipacc::support::Json;

std::string LayerOf(const std::string& category, const std::string& name,
                    const Json& args) {
  if (category == "bench") return "bench";
  if (category == "graph" || category == "runtime") return "runtime";
  if (category == "sim") return "sim";
  if (category == "explore") return "compiler";
  if (category == "compile") {
    std::string pass = name.substr(0, name.find(' '));
    if (const Json* p = args.is_object() ? args.Find("pass") : nullptr;
        p != nullptr && p->is_string())
      pass = p->string_value();
    if (pass == "parse") return "frontend";
    if (pass == "lower" || pass == "emit") return "codegen";
    if (pass == "estimate" || pass == "select_config") return "hwmodel";
    if (pass == "bytecode") return "sim";
    return "compiler";
  }
  return category;
}

std::string NestingKind(const std::string& category, const std::string& name) {
  if (category == "compile") return category;
  return category + " " + name.substr(0, name.find(' '));
}

Ledger Ledger::FromTraceJson(const Json& doc) {
  Ledger ledger;
  if (const Json* events = doc.Find("events"); events != nullptr) {
    for (const Json& e : events->elements()) {
      Span span;
      span.dur_ms = e.Find("dur_ms")->number_value();
      if (span.dur_ms <= 0.0) continue;
      span.name = e.Find("name")->string_value();
      span.category = e.Find("category")->string_value();
      span.start_ms = e.Find("start_ms")->number_value();
      span.tid = static_cast<int>(e.Find("tid")->int_value());
      if (const Json* args = e.Find("args"); args != nullptr) span.args = *args;
      span.layer = LayerOf(span.category, span.name, span.args);
      ledger.spans_.push_back(std::move(span));
    }
  }
  if (const Json* counters = doc.Find("counters"); counters != nullptr)
    for (const auto& [name, value] : counters->members())
      ledger.counters_[name] = value.int_value();
  ledger.Link();
  return ledger;
}

void Ledger::Link() {
  const int n = static_cast<int>(spans_.size());
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [this](int a, int b) {
    const Span& x = spans_[static_cast<std::size_t>(a)];
    const Span& y = spans_[static_cast<std::size_t>(b)];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.start_ms != y.start_ms) return x.start_ms < y.start_ms;
    return x.dur_ms > y.dur_ms;
  });
  const auto contains = [](const Span& outer, const Span& inner) {
    return outer.start_ms <= inner.start_ms && inner.end_ms() <= outer.end_ms();
  };
  std::vector<std::string> kinds;
  for (const Span& span : spans_)
    kinds.push_back(NestingKind(span.category, span.name));
  const auto nests_in = [&](int outer, int inner) {
    return kinds[static_cast<std::size_t>(outer)] !=
               kinds[static_cast<std::size_t>(inner)] &&
           contains(spans_[static_cast<std::size_t>(outer)],
                    spans_[static_cast<std::size_t>(inner)]);
  };

  // Same-lane nesting: an open-span stack per tid. Concurrent siblings on
  // one lane (parallel stages of one frame) overlap, and one may even lie
  // inside another in time, so the parent is the nearest open span of
  // another kind that fully contains the new one.
  std::vector<int> stack;
  int lane = 0;
  for (const int index : order) {
    Span& span = spans_[static_cast<std::size_t>(index)];
    if (stack.empty() || span.tid != lane) {
      stack.clear();
      lane = span.tid;
    }
    while (!stack.empty() &&
           spans_[static_cast<std::size_t>(stack.back())].end_ms() <=
               span.start_ms)
      stack.pop_back();
    for (auto it = stack.rbegin(); it != stack.rend(); ++it)
      if (nests_in(*it, index)) {
        span.parent = *it;
        break;
      }
    stack.push_back(index);
  }

  // Cross-lane fallback: a program span that found no parent on its own
  // lane belongs to the innermost benchmark span around it.
  std::vector<int> bench;
  for (int i = 0; i < n; ++i)
    if (spans_[static_cast<std::size_t>(i)].category == "bench")
      bench.push_back(i);
  std::sort(bench.begin(), bench.end(), [this](int a, int b) {
    return spans_[static_cast<std::size_t>(a)].start_ms <
           spans_[static_cast<std::size_t>(b)].start_ms;
  });
  for (Span& span : spans_) {
    if (span.parent >= 0 || span.category == "bench") continue;
    auto it = std::upper_bound(
        bench.begin(), bench.end(), span.start_ms,
        [this](double start, int b) {
          return start < spans_[static_cast<std::size_t>(b)].start_ms;
        });
    double best = -1.0;
    // Benchmark spans overlap at most a frame window deep, so a short
    // backwards scan finds every candidate.
    for (int scanned = 0; it != bench.begin() && scanned < 64; ++scanned) {
      --it;
      const Span& candidate = spans_[static_cast<std::size_t>(*it)];
      if (contains(candidate, span) && (best < 0.0 || candidate.dur_ms < best)) {
        best = candidate.dur_ms;
        span.parent = *it;
      }
    }
  }

  // Self time: duration minus the union of the children's intervals.
  std::vector<std::vector<std::pair<double, double>>> children(
      static_cast<std::size_t>(n));
  for (const Span& span : spans_)
    if (span.parent >= 0)
      children[static_cast<std::size_t>(span.parent)].emplace_back(
          span.start_ms, span.end_ms());
  for (int i = 0; i < n; ++i) {
    Span& span = spans_[static_cast<std::size_t>(i)];
    auto& kids = children[static_cast<std::size_t>(i)];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0, run_start = 0.0, run_end = -1.0;
    bool open = false;
    for (const auto& [start, end] : kids) {
      const double lo = std::max(start, span.start_ms);
      const double hi = std::min(end, span.end_ms());
      if (hi <= lo) continue;
      if (open && lo <= run_end) {
        run_end = std::max(run_end, hi);
        continue;
      }
      if (open) covered += run_end - run_start;
      run_start = lo;
      run_end = hi;
      open = true;
    }
    if (open) covered += run_end - run_start;
    span.self_ms = std::max(0.0, span.dur_ms - covered);
  }
}

long long Ledger::counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

long long Ledger::counter_prefix_sum(const std::string& prefix) const {
  long long sum = 0;
  for (auto it = counters_.lower_bound(prefix);
       it != counters_.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it)
    sum += it->second;
  return sum;
}

std::vector<LayerRow> Ledger::LayerTable() const {
  std::vector<LayerRow> rows;
  for (const Span& span : spans_) {
    auto it = std::find_if(rows.begin(), rows.end(), [&](const LayerRow& r) {
      return r.layer == span.layer;
    });
    if (it == rows.end()) {
      rows.push_back(LayerRow{span.layer});
      it = rows.end() - 1;
    }
    ++it->spans;
    it->total_ms += span.dur_ms;
    it->self_ms += span.self_ms;
  }
  return rows;
}

std::string FormatLayerTable(const std::vector<LayerRow>& rows) {
  double self_total = 0.0;
  for (const LayerRow& row : rows) self_total += row.self_ms;
  std::string out;
  char line[160];
  std::snprintf(line, sizeof line, "%-10s %10s %14s %14s %8s\n", "layer",
                "spans", "total_ms", "self_ms", "self_%");
  out += line;
  for (const LayerRow& row : rows) {
    std::snprintf(line, sizeof line, "%-10s %10lld %14.3f %14.3f %7.2f%%\n",
                  row.layer.c_str(), row.spans, row.total_ms, row.self_ms,
                  self_total > 0.0 ? 100.0 * row.self_ms / self_total : 0.0);
    out += line;
  }
  return out;
}

Json LayerTableJson(const std::vector<LayerRow>& rows) {
  Json table = Json::Array();
  for (const LayerRow& row : rows) {
    Json r = Json::Object();
    r["layer"] = row.layer;
    r["spans"] = row.spans;
    r["total_ms"] = row.total_ms;
    r["self_ms"] = row.self_ms;
    table.push_back(std::move(r));
  }
  return table;
}

}  // namespace perfbench
