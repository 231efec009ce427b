#include "workload.hpp"

#include <stdexcept>

#include "stats.hpp"
#include "support/json.hpp"

namespace perfbench {

void AddEndToEnd(Record* record, const std::string& name, double value,
                 const std::string& unit, const std::string& alias,
                 long long samples) {
  Metric m;
  m.name = name;
  m.value = value;
  m.unit = unit;
  m.kind = Kind::kWall;
  m.alias = alias;
  m.samples = samples;
  record->Add(std::move(m));
}

void AddLatency(Record* record, const std::vector<double>& samples_ms,
                double tail_p, const std::string& p50_alias,
                const std::string& tail_alias) {
  const std::optional<double> tail = GuardedPercentile(samples_ms, tail_p);
  record->Check(tail.has_value(),
                "only " + std::to_string(samples_ms.size()) +
                    " latency samples; p" + std::to_string(int(tail_p)) +
                    " needs " + std::to_string(MinSamplesFor(tail_p)));
  const long long n = static_cast<long long>(samples_ms.size());
  AddEndToEnd(record, "latency_p50_ms",
              samples_ms.empty() ? 0.0 : Median(samples_ms), "ms", p50_alias,
              n);
  AddEndToEnd(record, "latency_tail_ms", tail.value_or(0.0), "ms", tail_alias,
              n);
}

LayerValues::LayerValues(const std::string& path) {
  hipacc::Result<std::string> text = hipacc::support::ReadFile(path);
  if (!text.ok()) throw std::runtime_error(text.status().ToString());
  hipacc::Result<hipacc::support::Json> doc =
      hipacc::support::Json::Parse(text.value());
  const hipacc::support::Json* list =
      doc.ok() ? doc.value().Find("per_layer") : nullptr;
  if (list == nullptr || !list->is_array())
    throw std::runtime_error(path + " has no per_layer list");
  for (const hipacc::support::Json& spec : list->elements()) {
    const hipacc::support::Json* name = spec.Find("name");
    const hipacc::support::Json* unit = spec.Find("unit");
    if (name == nullptr || unit == nullptr || !name->is_string() ||
        !unit->is_string())
      throw std::runtime_error(path + ": per_layer entry without name or unit");
    entries_.push_back({name->string_value(), unit->string_value()});
  }
}

bool LayerValues::Lists(const std::string& name) const {
  for (const Entry& e : entries_)
    if (e.name == name) return true;
  return false;
}

LayerValues::Entry& LayerValues::Find(const std::string& name) {
  for (Entry& e : entries_)
    if (e.name == name) return e;
  throw std::logic_error("BENCHMARK.json lists no per-layer metric " + name);
}

void LayerValues::Set(const std::string& name, double value) {
  Entry& e = Find(name);
  e.kind = Kind::kWall;
  e.value = value;
}

void LayerValues::SetExact(const std::string& name, double value) {
  Entry& e = Find(name);
  e.kind = Kind::kExact;
  e.value = value;
}

void LayerValues::EmitInto(Record* record) const {
  for (const Entry& e : entries_) {
    Metric m;
    m.name = e.name;
    m.value = e.value;
    m.unit = e.unit;
    m.kind = e.kind;
    record->Add(std::move(m));
  }
}

}  // namespace perfbench
