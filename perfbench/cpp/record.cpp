#include "record.hpp"

#include <cstdio>
#include <utility>

namespace perfbench {

using hipacc::support::Json;

namespace {

constexpr std::size_t kMaxFailureMessages = 20;

}  // namespace

Record::Record(std::string workload, unsigned long long seed, int seconds,
               bool trace)
    : workload_(std::move(workload)), seed_(seed), seconds_(seconds),
      trace_(trace) {}

void Record::Add(Metric metric) { metrics_.push_back(std::move(metric)); }

void Record::Check(bool ok, const std::string& error) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_.size() < kMaxFailureMessages) failures_.push_back(error);
}

Json Record::ToJson() const {
  Json doc = Json::Object();
  doc["workload"] = workload_;
  doc["seed"] = static_cast<std::uint64_t>(seed_);
  doc["seconds"] = seconds_;
  doc["trace"] = trace_;
  doc["correct"] = correct();
  doc["attempted"] = attempted_;
  doc["failed"] = failed_;
  doc["error_rate"] =
      attempted_ > 0 ? static_cast<double>(failed_) / attempted_ : 1.0;
  Json failures = Json::Array();
  for (const std::string& f : failures_) failures.push_back(f);
  doc["failures"] = std::move(failures);
  Json wall = Json::Object();
  Json exact = Json::Object();
  for (const Metric& m : metrics_) {
    Json entry = Json::Object();
    entry["value"] = m.value;
    entry["unit"] = m.unit;
    if (!m.alias.empty()) entry["alias"] = m.alias;
    if (m.samples > 0) entry["samples"] = m.samples;
    (m.kind == Kind::kWall ? wall : exact)[m.name] = std::move(entry);
  }
  doc["wall"] = std::move(wall);
  doc["exact"] = std::move(exact);
  if (!layer_table_.is_null()) doc["layer_table"] = layer_table_;
  return doc;
}

std::string Record::Report() const {
  std::string out;
  char line[256];
  const auto section = [&](Kind kind, const char* title) {
    out += title;
    out += "\n";
    for (const Metric& m : metrics_) {
      if (m.kind != kind) continue;
      const std::string label =
          m.alias.empty() ? m.name : m.alias + " (" + m.name + ")";
      std::snprintf(line, sizeof line, "  %-52s %16.6g %-8s", label.c_str(),
                    m.value, m.unit.c_str());
      out += line;
      if (m.samples > 0) {
        std::snprintf(line, sizeof line, " n=%lld", m.samples);
        out += line;
      }
      out += "\n";
    }
  };
  std::snprintf(line, sizeof line,
                "workload %s seed %llu trace %d: %lld ops attempted, %lld "
                "failed, error_rate %.6g ratio\n",
                workload_.c_str(), seed_, trace_ ? 1 : 0, attempted_, failed_,
                attempted_ > 0 ? static_cast<double>(failed_) / attempted_
                               : 1.0);
  out += line;
  section(Kind::kWall, "wall-clock (host) metrics:");
  section(Kind::kExact, "exact metrics (modelled values and counts):");
  for (const std::string& f : failures_) out += "  FAILED: " + f + "\n";
  return out;
}

}  // namespace perfbench
