// Benchmark binary: runs one named workload per process and writes its
// result record (perfbench/run.py builds this binary, adds provenance and
// prints the one-line result).
//
//   perfbench --workload=isp_stream --seed=1 --seconds=10 --trace=0
//             --record-out=FILE [--repo-root=DIR] [--out-dir=DIR]
//
// Exit status: 0 when every checked operation succeeded, 1 when any failed
// (the record is still written), 2 on a usage error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "stats.hpp"
#include "support/json.hpp"
#include "workload.hpp"

namespace {

using perfbench::RunArgs;

int Usage(const char* error) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload=isp_stream|"
               "kernel_tune --seed=N --seconds=N "
               "--trace=0|1 --record-out=FILE [--repo-root=DIR] "
               "[--out-dir=DIR] [--corrupt-reference]\n",
               error);
  return 2;
}

bool ParseInt(const std::string& text, long long min, long long* out) {
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || value < min) return false;
  *out = value;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  std::string record_out;
  long long trace = -1, seconds = -1, seed = -1;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    }
    if (arg == "--workload") args.workload = value;
    else if (arg == "--seed") { if (!ParseInt(value, 0, &seed)) return Usage("bad --seed"); }
    else if (arg == "--seconds") { if (!ParseInt(value, 1, &seconds)) return Usage("bad --seconds"); }
    else if (arg == "--trace") { if (!ParseInt(value, 0, &trace) || trace > 1) return Usage("bad --trace"); }
    else if (arg == "--record-out") record_out = value;
    else if (arg == "--repo-root") args.repo_root = value;
    else if (arg == "--out-dir") args.out_dir = value;
    else if (arg == "--corrupt-reference") args.corrupt_reference = true;
    else return Usage(("unknown argument " + arg).c_str());
  }
  if (seed < 0 || seconds < 0 || trace < 0 || record_out.empty())
    return Usage("--seed, --seconds, --trace and --record-out are required");
  args.seed = static_cast<unsigned long long>(seed);
  args.seconds = static_cast<int>(seconds);
  args.trace = trace == 1;

  void (*run)(const RunArgs&, perfbench::Record*) = nullptr;
  if (args.workload == "isp_stream") run = perfbench::RunIspStream;
  else if (args.workload == "kernel_tune") run = perfbench::RunKernelTune;
  else return Usage(("unknown workload '" + args.workload + "'").c_str());

  perfbench::Record record(args.workload, args.seed, args.seconds, args.trace);
  try {
    run(args, &record);
  } catch (const std::exception& e) {
    record.Check(false, std::string("aborted: ") + e.what());
  }
  // The whole process's peak, read last so every phase is covered.
  perfbench::AddEndToEnd(&record, "peak_rss_mb",
                         perfbench::ReadUsage().max_rss_mb, "MB", "");

  std::printf("%s", record.Report().c_str());
  const hipacc::Status written = hipacc::support::WriteFile(
      record_out, record.ToJson().Dump(1) + "\n");
  if (!written.ok()) {
    std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
    return 1;
  }
  return record.correct() ? 0 : 1;
}
