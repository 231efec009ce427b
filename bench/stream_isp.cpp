// Streaming camera-ISP benchmark: the raw->YUV pipeline (ops/isp.hpp) run
// over a frame sequence through the StreamExecutor, serial window vs
// frames-in-flight overlap.
//
// Two views of the same compiled plan:
//  * executed: every frame really runs (host bytecode executor for the
//    point/convolution stages), per-frame outputs are FNV-hashed, and the
//    overlap run must reproduce the serial run's hashes bit for bit; the
//    record's `frame_digest` folds them into one field, so a change to any
//    frame shows against the committed record. Sustained wall fps and p99
//    frame latency come from these runs, and the 30/60/120 fps targets are
//    judged on that wall fps.
//  * modelled: the simulated device's per-queue timeline (compute + H2D +
//    D2H copy queues, sim::StreamTimeline) replays the same stages with
//    PCIe-modelled copies. This is the device the repository benchmarks
//    (host wall-clock depends on the build machine's cores; the modelled
//    timeline is deterministic), so the --min-speedup gate holds the
//    overlap mode's modelled sustained fps to >= 1.3x serial.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "image/synthetic.hpp"
#include "ops/isp.hpp"
#include "runtime/stream_executor.hpp"
#include "sim/trace.hpp"
#include "support/hash.hpp"
#include "support/string_utils.hpp"

using namespace hipacc;

namespace {

/// FNV-1a over an image's pixel bytes — cheap per-frame output identity.
std::uint64_t HashImage(const HostImage<float>& image) {
  std::uint64_t hash = 1469598103934665603ull;
  const unsigned char* bytes =
      reinterpret_cast<const unsigned char*>(image.data());
  const std::size_t count = image.size() * sizeof(float);
  for (std::size_t i = 0; i < count; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

/// FNV-1a over the per-frame hashes in frame order, as 16 hex digits: one
/// record field that changes whenever any frame's output does.
std::string FrameDigest(const std::vector<std::uint64_t>& hashes) {
  support::Fnv1a digest;
  for (const std::uint64_t hash : hashes) digest.Mix(hash);
  return digest.hex();
}

struct ModeResult {
  runtime::StreamStats stats;
  runtime::StreamModel model;
  std::vector<std::uint64_t> hashes;  ///< y_dn ^ u ^ v per frame
};

/// One full streamed run of the ISP graph in the given mode. Output images
/// rotate through `window` slots; the in-order retire contract makes the
/// rotation safe (frame f retires before frame f+window is admitted).
/// `explain`, when set, receives the plan's fusion decisions.
Result<ModeResult> RunMode(runtime::StreamMode mode, int frames, int in_flight,
                           int size, const std::vector<HostImage<float>>& raws,
                           const HostImage<float>& gain,
                           sim::TraceSink* trace,
                           std::vector<compiler::CandidateDecision>* explain) {
  runtime::PipelineGraph graph;
  ops::BuildCameraIspGraph(graph, size, size, ast::BoundaryMode::kClamp);

  runtime::GraphOptions gopts;
  gopts.run.trace = trace;
  gopts.fuse = bench::Tuning().fuse;
  gopts.explain = explain;

  runtime::StreamOptions sopts;
  sopts.mode = mode;
  sopts.in_flight = in_flight;
  runtime::StreamExecutor executor(graph, gopts, sopts);
  HIPACC_RETURN_IF_ERROR(executor.Prepare());

  const int window = executor.window();
  std::vector<HostImage<float>> y(window, HostImage<float>(size, size));
  std::vector<HostImage<float>> u(window, HostImage<float>(size, size));
  std::vector<HostImage<float>> v(window, HostImage<float>(size, size));

  ModeResult result;
  result.hashes.resize(static_cast<std::size_t>(frames));
  const Status run = executor.Run(
      frames,
      [&](long long frame, runtime::PipelineGraph::InputBindings* in,
          runtime::PipelineGraph::OutputBindings* out) {
        const std::size_t slot = static_cast<std::size_t>(frame % window);
        in->assign({{"raw", &raws[static_cast<std::size_t>(frame) %
                                  raws.size()]},
                    {"gain", &gain}});
        out->assign(
            {{"y_dn", &y[slot]}, {"u", &u[slot]}, {"v", &v[slot]}});
        return Status::Ok();
      },
      [&](long long frame) {
        const std::size_t slot = static_cast<std::size_t>(frame % window);
        result.hashes[static_cast<std::size_t>(frame)] =
            HashImage(y[slot]) ^ HashImage(u[slot]) ^ HashImage(v[slot]);
        return Status::Ok();
      });
  HIPACC_RETURN_IF_ERROR(run);
  result.stats = executor.stats();

  Result<runtime::StreamModel> model = executor.ModelThroughput(frames);
  if (!model.ok()) return model.status();
  result.model = model.value();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  int size = 512;
  int distinct_raws = 4;
  std::string json_out = "BENCH_streaming.json";
  std::string min_speedup_text = "1.3";
  runtime::StreamCliConfig stream_cli;

  support::CliParser cli = bench::MakeBenchCli(
      "stream_isp",
      "camera ISP over a frame stream: serial vs frames-in-flight overlap");
  runtime::RegisterStreamFlags(&cli, &stream_cli);
  cli.Int("size", &size, "N", "square frame extent (default 512)");
  cli.Int("distinct-raws", &distinct_raws, "N",
          "distinct synthetic raw frames cycled through (default 4)");
  cli.String("min-speedup", &min_speedup_text, "X",
             "fail unless overlap modelled fps >= X * serial (default 1.3; "
             "0 disables)");
  cli.String("json-out", &json_out, "FILE",
             "BENCH_*.json report path (default BENCH_streaming.json)");
  if (const int code = cli.HandleArgs(argc, argv); code >= 0) return code;

  Result<runtime::StreamOptions> sopts = stream_cli.ToOptions();
  if (!sopts.ok()) {
    std::fprintf(stderr, "error: %s\n", sopts.status().ToString().c_str());
    return 2;
  }
  const double min_speedup = std::atof(min_speedup_text.c_str());
  const int frames = stream_cli.frames;
  const int in_flight = stream_cli.in_flight;
  const double fps_target = stream_cli.fps_target;

  std::vector<HostImage<float>> raws;
  for (int i = 0; i < std::max(1, distinct_raws); ++i)
    raws.push_back(MakeNoiseImage(size, size, 0x15Cu + i));
  const HostImage<float> gain = ops::MakeVignettingGain(size, size);

  sim::TraceSink trace;
  const bool both = sopts.value().mode == runtime::StreamMode::kOverlap;
  // Serial is always run: it is the bit-identity reference and the speedup
  // baseline. Overlap runs unless --stream-mode=serial narrowed the bench.
  // Both modes build the same plan; the serial run explains it.
  std::vector<compiler::CandidateDecision> decisions;
  Result<ModeResult> serial =
      RunMode(runtime::StreamMode::kSerial, frames, in_flight, size, raws,
              gain, &trace,
              bench::Tuning().explain_fusion ? &decisions : nullptr);
  if (!serial.ok()) {
    std::fprintf(stderr, "error: serial run: %s\n",
                 serial.status().ToString().c_str());
    return 1;
  }
  if (bench::Tuning().explain_fusion) bench::PrintFusionDecisions(decisions);
  Result<ModeResult> overlap =
      both ? RunMode(runtime::StreamMode::kOverlap, frames, in_flight, size,
                     raws, gain, &trace, nullptr)
           : Result<ModeResult>(serial.value());
  if (!overlap.ok()) {
    std::fprintf(stderr, "error: overlap run: %s\n",
                 overlap.status().ToString().c_str());
    return 1;
  }

  if (both) {
    for (int f = 0; f < frames; ++f) {
      if (serial.value().hashes[static_cast<std::size_t>(f)] !=
          overlap.value().hashes[static_cast<std::size_t>(f)]) {
        std::fprintf(stderr,
                     "error: frame %d outputs differ between serial and "
                     "overlap runs\n",
                     f);
        return 1;
      }
    }
  }

  bench::Table table({"wall_fps", "p50_ms", "p99_ms", "max_in_flight",
                      "model_fps", "compute_util", "copy_util"});
  const auto add_row = [&table](const char* label, const ModeResult& r) {
    table.Row(label);
    table.Cell(r.stats.fps);
    table.Cell(r.stats.LatencyPercentile(50));
    table.Cell(r.stats.LatencyPercentile(99));
    table.Cell(static_cast<double>(r.stats.max_in_flight));
    table.Cell(r.model.fps);
    table.Cell(StrFormat("%.0f%%", 100.0 * r.model.compute_utilisation));
    table.Cell(StrFormat("%.0f%% / %.0f%%", 100.0 * r.model.h2d_utilisation,
                         100.0 * r.model.d2h_utilisation));
  };
  add_row("serial", serial.value());
  if (both) add_row(StrFormat("overlap(%d)", in_flight).c_str(),
                    overlap.value());

  const std::string title = StrFormat(
      "Camera ISP stream, %dx%d, %d frames: serial vs %d-in-flight overlap",
      size, size, frames, in_flight);
  std::printf("%s\n", table.Render(title).c_str());

  const double model_speedup =
      serial.value().model.fps > 0.0
          ? overlap.value().model.fps / serial.value().model.fps
          : 0.0;
  std::printf("modelled sustained fps: serial %.1f, overlap %.1f (%.2fx)\n",
              serial.value().model.fps, overlap.value().model.fps,
              model_speedup);
  std::printf("wall fps: serial %.1f, overlap %.1f\n",
              serial.value().stats.fps, overlap.value().stats.fps);
  for (const double target : {30.0, 60.0, 120.0}) {
    std::printf("  %3.0f fps target (wall): serial %s, overlap %s\n", target,
                serial.value().stats.fps >= target ? "met" : "missed",
                overlap.value().stats.fps >= target ? "met" : "missed");
  }
  std::printf(
      "stream counters: frames %lld, runs %lld, host launches %lld, pool "
      "allocs %lld, pool reuses %lld\n",
      static_cast<long long>(trace.counter("stream.frames")),
      static_cast<long long>(trace.counter("stream.runs")),
      static_cast<long long>(trace.counter("graph.launches.host")),
      static_cast<long long>(trace.counter("bufpool.alloc")),
      static_cast<long long>(trace.counter("bufpool.reuse")));

  if (!json_out.empty()) {
    support::Json doc = table.ToJson(title);
    support::Json summary = support::Json::Object();
    summary["frames"] = static_cast<double>(frames);
    summary["in_flight"] = static_cast<double>(in_flight);
    summary["size"] = static_cast<double>(size);
    summary["serial_model_fps"] = serial.value().model.fps;
    summary["overlap_model_fps"] = overlap.value().model.fps;
    summary["model_speedup"] = model_speedup;
    summary["serial_wall_fps"] = serial.value().stats.fps;
    summary["overlap_wall_fps"] = overlap.value().stats.fps;
    summary["bit_identical"] = both;
    summary["frame_digest"] = FrameDigest(serial.value().hashes);
    if (fps_target > 0.0) summary["fps_target"] = fps_target;
    doc["summary"] = std::move(summary);
    support::Json counters = support::Json::Object();
    for (const char* key :
         {"stream.frames", "stream.runs", "graph.stages",
          "graph.fused_edges", "graph.launches.host", "graph.launches.sim",
          "bufpool.alloc", "bufpool.reuse", "bufpool.peak_bytes"})
      counters[key] = static_cast<double>(trace.counter(key));
    doc["counters"] = std::move(counters);
    const Status written = support::WriteFile(json_out, doc.Dump(2) + "\n");
    if (!written.ok()) {
      std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
      return 1;
    }
  }

  if (both && min_speedup > 0.0 && model_speedup < min_speedup) {
    std::fprintf(stderr,
                 "error: overlap modelled fps only %.2fx serial "
                 "(required %.2fx)\n",
                 model_speedup, min_speedup);
    return 1;
  }
  return 0;
}
