// farmbench: the measuring binary behind perfbench/run.py.
//
//   farmbench reference --workload W --seed S --out FILE
//       Digests every scene frame of the workload, rendered by one
//       single-threaded CoherentRenderer over the whole image. Runs in its
//       own process so it never shows in a timed run's memory or time.
//
//   farmbench run --workload W --seed S --seconds N --trace 0|1
//                 --refs FILE --work-dir DIR [--trace-dir DIR]
//       --trace 0: repeated render_farm() calls with tracing off, each
//                  checked against the reference digests; prints the
//                  end-to-end metrics (totals over the calls; set-up as a
//                  median).
//       --trace 1: render_farm() calls for the farm-side counts, then the
//                  single-threaded traced replay (replay.h); prints the
//                  per-layer metrics and writes a Chrome trace and a layer
//                  table into --trace-dir.
//
// Output: human-readable lines, then "#info {...}", then the result object
// {"correct", "attempted", "failed", "metrics"} as the last line. Exit code
// 0 only when every frame matched its reference and the replay matched
// CoherentRenderer.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "replay.h"
#include "spans.h"
#include "src/ckpt/journal.h"
#include "src/ckpt/recovery.h"
#include "src/core/coherent_renderer.h"
#include "src/image/image_io.h"
#include "src/par/cost_model.h"
#include "workloads.h"

namespace nowbench {
namespace {

using Clock = std::chrono::steady_clock;

// Set-ups per set-up sample (the sample is their mean).
constexpr int kSetupBatch = 100;
// A timed run makes at least this many measured render_farm calls.
constexpr int kMinCalls = 5;
// The replay's layer spans should cover this share of render_frame's time.
constexpr double kMinCoverage = 0.95;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void fresh_dir(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
}

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string refs;
  std::string out;
  std::string work_dir;
  std::string trace_dir = ".";
};

Args parse_args(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("missing mode");
  Args a;
  a.mode = argv[1];
  for (int i = 2; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(key + " needs a value");
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = std::stoi(value);
    } else if (key == "--refs") {
      a.refs = value;
    } else if (key == "--out") {
      a.out = value;
    } else if (key == "--work-dir") {
      a.work_dir = value;
    } else if (key == "--trace-dir") {
      a.trace_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + key);
    }
  }
  return a;
}

// -- reference digests -------------------------------------------------------

int run_reference(const WorkloadSpec& spec, const Args& a) {
  const WorkloadInputs in = make_inputs(spec, a.seed, /*output_dir=*/"");
  const now::AnimatedScene& scene = in.scene;
  now::CoherenceOptions options = in.config.coherence;
  options.threads = 1;
  options.metrics = nullptr;
  now::CoherentRenderer renderer(scene, {0, 0, scene.width(), scene.height()},
                                 options);
  now::Framebuffer fb(scene.width(), scene.height());
  const std::string tmp = a.out + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    out << "nowbench-reference " << spec.name << ' ' << a.seed << ' '
        << scene.frame_count() << '\n';
    for (int f = 0; f < scene.frame_count(); ++f) {
      renderer.render_frame(f, &fb);
      out << std::hex << now::digest_frame(fb) << std::dec << '\n';
    }
    if (!out) return 1;
  }
  std::filesystem::rename(tmp, a.out);
  return 0;
}

std::vector<std::uint32_t> read_reference(const WorkloadSpec& spec,
                                          const Args& a, int frames) {
  std::ifstream in(a.refs);
  std::string magic;
  std::string name;
  std::uint64_t seed = 0;
  int count = 0;
  in >> magic >> name >> seed >> count;
  if (!in || magic != "nowbench-reference" || name != spec.name ||
      seed != a.seed || count != frames) {
    throw std::runtime_error("reference digests missing or stale: " + a.refs);
  }
  std::vector<std::uint32_t> digests(static_cast<std::size_t>(count));
  for (std::uint32_t& d : digests) in >> std::hex >> d;
  if (!in) throw std::runtime_error("truncated reference digests: " + a.refs);
  return digests;
}

// -- correctness gate --------------------------------------------------------

struct Verdict {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  Verdict& operator+=(const Verdict& o) {
    attempted += o.attempted;
    failed += o.failed;
    return *this;
  }
};

/// Frames one render_farm call was asked for, and how many are missing or
/// differ from the reference (in memory, and on disk for the durable run).
Verdict verify(const WorkloadInputs& in, const now::FarmResult& r,
               const std::vector<std::uint32_t>& ref) {
  const auto matches = [&](const now::Framebuffer& fb, int scene_frame) {
    return fb.width() == in.scene.width() &&
           fb.height() == in.scene.height() && scene_frame >= 0 &&
           scene_frame < static_cast<int>(ref.size()) &&
           now::digest_frame(fb) ==
               ref[static_cast<std::size_t>(scene_frame)];
  };
  std::int64_t good = 0;
  if (!in.config.service.enabled) {
    for (int f = 0; f < in.scene.frame_count(); ++f) {
      bool ok = f < static_cast<int>(r.frames.size()) &&
                matches(r.frames[static_cast<std::size_t>(f)], f);
      if (ok && !in.config.output_dir.empty()) {
        now::Framebuffer disk;
        ok = now::read_tga(&disk,
                           now::frame_file_path(in.config.output_dir,
                                                in.config.output_prefix, f)) &&
             matches(disk, f);
      }
      good += ok ? 1 : 0;
    }
  } else {
    for (const now::FarmResult::ShotResult& shot : r.shots) {
      if (shot.summary.phase != now::ShotPhase::kDone) continue;
      for (std::size_t f = 0; f < shot.frames.size(); ++f) {
        good += matches(shot.frames[f], shot.summary.scene_first_frame +
                                            static_cast<int>(f))
                    ? 1
                    : 0;
      }
    }
  }
  Verdict v;
  v.attempted = in.frames_expected;
  // More good frames than scripted means a shot was delivered twice.
  v.failed = good <= v.attempted ? v.attempted - good : good - v.attempted;
  return v;
}

// -- output ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

int emit(const Verdict& verdict, bool replay_ok,
         const std::vector<Metric>& metrics,
         const std::vector<std::pair<std::string, std::string>>& info) {
  const bool correct = verdict.failed == 0 && replay_ok;
  for (const Metric& m : metrics) {
    std::printf("  %-30s %18.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::string line = "#info {";
  for (std::size_t i = 0; i < info.size(); ++i) {
    line += (i ? "," : "") + json_string(info[i].first) + ":" + info[i].second;
  }
  std::printf("%s}\n", line.c_str());
  std::string out = "{\"correct\":";
  out += correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(verdict.attempted);
  out += ",\"failed\":" + std::to_string(verdict.failed);
  out += ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? "," : "") + json_string(metrics[i].name) +
           ":{\"value\":" + json_number(metrics[i].value) +
           ",\"unit\":" + json_string(metrics[i].unit) + "}";
  }
  std::printf("%s}}\n", out.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

std::vector<std::pair<std::string, std::string>> base_info(
    const WorkloadSpec& spec, const Args& a, const WorkloadInputs& in) {
  return {{"workload", json_string(spec.name)},
          {"seed", std::to_string(a.seed)},
          {"busy_ranks", std::to_string(spec.busy_ranks)},
          {"build_type", json_string(NOWBENCH_BUILD_TYPE)},
          {"compiler", json_string(NOWBENCH_COMPILER)},
          {"release_angle_degrees", json_number(in.release_angle_degrees)},
          {"frames_per_call", std::to_string(in.frames_expected)}};
}

// -- timed run (end-to-end metrics) ------------------------------------------

int run_timed(const WorkloadSpec& spec, const Args& a) {
  // Set-up: scene construction and config validation. One set-up takes
  // microseconds, so each sample is the mean of a batch (whose inputs are
  // destroyed after the clock stops). A sample is taken before every farm
  // call: samples spread over the run average out the host's slow speed
  // drift better than a burst at the start. The durable workload's fresh
  // output directory is prepared before each call but not timed: its cost
  // is filesystem metadata latency, which moved set-up by half run to run.
  const std::string out_dir = a.work_dir + "/frames";
  std::vector<double> setup;
  const auto sample_setup = [&] {
    std::vector<WorkloadInputs> made;
    made.reserve(kSetupBatch);
    const auto t0 = Clock::now();
    for (int b = 0; b < kSetupBatch; ++b) {
      made.push_back(make_inputs(spec, a.seed, out_dir));
      now::validate_farm_config(made.back().scene, made.back().config);
    }
    setup.push_back(seconds_since(t0) / kSetupBatch);
  };
  const WorkloadInputs in = make_inputs(spec, a.seed, out_dir);
  const std::vector<std::uint32_t> ref =
      read_reference(spec, a, in.scene.frame_count());

  // Throughput, CPU and bytes are totals over the measured calls, not
  // medians of per-call values: on the durable workload a call's rate is
  // bimodal (about 40 or 51 frames/s), and a per-call median flips between
  // the two modes from run to run while the total rate moves smoothly with
  // the share of slow calls.
  Verdict verdict;
  std::vector<double> fps;  // per call, printed only
  double total_frames = 0.0;
  double total_wall = 0.0;
  double total_cpu = 0.0;
  double total_bytes = 0.0;
  const auto call = [&](bool measured) {
    sample_setup();
    if (spec.durable) fresh_dir(out_dir);  // a fresh directory per call
    const double cpu0 = cpu_seconds();
    const auto t0 = Clock::now();
    const now::FarmResult r = now::render_farm(in.scene, in.config);
    const double wall = seconds_since(t0);
    const double cpu = cpu_seconds() - cpu0;
    const Verdict v = verify(in, r, ref);
    verdict += v;
    if (!measured) return;
    const double frames = static_cast<double>(v.attempted - v.failed);
    fps.push_back(ratio(frames, wall));
    total_frames += frames;
    total_wall += wall;
    total_cpu += cpu;
    total_bytes += static_cast<double>(r.runtime.bytes);
  };
  // The run, warm-up included, ends by --seconds: a call starts only if a
  // call of the median length so far still fits. Runs as long as the time
  // budget allows average over more of the host's slow speed drift.
  const auto start = Clock::now();
  call(false);  // warm-up: thread start-up, first-touch allocation, caches
  std::vector<double> call_seconds;
  while (static_cast<int>(fps.size()) < kMinCalls ||
         seconds_since(start) + median(call_seconds) < a.seconds) {
    const auto t0 = Clock::now();
    call(true);
    call_seconds.push_back(seconds_since(t0));
  }

  // Per-call samples behind the totals, for judging a run's noise.
  std::fprintf(stderr, "%s frames/s per call:", spec.name);
  for (const double v : fps) std::fprintf(stderr, " %.2f", v);
  std::fprintf(stderr, "\n%s set-up us per sample:", spec.name);
  for (const double v : setup) std::fprintf(stderr, " %.3f", v * 1e6);
  std::fprintf(stderr, "\n");
  auto info = base_info(spec, a, in);
  info.push_back({"calls", std::to_string(fps.size())});
  return emit(verdict, true,
              {{"frames_per_s", ratio(total_frames, total_wall), "frames/s"},
               {"setup_s", median(setup), "s"},
               {"cpu_s_per_frame", ratio(total_cpu, total_frames), "s"},
               {"wire_bytes_per_frame", ratio(total_bytes, total_frames), "B"},
               {"peak_rss_mb", peak_rss_mb(), "MB"}},
              info);
}

// -- traced run (per-layer metrics) ------------------------------------------

/// Farm-side counts of one render_farm call (the "(farm)" metrics).
std::map<std::string, double> farm_counts(const WorkloadInputs& in,
                                          const now::FarmResult& r,
                                          double wall) {
  const now::MetricsSnapshot& m = r.metrics;
  const double frames = static_cast<double>(in.frames_expected);
  std::map<std::string, double> c;
  c["wall_s"] = wall;
  c["core.restart_frac"] =
      ratio(static_cast<double>(r.master.full_renders),
            static_cast<double>(r.master.frame_results));
  std::int64_t peak_mark = 0;
  for (const now::WorkerReport& w : r.workers) {
    peak_mark = std::max(peak_mark, w.peak_mark_bytes);
  }
  c["core.peak_mark_bytes"] = static_cast<double>(peak_mark);
  c["par.frame_results"] = static_cast<double>(r.master.frame_results);
  c["par.adaptive_splits"] = static_cast<double>(r.master.adaptive_splits);
  const double raw = static_cast<double>(m.counter("net.frame_bytes_raw"));
  const double wire = static_cast<double>(m.counter("net.frame_bytes_wire"));
  c["net.frame_bytes_raw"] = raw;
  c["net.frame_bytes_wire"] = wire;
  c["net.compress_ratio"] = ratio(raw, wire);
  c["net.key_frames"] = static_cast<double>(m.counter("net.key_frames"));
  c["net.delta_frames"] = static_cast<double>(m.counter("net.delta_frames"));
  c["net.messages_per_frame"] =
      ratio(static_cast<double>(r.runtime.messages), frames);
  c["ckpt.journal_bytes"] = static_cast<double>(m.counter("ckpt.journal_bytes"));
  // One endpoint holds every frame without shards: imbalance 1.
  double max_bytes = 0.0;
  double sum_bytes = 0.0;
  for (const now::ShardReport& s : r.shards) {
    max_bytes = std::max(max_bytes, static_cast<double>(s.frame_bytes));
    sum_bytes += static_cast<double>(s.frame_bytes);
  }
  c["shard.bytes_imbalance"] =
      r.shards.empty()
          ? 1.0
          : ratio(max_bytes,
                  sum_bytes / static_cast<double>(r.shards.size()));
  // Service path: grants, the contended-window unit share over the weight
  // ratio, and the highest in-flight count any tenant reached.
  c["par.service.grants"] = static_cast<double>(r.assignment_log.size());
  double peak_inflight = 0.0;
  for (const now::TenantSummary& t : r.tenants) {
    peak_inflight = std::max(peak_inflight, static_cast<double>(t.peak_inflight));
  }
  c["par.service.peak_inflight"] = peak_inflight;
  double share = 0.0;
  if (r.tenants.size() == 2) {
    int last[2] = {-1, -1};
    for (int i = 0; i < static_cast<int>(r.assignment_log.size()); ++i) {
      const int t = r.assignment_log[static_cast<std::size_t>(i)].tenant;
      if (t == 0 || t == 1) last[t] = i;
    }
    double units[2] = {0.0, 0.0};
    for (int i = 0; i <= std::min(last[0], last[1]); ++i) {
      const now::ServiceAssignment& g =
          r.assignment_log[static_cast<std::size_t>(i)];
      if (g.tenant == 0 || g.tenant == 1) {
        units[g.tenant] += static_cast<double>(g.units);
      }
    }
    const double weights = ratio(r.tenants[0].weight, r.tenants[1].weight);
    share = ratio(ratio(units[0], units[1]), weights);
  }
  c["par.service.share_ratio"] = share;
  return c;
}

double seconds_of(const std::map<std::string, SpanTotal>& totals,
                  std::initializer_list<const char*> names) {
  double s = 0.0;
  for (const char* name : names) {
    const auto it = totals.find(name);
    if (it != totals.end()) s += it->second.self_seconds;
  }
  return s;
}

/// Worker-side and master-side program time: every span outside the bench's
/// own ("bench" layer) spans.
double side_seconds(const std::map<std::string, SpanTotal>& totals, Side side) {
  double s = 0.0;
  for (const auto& [name, t] : totals) {
    if (t.side == side && std::string(t.layer) != "bench") s += t.self_seconds;
  }
  return s;
}

int run_traced(const WorkloadSpec& spec, const Args& a) {
  const auto start = Clock::now();
  const std::string out_dir = a.work_dir + "/frames";
  const WorkloadInputs in = make_inputs(spec, a.seed, out_dir);
  now::validate_farm_config(in.scene, in.config);
  const std::vector<std::uint32_t> ref =
      read_reference(spec, a, in.scene.frame_count());

  // Farm-side counts from render_farm calls with tracing off.
  Verdict verdict;
  std::map<std::string, std::vector<double>> farm;
  for (int calls = 0;
       calls < 2 || (calls < 5 && seconds_since(start) < 0.3 * a.seconds);
       ++calls) {
    if (spec.durable) fresh_dir(out_dir);
    const auto t0 = Clock::now();
    const now::FarmResult r = now::render_farm(in.scene, in.config);
    const double wall = seconds_since(t0);
    verdict += verify(in, r, ref);
    for (const auto& [name, value] : farm_counts(in, r, wall)) {
      farm[name].push_back(value);
    }
  }
  const double farm_wall = median(farm["wall_s"]);

  // Replay pass 0 checks fidelity against CoherentRenderer; then passes
  // alternate spans off / on for the layer times and the span overhead.
  ReplayOptions options;
  options.work_dir = a.work_dir + "/replay";
  options.fidelity = true;
  SpanRecorder fidelity_spans(true);
  const ReplayTotals fid = run_replay(in, ref, options, &fidelity_spans);
  const std::map<std::string, SpanTotal> fid_totals =
      span_totals(fidelity_spans.spans());
  options.fidelity = false;
  const auto count_frames = [&](const ReplayTotals& t) {
    verdict.attempted += t.frames_checked;
    verdict.failed += t.frames_failed;
  };
  count_frames(fid);

  std::vector<double> off_wall;
  std::vector<double> on_wall;
  std::vector<double> digest_probe;
  std::vector<std::map<std::string, SpanTotal>> on_totals;
  std::vector<Span> last_spans;
  std::vector<double> pair_seconds;
  do {
    const auto t0 = Clock::now();
    SpanRecorder off(false);
    const ReplayTotals t_off = run_replay(in, ref, options, &off);
    count_frames(t_off);
    off_wall.push_back(t_off.wall_seconds);
    SpanRecorder on(true);
    const ReplayTotals t_on = run_replay(in, ref, options, &on);
    count_frames(t_on);
    on_wall.push_back(t_on.wall_seconds);
    digest_probe.push_back(t_on.digest_probe_seconds);
    on_totals.push_back(span_totals(on.spans()));
    last_spans = on.spans();
    pair_seconds.push_back(seconds_since(t0));
    // Another off/on pair only if one of the median length still fits.
  } while (seconds_since(start) + median(pair_seconds) < a.seconds &&
           on_wall.size() < 50);
  std::filesystem::remove_all(options.work_dir);

  const auto layer = [&](std::initializer_list<const char*> names) {
    std::vector<double> v;
    for (const auto& t : on_totals) v.push_back(seconds_of(t, names));
    return median(v);
  };
  const auto side = [&](Side s) {
    std::vector<double> v;
    for (const auto& t : on_totals) v.push_back(side_seconds(t, s));
    return median(v);
  };
  const auto farm_value = [&](const char* name) { return median(farm[name]); };

  const double world_s = layer({"scene.world_at", "scene.accel_build"});
  const double shade_s = layer({"trace.shade"});
  const double mark_s = layer({"core.mark", "core.mark.reset"});
  const double detect_s = layer({"core.detect"});
  const double covered =
      seconds_of(fid_totals, {"scene.world_at", "scene.accel_build",
                              "trace.shade", "core.mark", "core.mark.reset",
                              "core.detect"});
  const double workers = static_cast<double>(in.config.workers);
  const bool replay_ok = fid.fidelity_mismatches == 0;
  if (!replay_ok) {
    std::fprintf(stderr, "replay fidelity: %lld region-frame(s) differ from "
                 "CoherentRenderer::render_frame\n",
                 static_cast<long long>(fid.fidelity_mismatches));
  }
  // Coverage is a timing ratio, so host noise can move it: a low value is
  // reported, not failed.
  const double coverage = ratio(covered, fid.render_frame_seconds);
  if (coverage < kMinCoverage) {
    std::fprintf(stderr, "replay coverage %.3f < %.2f: the layer spans miss "
                 "part of render_frame's time\n", coverage, kMinCoverage);
  }

  const std::vector<Metric> metrics = {
      {"scene.world_build_s", world_s, "s"},
      {"scene.world_builds", static_cast<double>(fid.world_builds), "count"},
      {"trace.shade_s", shade_s, "s"},
      {"trace.rays", static_cast<double>(fid.rays), "count"},
      {"trace.ns_per_ray", 1e9 * ratio(shade_s, static_cast<double>(fid.rays)),
       "ns"},
      {"core.mark_s", mark_s, "s"},
      {"core.voxels_marked", static_cast<double>(fid.voxels_marked), "count"},
      {"core.ns_per_mark",
       1e9 * ratio(layer({"core.mark"}), static_cast<double>(fid.voxels_marked)),
       "ns"},
      {"core.first_frame_mark_share",
       ratio(fid.full_mark_seconds, fid.full_render_frame_seconds), "ratio"},
      {"core.detect_s", detect_s, "s"},
      {"core.dirty_voxels", static_cast<double>(fid.dirty_voxels), "count"},
      {"core.render_frame_s", fid.render_frame_seconds, "s"},
      {"core.coverage_frac", coverage, "ratio"},
      {"core.recompute_frac",
       ratio(static_cast<double>(fid.pixels_recomputed),
             static_cast<double>(fid.region_pixels)),
       "ratio"},
      {"core.restart_frac", farm_value("core.restart_frac"), "ratio"},
      {"core.peak_mark_bytes", farm_value("core.peak_mark_bytes"), "B"},
      {"image.payload_s", layer({"image.payload"}), "s"},
      {"image.apply_s", layer({"image.apply"}), "s"},
      {"image.tga_write_s", layer({"image.tga_write"}), "s"},
      {"par.encode_s", layer({"par.encode"}), "s"},
      {"par.decode_s", layer({"par.decode"}), "s"},
      {"par.frame_results", farm_value("par.frame_results"), "count"},
      {"par.adaptive_splits", farm_value("par.adaptive_splits"), "count"},
      {"par.worker_busy_frac",
       ratio(side(Side::kWorker), workers * farm_wall), "ratio"},
      {"par.master_busy_frac", ratio(side(Side::kMaster), farm_wall), "ratio"},
      {"par.service.grants", farm_value("par.service.grants"), "count"},
      {"par.service.share_ratio", farm_value("par.service.share_ratio"),
       "ratio"},
      {"par.service.peak_inflight", farm_value("par.service.peak_inflight"),
       "count"},
      {"net.frame_bytes_raw", farm_value("net.frame_bytes_raw"), "B"},
      {"net.frame_bytes_wire", farm_value("net.frame_bytes_wire"), "B"},
      {"net.compress_ratio", farm_value("net.compress_ratio"), "ratio"},
      {"net.key_frames", farm_value("net.key_frames"), "count"},
      {"net.delta_frames", farm_value("net.delta_frames"), "count"},
      {"net.messages_per_frame", farm_value("net.messages_per_frame"), "count"},
      {"ckpt.commit_s", layer({"ckpt.commit"}), "s"},
      {"ckpt.digest_s", median(digest_probe), "s"},
      {"ckpt.journal_bytes", farm_value("ckpt.journal_bytes"), "B"},
      {"shard.complete_s", layer({"shard.complete"}), "s"},
      {"shard.bytes_imbalance", farm_value("shard.bytes_imbalance"), "ratio"},
      {"obs.span_overhead_frac", ratio(median(on_wall), median(off_wall)) - 1.0,
       "ratio"},
  };

  // Trace artifacts: the last spans-on pass as a Chrome trace, and its
  // per-layer table.
  std::filesystem::create_directories(a.trace_dir);
  const std::string stem = a.trace_dir + "/" + spec.name + "-seed" +
                           std::to_string(a.seed);
  const std::string table = layer_table(span_totals(last_spans));
  {
    std::ofstream out(stem + ".layers.txt", std::ios::trunc);
    out << "# " << spec.name << " seed " << a.seed
        << ": traced replay, one pass (self seconds)\n"
        << table;
  }
  if (!write_chrome_trace(last_spans, stem + ".trace.json")) {
    std::fprintf(stderr, "cannot write %s.trace.json\n", stem.c_str());
    return 1;
  }
  std::printf("%s", table.c_str());
  std::printf("trace: %zu spans -> %s.trace.json\n", last_spans.size(),
              stem.c_str());

  auto info = base_info(spec, a, in);
  info.push_back({"replay_passes", std::to_string(on_wall.size())});
  info.push_back({"farm_wall_s", json_number(farm_wall)});
  info.push_back({"replay_fidelity_mismatches",
                  std::to_string(fid.fidelity_mismatches)});
  info.push_back({"trace_file", json_string(stem + ".trace.json")});
  info.push_back({"layer_table", json_string(stem + ".layers.txt")});
  // CostModel's modelled mark share of the same full renders (calibrated to
  // the paper's 12 %), beside the measured core.first_frame_mark_share.
  const now::CostModel model;
  const double model_mark =
      static_cast<double>(fid.full_voxels_marked) * model.seconds_per_voxel_mark;
  const double model_total =
      static_cast<double>(fid.full_rays) * model.seconds_per_ray + model_mark +
      static_cast<double>(fid.full_region_pixels) *
          model.seconds_per_pixel_touch +
      static_cast<double>(fid.full_frames) * model.seconds_per_frame_setup;
  info.push_back({"model_first_frame_mark_share",
                  json_number(ratio(model_mark, model_total))});
  return emit(verdict, replay_ok, metrics, info);
}

}  // namespace
}  // namespace nowbench

int main(int argc, char** argv) {
  using namespace nowbench;
  try {
    const Args a = parse_args(argc, argv);
    const WorkloadSpec* spec = find_workload(a.workload);
    if (spec == nullptr) {
      std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
      return 2;
    }
    if (a.mode == "reference" && !a.out.empty()) return run_reference(*spec, a);
    if (a.mode == "run" && !a.refs.empty() && !a.work_dir.empty()) {
      return a.trace != 0 ? run_traced(*spec, a) : run_timed(*spec, a);
    }
    std::fprintf(stderr,
                 "usage: farmbench reference --workload W --seed S --out F\n"
                 "       farmbench run --workload W --seed S --seconds N "
                 "--trace 0|1 --refs F --work-dir D [--trace-dir D]\n");
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "farmbench: %s\n", e.what());
    return 2;
  }
}
