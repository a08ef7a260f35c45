// render_farm_cli: the downstream-user tool — parse a scene file and render
// it on a farm backend.
//
//   $ ./render_farm_cli scene.scene [--backend sim|threads|tcp]
//        [--scheme seq|frame|hybrid] [--workers N] [--speeds a,b,c]
//        [--threads N] [--block N] [--no-coherence] [--out DIR]
//        [--frame-codec raw|delta]
//        [--journal FILE] [--resume] [--speculate] [--shards N]
//        [--trace-out FILE] [--metrics-out FILE] [--report]
//        [--status-port P] [--sample-interval S] [--flight-recorder [DIR]]
//        [--kill-worker R] [--kill-shard S] [--kill-scheduler]
//        [--chaos-seed N]
//        [--submit TENANT:WEIGHT:FIRST:COUNT[:QUOTA]] [--poll AT:INDEX]
//        [--cancel AT:INDEX]
//
// Every numeric flag is parsed with a validating helper: junk, trailing
// garbage, or out-of-range values print a message and exit 2 instead of
// silently becoming 0. A frame that cannot be written to --out DIR (missing
// or unwritable directory) is an error: the run reports the count and exits
// 1.
//
// Multi-tenant service: one or more --submit flags switch the farm into
// service mode — each SPEC submits frames [FIRST, FIRST+COUNT) of the scene
// as one shot for TENANT with the given weight (and optional in-flight
// quota), all at t = 0 through a scripted client. --poll AT:INDEX requests
// a status of the INDEX-th submit (0-based) AT seconds in; --cancel
// AT:INDEX cancels it. The run ends when every admitted shot is terminal;
// the CLI prints the shot table and per-tenant fairness accounting.
//
// --threads sets the render threads *inside* each worker (0 = one per
// hardware thread, the default; output is byte-identical for any value).
// The sim backend always renders with 1 thread — its compute time is
// virtual, so real render threads would only add wall-clock noise.
//
// Frame transport: --frame-codec delta (the default) sends incremental
// frames as value-diffed sparse runs in a compressed, CRC-checked envelope;
// raw sends the uncompressed payloads of earlier versions. Final frames are
// byte-identical either way — only wire bytes change. Workers encode and
// send each frame inline on every backend.
//
// Crash recovery: --journal appends a crash-consistent record of every
// committed region-frame (fsync'd, CRC-framed) alongside atomically-renamed
// frame files; after a crash, rerunning with --resume replays the journal,
// keeps the completed frames, and renders only the remainder — the final
// animation is byte-identical to an uninterrupted run. --speculate
// duplicates the slowest in-flight task onto idle workers at the end of the
// run and keeps whichever copy finishes first.
//
// Sharded framebuffer: --shards N (default 1) splits the master into a thin
// scheduler plus N framebuffer shards, each owning a contiguous frame range
// — workers stream pixels straight to the owning shard, the scheduler sees
// only small digests. Output is byte-identical to --shards 1; a journaled
// sharded run must resume with the same shard count.
//
// Observability: --trace-out writes a Chrome trace-event JSON file (open it
// in Perfetto / chrome://tracing; under --backend sim the file is
// byte-identical across runs), --metrics-out writes the metrics snapshot as
// JSON, and --report prints the per-worker busy/comm/idle utilization table
// and the frame-write failure count.
// The trace file is validated before writing; an invalid trace is a bug and
// exits non-zero.
//
// Live telemetry: --status-port P starts an HTTP listener on 127.0.0.1:P
// (0 = ephemeral; the bound port is printed) serving GET /metrics
// (Prometheus text) and GET /status (scheduler JSON: per-worker lease/task
// state, queue depth, shard progress, stragglers, recent throughput) while
// the render runs — wall-clock backends only, inert under sim.
// --sample-interval S sets the scheduler's telemetry sampling period in
// seconds (default 0.25 when the status port is on; under sim the interval
// is virtual time). --flight-recorder [DIR] keeps a bounded in-memory ring
// of recent trace events per rank and flushes trace-crash-<rank>.json into
// DIR (default .) when a rank dies — by fault injection or fatal signal.
// --kill-worker R injects a deterministic crash of worker rank R after its
// second frame result and enables short-lease failure detection, so the run
// exercises death → reclaim → recovery end to end (pair with
// --flight-recorder to get R's crash trace).
//
// Failure drills for the other rank classes: --kill-shard S kills
// framebuffer shard S (0-based; requires --shards > S and --journal) after
// its second committed digest and restarts it one second later — the
// scheduler rolls the shard's incomplete frames back and the replacement
// rebuilds committed state from its journal segment. --kill-scheduler kills
// rank 0 after its third task assignment (sim backend with --journal only);
// the run ends partial and a rerun with --resume restarts the scheduler
// from its checkpoint, byte-identical to an uninterrupted run.
// --chaos-seed N expands seed N into a randomized fault schedule (kills,
// drops, duplicates, reorders, delays — exactly the soak harness's
// generator), prints it, and runs under it; the same seed and shape always
// replays the same schedule. All drills flush trace-crash-<rank>.json for
// every induced death when --flight-recorder is armed.
//
// With --backend threads or tcp, rendering runs with real parallelism on
// this machine (wall-clock timing); with sim (default) it runs on the
// deterministic virtual cluster with per-worker speed factors.
//
// Camera cuts in the scene are reported up front; the coherence renderer
// restarts automatically at each cut (a stationary camera per shot is the
// algorithm's requirement, Section 3 of the paper).
//
// Each worker holds the coherence state of the last region it rendered, and
// the scheduler prefers to give it that region again: a stolen remainder,
// a reassigned task, the next subsequence of a --scheme hybrid tile or the
// next shot of a tile continues from the held frame instead of paying a
// full render (the paper's slaves restart coherence with every task). Only
// work counters and timings change; the frames are the same bytes.
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/fault/chaos.h"
#include "src/obs/flight_recorder.h"
#include "src/par/protocol.h"
#include "src/par/render_farm.h"
#include "src/par/serial.h"
#include "src/scene/scene_parser.h"

using namespace now;

namespace {

// -- validated numeric parsing ---------------------------------------------
// Every numeric operand goes through one of these: junk ("banana"), trailing
// garbage ("3x"), and out-of-range values all die with a message and exit 2
// instead of atoi's silent 0.

[[noreturn]] void flag_die(const char* flag, const std::string& text,
                           const std::string& why) {
  std::fprintf(stderr, "%s: invalid value '%s' (%s)\n", flag, text.c_str(),
               why.c_str());
  std::exit(2);
}

long long parse_int_flag(const char* flag, const std::string& text,
                         long long min, long long max) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0') {
    flag_die(flag, text, "expected an integer");
  }
  if (errno == ERANGE || v < min || v > max) {
    flag_die(flag, text, "expected an integer in [" + std::to_string(min) +
                             ", " + std::to_string(max) + "]");
  }
  return v;
}

std::uint64_t parse_u64_flag(const char* flag, const std::string& text) {
  errno = 0;
  char* end = nullptr;
  if (!text.empty() && text[0] == '-') {
    flag_die(flag, text, "expected a non-negative integer");
  }
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0') {
    flag_die(flag, text, "expected a non-negative integer");
  }
  if (errno == ERANGE) flag_die(flag, text, "out of range");
  return v;
}

double parse_double_flag(const char* flag, const std::string& text,
                         double min, double max) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || !std::isfinite(v)) {
    flag_die(flag, text, "expected a number");
  }
  if (errno == ERANGE || v < min || v > max) {
    flag_die(flag, text, "expected a number in [" + std::to_string(min) +
                             ", " + std::to_string(max) + "]");
  }
  return v;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (true) {
    const std::size_t next = s.find(sep, pos);
    out.push_back(s.substr(pos, next - pos));
    if (next == std::string::npos) break;
    pos = next + 1;
  }
  return out;
}

std::vector<double> parse_speeds(const std::string& csv) {
  std::vector<double> out;
  for (const std::string& part : split(csv, ',')) {
    out.push_back(parse_double_flag("--speeds", part, 1e-6, 1e6));
  }
  return out;
}

/// TENANT:WEIGHT:FIRST:COUNT[:QUOTA] → one t=0 submit action.
ClientAction parse_submit_spec(const std::string& spec) {
  const std::vector<std::string> parts = split(spec, ':');
  if (parts.size() < 4 || parts.size() > 5 || parts[0].empty()) {
    flag_die("--submit", spec, "expected TENANT:WEIGHT:FIRST:COUNT[:QUOTA]");
  }
  ClientAction a;
  a.kind = ClientActionKind::kSubmit;
  a.submit.tenant = parts[0];
  a.submit.weight = parse_double_flag("--submit", parts[1], 1e-6, 1e6);
  a.submit.first_frame = static_cast<std::int32_t>(
      parse_int_flag("--submit", parts[2], 0, 1 << 24));
  a.submit.frame_count = static_cast<std::int32_t>(
      parse_int_flag("--submit", parts[3], 1, 1 << 24));
  if (parts.size() == 5) {
    a.submit.quota = static_cast<std::int32_t>(
        parse_int_flag("--submit", parts[4], 0, 1 << 20));
  }
  return a;
}

/// AT:INDEX → a status poll / cancel of the INDEX-th submit at AT seconds.
ClientAction parse_shot_ref(const char* flag, const std::string& spec,
                            ClientActionKind kind) {
  const std::vector<std::string> parts = split(spec, ':');
  if (parts.size() != 2) flag_die(flag, spec, "expected AT:INDEX");
  ClientAction a;
  a.kind = kind;
  a.at_seconds = parse_double_flag(flag, parts[0], 0.0, 1e9);
  a.submit_index = static_cast<int>(parse_int_flag(flag, parts[1], 0, 1 << 20));
  return a;
}

bool write_file(const std::string& path, const std::string& contents) {
  std::ofstream f(path, std::ios::binary);
  f << contents;
  return f.good();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s scene.scene [options]\n", argv[0]);
    return 2;
  }
  const std::string scene_path = argv[1];
  FarmConfig config;
  config.backend = FarmBackend::kSim;
  config.workers = 3;
  std::string out_dir = ".";
  std::string trace_path;
  std::string metrics_path;
  bool report = false;
  bool kill_worker = false;
  int kill_shard = -1;
  bool kill_scheduler = false;
  bool chaos = false;
  std::uint64_t chaos_seed = 0;
  ClientScript service_script;  // --submit/--poll/--cancel actions
  // Shared by every failure drill. Progress leases must outlast an honest
  // frame render or healthy workers get written off as dead: under sim a
  // demo frame costs minutes of *virtual* time (which is free to wait out),
  // so leases are generous there; under threads/tcp frames render at real
  // speed and short wall-clock leases keep detection snappy.
  const auto arm_drill_leases = [&config] {
    config.fault.enabled = true;
    if (config.backend == FarmBackend::kSim) {
      config.fault.lease_base_seconds = 900.0;
      config.fault.lease_per_frame_seconds = 240.0;
      config.fault.ping_grace_seconds = 300.0;
    } else {
      config.fault.lease_base_seconds = 5.0;
      config.fault.lease_per_frame_seconds = 0.5;
      config.fault.ping_grace_seconds = 2.0;
    }
  };

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--backend" && i + 1 < argc) {
      const std::string v = argv[++i];
      if (v == "sim") config.backend = FarmBackend::kSim;
      else if (v == "threads") config.backend = FarmBackend::kThreads;
      else if (v == "tcp") config.backend = FarmBackend::kTcp;
      else { std::fprintf(stderr, "unknown backend '%s'\n", v.c_str()); return 2; }
    } else if (arg == "--scheme" && i + 1 < argc) {
      const std::string v = argv[++i];
      if (v == "seq") config.partition.scheme = PartitionScheme::kSequenceDivision;
      else if (v == "frame") config.partition.scheme = PartitionScheme::kFrameDivision;
      else if (v == "hybrid") config.partition.scheme = PartitionScheme::kHybrid;
      else { std::fprintf(stderr, "unknown scheme '%s'\n", v.c_str()); return 2; }
    } else if (arg == "--workers" && i + 1 < argc) {
      config.workers =
          static_cast<int>(parse_int_flag("--workers", argv[++i], 1, 4096));
    } else if (arg == "--speeds" && i + 1 < argc) {
      config.worker_speeds = parse_speeds(argv[++i]);
    } else if (arg == "--threads" && i + 1 < argc) {
      config.coherence.threads =
          static_cast<int>(parse_int_flag("--threads", argv[++i], 0, 4096));
    } else if (arg == "--block" && i + 1 < argc) {
      config.partition.block_size =
          static_cast<int>(parse_int_flag("--block", argv[++i], 1, 65536));
    } else if (arg == "--no-coherence") {
      config.coherence.enabled = false;
    } else if (arg == "--frame-codec" && i + 1 < argc) {
      const std::string v = argv[++i];
      if (!parse_frame_codec(v, &config.frame_codec)) {
        std::fprintf(stderr, "unknown frame codec '%s'\n", v.c_str());
        return 2;
      }
    } else if (arg == "--out" && i + 1 < argc) {
      out_dir = argv[++i];
    } else if (arg == "--journal" && i + 1 < argc) {
      config.journal_path = argv[++i];
    } else if (arg == "--resume") {
      config.resume = true;
    } else if (arg == "--speculate") {
      config.speculation = true;
    } else if (arg == "--shards" && i + 1 < argc) {
      config.shards =
          static_cast<int>(parse_int_flag("--shards", argv[++i], 1, 1024));
    } else if (arg == "--trace-out" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (arg == "--metrics-out" && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (arg == "--report") {
      report = true;
    } else if (arg == "--status-port" && i + 1 < argc) {
      config.obs.status_port = static_cast<int>(
          parse_int_flag("--status-port", argv[++i], -1, 65535));
    } else if (arg == "--sample-interval" && i + 1 < argc) {
      config.obs.sample_interval_seconds =
          parse_double_flag("--sample-interval", argv[++i], 0.0, 86400.0);
    } else if (arg == "--flight-recorder") {
      config.obs.flight_recorder = true;
      // Optional directory operand (next arg not starting with --).
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        config.obs.flight_dir = argv[++i];
      }
    } else if (arg == "--kill-worker" && i + 1 < argc) {
      // Deterministic fail-stop: the rank dies right after delivering its
      // 2nd frame result. Enables lease-based detection with short leases so
      // the run recovers (and, with --flight-recorder, flushes the dead
      // rank's crash trace) without external process surgery.
      FaultEvent ev;
      ev.kind = FaultKind::kCrash;
      ev.rank =
          static_cast<int>(parse_int_flag("--kill-worker", argv[++i], 1, 4096));
      ev.after_frames = 2;
      config.fault_plan.events.push_back(ev);
      kill_worker = true;
    } else if (arg == "--kill-shard" && i + 1 < argc) {
      // Shard index, resolved to its world rank after all flags are parsed
      // (the rank depends on --workers/--speeds and --shards).
      kill_shard =
          static_cast<int>(parse_int_flag("--kill-shard", argv[++i], 0, 1023));
    } else if (arg == "--kill-scheduler") {
      kill_scheduler = true;
    } else if (arg == "--chaos-seed" && i + 1 < argc) {
      chaos = true;
      chaos_seed = parse_u64_flag("--chaos-seed", argv[++i]);
    } else if (arg == "--submit" && i + 1 < argc) {
      service_script.actions.push_back(parse_submit_spec(argv[++i]));
    } else if (arg == "--poll" && i + 1 < argc) {
      service_script.actions.push_back(
          parse_shot_ref("--poll", argv[++i], ClientActionKind::kStatus));
    } else if (arg == "--cancel" && i + 1 < argc) {
      service_script.actions.push_back(
          parse_shot_ref("--cancel", argv[++i], ClientActionKind::kCancel));
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return 2;
    }
  }

  const int worker_count = config.worker_speeds.empty()
                               ? config.workers
                               : static_cast<int>(config.worker_speeds.size());
  const bool service = !service_script.actions.empty();
  if (service) {
    bool any_submit = false;
    for (const ClientAction& a : service_script.actions) {
      if (a.kind == ClientActionKind::kSubmit) any_submit = true;
    }
    if (!any_submit) {
      std::fprintf(stderr,
                   "--poll/--cancel need at least one --submit to target\n");
      return 2;
    }
    config.service.enabled = true;
    config.service.clients.push_back(service_script);
  }
  if (kill_worker) arm_drill_leases();
  if (kill_shard >= 0) {
    if (config.shards <= 1 || kill_shard >= config.shards) {
      std::fprintf(stderr,
                   "--kill-shard %d needs --shards greater than %d\n",
                   kill_shard, kill_shard);
      return 2;
    }
    if (config.journal_path.empty()) {
      std::fprintf(stderr,
                   "--kill-shard needs --journal: the replacement rebuilds "
                   "from its journal segment\n");
      return 2;
    }
    const int rank = 1 + worker_count + kill_shard;
    config.fault_plan.events.push_back(FaultPlan::crash_after_frames(rank, 2));
    config.fault_plan.events.push_back(FaultPlan::rejoin_after_crash(rank, 1.0));
    arm_drill_leases();
    std::printf("drill: shard %d (rank %d) dies after its 2nd digest, "
                "restarts 1s later\n", kill_shard, rank);
  }
  if (kill_scheduler) {
    if (config.backend != FarmBackend::kSim || config.journal_path.empty()) {
      std::fprintf(stderr,
                   "--kill-scheduler needs --backend sim and --journal (the "
                   "restart path is a --resume rerun)\n");
      return 2;
    }
    config.fault_plan.events.push_back(FaultPlan::crash_after_frames(0, 3));
    std::printf("drill: scheduler dies after its 3rd task assignment\n");
  }
  if (chaos) {
    ChaosConfig cc;
    cc.seed = chaos_seed;
    cc.worker_count = worker_count;
    cc.shard_count = config.shards;
    cc.journaled = !config.journal_path.empty();
    cc.sim = config.backend == FarmBackend::kSim;
    cc.result_tag = kTagFrameResult;
    const FaultPlan plan = make_chaos_plan(cc);
    config.fault_plan.events.insert(config.fault_plan.events.end(),
                                    plan.events.begin(), plan.events.end());
    arm_drill_leases();
    std::printf("chaos seed %llu:\n%s",
                static_cast<unsigned long long>(chaos_seed),
                describe_fault_plan(plan).c_str());
  }

  const ParseResult parsed = parse_scene_file(scene_path);
  if (!parsed.ok) {
    std::fprintf(stderr, "parse error: %s\n", parsed.error.c_str());
    return 1;
  }
  const AnimatedScene& scene = parsed.scene;
  std::printf("scene: %d objects, %d materials, %d lights, %d frames at "
              "%dx%d\n",
              scene.object_count(), scene.material_count(),
              scene.light_count(), scene.frame_count(), scene.width(),
              scene.height());

  const auto shots = scene.split_shots();
  std::printf("%zu shot(s):", shots.size());
  for (const auto& shot : shots) {
    std::printf(" [%d..%d]", shot.first_frame,
                shot.first_frame + shot.frame_count - 1);
  }
  std::printf("  (coherence restarts at every cut)\n");
  std::printf("backend=%s scheme=%s workers=%d coherence=%s\n\n",
              to_string(config.backend), to_string(config.partition.scheme),
              config.worker_speeds.empty()
                  ? config.workers
                  : static_cast<int>(config.worker_speeds.size()),
              config.coherence.enabled ? "on" : "off");

  config.output_dir = out_dir;
  config.output_prefix = "farm";
  config.obs.trace = !trace_path.empty() || report;
  FarmResult result;
  try {
    validate_farm_config(scene, config);
    // render_farm can also throw invalid_argument: resume replay rejects a
    // journal whose --shards count differs from this run's.
    result = render_farm(scene, config);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "invalid configuration: %s\n", e.what());
    return 2;
  }

  if (result.resume.resumed) {
    std::printf("resume: %d frame(s) restored, %d demoted, %lld journal "
                "record(s) replayed%s\n",
                result.resume.frames_restored, result.resume.frames_demoted,
                static_cast<long long>(result.resume.records_replayed),
                result.resume.journal_truncated ? " (torn tail discarded)"
                                                : "");
  }
  std::printf("time: %s (%s)\n", format_hms(result.elapsed_seconds).c_str(),
              config.backend == FarmBackend::kSim ? "virtual cluster time"
                                                  : "wall clock");
  std::printf("rays: %llu   pixels recomputed: %lld   full renders: %lld\n",
              static_cast<unsigned long long>(result.master.rays_total),
              static_cast<long long>(result.master.pixels_recomputed_total),
              static_cast<long long>(result.master.full_renders));
  std::printf("messages: %lld (%.2f MB)   adaptive splits: %lld\n",
              static_cast<long long>(result.runtime.messages),
              static_cast<double>(result.runtime.bytes) / 1e6,
              static_cast<long long>(result.master.adaptive_splits));
  if (config.fault.enabled || !config.fault_plan.events.empty()) {
    std::printf("recovery: %d death(s) detected, %d worker rejoin(s), "
                "%d shard failure(s), %d shard rebuild(s), %lld frame(s) "
                "reassigned\n",
                result.faults.deaths_detected, result.faults.workers_rejoined,
                result.faults.shards_failed, result.faults.shards_rejoined,
                static_cast<long long>(result.faults.frames_reassigned));
  }
  bool service_failed = false;
  if (service) {
    // Service mode renders the admitted shots, not the whole scene: report
    // the shot table + per-tenant accounting instead of the frame count.
    std::printf("\n%5s %-12s %-10s %10s %8s\n", "shot", "tenant", "phase",
                "frames", "range");
    bool all_terminal = true;
    for (const FarmResult::ShotResult& shot : result.shots) {
      const ShotSummary& s = shot.summary;
      if (s.phase == ShotPhase::kActive) all_terminal = false;
      std::printf("%5d %-12s %-10s %6d/%-3d [%d..%d]\n", s.shot_id,
                  s.tenant.c_str(), to_string(s.phase), s.frames_done,
                  s.frame_count, s.scene_first_frame,
                  s.scene_first_frame + s.frame_count - 1);
    }
    std::printf("%5s %-12s %8s %12s %10s %8s\n", "", "tenant", "weight",
                "units", "frames", "peak");
    for (const TenantSummary& t : result.tenants) {
      std::printf("%5s %-12s %8.2f %12lld %10lld %8d\n", "", t.name.c_str(),
                  t.weight, static_cast<long long>(t.units_assigned),
                  static_cast<long long>(t.frames_committed),
                  t.peak_inflight);
    }
    int rejects = 0;
    for (const ClientReport& c : result.clients) rejects += c.rejects;
    if (rejects > 0) {
      for (const ClientReport& c : result.clients) {
        for (std::size_t s = 0; s < c.errors.size(); ++s) {
          if (!c.errors[s].empty()) {
            std::fprintf(stderr, "submit %zu rejected: %s\n", s,
                         c.errors[s].c_str());
          }
        }
      }
    }
    if (!all_terminal) {
      std::fprintf(stderr, "INCOMPLETE: a shot never reached a terminal "
                           "phase\n");
    }
    service_failed = !all_terminal || rejects > 0;
  }
  const long long frames_done = result.master.frames_completed +
                                result.resume.frames_restored;
  const bool incomplete =
      !service && frames_done < scene.frame_count();
  const bool write_failed = result.frame_write_failures > 0;
  if (write_failed) {
    std::fprintf(stderr,
                 "error: %lld frame(s) could not be written to %s (does the "
                 "directory exist and is it writable?)\n",
                 static_cast<long long>(result.frame_write_failures),
                 out_dir.c_str());
  }
  if (incomplete && !kill_scheduler) {
    std::fprintf(stderr,
                 "INCOMPLETE: %lld of %d frame(s) finished — the farm "
                 "stopped before the render was done\n",
                 frames_done, scene.frame_count());
  } else if (!incomplete && !service && !write_failed) {
    std::printf("frames written to %s/farm_NNNN.tga\n", out_dir.c_str());
  }
  if (kill_scheduler) {
    std::printf("scheduler was killed mid-run: rerun with --resume to "
                "restart it from the journal's checkpoint\n");
  }
  if (result.status_port >= 0) {
    std::printf("status endpoint: http://127.0.0.1:%d served %lld "
                "request(s) (/metrics, /status)\n",
                result.status_port,
                static_cast<long long>(result.status_requests));
  }
  if (config.obs.flight_recorder) {
    std::printf("flight recorder: armed, crash traces land in %s/"
                "trace-crash-<rank>.json\n",
                config.obs.flight_dir.c_str());
  }

  if (!trace_path.empty()) {
    const std::string json = chrome_trace_json(result.trace_events);
    std::string error;
    if (!validate_chrome_trace(json, &error)) {
      std::fprintf(stderr, "trace validation failed: %s\n", error.c_str());
      return 1;
    }
    if (!write_file(trace_path, json)) {
      std::fprintf(stderr, "failed to write %s\n", trace_path.c_str());
      return 1;
    }
    std::printf("trace: %zu events -> %s (load in Perfetto or "
                "chrome://tracing)\n",
                result.trace_events.size(), trace_path.c_str());
  }
  if (!metrics_path.empty()) {
    const std::string json = result.metrics.to_json();
    std::string error;
    if (!json_syntax_ok(json, &error)) {
      std::fprintf(stderr, "metrics JSON invalid: %s\n", error.c_str());
      return 1;
    }
    if (!write_file(metrics_path, json)) {
      std::fprintf(stderr, "failed to write %s\n", metrics_path.c_str());
      return 1;
    }
    std::printf("metrics: %s\n", metrics_path.c_str());
  }
  if (report) {
    std::printf("\n%s", result.utilization.to_text().c_str());
    std::printf("frame write failures: %lld\n",
                static_cast<long long>(result.frame_write_failures));
  }
  if (write_failed) return 1;
  // A scheduler-kill drill is *supposed* to end partial (the restart is a
  // --resume rerun); every other incomplete render is a failure.
  if (service) return service_failed ? 1 : 0;
  return (incomplete && !kill_scheduler) ? 1 : 0;
}
