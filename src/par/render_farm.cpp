#include "src/par/render_farm.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>

#include "src/net/tcp_runtime.h"
#include "src/net/thread_runtime.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/status_server.h"
#include "src/obs/timeseries.h"

namespace now {

const char* to_string(FarmBackend backend) {
  switch (backend) {
    case FarmBackend::kSim: return "sim";
    case FarmBackend::kThreads: return "threads";
    case FarmBackend::kTcp: return "tcp";
  }
  return "unknown";
}

namespace {

int resolved_worker_count(const FarmConfig& config) {
  return config.worker_speeds.empty()
             ? config.workers
             : static_cast<int>(config.worker_speeds.size());
}

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument("FarmConfig: " + what);
}

// End-of-run publication: fold the actor reports into the registry so every
// backend reports through the same metric names.
void publish_reports(MetricsRegistry& reg, const RuntimeStats& runtime,
                     const MasterReport& master,
                     const std::vector<WorkerReport>& workers,
                     const FaultReport& faults,
                     const std::vector<ShardReport>& shards) {
  reg.gauge("farm.elapsed_seconds").set(runtime.elapsed_seconds);
  reg.counter("net.messages")
      .inc(static_cast<std::uint64_t>(runtime.messages));
  reg.counter("net.bytes").inc(static_cast<std::uint64_t>(runtime.bytes));

  reg.counter("master.frame_results")
      .inc(static_cast<std::uint64_t>(master.frame_results));
  reg.counter("master.adaptive_splits")
      .inc(static_cast<std::uint64_t>(master.adaptive_splits));
  reg.counter("master.frames_completed")
      .inc(static_cast<std::uint64_t>(master.frames_completed));
  reg.counter("master.rays_total").inc(master.rays_total);
  reg.counter("master.shadow_rays_total").inc(master.shadow_rays_total);
  reg.counter("master.pixels_recomputed")
      .inc(static_cast<std::uint64_t>(master.pixels_recomputed_total));
  reg.counter("master.full_renders")
      .inc(static_cast<std::uint64_t>(master.full_renders));
  reg.gauge("master.worker_compute_seconds")
      .set(master.worker_compute_seconds);
  for (std::size_t w = 1; w < master.frames_by_worker.size(); ++w) {
    reg.counter("rank." + std::to_string(w) + ".frames")
        .inc(static_cast<std::uint64_t>(master.frames_by_worker[w]));
  }

  std::int64_t peak_mark_bytes = 0;
  for (const WorkerReport& r : workers) {
    reg.counter("worker.tasks_completed")
        .inc(static_cast<std::uint64_t>(r.tasks_completed));
    reg.counter("worker.frames_rendered")
        .inc(static_cast<std::uint64_t>(r.frames_rendered));
    reg.counter("worker.rays").inc(r.rays);
    reg.counter("worker.pixels_recomputed")
        .inc(static_cast<std::uint64_t>(r.pixels_recomputed));
    reg.gauge("worker.compute_seconds").add(r.compute_seconds);
    reg.counter("worker.tasks_shrunk_away")
        .inc(static_cast<std::uint64_t>(r.tasks_shrunk_away));
    peak_mark_bytes = std::max(peak_mark_bytes, r.peak_mark_bytes);
  }
  reg.gauge("worker.peak_mark_bytes")
      .set(static_cast<double>(peak_mark_bytes));

  reg.counter("recovery.deaths_detected")
      .inc(static_cast<std::uint64_t>(faults.deaths_detected));
  reg.counter("recovery.pings_sent")
      .inc(static_cast<std::uint64_t>(faults.pings_sent));
  reg.counter("recovery.tasks_nacked")
      .inc(static_cast<std::uint64_t>(faults.tasks_nacked));
  reg.counter("recovery.tasks_reassigned")
      .inc(static_cast<std::uint64_t>(faults.tasks_reassigned));
  reg.counter("recovery.frames_reassigned")
      .inc(static_cast<std::uint64_t>(faults.frames_reassigned));
  reg.counter("recovery.results_ignored")
      .inc(static_cast<std::uint64_t>(faults.results_ignored));
  reg.gauge("recovery.lost_work_seconds").set(faults.lost_work_seconds);
  reg.gauge("recovery.restart_work_seconds").set(faults.restart_work_seconds);
  reg.gauge("recovery.detection_latency_seconds")
      .set(faults.detection_latency_seconds);
  reg.counter("recovery.workers_rejoined")
      .inc(static_cast<std::uint64_t>(faults.workers_rejoined));
  reg.counter("recovery.shards_failed")
      .inc(static_cast<std::uint64_t>(faults.shards_failed));
  reg.counter("recovery.shards_rejoined")
      .inc(static_cast<std::uint64_t>(faults.shards_rejoined));
  reg.counter("recovery.shard_commits_rolled_back")
      .inc(static_cast<std::uint64_t>(faults.shard_commits_rolled_back));
  reg.counter("recovery.speculations_launched")
      .inc(static_cast<std::uint64_t>(faults.speculations_launched));
  reg.counter("recovery.speculations_won")
      .inc(static_cast<std::uint64_t>(faults.speculations_won));
  reg.counter("recovery.speculation_frames_wasted")
      .inc(static_cast<std::uint64_t>(faults.speculation_frames_wasted));
  reg.gauge("recovery.speculation_wasted_seconds")
      .set(faults.speculation_wasted_seconds);

  // ckpt.* totals are merged across the scheduler journal and every shard
  // segment, so a sharded run reports the same shape a single-master run
  // does; the per-segment split is visible under shard.<i>.* below.
  std::int64_t journal_records = master.journal_records;
  std::int64_t journal_bytes = master.journal_bytes;
  bool journal_ok = master.journal_ok;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const ShardReport& s = shards[i];
    journal_records += s.journal_records;
    journal_bytes += s.journal_bytes;
    journal_ok = journal_ok && s.journal_ok;
    const std::string prefix = "shard." + std::to_string(i) + ".";
    reg.counter(prefix + "frame_results")
        .inc(static_cast<std::uint64_t>(s.frame_results));
    reg.counter(prefix + "frames_committed")
        .inc(static_cast<std::uint64_t>(s.frames_committed));
    reg.counter(prefix + "frames_completed")
        .inc(static_cast<std::uint64_t>(s.frames_completed));
    reg.counter(prefix + "frames_restored")
        .inc(static_cast<std::uint64_t>(s.frames_restored));
    reg.counter(prefix + "duplicates")
        .inc(static_cast<std::uint64_t>(s.duplicates));
    reg.counter(prefix + "stale_results")
        .inc(static_cast<std::uint64_t>(s.stale_results));
    reg.counter(prefix + "chain_rejects")
        .inc(static_cast<std::uint64_t>(s.chain_rejects));
    reg.counter(prefix + "decode_failures")
        .inc(static_cast<std::uint64_t>(s.decode_failures));
    reg.counter(prefix + "frame_bytes")
        .inc(static_cast<std::uint64_t>(s.frame_bytes));
    reg.counter(prefix + "journal_records")
        .inc(static_cast<std::uint64_t>(s.journal_records));
    reg.counter(prefix + "journal_bytes")
        .inc(static_cast<std::uint64_t>(s.journal_bytes));
    reg.counter(prefix + "rebuilds")
        .inc(static_cast<std::uint64_t>(s.rebuilds));
  }

  reg.counter("ckpt.frames_restored")
      .inc(static_cast<std::uint64_t>(master.frames_restored));
  reg.counter("ckpt.journal_records")
      .inc(static_cast<std::uint64_t>(journal_records));
  reg.counter("ckpt.journal_bytes")
      .inc(static_cast<std::uint64_t>(journal_bytes));
  reg.counter("ckpt.journal_checkpoints")
      .inc(static_cast<std::uint64_t>(master.journal_checkpoints));
  reg.gauge("ckpt.journal_ok").set(journal_ok ? 1.0 : 0.0);
}

}  // namespace

void validate_farm_config(const AnimatedScene& scene,
                          const FarmConfig& config) {
  if (scene.width() < 1 || scene.height() < 1) {
    fail("scene must be at least 1x1 pixels");
  }
  if (scene.frame_count() < 1) fail("scene must have at least 1 frame");
  const int worker_count = resolved_worker_count(config);
  if (worker_count < 1) {
    fail("need at least 1 worker (workers or worker_speeds)");
  }
  for (const double s : config.worker_speeds) {
    if (!std::isfinite(s) || s <= 0.0) {
      fail("worker_speeds entries must be finite and > 0");
    }
  }
  if (!std::isfinite(config.master_speed) || config.master_speed <= 0.0) {
    fail("master_speed must be finite and > 0");
  }
  if (config.coherence.threads < 0) {
    fail("coherence.threads must be >= 0 (0 = one per hardware thread)");
  }
  if (config.partition.block_size < 1) {
    fail("partition.block_size must be >= 1");
  }
  if (config.partition.hybrid_frames < 1) {
    fail("partition.hybrid_frames must be >= 1");
  }
  if (config.partition.min_split_frames < 1) {
    fail("partition.min_split_frames must be >= 1");
  }
  if (config.fault.enabled) {
    if (!(config.fault.lease_base_seconds > 0.0)) {
      fail("fault.lease_base_seconds must be > 0 when fault.enabled");
    }
    if (config.fault.lease_per_frame_seconds < 0.0) {
      fail("fault.lease_per_frame_seconds must be >= 0");
    }
    if (!(config.fault.ping_grace_seconds > 0.0)) {
      fail("fault.ping_grace_seconds must be > 0 when fault.enabled");
    }
  }
  if (!config.journal_path.empty() && config.output_dir.empty()) {
    fail("journal_path requires output_dir; the journal's frame records "
         "point at the frame files");
  }
  if (config.resume && config.journal_path.empty()) {
    fail("resume requires journal_path");
  }
  if (config.journal_checkpoint_every < 1) {
    fail("journal_checkpoint_every must be >= 1");
  }
  if (!std::isfinite(config.obs.sample_interval_seconds) ||
      config.obs.sample_interval_seconds < 0.0) {
    fail("obs.sample_interval_seconds must be finite and >= 0");
  }
  if (config.obs.status_port > 65535) {
    fail("obs.status_port must be <= 65535");
  }
  if (config.obs.flight_capacity < 1) {
    fail("obs.flight_capacity must be >= 1");
  }
  if (config.service.enabled) {
    if (config.shards > 1) {
      fail("service mode requires shards == 1; per-shot output namespacing "
           "and the global frame space are single-sink for now");
    }
    if (!config.journal_path.empty() || config.resume) {
      fail("service mode does not support journaling or resume; shots are "
           "admitted at runtime and have no stable frame space to replay");
    }
    if (!config.fault_plan.empty()) {
      fail("service mode does not yet support fault injection");
    }
    if (config.service.clients.empty()) {
      fail("service mode needs at least one client script");
    }
    for (const AnimatedScene* extra : config.service.extra_scenes) {
      if (extra == nullptr) fail("service extra_scenes must be non-null");
      if (extra->width() != scene.width() ||
          extra->height() != scene.height()) {
        fail("service extra_scenes must match the primary scene's pixel "
             "dimensions");
      }
      if (extra->frame_count() < 1) {
        fail("service extra_scenes must have at least 1 frame");
      }
    }
    for (const ClientScript& script : config.service.clients) {
      for (const ClientAction& action : script.actions) {
        if (!std::isfinite(action.at_seconds) || action.at_seconds < 0.0) {
          fail("client action at_seconds must be finite and >= 0");
        }
        if ((action.kind == ClientActionKind::kStatus ||
             action.kind == ClientActionKind::kCancel) &&
            action.submit_index < 0) {
          fail("client action submit_index must be >= 0");
        }
      }
    }
  }
  if (config.shards < 1) fail("shards must be >= 1");
  if (config.shards > scene.frame_count()) {
    fail("shards must not exceed the frame count (a shard with no owned "
         "frames would idle forever)");
  }
  if (config.shards > 1 && !config.fault_plan.empty() &&
      !config.fault.enabled) {
    for (const FaultEvent& ev : config.fault_plan.events) {
      if (ev.kind == FaultKind::kDropMessage) {
        // With one master, every loss shows up as a gap in the worker's
        // result stream at rank 0. A sharded run can lose the last frame a
        // worker sends to one shard without the next shard ever knowing —
        // that loss is only detectable by the progress lease.
        fail("dropped messages with shards > 1 require fault.enabled; a "
             "loss at an ownership boundary is only detected by the lease");
      }
    }
  }
  if (!config.fault_plan.empty()) {
    const int world_size =
        1 + worker_count + (config.shards > 1 ? config.shards : 0);
    // A scheduler kill is only recoverable by restarting the run from the
    // journal (--resume); in-process it just ends the render early, which
    // is only meaningful (and deterministic) under the sim backend.
    const bool scheduler_crash_ok = config.backend == FarmBackend::kSim &&
                                    !config.journal_path.empty();
    validate_fault_plan(config.fault_plan, world_size, scheduler_crash_ok);
    // Shard ranks sit above the workers; with shards == 1 there are none
    // and every crashable rank in [1, world_size) is a worker.
    const int first_shard_rank =
        config.shards > 1 ? worker_count + 1 : world_size;
    for (const FaultEvent& ev : config.fault_plan.events) {
      if (ev.kind != FaultKind::kCrash) continue;
      if (ev.rank == 0) {
        if (config.fault_plan.rank_rejoins(0)) {
          fail("the scheduler cannot rejoin in-process (its task table died "
               "with it); recover a scheduler kill by rerunning with "
               "resume");
        }
        continue;
      }
      if (ev.rank >= first_shard_rank) {
        if (config.journal_path.empty()) {
          fail("a shard crash requires journal_path; the replacement shard "
               "rebuilds its committed frames from its journal segment");
        }
        if (!config.fault.enabled) {
          fail("a shard crash requires fault.enabled; only the scheduler's "
               "shard liveness lease detects the death and rolls back its "
               "lost commits");
        }
        if (!config.fault_plan.rank_rejoins(ev.rank)) {
          fail("a shard crash requires a rejoin for the same rank; without "
               "a replacement the shard's owned frames can never complete");
        }
        continue;
      }
      // Worker crash. A crashed rank that rejoins re-announces itself,
      // which lets the master recover even without lease-based detection; a
      // crash with no rejoin needs the detector.
      if (!config.fault.enabled && !config.fault_plan.rank_rejoins(ev.rank)) {
        fail("fault_plan contains a crash without a rejoin but "
             "fault.enabled is false; the master would wait forever on "
             "the crashed rank");
      }
    }
    if (config.backend != FarmBackend::kSim) {
      for (const FaultEvent& ev : config.fault_plan.events) {
        if (ev.kind == FaultKind::kSlowdown) {
          fail("slowdown faults scale simulated compute charges and are "
               "only meaningful on the kSim backend");
        }
      }
    }
  }
}

FarmResult render_farm(const AnimatedScene& scene, const FarmConfig& config) {
  validate_farm_config(scene, config);

  std::vector<double> speeds = config.worker_speeds;
  if (speeds.empty()) {
    speeds.assign(static_cast<std::size_t>(config.workers), 1.0);
  }
  const int worker_count = static_cast<int>(speeds.size());

  // Frame ownership: identity when shards == 1 (owner_rank is always 0 and
  // nothing below changes), a contiguous near-even split otherwise.
  ShardMap shard_map;
  shard_map.shard_count = config.shards;
  shard_map.worker_count = worker_count;
  shard_map.frame_count = scene.frame_count();
  const bool sharded = shard_map.sharded();

  // One registry + tracer pair shared by every layer of the run. Both are
  // safe to hand out unconditionally: a disabled registry deals in no-op
  // instruments, a disabled tracer is normalized to null by its consumers.
  MetricsRegistry registry(config.obs.metrics);
  EventTracer tracer(config.obs.trace);
  // The flight recorder rides on the tracer: attaching it keeps the tracer
  // "enabled" (every instrumented site keeps emitting) while the export
  // buffer stays empty unless obs.trace is also on. Attach before any actor
  // is constructed — actors normalize a disabled tracer to null.
  FlightRecorder flight(config.obs.flight_capacity);
  // Fatal-signal flush is armed only while the farm runs (RAII so a throwing
  // runtime cannot leave handlers pointing at a dead recorder). Fault-
  // injected deaths flush through the injector instead — see FaultInjector.
  struct CrashFlushGuard {
    bool armed = false;
    ~CrashFlushGuard() {
      if (armed) install_crash_flush(nullptr, "");
    }
  } crash_guard;
  if (config.obs.flight_recorder) {
    flight.set_flush_dir(config.obs.flight_dir);
    tracer.set_flight_recorder(&flight);
    install_crash_flush(&flight, config.obs.flight_dir);
    crash_guard.armed = true;
  }
  RuntimeObs obs{&tracer, &registry};

  MasterConfig master_config;
  master_config.partition = config.partition;
  master_config.cost = config.cost;
  master_config.fault = config.fault;
  master_config.output_dir = config.output_dir;
  master_config.output_prefix = config.output_prefix;
  master_config.journal_path = config.journal_path;
  master_config.journal_fsync = config.journal_fsync;
  master_config.journal_checkpoint_every = config.journal_checkpoint_every;
  master_config.speculate = config.speculation;
  master_config.tracer = &tracer;
  master_config.metrics = &registry;
  master_config.shards = shard_map;
  master_config.straggler = config.obs.straggler;
  const bool service = config.service.enabled;
  const int client_count =
      service ? static_cast<int>(config.service.clients.size()) : 0;
  if (service) {
    master_config.service.enabled = true;
    master_config.service.client_count = client_count;
    master_config.service.scenes.push_back(&scene);
    for (const AnimatedScene* extra : config.service.extra_scenes) {
      master_config.service.scenes.push_back(extra);
    }
  }

  // Live telemetry plane. The sampler runs on every backend (under kSim the
  // tick is a deterministic self-message on virtual time); the HTTP server
  // only exists on wall-clock backends.
  const bool wall_clock = config.backend != FarmBackend::kSim;
  const bool want_status = wall_clock && config.obs.status_port >= 0;
  double sample_interval = config.obs.sample_interval_seconds;
  if (sample_interval <= 0.0 && want_status) {
    sample_interval = 0.25;  // the endpoint needs a publisher to be useful
  }
  TimeSeriesSampler sampler;
  StatusBoard status_board;
  if (sample_interval > 0.0) {
    master_config.sample_interval_seconds = sample_interval;
    master_config.sampler = &sampler;
    if (want_status) master_config.status = &status_board;
  }

  // Resume: replay the journal and reload completed frames before the
  // master starts. `recovery` must outlive the runtime run below.
  RecoveryState recovery;
  ResumeReport resume_report;
  if (config.resume) {
    recovery = build_recovery(config.journal_path, config.output_dir,
                              config.output_prefix, scene.width(),
                              scene.height(), scene.frame_count(),
                              config.shards);
    if (!recovery.ok) {
      throw std::invalid_argument("FarmConfig: resume failed: " +
                                  recovery.error);
    }
    master_config.recovery = &recovery;
    resume_report.resumed = true;
    resume_report.frames_restored = recovery.frames_restored;
    resume_report.frames_demoted = recovery.frames_demoted;
    resume_report.records_replayed = recovery.records_replayed;
    resume_report.journal_truncated = recovery.journal_truncated;
    resume_report.scheduler_checkpoint = recovery.last_checkpoint.has_value();
  }
  RenderMaster master(scene, master_config);

  WorkerConfig worker_config;
  worker_config.coherence = config.coherence;
  worker_config.coherence.metrics = &registry;
  if (config.backend == FarmBackend::kSim) {
    // The sim charges virtual compute time per frame; real render threads
    // would only perturb wall-clock noise into its deterministic traces.
    worker_config.coherence.threads = 1;
  }
  worker_config.cost = config.cost;
  worker_config.sparse_returns = config.sparse_returns;
  worker_config.frame_codec = config.frame_codec;
  // The sim runtime is sequential and its contexts are not thread-safe, so
  // it always sends inline; the codec still applies (and changes simulated
  // Ethernet transmit times, since the sim charges by payload size).
  worker_config.pipeline =
      config.pipeline && config.backend != FarmBackend::kSim;
  worker_config.tracer = &tracer;
  worker_config.metrics = &registry;
  worker_config.shards = shard_map;
  if (service) worker_config.extra_scenes = config.service.extra_scenes;
  std::vector<std::unique_ptr<RenderWorker>> workers;
  workers.reserve(static_cast<std::size_t>(worker_count));
  for (int i = 0; i < worker_count; ++i) {
    workers.push_back(std::make_unique<RenderWorker>(scene, worker_config));
  }

  // Framebuffer shards ride at the tail of the rank space so worker ranks
  // stay 1..worker_count on every backend.
  std::vector<std::unique_ptr<FrameShard>> shards;
  if (sharded) {
    for (int i = 0; i < config.shards; ++i) {
      ShardConfig shard_config;
      shard_config.map = shard_map;
      shard_config.shard_index = i;
      shard_config.width = scene.width();
      shard_config.height = scene.height();
      shard_config.cost = config.cost;
      shard_config.output_dir = config.output_dir;
      shard_config.output_prefix = config.output_prefix;
      if (!config.journal_path.empty()) {
        shard_config.journal_path = shard_journal_path(config.journal_path, i);
      }
      shard_config.journal_fsync = config.journal_fsync;
      shard_config.recovery = config.resume ? &recovery : nullptr;
      shard_config.tracer = &tracer;
      shard_config.metrics = &registry;
      shards.push_back(std::make_unique<FrameShard>(shard_config));
    }
  }

  // Service clients ride at the tail of the rank space (after the workers;
  // service mode excludes shards).
  std::vector<std::unique_ptr<ShotClient>> clients;
  if (service) {
    for (const ClientScript& script : config.service.clients) {
      clients.push_back(std::make_unique<ShotClient>(script));
    }
  }

  std::vector<Actor*> actors;
  actors.push_back(&master);
  for (auto& w : workers) actors.push_back(w.get());
  for (auto& s : shards) actors.push_back(s.get());
  for (auto& c : clients) actors.push_back(c.get());

  // Crash-after-N-frames triggers count the rank's frame-result sends;
  // rejoin events are delivered to the revived rank under kTagRejoin.
  FaultPlan fault_plan = config.fault_plan;
  fault_plan.progress_tag = kTagFrameResult;
  // Progress means different things per rank class: a shard's unit of work
  // is the digest it answers, the scheduler's is the assignment it hands
  // out. after_frames triggers count the right one automatically.
  fault_plan.shard_progress_tag = kTagCommitDigest;
  fault_plan.scheduler_progress_tag = kTagTask;
  fault_plan.first_shard_rank = sharded ? worker_count + 1 : -1;
  fault_plan.rejoin_tag = kTagRejoin;

  FarmResult result;

  // Start the status endpoint before the runtime so /metrics and /status
  // answer mid-render. Providers snapshot through their own locks; the
  // server thread never touches actor state directly.
  std::unique_ptr<StatusServer> status_server;
  if (want_status) {
    status_server = std::make_unique<StatusServer>(
        config.obs.status_port,
        [&registry] { return prometheus_text(registry.snapshot()); },
        [&status_board] { return status_board.latest(); });
    if (status_server->ok()) result.status_port = status_server->port();
  }
  switch (config.backend) {
    case FarmBackend::kSim: {
      SimConfig sim_config;
      sim_config.speeds.push_back(config.master_speed);
      sim_config.speeds.insert(sim_config.speeds.end(), speeds.begin(),
                               speeds.end());
      // Shards are IO machines of the master's class, not renderers — and
      // service clients charge no compute at all, so their speed is moot.
      for (int i = 0; i < static_cast<int>(shards.size()); ++i) {
        sim_config.speeds.push_back(config.master_speed);
      }
      for (int i = 0; i < static_cast<int>(clients.size()); ++i) {
        sim_config.speeds.push_back(config.master_speed);
      }
      sim_config.ethernet = config.ethernet;
      sim_config.fault_plan = fault_plan;
      sim_config.obs = obs;
      SimRuntime runtime(std::move(sim_config));
      result.runtime = runtime.run(actors);
      break;
    }
    case FarmBackend::kThreads: {
      ThreadRuntime runtime(fault_plan, obs);
      result.runtime = runtime.run(actors);
      break;
    }
    case FarmBackend::kTcp: {
      TcpOptions tcp_options;
      // Each shard rank gets its own listener; workers dial every endpoint
      // so frame results can bypass rank 0 entirely.
      for (int i = 0; i < static_cast<int>(shards.size()); ++i) {
        tcp_options.extra_endpoints.push_back(shard_map.rank_of_shard(i));
      }
      TcpRuntime runtime(fault_plan, tcp_options, obs);
      result.runtime = runtime.run(actors);
      break;
    }
  }
  result.elapsed_seconds = result.runtime.elapsed_seconds;
  // Stitch the animation together from every frame owner's range: the
  // master's colocated assembler at shards == 1, the shards otherwise.
  std::vector<const FrameAssembler*> owners;
  if (master.assembler() != nullptr) owners.push_back(master.assembler());
  for (auto& s : shards) {
    owners.push_back(&s->assembler());
    result.shards.push_back(s->report());
  }
  for (const FrameAssembler* a : owners) {
    const auto end = static_cast<std::size_t>(a->end_frame());
    if (result.frames.size() < end) result.frames.resize(end);
    std::copy(a->frames().begin(), a->frames().end(),
              result.frames.begin() + a->first_frame());
  }
  result.master = master.report();
  for (auto& w : workers) result.workers.push_back(w->report());
  result.faults = master.fault_report();
  result.resume = resume_report;
  if (service) {
    result.tenants = master.tenant_summaries();
    result.assignment_log = master.assignment_log();
    for (auto& c : clients) result.clients.push_back(c->report());
    // Slice each shot's frames back out of the global frame space.
    for (const ShotSummary& summary : master.shot_summaries()) {
      FarmResult::ShotResult shot;
      shot.summary = summary;
      for (int f = 0; f < summary.frame_count; ++f) {
        const std::size_t global =
            static_cast<std::size_t>(summary.base_frame + f);
        if (global < result.frames.size()) {
          shot.frames.push_back(result.frames[global]);
        }
      }
      result.shots.push_back(std::move(shot));
    }
  }

  publish_reports(registry, result.runtime, result.master, result.workers,
                  result.faults, result.shards);
  if (service) {
    registry.counter("master.shots_submitted")
        .inc(static_cast<std::uint64_t>(result.master.shots_submitted));
    registry.counter("master.shots_completed")
        .inc(static_cast<std::uint64_t>(result.master.shots_completed));
    registry.counter("master.shots_cancelled")
        .inc(static_cast<std::uint64_t>(result.master.shots_cancelled));
    registry.counter("master.shots_rejected")
        .inc(static_cast<std::uint64_t>(result.master.shots_rejected));
    registry.counter("master.preemptions")
        .inc(static_cast<std::uint64_t>(result.master.preemptions));
  }
  if (status_server != nullptr) {
    result.status_requests = status_server->requests_served();
    status_server->stop();
  }
  result.metrics = registry.snapshot();
  // Read from the frame owners' sinks, not the registry: frame loss must
  // show even with obs.metrics off.
  result.frame_write_failures = master.frame_write_failures();
  for (const ShardReport& s : result.shards) {
    result.frame_write_failures += s.frame_write_failures;
  }
  if (config.obs.trace) {
    result.trace_events = tracer.sorted_events();
    result.utilization = compute_utilization(
        result.trace_events,
        worker_count + 1 + static_cast<int>(shards.size()),
        result.elapsed_seconds);
    result.flow_chains = flow_chain_stats(result.trace_events);
  }
  return result;
}

}  // namespace now
