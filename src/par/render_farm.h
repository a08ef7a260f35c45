// RenderFarm: one-call façade over the master/worker actors and the three
// runtimes. This is the library's top-level entry point for distributed
// animation rendering:
//
//   FarmConfig cfg;
//   cfg.backend = FarmBackend::kSim;             // or kThreads / kTcp
//   cfg.worker_speeds = {1.0, 0.5, 0.5};         // the paper's SGI mix
//   cfg.partition.scheme = PartitionScheme::kFrameDivision;
//   FarmResult r = render_farm(scene, cfg);
#pragma once

#include <string>
#include <vector>

#include "src/fault/fault_plan.h"
#include "src/fault/fault_tolerance.h"
#include "src/obs/event_trace.h"
#include "src/obs/metrics.h"
#include "src/obs/report.h"
#include "src/par/master.h"
#include "src/par/service_client.h"
#include "src/par/worker.h"
#include "src/shard/shard.h"
#include "src/sim/sim_runtime.h"

namespace now {

enum class FarmBackend {
  kSim,      // discrete-event virtual time (deterministic, heterogeneous)
  kThreads,  // real std::thread parallelism, wall clock
  kTcp,      // real threads over loopback TCP sockets, wall clock
};

const char* to_string(FarmBackend backend);

struct FarmObsConfig {
  /// Record structured trace events (per-frame render spans, cross-rank
  /// sends/receives, scheduling decisions, fault injections) and compute the
  /// utilization report. Off by default: every tracer call is a lock.
  bool trace = false;
  /// Live telemetry plane: > 0 arms the scheduler's sample tick, which
  /// snapshots the registry into bounded time-series rings and publishes
  /// the /status JSON. Under kSim the ticks ride virtual time (so sampling
  /// is deterministic) and cost no simulated compute; every gated output is
  /// byte-identical with sampling on or off.
  double sample_interval_seconds = 0.0;
  /// HTTP status endpoint on 127.0.0.1 (wall-clock backends only; ignored
  /// under kSim — the live plane is inert there). 0 picks an ephemeral
  /// port, -1 disables. Serves GET /metrics (Prometheus text) and
  /// GET /status (scheduler JSON). Enabling it implies a default sample
  /// interval when none is set.
  int status_port = -1;
  /// Keep a bounded per-rank ring of recent trace events (even with `trace`
  /// off) and flush a rank's ring as `trace-crash-<rank>.json` into
  /// `flight_dir` when a fault-injected death fires. Callers wanting a
  /// flush on real fatal signals arm install_crash_flush() themselves.
  bool flight_recorder = false;
  std::string flight_dir = ".";
  int flight_capacity = 4096;
  /// Straggler-detection thresholds (always-on commit bookkeeping; feeds
  /// sched.stragglers and the speculation victim ranking).
  StragglerConfig straggler;
};

/// Multi-tenant service mode: the farm runs as a shot-queue service.
/// Scripted ShotClient actors (one rank each, after the workers) submit,
/// poll, and cancel shots against the master's job queue; the weighted-fair
/// scheduler divides the workers between tenants. Requires shards == 1 and
/// no journal/resume; the run ends when every client is done and every
/// admitted shot is terminal.
struct ServiceConfig {
  bool enabled = false;
  /// One scripted client per entry; at least one when enabled.
  std::vector<ClientScript> clients;
  /// Scenes addressable by ShotSubmit::scene_id beyond the primary (id 0 is
  /// the scene passed to render_farm, ids 1.. are these, in order). All
  /// must share the primary's pixel dimensions and outlive the call.
  std::vector<const AnimatedScene*> extra_scenes;
};

struct FarmConfig {
  FarmBackend backend = FarmBackend::kSim;
  /// Worker count when worker_speeds is empty (speeds default to 1.0).
  int workers = 3;
  /// Per-worker speed factors (kSim only; size defines the worker count).
  std::vector<double> worker_speeds;
  /// Master machine speed factor (kSim only).
  double master_speed = 1.0;
  EthernetParams ethernet;
  PartitionConfig partition;
  CoherenceOptions coherence;
  CostModel cost;
  bool sparse_returns = true;
  /// Frame transport codec. kDelta value-diffs incremental frames against
  /// the predecessor and compresses payloads (full frames where coherence
  /// restarts stay dense key frames); final frames are byte-identical to
  /// kRaw on every backend, only the wire bytes change.
  FrameCodec frame_codec = FrameCodec::kDelta;
  /// Deterministic fault schedule injected into the chosen runtime (worker
  /// ranks are 1-based; rank 0 is the master and cannot fault). Slowdown
  /// events require kSim; crash events require fault.enabled, or the run
  /// would wait forever on a rank that will never answer.
  FaultPlan fault_plan;
  /// Master-side failure detection and recovery (leases, pings,
  /// reassignment). Off by default: zero overhead, no timers.
  FaultToleranceConfig fault;
  std::string output_dir;  // per-frame targa output ("" = keep in memory)
  std::string output_prefix = "frame";
  /// Crash-consistent render journal ("" = no journal). Requires
  /// output_dir: the journal's frame-complete records point at the frame
  /// files, which are the durable pixel state a resume restores from.
  std::string journal_path;
  /// Resume an interrupted run: replay journal_path, restore completed
  /// frames from output_dir, render only the remainder. The resumed output
  /// is byte-identical to an uninterrupted run's.
  bool resume = false;
  bool journal_fsync = true;
  int journal_checkpoint_every = 64;
  /// End-game speculation: duplicate the slowest in-flight task onto idle
  /// workers and keep whichever copy commits first.
  bool speculation = false;
  /// Framebuffer shards. 1 (default) is the classic single master. N > 1
  /// splits the master into a thin scheduler (rank 0) plus N FrameShard
  /// actors (ranks workers+1 .. workers+N), each owning a contiguous frame
  /// range: workers stream pixels straight to the owning shard, which
  /// decodes, journals to its own segment, and writes its own TGAs, while
  /// the scheduler sees only small per-result digests. Output is
  /// byte-identical to shards == 1 on every backend. A journaled sharded
  /// run must resume with the same shard count.
  int shards = 1;
  /// Multi-tenant render service (see ServiceConfig). Off by default.
  ServiceConfig service;
  FarmObsConfig obs;
};

/// What a resume recovered before rendering started.
struct ResumeReport {
  bool resumed = false;
  int frames_restored = 0;
  /// Journal-complete frames whose file was missing or failed its digest —
  /// demoted to re-render.
  int frames_demoted = 0;
  std::int64_t records_replayed = 0;
  bool journal_truncated = false;  // the crash left a torn tail
  /// The journal's valid prefix held a scheduler checkpoint: the task
  /// table, task-id counter, and straggler statistics were restored from it
  /// instead of re-partitioning the incomplete remainder.
  bool scheduler_checkpoint = false;
};

struct FarmResult {
  std::vector<Framebuffer> frames;
  double elapsed_seconds = 0.0;  // virtual (kSim) or wall (others)
  RuntimeStats runtime;
  /// Read from `metrics` (master.*, ckpt.*, sched.stragglers).
  MasterReport master;
  std::vector<WorkerReport> workers;
  /// Per-shard reports (empty when shards == 1), read from shard.<i>.*.
  std::vector<ShardReport> shards;
  /// Detection / recovery accounting (the scheduler's view), read from
  /// recovery.*.
  FaultReport faults;
  ResumeReport resume;  // what a --resume run restored
  /// Completed frames whose TGA could not be written to output_dir (the
  /// frames.write_failures counter). Such a frame is still in `frames` but
  /// has no frame-complete journal record.
  std::int64_t frame_write_failures = 0;
  /// The run's ledger: the final snapshot of the registry every layer
  /// counts into as events happen, shared by all three backends.
  /// Backend-specific series (e.g. sim.* and rank.* gauges from the
  /// simulator) simply appear here when the backend publishes them.
  MetricsSnapshot metrics;
  /// Populated when obs.trace: all events, and the per-worker
  /// busy/comm/idle breakdown computed from them.
  std::vector<TraceEvent> trace_events;
  UtilizationReport utilization;
  /// Cross-rank flow chains (one per committed region-frame) found in
  /// trace_events; connected means start + step + end spanning >= 2 ranks.
  FlowChainStats flow_chains;
  /// Actually bound port of the /status endpoint (-1 when it never ran) and
  /// the number of HTTP requests it answered.
  int status_port = -1;
  std::int64_t status_requests = 0;
  // -- multi-tenant service (empty unless service.enabled) ---------------
  /// One entry per admitted shot, in shot-id order. `frames` is the shot's
  /// slice of the global frame space (cancelled shots carry whatever
  /// completed before the cancel; unfinished frames are black).
  struct ShotResult {
    ShotSummary summary;
    std::vector<Framebuffer> frames;
  };
  std::vector<ShotResult> shots;
  std::vector<TenantSummary> tenants;
  /// Per-client replay of admission verdicts, status replies, and terminal
  /// updates, in ServiceConfig::clients order.
  std::vector<ClientReport> clients;
  /// Every weighted-fair grant in dispatch order (fairness gates window
  /// over the contended prefix).
  std::vector<ServiceAssignment> assignment_log;
};

/// Validates `config` against `scene` and throws std::invalid_argument with
/// a descriptive message on the first violation. render_farm() calls this
/// up front; it is exposed so callers can validate without running.
void validate_farm_config(const AnimatedScene& scene,
                          const FarmConfig& config);

FarmResult render_farm(const AnimatedScene& scene, const FarmConfig& config);

}  // namespace now
