// RenderMaster: the scheduler. It assigns tasks, performs adaptive
// re-splitting when workers idle (Section 3), and drives leases,
// reassignment, speculation and checkpoints from commit digests.
//
// Work is queued per *shot*, the paper's natural unit ("any camera movement
// logically separates one sequence from another"): a contiguous slice of one
// global frame space with its own task queue. A classic run admits exactly
// one built-in shot at start — the whole animation, no tenant, no client —
// and a service run admits client shots at runtime (MasterServiceConfig).
// Either way one dispatch loop picks a shot, scans its queue, and falls back
// to adaptive splits and speculation; every requeue (stolen range, NACK,
// reclaim, lost cells, checkpoint restore) goes to the shot owning the
// task's frames.
//
// The paper's master also collects pixels and assembles frames. Here that is
// one commit path whatever the owner count: a FrameAssembler per owner of a
// frame range decodes each frame result, applies it, writes its journal
// record and TGA, and answers with a CommitDigest that handle_commit_digest
// turns into scheduling state. With shards > 1 the assemblers live in
// FrameShard actors and the digests arrive over the wire; at shards == 1 the
// master owns one colocated assembler for the whole animation and hands each
// digest to the same handler in-process (no extra rank, no extra message).
//
// Sparse returns rely on per-sender message ordering (guaranteed by all
// three runtimes): a sparse result for frame f of a region is applied on top
// of that region's pixels from frame f-1, which the same worker necessarily
// delivered earlier. The first frame of every task is always dense.
//
// Fault tolerance (MasterConfig::fault.enabled): every worker message is a
// heartbeat; each assignment takes out a *progress* lease (deadline scaled
// by the task's frame count, renewed by every accepted frame result)
// enforced by deferred LeaseCheck self-messages. A worker whose lease
// expires is pinged once; after the grace period, no pong means the worker
// is dead, while a pong without progress means the worker is alive but the
// task is stuck (e.g. the assignment was lost in transit) — either way the
// unfinished frames are re-enqueued as a fresh task whose renderer pays a
// full first-frame restart (the paper's coherence-restart cost). Messages
// from dead ranks are ignored forever; duplicated results and results for
// cancelled tasks are discarded; a gap in a worker's result stream (a lost
// frame result, even the task's dense key frame) cancels the task and
// reclaims the remainder, because the region's sparse chain is broken from
// the gap onward. If every worker dies
// the master stops with whatever frames it has — it never blocks shutdown
// on a dead rank.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/ckpt/journal.h"
#include "src/ckpt/recovery.h"
#include "src/fault/fault_tolerance.h"
#include "src/image/framebuffer.h"
#include "src/net/runtime.h"
#include "src/obs/event_trace.h"
#include "src/obs/metrics.h"
#include "src/obs/status_server.h"
#include "src/obs/straggler.h"
#include "src/obs/timeseries.h"
#include "src/par/cost_model.h"
#include "src/par/jobqueue.h"
#include "src/par/partition.h"
#include "src/par/protocol.h"
#include "src/scene/animated_scene.h"
#include "src/shard/assembler.h"
#include "src/shard/digest.h"
#include "src/shard/frame_sink.h"
#include "src/shard/ownership.h"

namespace now {

/// Multi-tenant render service (MasterConfig::service). When enabled the
/// master admits client *shots* at runtime through the job-queue messages
/// (src/par/jobqueue.h) instead of the one built-in shot a classic run
/// starts with: each admitted shot gets a contiguous base in a concatenated
/// global frame space, its own partition into tasks, and its own queue; a
/// weighted-fair stride scheduler picks which tenant's shot feeds the next
/// idle worker; per-tenant quotas cap in-flight tasks; admission backlog
/// preempts end-game speculation clones first.
struct MasterServiceConfig {
  bool enabled = false;
  /// ShotClient actors ride at ranks [1 + workers, 1 + workers +
  /// client_count); the run ends when every client said done and every
  /// admitted shot is terminal.
  int client_count = 0;
  /// Scene table addressed by ShotSubmit::scene_id. Entry 0 must be the
  /// primary scene the master was built with; all entries share its pixel
  /// dimensions. Pointees must outlive the master.
  std::vector<const AnimatedScene*> scenes;
};

struct MasterConfig {
  PartitionConfig partition;
  CostModel cost;
  /// Failure detection and recovery (off by default: zero overhead).
  FaultToleranceConfig fault;
  /// Directory for per-frame targa output ("" disables file writing).
  std::string output_dir;
  std::string output_prefix = "frame";
  /// Render journal ("" disables): every committed region-frame is appended
  /// as a checksummed record (group-committed by the next frame-complete or
  /// checkpoint record's fsync), frame TGAs are written atomically
  /// *before* their completion record, and the scheduler state is compacted
  /// into periodic checkpoint records. A crashed run resumes from the
  /// journal + frame files via `recovery`.
  std::string journal_path;
  bool journal_fsync = true;
  /// Checkpoint record every N region-frame commits.
  int journal_checkpoint_every = 64;
  /// Replayed journal state from a previous run (null = fresh start). The
  /// master restores the completed frames, re-enqueues only the incomplete
  /// remainder, and appends to the journal's valid prefix.
  const RecoveryState* recovery = nullptr;
  /// End-game speculation: when no queued task is runnable and idle workers
  /// outnumber active tasks, clone the slowest task onto an idle worker and
  /// keep whichever copy commits first (duplicate commits are idempotent).
  bool speculate = false;
  /// Scheduling-decision instants (task.assign, task.split, lease.ping,
  /// worker.dead, ...) on the master's timeline. Null disables.
  EventTracer* tracer = nullptr;
  /// The run's ledger. The scheduler counts every MasterReport and
  /// FaultReport event here as it happens (master.*, recovery.*, ckpt.*,
  /// sched.*), as do its sink and, at shards == 1, the colocated
  /// assembler (endpoint.0.*, net.frame_decode_failures). Null keeps the
  /// counts in a registry private to the scheduler.
  MetricsRegistry* metrics = nullptr;
  /// Live telemetry plane: when sample_interval_seconds > 0 (and a sampler
  /// or status board is attached) the master arms a kTagSampleTick
  /// self-timer that snapshots `metrics` into `sampler`'s bounded rings and
  /// publishes the /status JSON into `status`. The tick handler charges no
  /// compute and sends nothing cross-rank, so under SimRuntime the ticks
  /// ride virtual time without changing any gated output.
  double sample_interval_seconds = 0.0;
  TimeSeriesSampler* sampler = nullptr;
  StatusBoard* status = nullptr;
  /// Straggler-detection thresholds. Detection itself is always-on
  /// bookkeeping fed by fresh commits; it surfaces through the
  /// sched.stragglers counter, worker.straggler trace instants, and the
  /// speculation victim ranking.
  StragglerConfig straggler;
  /// Frame ownership map. With shards.shard_count > 1 workers stream frame
  /// results directly to the owning FrameShard actor, which sends back one
  /// CommitDigest per result. The default (count 1) keeps the one owner at
  /// rank 0: a colocated FrameAssembler commits and digests in-process.
  /// Either way the master schedules from the digests alone.
  ShardMap shards;
  /// Multi-tenant service mode (see MasterServiceConfig). Off by default:
  /// a classic run is the one-built-in-shot case of the same scheduler.
  MasterServiceConfig service;
};

/// Per-tenant accounting of the weighted-fair scheduler (service mode).
struct TenantSummary {
  std::string name;
  double weight = 1.0;
  std::int32_t quota = 0;  // 0 = unlimited
  std::int64_t tasks_assigned = 0;
  /// Pixel-frames granted — the unit the stride scheduler charges, so
  /// fairness gates compare units, not task counts.
  std::int64_t units_assigned = 0;
  std::int64_t frames_committed = 0;
  /// High-water mark of concurrently in-flight tasks (gate: <= quota).
  std::int32_t peak_inflight = 0;
};

/// One admitted shot's final state (service mode).
struct ShotSummary {
  std::int32_t shot_id = -1;
  std::string tenant;
  std::string label;
  std::int32_t scene_id = 0;
  std::int32_t scene_first_frame = 0;
  std::int32_t frame_count = 0;
  /// First global frame in the scheduler's concatenated frame space.
  std::int32_t base_frame = 0;
  ShotPhase phase = ShotPhase::kActive;
  std::int32_t frames_done = 0;
};

/// One weighted-fair grant, in order (service mode; bounded log for
/// fairness gates: the contended-window share of each tenant's units must
/// track its weight).
struct ServiceAssignment {
  std::int32_t tenant = -1;
  std::int32_t shot_id = -1;
  std::int64_t units = 0;  // pixel-frames granted
};

/// The scheduler's run statistics: a view over its master.*, ckpt.* and
/// sched.stragglers series (see render_farm), plus the two fields that have
/// no series — journal health and the telemetry tick count.
struct MasterReport {
  std::int64_t frame_results = 0;
  std::int64_t adaptive_splits = 0;
  std::int64_t frames_completed = 0;
  std::uint64_t rays_total = 0;
  std::uint64_t shadow_rays_total = 0;
  std::int64_t pixels_recomputed_total = 0;
  std::int64_t full_renders = 0;       // frame results that were full renders
  double worker_compute_seconds = 0.0; // sum of reference-seconds charged
  /// Region-frames delivered per worker rank (rank 0 stays 0).
  std::vector<std::int64_t> frames_by_worker;
  // -- recovery (journal + resume) -------------------------------------
  std::int64_t frames_restored = 0;     // whole frames loaded from disk
  std::int64_t journal_records = 0;     // records appended this run
  std::int64_t journal_bytes = 0;       // bytes appended this run
  std::int64_t journal_checkpoints = 0; // checkpoint records this run
  bool journal_ok = true;               // false after any journal I/O error
  // -- live telemetry ---------------------------------------------------
  std::int64_t straggler_flags = 0;     // worker → straggler transitions
  std::int64_t telemetry_samples = 0;   // sample ticks taken
  // -- multi-tenant service ---------------------------------------------
  std::int64_t shots_submitted = 0;     // admitted shots
  std::int64_t shots_completed = 0;
  std::int64_t shots_cancelled = 0;
  std::int64_t shots_rejected = 0;      // malformed or invalid submits
  /// Speculation clones dissolved to make room for admitted backlog.
  std::int64_t preemptions = 0;
};

/// Read a report from the series its fields are counted under (master.*,
/// ckpt.*, sched.stragglers, and rank.<w>.frames for `worker_count` ranks;
/// the shots counts only in `service` mode). The scheduler's own journal
/// numbers are the merged ckpt.* totals minus each of the `shards` segments'
/// shard.<i>.* part. journal_ok and telemetry_samples have no series: they
/// are the scheduler's own state. Looking a series up registers it, so the
/// scheduler reads once at construction and every series is listed, at
/// zero, before the first event.
MasterReport read_master_report(MetricsRegistry& ledger, int worker_count,
                                int shards, bool service);
/// The same over recovery.*.
FaultReport read_fault_report(MetricsRegistry& ledger);

class RenderMaster final : public Actor {
 public:
  RenderMaster(const AnimatedScene& scene, const MasterConfig& config);

  void on_start(Context& ctx) override;
  void on_message(Context& ctx, const Message& msg) override;
  /// Frees the run's scheduling bookkeeping on the scheduler's own thread;
  /// what the accessors below read stays.
  void on_shutdown(Context& ctx) override;

  /// The colocated frame owner at shards == 1 (null when sharded). Its
  /// frames are the assembled animation, valid after the runtime finishes;
  /// in service mode they are the concatenated global frame space — slice
  /// per shot with shot_summaries()'s base_frame/frame_count.
  const FrameAssembler* assembler() const { return assembler_.get(); }
  /// The scheduler's own journal health (true without a journal).
  bool journal_ok() const { return sink_ == nullptr || sink_->journal_ok(); }
  /// Telemetry sample ticks taken.
  std::int64_t telemetry_samples() const { return telemetry_samples_; }

  // -- multi-tenant service results (client tenants and shots only; empty
  //    in a classic run, whose built-in shot is not reported) -------------
  std::vector<TenantSummary> tenant_summaries() const;
  std::vector<ShotSummary> shot_summaries() const;
  const std::vector<ServiceAssignment>& assignment_log() const {
    return assignment_log_;
  }

 private:
  struct WorkerState {
    bool known = false;        // sent hello
    bool active = false;       // has an unfinished task
    bool awaiting_ack = false; // shrink in flight
    bool splitting = false;    // ...and it is an adaptive split
    /// The victim declined a split of this task: it clamps a shrink to the
    /// frames it has rendered, so a decline means it has rendered the whole
    /// task, and any later split of it would be declined too.
    bool unsplittable = false;
    bool queued = false;       // sitting in the idle queue
    bool dead = false;         // lease expired; rank is ignored forever
    bool cancelled = false;    // current task written off (results ignored)
    RenderTask task;
    std::int32_t next_expected = 0;  // first unreported frame
    std::int32_t end_frame = 0;      // master's view (post-shrink)
    double last_heard = 0.0;    // heartbeat: time of last message
    double last_progress = 0.0; // time of assignment or last accepted result
    double ping_time = -1.0;    // when the outstanding ping was sent (-1 none)
    double lease_seconds = 0.0; // current assignment's lease length
    // -- sharded mode only -----------------------------------------------
    /// kTagRequest arrived while digests for this task were still in
    /// flight from the shards (digest streams from different shards may
    /// reorder around ownership boundaries): the idle transition is parked
    /// until the digest chain catches up or the task is written off.
    bool request_pending = false;
    /// Digest reorder buffer: frames acknowledged by a *different* shard
    /// than the one next_expected belongs to, held until the chain reaches
    /// them. A gap within one shard's digests is genuine loss (per-sender
    /// FIFO), never reordering.
    std::set<std::int32_t> deferred_frames;
    /// Tenant whose quota this worker's assignment is charged against
    /// (-1 = none: the built-in shot has no tenant). Speculation clones stay
    /// uncharged so the quota gate (peak_inflight <= quota) holds for
    /// admitted work.
    int charged_tenant = -1;
  };

  /// Liveness state of one FrameShard rank (sharded mode with
  /// fault.enabled; empty otherwise). Shards hold *liveness* leases, not
  /// progress leases: a shard whose owned range is already complete
  /// legitimately commits nothing, but it must keep answering.
  struct ShardState {
    bool dead = false;       // lease expired; commits rolled back
    bool reset_sent = false; // fenced a still-talking dead incarnation
    double last_heard = 0.0; // any message from the shard rank
    double ping_time = -1.0; // outstanding liveness ping (-1 none)
  };

  /// A kTagCommitDigest from a shard rank: decode it, fence a dead
  /// incarnation, and hand the digest to handle_commit_digest.
  void receive_commit_digest(Context& ctx, const Message& msg);
  /// One CommitDigest — from a shard or from the colocated assembler — the
  /// scheduler's only view of a worker's result and its only commit
  /// accounting. Order-independent accounting (commit totals, area
  /// bookkeeping, shot completion) applies immediately; order-dependent
  /// worker progress goes through advance_worker; the checkpoint comes last.
  void handle_commit_digest(Context& ctx, const CommitDigest& d);
  /// Advance the sender's progress chain on one digest (or write its task
  /// off on a chain reject or gap). True when the chain reached the end of
  /// the task.
  bool advance_worker(Context& ctx, const CommitDigest& d);
  /// Digest chain for `worker` advanced to the end of its task (or the task
  /// was written off): run the parked idle transition, if any.
  void release_pending_request(Context& ctx, int worker);
  /// `hello` distinguishes kTagHello (may re-admit a dead rank: elastic
  /// membership) from kTagRequest (a dead rank's requests stay ignored).
  void handle_idle(Context& ctx, int worker, bool hello);
  /// The idle transition: the worker holds no task (nor a parked request or
  /// a shrink in flight) and waits in the idle queue.
  void go_idle(int worker);
  void handle_shrink_ack(Context& ctx, const Message& msg);
  /// A busy worker refused an assignment: requeue it immediately instead of
  /// letting it sit on the refusing worker until its lease expires.
  void handle_task_nack(Context& ctx, const Message& msg);
  void handle_lease_check(Context& ctx, const Message& msg);
  /// Shard liveness lease (kTagShardCheck self-timer): silent shard gets
  /// pinged, a pinged shard that stays silent through the grace period is
  /// declared dead and its uncommitted frames rolled back.
  void handle_shard_check(Context& ctx, const Message& msg);
  /// Hello from a shard rank: a replacement incarnation rebuilt from its
  /// journal segment and is re-announcing. Re-admit it — and if its death
  /// was never detected (restart raced the lease), perform the rollback now,
  /// because its partial frames died with its memory either way.
  void handle_shard_hello(Context& ctx, int source);
  void arm_shard_lease(Context& ctx, int shard, double delay, int phase);
  void declare_shard_dead(Context& ctx, int shard);
  /// The shard-death rollback: every incomplete frame the shard owned loses
  /// its committed cells (area returns to full, the mirror is cleared), the
  /// lost cells come back as reclaim tasks, and workers mid-task on the dead
  /// range are cancelled rather than left rendering into the void.
  void rollback_dead_shard(Context& ctx, int shard);
  /// Turn (rect → frame set) of lost committed cells into one reclaim task
  /// per contiguous frame run. Shared by shard rollback and checkpoint
  /// restore; over-coverage is safe (idempotent gates), under-coverage
  /// hangs the run.
  void enqueue_lost_cells(
      Context& ctx,
      const std::map<std::uint64_t, std::pair<PixelRect, std::set<int>>>&
          lost);
  /// Dispatch gate: the task touches a frame owned by a declared-dead shard
  /// (results for it would be lost); hold it until the shard re-admits.
  bool task_blocked_by_dead_shard(const RenderTask& task) const;
  /// Resume with a scheduler checkpoint: restore the task table (pending +
  /// in-flight remainders), task-id counter, and straggler statistics, plus
  /// reclaim tasks for cells the journal committed into frames that never
  /// completed — their pixels died with the process.
  void restore_from_checkpoint(Context& ctx,
                               const std::vector<char>& restored);
  /// Telemetry self-timer: snapshot metrics into the sampler, publish the
  /// /status JSON, re-arm. Never charges compute, never sends cross-rank.
  void handle_sample_tick(Context& ctx);
  /// The /status document: per-worker lease/task state, queue depth, shard
  /// completion counts, stragglers, recent throughput.
  std::string render_status_json(Context& ctx) const;
  /// Fresh-commit telemetry: close the frame's flow chain, feed the
  /// straggler detector, bump the live counters.
  void note_commit(Context& ctx, int worker, std::int32_t task_id,
                   std::uint64_t trace_ctx, std::int32_t frame,
                   double render_seconds);
  /// The one dispatch loop: feed idle workers from the picked shot's queue
  /// (dropping fully-committed tasks, holding ones a dead shard blocks —
  /// no split or speculation while work is held), else split, else
  /// speculate; then preempt speculation if a tenant's backlog waits.
  void dispatch(Context& ctx);
  bool try_adaptive_split(Context& ctx);
  /// End-game: clone the slowest active task onto an idle worker. Returns
  /// true when a clone was dispatched.
  bool try_speculate(Context& ctx);
  /// One copy of a speculated pair finished its range: dissolve the pair
  /// and shrink the losing copy away.
  void finish_speculation(Context& ctx, std::int32_t winner_task,
                          std::int32_t loser_task);
  /// Frames [from, end) of the worker's current task (same id, region and
  /// scene), in the master's view of where the task ends.
  static RenderTask remainder_of(const WorkerState& s, std::int32_t from);
  /// By value: assignment mints the task's trace context before sending.
  void assign(Context& ctx, int worker, RenderTask task);
  void maybe_finish(Context& ctx);
  /// Every region-frame of `task` already committed (or its frames fully
  /// assembled): assigning it would be pure duplicate work.
  bool task_fully_committed(const RenderTask& task) const;
  /// Append a compacted scheduler checkpoint to the journal.
  void write_checkpoint();
  /// Write off the worker's current task: results for it are ignored from
  /// now on, and the frames not yet delivered are re-enqueued as a fresh
  /// task (whose first frame will be a full coherence-restart render).
  void cancel_and_reclaim(Context& ctx, int worker);
  /// cancel_and_reclaim, then shrink the worker back to what it delivered.
  void write_off(Context& ctx, int worker);
  /// Shrink the worker's task to the frames it already delivered, unless a
  /// shrink is already in flight.
  void stop_at_delivered(Context& ctx, int worker);
  void declare_dead(Context& ctx, int worker);

  // -- shots and the multi-tenant service ------------------------------
  /// Weighted-fair admission state for one tenant (stride scheduling: each
  /// grant advances pass by units * kStrideScale / weight, the runnable
  /// tenant with the lowest pass goes next).
  struct Tenant {
    std::string name;
    double weight = 1.0;
    std::int32_t quota = 0;  // max in-flight tasks, 0 = unlimited
    std::int32_t inflight = 0;
    std::int32_t peak_inflight = 0;
    double pass = 0.0;
    std::int64_t units_assigned = 0;  // pixel-frames granted
    Counter* frames_counter = nullptr;   // tenant.<name>.frames_committed
    Counter* assigns_counter = nullptr;  // tenant.<name>.tasks_assigned
  };

  /// One admitted shot: a contiguous [base_frame, base_frame + frame_count)
  /// slice of the global frame space plus its private task queue. Shots
  /// tile the frame space and every task lies inside one shot. The classic
  /// run's built-in shot has tenant -1 and client_rank -1: it gets no
  /// tenant accounting, no ShotUpdate and no summary.
  struct Shot {
    std::int32_t shot_id = -1;
    int tenant = -1;  // index into tenants_, -1 for the built-in shot
    int client_rank = -1;
    std::string label;
    std::int32_t scene_id = 0;
    std::int32_t scene_first_frame = 0;
    std::int32_t frame_count = 0;
    std::int32_t base_frame = 0;
    ShotPhase phase = ShotPhase::kActive;
    std::int32_t frames_done = 0;
    /// Pixel-frames across the initial task queue (the shot's total work —
    /// the affinity quantum in pick_tenant).
    std::int64_t units_total = 0;
    std::deque<RenderTask> queue;
  };

  bool is_client_rank(Context& ctx, int rank) const;
  void handle_shot_submit(Context& ctx, const Message& msg);
  void handle_shot_status(Context& ctx, const Message& msg);
  void handle_shot_cancel(Context& ctx, const Message& msg);
  void handle_client_done(Context& ctx, int source);
  /// Find-or-create the tenant named in a submit. The first submit fixes
  /// the tenant's weight and quota; its stride pass starts at the minimum
  /// existing pass so a late arrival cannot monopolize the farm back-paying
  /// "missed" grants.
  int tenant_for(const std::string& name, double weight, std::int32_t quota);
  /// Lowest-pass tenant with a runnable shot and quota headroom (-1: none),
  /// with shot affinity: the last-served tenant keeps the grant while its
  /// stride lead stays under one shot's worth of units, so a shot's tasks
  /// finish near each other and its frames complete (and flush) promptly.
  /// Pure per-task rotation would scatter each shot's tiles across the
  /// whole schedule, bunching frame completions into master-side write
  /// stalls exactly when every worker is asking for its next task.
  int pick_tenant();
  /// First active shot of `tenant` (admission order) whose queue still has
  /// an uncommitted task; prunes committed queue heads as a side effect.
  int runnable_shot(int tenant);
  /// The shot the next idle worker draws from (-1: none runnable). Without
  /// tenants that is the built-in shot; otherwise pick_tenant decides.
  int pick_shot();
  /// Charge a grant from client shot `sid` to its tenant.
  void charge_tenant(Context& ctx, int worker, int sid,
                     const RenderTask& task);
  /// Un-charge the quota slot once (idempotent: resets charged_tenant).
  void release_assignment(int worker);
  /// Runnable admitted work, no idle live worker: dissolve one speculation
  /// pair and shrink the clone away so its worker returns for real work.
  void preempt_if_backlogged(Context& ctx);
  void finish_shot(Context& ctx, Shot& shot);
  /// Shot owning a global frame (-1 when none — cannot happen for frames
  /// in [0, frame_area_missing_.size()) once admitted).
  int shot_of_frame(std::int32_t frame) const;
  /// The shot owning `frame` if it is still active (null once done or
  /// cancelled: its remaining area was written off).
  Shot* open_shot(std::int32_t frame);
  /// Queue `task` on the shot owning its frames. False (task dropped) when
  /// that shot is no longer active.
  bool requeue(const RenderTask& task);
  /// Queue `task` (fresh id) on `shot` as recovery work whose first frame
  /// pays a full coherence restart, and count it. `worker` is the rank it
  /// was taken from (-1: cells lost with a shard).
  void reclaim(Context& ctx, Shot& shot, RenderTask task, int worker);
  /// Tasks queued across all shots (sched.queue_depth, /status).
  std::int64_t queued_tasks() const;
  /// Partition `shot` (of `scene`) into tasks on its queue, skipping frames
  /// flagged in `restored` (global frame index; empty = none restored).
  /// Shared by the built-in shot and every admitted client shot.
  void partition_shot(Shot& shot, const AnimatedScene& scene,
                      const std::vector<char>& restored);
  std::string service_frame_path(std::int32_t frame) const;

  const AnimatedScene& scene_;
  MasterConfig config_;

  std::vector<WorkerState> workers_;
  std::deque<int> idle_;
  /// One entry per shard in sharded mode with fault.enabled; empty when
  /// shard liveness is off.
  std::vector<ShardState> shard_states_;

  std::vector<std::int64_t> frame_area_missing_;
  std::int64_t area_frames_missing_ = 0;
  std::int32_t next_task_id_ = 0;
  bool stopping_ = false;

  std::set<std::int32_t> cancelled_tasks_;   // results discarded
  std::set<std::int32_t> reassigned_tasks_;  // recovery tasks (restart cost)

  /// Digest-fed mirror of the owners' idempotent-commit gates: per frame,
  /// the packed rects already committed. Scheduling only (dispatch skips
  /// fully-committed tasks, shard rollback re-covers lost cells); the
  /// owners' own gates decide what is applied.
  std::vector<std::set<std::uint64_t>> committed_rects_;
  /// Speculated task pairs, keyed both ways (task_id → partner task_id).
  std::map<std::int32_t, std::int32_t> spec_partner_;
  /// Every task id that was ever half of a pair: duplicate commits from
  /// these are speculation waste, not protocol anomalies.
  std::set<std::int32_t> spec_tasks_;
  /// Task ids that are speculation *clones* (uncharged): the pool the
  /// backlog preemption drains first.
  std::set<std::int32_t> spec_clone_tasks_;
  /// Durable IO (journal appends + TGA writes). At shards == 1 the
  /// colocated assembler writes through it too; in sharded mode it carries
  /// the scheduler's checkpoint-only journal and never sees pixels.
  std::unique_ptr<FrameSink> sink_;
  /// The colocated frame owner at shards == 1; null when sharded.
  std::unique_ptr<FrameAssembler> assembler_;
  /// Fresh commits since the last checkpoint record.
  std::int64_t digests_since_checkpoint_ = 0;
  /// Stands in for config_.metrics when none was given: the scheduler reads
  /// its own counters back (/status, tenant summaries), so they are real.
  MetricsRegistry own_metrics_;
  /// The ledger. Every series the reports read is registered at
  /// construction (never gated on the telemetry plane, so sim metrics JSON
  /// is identical with the plane enabled or disabled). The per-digest path
  /// updates cached handles; rare recovery events look their series up by
  /// name.
  MetricsRegistry& metrics_;
  Counter& frame_results_;          // master.frame_results
  Counter& frames_completed_;       // master.frames_completed
  Counter& rays_total_;             // master.rays_total
  Counter& shadow_rays_total_;      // master.shadow_rays_total
  Counter& pixels_recomputed_;      // master.pixels_recomputed
  Counter& full_renders_;           // master.full_renders
  Gauge& worker_compute_seconds_;   // master.worker_compute_seconds
  Counter& ep_digest_bytes_;        // endpoint.0.digest_bytes
  Counter& frames_committed_live_;  // sched.frames_committed
  Counter& stragglers_flagged_;     // sched.stragglers
  Counter& shrinks_declined_;       // sched.shrinks_declined
  Gauge& queue_depth_;              // sched.queue_depth
  /// rank.<w>.frames: region-frames committed per worker rank (entry 0, the
  /// scheduler's own rank, is null).
  std::vector<Counter*> frames_by_rank_;
  std::int64_t telemetry_samples_ = 0;

  StragglerDetector straggler_;

  /// Every task queue: the built-in shot in a classic run, admitted client
  /// shots in a service run.
  std::vector<Shot> shots_;                 // shot_id == index, base order

  // -- multi-tenant service (empty/false in a classic run) ---------------
  bool service_ = false;
  std::vector<Tenant> tenants_;
  std::map<std::string, int> tenant_ids_;   // name → index into tenants_
  /// Last tenant granted work (shot affinity in pick_tenant); -1 = none.
  int affinity_tenant_ = -1;
  std::set<int> done_clients_;              // client ranks that sent done
  std::vector<ServiceAssignment> assignment_log_;
};

}  // namespace now
