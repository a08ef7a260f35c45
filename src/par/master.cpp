#include "src/par/master.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <type_traits>

namespace now {

RenderMaster::RenderMaster(const AnimatedScene& scene,
                           const MasterConfig& config)
    : scene_(scene),
      config_(config),
      metrics_(config.metrics != nullptr ? *config.metrics : own_metrics_),
      frame_results_(metrics_.counter("master.frame_results")),
      frames_completed_(metrics_.counter("master.frames_completed")),
      rays_total_(metrics_.counter("master.rays_total")),
      shadow_rays_total_(metrics_.counter("master.shadow_rays_total")),
      pixels_recomputed_(metrics_.counter("master.pixels_recomputed")),
      full_renders_(metrics_.counter("master.full_renders")),
      worker_compute_seconds_(metrics_.gauge("master.worker_compute_seconds")),
      ep_digest_bytes_(metrics_.counter("endpoint.0.digest_bytes")),
      frames_committed_live_(metrics_.counter("sched.frames_committed")),
      stragglers_flagged_(metrics_.counter("sched.stragglers")),
      shrinks_declined_(metrics_.counter("sched.shrinks_declined")),
      queue_depth_(metrics_.gauge("sched.queue_depth")),
      straggler_(config.straggler),
      service_(config.service.enabled) {
  if (config_.tracer != nullptr && !config_.tracer->enabled()) {
    config_.tracer = nullptr;
  }
  // Register every series the reports read (rank.<w>.frames waits for the
  // world size in on_start).
  read_master_report(
      metrics_, 0,
      config_.shards.sharded() ? config_.shards.shard_count : 0, service_);
  read_fault_report(metrics_);
  // Healthy until any journal of the run (this scheduler's or a shard's
  // segment) reports a failure through its sink.
  metrics_.gauge("ckpt.journal_ok").set(1.0);
}

MasterReport read_master_report(MetricsRegistry& ledger, int worker_count,
                                int shards, bool service) {
  const auto count = [&ledger](const std::string& name) {
    return ledger.counter(name).value();
  };
  MasterReport r;
  r.frame_results = count("master.frame_results");
  r.adaptive_splits = count("master.adaptive_splits");
  r.frames_completed = count("master.frames_completed");
  r.rays_total = count("master.rays_total");
  r.shadow_rays_total = count("master.shadow_rays_total");
  r.pixels_recomputed_total = count("master.pixels_recomputed");
  r.full_renders = count("master.full_renders");
  r.worker_compute_seconds =
      ledger.gauge("master.worker_compute_seconds").value();
  r.frames_by_worker.assign(static_cast<std::size_t>(worker_count) + 1, 0);
  for (int w = 1; w <= worker_count; ++w) {
    r.frames_by_worker[w] = count("rank." + std::to_string(w) + ".frames");
  }
  r.frames_restored = count("ckpt.frames_restored");
  r.journal_records = count("ckpt.journal_records");
  r.journal_bytes = count("ckpt.journal_bytes");
  for (int i = 0; i < shards; ++i) {
    const std::string segment = "shard." + std::to_string(i) + ".";
    r.journal_records -= count(segment + "journal_records");
    r.journal_bytes -= count(segment + "journal_bytes");
  }
  r.journal_checkpoints = count("ckpt.journal_checkpoints");
  r.straggler_flags = count("sched.stragglers");
  if (service) {
    r.shots_submitted = count("master.shots_submitted");
    r.shots_completed = count("master.shots_completed");
    r.shots_cancelled = count("master.shots_cancelled");
    r.shots_rejected = count("master.shots_rejected");
    r.preemptions = count("master.preemptions");
  }
  return r;
}

FaultReport read_fault_report(MetricsRegistry& ledger) {
  const auto count = [&ledger](const char* name) {
    return ledger.counter(std::string("recovery.") + name).value();
  };
  const auto seconds = [&ledger](const char* name) {
    return ledger.gauge(std::string("recovery.") + name).value();
  };
  FaultReport r;
  r.deaths_detected = count("deaths_detected");
  r.pings_sent = count("pings_sent");
  r.workers_rejoined = count("workers_rejoined");
  r.shards_failed = count("shards_failed");
  r.shards_rejoined = count("shards_rejoined");
  r.shard_commits_rolled_back = count("shard_commits_rolled_back");
  r.speculations_launched = count("speculations_launched");
  r.speculations_won = count("speculations_won");
  r.speculation_frames_wasted = count("speculation_frames_wasted");
  r.speculation_wasted_seconds = seconds("speculation_wasted_seconds");
  r.tasks_nacked = count("tasks_nacked");
  r.tasks_reassigned = count("tasks_reassigned");
  r.frames_reassigned = count("frames_reassigned");
  r.results_ignored = count("results_ignored");
  r.lost_work_seconds = seconds("lost_work_seconds");
  r.restart_work_seconds = seconds("restart_work_seconds");
  r.detection_latency_seconds = seconds("detection_latency_seconds");
  return r;
}

void RenderMaster::on_start(Context& ctx) {
  // A service run starts with an *empty* frame space that admitted shots
  // grow; a classic run is the one-shot case over the whole animation.
  const int frames = service_ ? 0 : scene_.frame_count();
  const int w = scene_.width();
  const int h = scene_.height();
  const bool sharded = config_.shards.sharded();
  // In sharded mode the trailing ranks are FrameShard actors, not workers:
  // every `w < workers_.size()` loop (dispatch, leases, speculation,
  // checkpoints, liveness) must exclude them, so the bookkeeping vector
  // stops at the last worker rank. In service mode the trailing ranks are
  // ShotClient actors instead, excluded the same way.
  const int worker_count =
      sharded ? config_.shards.worker_count
              : ctx.world_size() - 1 - config_.service.client_count;
  assert(worker_count >= 1);
  assert(!sharded || ctx.world_size() == config_.shards.world_size());
  workers_.assign(static_cast<std::size_t>(worker_count) + 1, {});
  frames_by_rank_.assign(workers_.size(), nullptr);
  for (std::size_t r = 1; r < frames_by_rank_.size(); ++r) {
    frames_by_rank_[r] =
        &metrics_.counter("rank." + std::to_string(r) + ".frames");
  }
  // The scheduler holds no pixels: its area bookkeeping is a mirror fed by
  // commit digests, whoever owns the framebuffers.
  frame_area_missing_.assign(static_cast<std::size_t>(frames),
                             std::int64_t{w} * h);
  area_frames_missing_ = std::int64_t{w} * h * frames;
  committed_rects_.assign(static_cast<std::size_t>(frames), {});

  // Resume: frames the previous run completed (journal record + verified
  // targa on disk) are restored wholesale and never re-enter scheduling.
  // The scheduler marks them complete; their owner loads the images.
  std::vector<char> restored(static_cast<std::size_t>(frames), 0);
  if (config_.recovery != nullptr) {
    const RecoveryState& rec = *config_.recovery;
    std::int64_t restored_frames = 0;
    for (int f = 0; f < frames; ++f) {
      if (f < static_cast<int>(rec.frames.size()) &&
          rec.frames[f].has_value()) {
        frame_area_missing_[f] = 0;
        area_frames_missing_ -= std::int64_t{w} * h;
        restored[f] = 1;
        ++restored_frames;
      }
    }
    metrics_.counter("ckpt.frames_restored")
        .inc(static_cast<std::uint64_t>(restored_frames));
    if (config_.tracer != nullptr && restored_frames > 0) {
      config_.tracer->instant(ctx.rank(), "sched", "resume.restore", ctx.now(),
                              {{"frames", restored_frames}});
    }
  }
  if (!service_) {
    // The built-in shot: scene 0, base 0, the whole animation, no tenant
    // and no client. Service shots arrive over the job queue instead.
    Shot builtin;
    builtin.shot_id = 0;
    builtin.frame_count = frames;
    shots_.push_back(std::move(builtin));
    if (config_.recovery != nullptr &&
        config_.recovery->last_checkpoint.has_value()) {
      // A scheduler checkpoint survived: resume the compacted task table
      // instead of re-partitioning. Its tasks cover the incomplete remainder
      // as a superset (reclaim overlap is gated away at commit), so the
      // exact tiling of partition_shot does not apply to this path.
      restore_from_checkpoint(ctx, restored);
    } else {
      partition_shot(shots_[0], scene_, restored);
    }
  }

  // One sink per process. At shards == 1 it carries every region commit,
  // frame file and checkpoint; a sharded scheduler only ever checkpoints
  // through it (each shard owns its frames' sink).
  FrameSinkConfig sink;
  sink.output_dir = config_.output_dir;
  sink.output_prefix = config_.output_prefix;
  if (service_ && !config_.output_dir.empty()) {
    // Per-shot output namespacing: a tenant's frames land under its own
    // name, numbered in the shot's scene-local frame space.
    sink.frame_path = [this](std::int32_t frame) {
      return service_frame_path(frame);
    };
  }
  sink.journal_path = config_.journal_path;
  sink.journal_fsync = config_.journal_fsync;
  sink.header.width = w;
  sink.header.height = h;
  sink.header.frame_count = frames;
  sink.header.shard_count = config_.shards.shard_count;
  // -1 marks a checkpoint-only scheduler journal; at shards == 1 the journal
  // is also the (only) shard segment.
  sink.header.shard_index = sharded ? -1 : 0;
  sink.resume = config_.recovery != nullptr;
  sink.resume_valid_bytes =
      config_.recovery != nullptr ? config_.recovery->journal_valid_bytes : 0;
  sink.metrics = &metrics_;
  sink.endpoint_rank = 0;
  sink_ = std::make_unique<FrameSink>(sink);
  if (!sharded) {
    // shards == 1: the whole framebuffer is one colocated shard core at
    // rank 0, writing through the same sink. Frame results are committed
    // in-process and their digests go straight to handle_commit_digest.
    assembler_ = std::make_unique<FrameAssembler>(0, frames, w, h, sink_.get(),
                                                  0, &metrics_);
    if (config_.recovery != nullptr) {
      assembler_->restore(config_.recovery->frames,
                          config_.recovery->frame_commits);
    }
  }
  // Shard liveness: shards are failure domains too. Each one holds a
  // rolling liveness lease (any message renews; silence draws a ping, then
  // a grace period, then death + rollback). Progress leases make no sense
  // for shards — one whose owned range is complete commits nothing forever.
  if (sharded && config_.fault.enabled) {
    shard_states_.assign(
        static_cast<std::size_t>(config_.shards.shard_count), {});
    for (int i = 0; i < config_.shards.shard_count; ++i) {
      shard_states_[i].last_heard = ctx.now();
      arm_shard_lease(ctx, i, config_.fault.lease_base_seconds, 0);
    }
  }
  // Everything restored: stop before any worker is put to work.
  maybe_finish(ctx);
  if (!stopping_ && config_.sample_interval_seconds > 0.0 &&
      (config_.sampler != nullptr || config_.status != nullptr)) {
    ctx.send_after(config_.sample_interval_seconds, kTagSampleTick, {});
  }
  queue_depth_.set(static_cast<double>(queued_tasks()));
}

void RenderMaster::on_shutdown(Context& ctx) {
  (void)ctx;
  // The bookkeeping is thousands of small set and map nodes allocated on
  // this thread. Freed later from the caller's thread (when the master is
  // destroyed), they park in that thread's malloc cache, get reused there
  // for long-lived objects, and pin the top of this thread's arena, which
  // then keeps megabytes of freed frame memory resident (perfbench's
  // tenant_shots, 4-core x86-64: peak RSS ~88 MB without this, ~74 MB with
  // it). Freed here, they return to this thread's arena as it exits.
  const auto release = [](auto& c) {
    std::remove_reference_t<decltype(c)>().swap(c);
  };
  release(committed_rects_);
  release(cancelled_tasks_);
  release(reassigned_first_frame_);
  release(spec_tasks_);
  release(spec_clone_tasks_);
  for (Shot& shot : shots_) release(shot.queue);
  if (assembler_ != nullptr) assembler_->release_gates();
}

void RenderMaster::on_message(Context& ctx, const Message& msg) {
  if (msg.tag == kTagSampleTick) {
    // Telemetry must be observably free: no compute charge, no heartbeat
    // bookkeeping, nothing sent across ranks — handled before everything.
    handle_sample_tick(ctx);
    return;
  }
  ctx.charge(config_.cost.master_per_message_seconds);
  // Every message a live worker sends doubles as a heartbeat.
  if (msg.source >= 1 && msg.source < static_cast<int>(workers_.size())) {
    WorkerState& s = workers_[msg.source];
    if (!s.dead) s.last_heard = ctx.now();
  } else if (!shard_states_.empty() &&
             msg.source >= static_cast<int>(workers_.size())) {
    // Same for shard ranks: any message (digest, pong, hello) renews the
    // shard's liveness lease. A declared-dead shard earns nothing until it
    // re-admits through handle_shard_hello.
    const int shard = msg.source - static_cast<int>(workers_.size());
    if (shard < static_cast<int>(shard_states_.size()) &&
        !shard_states_[shard].dead) {
      shard_states_[shard].last_heard = ctx.now();
    }
  }
  switch (msg.tag) {
    case kTagHello:
      if (config_.shards.sharded() &&
          msg.source >= static_cast<int>(workers_.size())) {
        // A shard rank announcing itself: failover re-admission, never an
        // idle worker (handle_idle would index workers_ out of range).
        handle_shard_hello(ctx, msg.source);
      } else {
        handle_idle(ctx, msg.source, /*hello=*/true);
      }
      break;
    case kTagRequest:
      handle_idle(ctx, msg.source, /*hello=*/false);
      break;
    case kTagFrameResult: {
      if (assembler_ == nullptr) {
        // Sharded workers route pixels straight to the owning shard: a frame
        // result here has no assembler to go to.
        count_malformed_message(metrics_, msg.tag);
        break;
      }
      const FrameAssembler::Commit c =
          assembler_->commit(msg.source, msg.payload);
      if (c.frame_completed) {
        ctx.charge(config_.cost.master_frame_write_seconds);
      }
      handle_commit_digest(ctx, c.digest);
      break;
    }
    case kTagCommitDigest:
      receive_commit_digest(ctx, msg);
      break;
    case kTagShrinkAck:
      handle_shrink_ack(ctx, msg);
      break;
    case kTagTaskNack:
      handle_task_nack(ctx, msg);
      break;
    case kTagPong:
      break;  // the heartbeat update above is the whole point
    case kTagLeaseCheck:
      handle_lease_check(ctx, msg);
      break;
    case kTagShardCheck:
      handle_shard_check(ctx, msg);
      break;
    case kTagShotSubmit:
      handle_shot_submit(ctx, msg);
      break;
    case kTagShotStatus:
      handle_shot_status(ctx, msg);
      break;
    case kTagShotCancel:
      handle_shot_cancel(ctx, msg);
      break;
    case kTagClientDone:
      handle_client_done(ctx, msg.source);
      break;
    default:
      count_malformed_message(metrics_, msg.tag);
      break;
  }
}

void RenderMaster::handle_idle(Context& ctx, int worker, bool hello) {
  if (worker < 1 || worker >= static_cast<int>(workers_.size())) {
    return;  // not a worker rank (e.g. a confused service client)
  }
  WorkerState& state = workers_[worker];
  if (state.dead) {
    if (!hello) return;
    // Elastic membership: a Hello from a declared-dead rank means the
    // process restarted. Re-admit it with a clean slate — its old task was
    // already reclaimed at death, and its first new frame is a dense
    // coherence restart like any fresh assignment. A stale idle-queue entry
    // from before the death stays valid, so don't enqueue twice.
    const bool was_queued = state.queued;
    state = WorkerState{};
    state.queued = was_queued;
    state.last_heard = ctx.now();
    state.last_progress = ctx.now();
    metrics_.counter("recovery.workers_rejoined").inc();
    if (config_.tracer != nullptr) {
      config_.tracer->instant(ctx.rank(), "sched", "worker.rejoin", ctx.now(),
                              {{"worker", worker}});
    }
  }
  state.known = true;
  if (state.active && !state.cancelled &&
      state.next_expected < state.end_frame) {
    if (config_.shards.sharded() && !hello) {
      // Sharded mode: the worker's results went to the shards and their
      // digests may still be in flight behind this request (different
      // senders, no cross-sender ordering). Park the idle transition; the
      // digest chain catching up — or the task being written off —
      // releases it. A genuine loss still surfaces through the lease.
      state.request_pending = true;
      return;
    }
    // The worker says its task is finished but results are missing. Sends
    // are per-sender FIFO, so anything still unseen was lost in transit
    // (e.g. the task's final frame result): write it off and re-enqueue.
    cancel_and_reclaim(ctx, worker);
  }
  release_assignment(worker);
  // A worker asking for work has no task left to shrink; a shrink ack still
  // in flight (e.g. the shrink reached a rank that crashed and rejoined)
  // will arrive with nothing to steal and is harmless.
  go_idle(worker);
  dispatch(ctx);
  maybe_finish(ctx);
}

void RenderMaster::go_idle(int worker) {
  WorkerState& s = workers_[worker];
  s.active = false;
  s.cancelled = false;
  s.request_pending = false;
  s.awaiting_ack = false;
  s.splitting = false;
  s.deferred_frames.clear();
  if (!s.queued) {
    s.queued = true;
    idle_.push_back(worker);
  }
}

RenderTask RenderMaster::remainder_of(const WorkerState& s,
                                      std::int32_t from) {
  RenderTask task = s.task;
  task.first_frame = from;
  task.frame_count = s.end_frame - from;
  return task;
}

void RenderMaster::assign(Context& ctx, int worker, RenderTask task) {
  // Mint the trace context here — a deterministic nonzero function of the
  // task id — so a requeued task (nack, reclaim) restarts the same flow
  // chain and every result/digest can be tied back to this assignment.
  task.trace_ctx = static_cast<std::uint64_t>(task.task_id) + 1;
  WorkerState& state = workers_[worker];
  state.active = true;
  state.cancelled = false;
  state.task = task;
  state.next_expected = task.first_frame;
  state.end_frame = task.end_frame();
  state.unsplittable = false;
  if (config_.fault.enabled) {
    // Lease scaled by assigned task cost: a bigger frame range legitimately
    // keeps a worker silent for longer before its first result.
    state.last_heard = ctx.now();
    state.last_progress = ctx.now();
    state.ping_time = -1.0;
    state.lease_seconds =
        config_.fault.lease_base_seconds +
        config_.fault.lease_per_frame_seconds * task.frame_count;
    LeaseCheck check;
    check.worker = worker;
    check.task_id = task.task_id;
    check.phase = 0;
    ctx.send_after(state.lease_seconds, kTagLeaseCheck,
                   encode_lease_check(check));
  }
  if (config_.tracer != nullptr) {
    config_.tracer->instant(ctx.rank(), "sched", "task.assign", ctx.now(),
                            {{"worker", worker},
                             {"task", task.task_id},
                             {"first_frame", task.first_frame},
                             {"frames", task.frame_count}});
    // One flow start per frame in the assignment: each frame's life is its
    // own chain (render → send → commit → ack), all anchored here.
    for (std::int32_t f = task.first_frame; f < task.end_frame(); ++f) {
      config_.tracer->flow_start(
          ctx.rank(), trace_flow_id(task.trace_ctx, f), ctx.now(),
          {{"worker", worker}, {"task", task.task_id}, {"frame", f},
           {"step", 0}});
    }
  }
  ctx.send(worker, kTagTask, encode_task(task));
}

bool RenderMaster::task_fully_committed(const RenderTask& task) const {
  for (std::int32_t f = task.first_frame; f < task.end_frame(); ++f) {
    if (frame_area_missing_[f] == 0) continue;
    if (committed_rects_[f].count(rect_key(task.region)) == 0) return false;
  }
  return true;
}

void RenderMaster::dispatch(Context& ctx) {
  while (!idle_.empty()) {
    const int worker = idle_.front();
    if (workers_[worker].dead) {
      idle_.pop_front();
      workers_[worker].queued = false;
      continue;
    }
    const int picked = pick_shot();
    if (picked >= 0) {
      // The picked tenant's task for the region this worker holds coherence
      // state for, if one is queued: it continues warm instead of paying a
      // full first frame. Only a hint — any task is correct on any worker.
      int sid = -1;
      auto it = held_region_task(worker, shots_[picked].tenant, &sid);
      if (sid < 0) {
        // Otherwise the picked shot's first dispatchable task.
        sid = picked;
        it = first_dispatchable(shots_[sid].queue, nullptr);
        // pick_shot vouched for an uncommitted task, so finding none means
        // every one left is held: wait for the shard to rejoin.
        if (it == shots_[sid].queue.end()) break;
      }
      Shot& shot = shots_[sid];
      const RenderTask task = *it;
      shot.queue.erase(it);
      idle_.pop_front();
      workers_[worker].queued = false;
      if (shot.tenant >= 0) charge_tenant(ctx, worker, sid, task);
      assign(ctx, worker, task);
      continue;
    }
    // No queued work is runnable (empty queues, or every tenant at quota):
    // fall back to the end-game moves.
    if (config_.partition.adaptive && try_adaptive_split(ctx)) {
      // A split is in flight; idle workers wait for the ack.
      break;
    }
    if (config_.speculate && try_speculate(ctx)) continue;
    break;
  }
  preempt_if_backlogged(ctx);
  queue_depth_.set(static_cast<double>(queued_tasks()));
}

std::deque<RenderTask>::iterator RenderMaster::first_dispatchable(
    std::deque<RenderTask>& queue, const WorkerState* holder) {
  // A speculation winner (or an overlap from reclaim) may have covered a task
  // entirely while it waited: drop it instead of paying a worker to render
  // duplicates. A task touching a dead shard's frames stays queued — its
  // results would be lost — until the replacement shard re-admits.
  auto it = queue.begin();
  while (it != queue.end()) {
    if (holder != nullptr && (it->scene_id != holder->task.scene_id ||
                              it->region != holder->task.region)) {
      ++it;
      continue;
    }
    if (task_fully_committed(*it)) {
      it = queue.erase(it);
      continue;
    }
    if (!task_blocked_by_dead_shard(*it)) break;
    ++it;
  }
  return it;
}

std::deque<RenderTask>::iterator RenderMaster::held_region_task(int worker,
                                                                int tenant,
                                                                int* sid) {
  for (int s = 0; s < static_cast<int>(shots_.size()); ++s) {
    Shot& shot = shots_[s];
    if (shot.tenant != tenant || shot.phase != ShotPhase::kActive) continue;
    const auto it = first_dispatchable(shot.queue, &workers_[worker]);
    if (it != shot.queue.end()) {
      *sid = s;
      return it;
    }
  }
  *sid = -1;
  return {};
}

bool RenderMaster::try_speculate(Context& ctx) {
  // End-game gate: nothing runnable queued, and strictly more idle live
  // workers than tasks still running — duplicating the straggler costs
  // capacity that would otherwise sit idle until the last frame lands.
  int idle_live = 0;
  for (const int w : idle_) {
    if (!workers_[w].dead) ++idle_live;
  }
  int active_tasks = 0;
  for (int w = 1; w < static_cast<int>(workers_.size()); ++w) {
    const WorkerState& s = workers_[w];
    if (s.active && !s.cancelled && !s.dead) ++active_tasks;
  }
  if (active_tasks == 0 || idle_live <= active_tasks) return false;

  // Victim: the active worker expected to hold the end-game longest, not
  // mid-shrink, not parked (a parked request means it rendered its whole
  // task; a clone would re-render frames already at the shards), and not
  // already paired (one speculative copy per task).
  // Expected cost is remaining frames × the worker's EWMA per-frame render
  // time from the straggler detector, so a rank that has been consistently
  // slow is duplicated ahead of one that merely holds more frames. With no
  // samples yet every worker scores at the fleet mean and this reduces to
  // the old most-remaining rule.
  int victim = -1;
  std::int32_t best_remaining = 0;
  double best_score = 0.0;
  for (int w = 1; w < static_cast<int>(workers_.size()); ++w) {
    const WorkerState& s = workers_[w];
    if (!s.active || s.awaiting_ack || s.dead || s.cancelled ||
        s.request_pending) {
      continue;
    }
    if (spec_partner_.count(s.task.task_id) > 0) continue;
    const std::int32_t remaining = s.end_frame - s.next_expected;
    if (remaining < 1) continue;
    const double score = remaining * straggler_.expected_seconds(w);
    if (score > best_score) {
      best_score = score;
      best_remaining = remaining;
      victim = w;
    }
  }
  if (victim < 0 || best_remaining < 1) return false;

  const WorkerState& vs = workers_[victim];
  RenderTask clone = remainder_of(vs, vs.next_expected);
  clone.task_id = next_task_id_++;
  // Clones are speculative, not admitted work: they stay uncharged against
  // any tenant's quota and are the first thing backlog preemption dissolves.
  spec_clone_tasks_.insert(clone.task_id);
  spec_partner_[clone.task_id] = vs.task.task_id;
  spec_partner_[vs.task.task_id] = clone.task_id;
  spec_tasks_.insert(clone.task_id);
  spec_tasks_.insert(vs.task.task_id);
  metrics_.counter("recovery.speculations_launched").inc();
  if (config_.tracer != nullptr) {
    config_.tracer->instant(ctx.rank(), "sched", "task.speculate", ctx.now(),
                            {{"victim", victim},
                             {"task", clone.task_id},
                             {"first_frame", clone.first_frame},
                             {"frames", clone.frame_count}});
  }
  const int worker = idle_.front();
  idle_.pop_front();
  workers_[worker].queued = false;
  assign(ctx, worker, clone);
  return true;
}

void RenderMaster::finish_speculation(Context& ctx, std::int32_t winner_task,
                                      std::int32_t loser_task) {
  spec_partner_.erase(winner_task);
  spec_partner_.erase(loser_task);
  metrics_.counter("recovery.speculations_won").inc();
  if (config_.tracer != nullptr) {
    config_.tracer->instant(ctx.rank(), "sched", "speculate.won", ctx.now(),
                            {{"winner", winner_task}, {"loser", loser_task}});
  }
  // Shrink the losing copy back to what it already delivered; its remaining
  // frames are committed, so the master's view of its task ends now.
  for (int w = 1; w < static_cast<int>(workers_.size()); ++w) {
    WorkerState& s = workers_[w];
    if (!s.active || s.dead || s.cancelled || s.task.task_id != loser_task) {
      continue;
    }
    s.end_frame = std::min(s.end_frame, s.next_expected);
    stop_at_delivered(ctx, w);
    break;
  }
}

bool RenderMaster::try_adaptive_split(Context& ctx) {
  // Victim: the active worker with the most unreported frames remaining.
  int victim = -1;
  std::int32_t best_remaining = 0;
  for (int w = 1; w < static_cast<int>(workers_.size()); ++w) {
    const WorkerState& s = workers_[w];
    if (!s.active || s.awaiting_ack || s.dead || s.cancelled) continue;
    // The master's frontier lags the worker's while digests are in flight,
    // so a declined task would otherwise be proposed again on every
    // dispatch; a parked request says the worker rendered its whole task,
    // so a shrink is certain to be declined.
    if (s.unsplittable || s.request_pending) continue;
    // A paired task's remainder is already being rendered twice; splitting
    // it a third way only manufactures duplicates.
    if (spec_partner_.count(s.task.task_id) > 0) continue;
    const std::int32_t remaining = s.end_frame - s.next_expected;
    if (remaining > best_remaining) {
      best_remaining = remaining;
      victim = w;
    }
  }
  if (victim < 0 || best_remaining < config_.partition.min_split_frames) {
    return false;
  }
  WorkerState& s = workers_[victim];
  ShrinkRequest req;
  req.task_id = s.task.task_id;
  req.new_end_frame = s.end_frame - best_remaining / 2;
  s.awaiting_ack = true;
  s.splitting = true;
  if (config_.tracer != nullptr) {
    config_.tracer->instant(ctx.rank(), "sched", "task.shrink", ctx.now(),
                            {{"victim", victim},
                             {"task", req.task_id},
                             {"new_end_frame", req.new_end_frame}});
  }
  ctx.send(victim, kTagShrink, encode_shrink(req));
  return true;
}

void RenderMaster::handle_shrink_ack(Context& ctx, const Message& msg) {
  ShrinkAck ack;
  if (!decode_shrink_ack(&ack, msg.payload)) {
    count_malformed_message(metrics_, msg.tag);
    return;
  }
  if (msg.source < 1 || msg.source >= static_cast<int>(workers_.size())) {
    return;
  }
  WorkerState& s = workers_[msg.source];
  if (s.dead) return;
  const bool split = s.splitting;
  s.awaiting_ack = false;
  s.splitting = false;
  const bool current = s.active && !s.cancelled &&
                       cancelled_tasks_.count(ack.task_id) == 0 &&
                       s.task.task_id == ack.task_id;
  const bool taken = current && ack.honored_end_frame >= 0 &&
                     ack.honored_end_frame < s.end_frame;
  if (split && current && !taken) {
    s.unsplittable = true;
    shrinks_declined_.inc();
  }
  if (taken) {
    // The stolen range becomes a fresh task for an idle worker.
    RenderTask stolen = remainder_of(s, ack.honored_end_frame);
    stolen.task_id = next_task_id_++;
    s.end_frame = ack.honored_end_frame;
    if (config_.tracer != nullptr) {
      config_.tracer->instant(ctx.rank(), "sched", "task.split", ctx.now(),
                              {{"victim", msg.source},
                               {"task", stolen.task_id},
                               {"first_frame", stolen.first_frame},
                               {"frames", stolen.frame_count}});
    }
    // A shot cancelled while the shrink was in flight drops the range.
    if (requeue(stolen)) metrics_.counter("master.adaptive_splits").inc();
  }
  dispatch(ctx);
  maybe_finish(ctx);
}

void RenderMaster::handle_task_nack(Context& ctx, const Message& msg) {
  TaskNack nack;
  if (!decode_task_nack(&nack, msg.payload)) {
    count_malformed_message(metrics_, msg.tag);
    return;
  }
  if (msg.source < 1 || msg.source >= static_cast<int>(workers_.size())) {
    return;
  }
  WorkerState& s = workers_[msg.source];
  if (s.dead || !s.active || s.cancelled || s.task.task_id != nack.task_id) {
    return;  // stale refusal: the assignment it covers is already gone
  }
  // The worker is busy with a different task, so this assignment will never
  // run. Free the slot and requeue the task verbatim: the worker refused
  // before rendering any frame of it, so it keeps its id, owes no results,
  // and pays no coherence-restart accounting.
  release_assignment(msg.source);
  s.active = false;
  metrics_.counter("recovery.tasks_nacked").inc();
  if (config_.tracer != nullptr) {
    config_.tracer->instant(ctx.rank(), "sched", "task.nack", ctx.now(),
                            {{"worker", msg.source},
                             {"task", nack.task_id}});
  }
  if (s.end_frame > s.task.first_frame) {
    requeue(remainder_of(s, s.task.first_frame));
  }
  dispatch(ctx);
  maybe_finish(ctx);
}

void RenderMaster::release_pending_request(Context& ctx, int worker) {
  if (!workers_[worker].request_pending) return;
  // The parked kTagRequest finally has its digest chain complete: run the
  // idle transition it was waiting for.
  go_idle(worker);
  dispatch(ctx);
}

void RenderMaster::receive_commit_digest(Context& ctx, const Message& msg) {
  ep_digest_bytes_.inc(msg.payload.size());
  CommitDigest d;
  // Only shard ranks digest, and an owner only digests frames it holds: a
  // digest from anyone else, or for a frame outside the animation, is as
  // malformed as bytes that do not decode.
  const int shard = msg.source - static_cast<int>(workers_.size());
  if (!config_.shards.sharded() || shard < 0 ||
      shard >= config_.shards.shard_count ||
      !decode_commit_digest(&d, msg.payload) ||
      (d.kind != CommitKind::kDecodeFail &&
       (d.frame < 0 ||
        d.frame >= static_cast<int>(frame_area_missing_.size())))) {
    count_malformed_message(metrics_, msg.tag);
    return;
  }
  // shard_states_ is empty when shard liveness is off, else one per shard.
  if (!shard_states_.empty() && shard_states_[shard].dead) {
    // A declared-dead incarnation is still talking. Its commits were rolled
    // back here, so its digests mean nothing anymore — and its in-memory
    // chain state is poison for future results. Fence it: force a rebuild
    // from the journal segment, exactly once per death.
    metrics_.counter("recovery.results_ignored").inc();
    if (!shard_states_[shard].reset_sent) {
      shard_states_[shard].reset_sent = true;
      ctx.send(msg.source, kTagShardReset, {});
    }
    return;
  }
  handle_commit_digest(ctx, d);
}

void RenderMaster::handle_commit_digest(Context& ctx, const CommitDigest& d) {
  // The digest vouches for a worker message its owner received: credit the
  // worker's heartbeat even when the bytes came from a shard's rank.
  const bool known_worker =
      d.worker >= 1 && d.worker < static_cast<int>(workers_.size());
  if (known_worker && !workers_[d.worker].dead) {
    workers_[d.worker].last_heard = ctx.now();
  }
  if (d.kind == CommitKind::kDecodeFail) {
    // The owner could not even decode the envelope, so there is no task to
    // tie the loss to. The sender's chain now has a gap; the owner rejects
    // everything after it and the reject digest (or the lease) reclaims.
    metrics_.counter("recovery.results_ignored").inc();
    return;
  }

  // ---- Order-independent accounting ------------------------------------
  // Digest streams from different shards interleave arbitrarily, but a
  // fresh commit is authoritative no matter when its digest lands: the
  // owner validated the chain, so the pixels are correct by the coherence
  // guarantee. Commit totals, the committed-rect mirror, and the area
  // bookkeeping therefore apply immediately; only *worker progress* (which
  // drives leases, shrink targets, and reassignment) needs ordering.
  switch (d.kind) {
    case CommitKind::kFresh: {
      assert(d.frame >= 0 &&
             d.frame < static_cast<int>(frame_area_missing_.size()));
      committed_rects_[d.frame].insert(rect_key(d.rect));
      frame_results_.inc();
      rays_total_.inc(d.rays);
      shadow_rays_total_.inc(d.shadow_rays);
      pixels_recomputed_.inc(static_cast<std::uint64_t>(d.pixels_recomputed));
      if (d.full_render) full_renders_.inc();
      worker_compute_seconds_.add(d.compute_seconds);
      if (known_worker) frames_by_rank_[d.worker]->inc();
      const auto reassigned = reassigned_first_frame_.find(d.task_id);
      if (reassigned != reassigned_first_frame_.end() &&
          reassigned->second == d.frame) {
        // The restart price of recovery: the replacement's first frame,
        // a full render or (on a worker holding the region) a warm one.
        metrics_.gauge("recovery.restart_work_seconds").add(d.compute_seconds);
      }
      if (config_.tracer != nullptr) {
        config_.tracer->instant(ctx.rank(), "sched", "frame.digest", ctx.now(),
                                {{"worker", d.worker},
                                 {"frame", d.frame},
                                 {"full", d.full_render ? 1 : 0}});
      }
      note_commit(ctx, d.worker, d.task_id, d.trace_ctx, d.frame,
                  d.render_seconds);
      frame_area_missing_[d.frame] -= d.rect.area();
      area_frames_missing_ -= d.rect.area();
      assert(frame_area_missing_[d.frame] >= 0);
      if (frame_area_missing_[d.frame] == 0) {
        frames_completed_.inc();
        const int sid = shot_of_frame(d.frame);
        assert(sid >= 0 && "completed frame belongs to no shot");
        Shot& shot = shots_[sid];
        ++shot.frames_done;
        if (shot.tenant >= 0) {
          // A client shot: credit its tenant and tell the client once done.
          Tenant& tenant = tenants_[shot.tenant];
          tenant.frames_counter->inc();
          if (shot.phase == ShotPhase::kActive &&
              shot.frames_done >= shot.frame_count) {
            finish_shot(ctx, shot);
          }
        }
      }
      break;
    }
    case CommitKind::kDuplicate:
      // The commit gate caught a (region, frame) already applied — the
      // speculation loser or an overlap from reclaim.
      if (spec_tasks_.count(d.task_id) > 0) {
        metrics_.counter("recovery.speculation_frames_wasted").inc();
        metrics_.gauge("recovery.speculation_wasted_seconds")
            .add(d.compute_seconds);
      } else {
        metrics_.counter("recovery.results_ignored").inc();
        metrics_.gauge("recovery.lost_work_seconds").add(d.compute_seconds);
      }
      break;
    case CommitKind::kStale:
      // Redelivery behind the owner's chain: already accounted once.
      metrics_.counter("recovery.results_ignored").inc();
      break;
    case CommitKind::kChainReject:
      metrics_.counter("recovery.results_ignored").inc();
      metrics_.gauge("recovery.lost_work_seconds").add(d.compute_seconds);
      break;
    case CommitKind::kDecodeFail:
      break;  // handled above
  }

  const bool task_done = known_worker && advance_worker(ctx, d);
  // The checkpoint follows the progress update, so it never records the
  // committing worker one frame behind its own commit (a resumed scheduler
  // would re-render a region-frame the journal already holds).
  if (d.kind == CommitKind::kFresh) {
    ++digests_since_checkpoint_;
    if (sink_->journaling() &&
        digests_since_checkpoint_ >=
            std::max(1, config_.journal_checkpoint_every)) {
      write_checkpoint();
    }
  }
  if (task_done) {
    const auto it = spec_partner_.find(d.task_id);
    if (it != spec_partner_.end()) {
      finish_speculation(ctx, d.task_id, it->second);
    }
    release_pending_request(ctx, d.worker);
  }
  maybe_finish(ctx);
}

bool RenderMaster::advance_worker(Context& ctx, const CommitDigest& d) {
  WorkerState& s = workers_[d.worker];
  if (d.kind == CommitKind::kChainReject) {
    // The owner saw a gap (a lost result or key frame) in this task's
    // chain: write the task off, reclaim the remainder, tell the worker to
    // stop.
    if (!s.dead && s.active && !s.cancelled && s.task.task_id == d.task_id &&
        cancelled_tasks_.count(d.task_id) == 0) {
      write_off(ctx, d.worker);
      dispatch(ctx);
    }
    return false;
  }
  if (s.dead || cancelled_tasks_.count(d.task_id) > 0 || !s.active ||
      s.cancelled || s.task.task_id != d.task_id ||
      d.frame < s.next_expected) {
    // Progress for an assignment that no longer exists (or a frame the
    // chain already passed): the global accounting was the whole story.
    return false;
  }
  if (d.frame > s.next_expected) {
    if (config_.shards.shard_of(d.frame) ==
        config_.shards.shard_of(s.next_expected)) {
      // Gap within one owner's digest stream. Per-sender FIFO holds on the
      // worker→owner and owner→scheduler edges, so the missing frame was
      // genuinely lost: cancel and reclaim.
      write_off(ctx, d.worker);
      dispatch(ctx);
      return false;
    }
    // Cross-shard reordering: a later-owned frame's digest overtook an
    // earlier shard's. Hold it; the chain drains it on catch-up.
    s.deferred_frames.insert(d.frame);
    return false;
  }
  // In-order progress: advance the chain and drain anything the reorder
  // buffer already holds.
  s.next_expected = d.frame + 1;
  s.last_progress = ctx.now();
  s.ping_time = -1.0;
  while (s.deferred_frames.count(s.next_expected) > 0) {
    s.deferred_frames.erase(s.next_expected);
    ++s.next_expected;
  }
  return s.next_expected >= s.end_frame;
}

void RenderMaster::write_checkpoint() {
  if (sink_ == nullptr || !sink_->journaling()) return;
  CheckpointRecord cp;
  cp.completed.assign(frame_area_missing_.size(), false);
  for (std::size_t f = 0; f < frame_area_missing_.size(); ++f) {
    cp.completed[f] = frame_area_missing_[f] == 0;
  }
  for (const Shot& shot : shots_) {
    for (const RenderTask& t : shot.queue) {
      CheckpointRecord::Task task;
      task.task_id = t.task_id;
      task.rect = t.region;
      task.first_frame = t.first_frame;
      task.frame_count = t.frame_count;
      cp.pending.push_back(task);
    }
  }
  for (int w = 1; w < static_cast<int>(workers_.size()); ++w) {
    const WorkerState& s = workers_[w];
    if (!s.active || s.cancelled || s.dead) continue;
    CheckpointRecord::WorkerView view;
    view.worker = w;
    view.task_id = s.task.task_id;
    view.rect = s.task.region;
    view.next_expected = s.next_expected;
    view.end_frame = s.end_frame;
    cp.in_flight.push_back(view);
  }
  // v2 trailer: enough to make a restarted scheduler byte-identical in its
  // decisions — fresh task ids never collide with pre-crash ones, and the
  // straggler EWMAs (which steer speculation victims) survive the restart.
  cp.next_task_id = next_task_id_;
  for (const StragglerDetector::Snapshot& s : straggler_.snapshot()) {
    CheckpointRecord::StragglerStat stat;
    stat.worker = s.worker;
    stat.ewma = s.ewma;
    stat.dev = s.dev;
    stat.n = s.n;
    stat.flagged = s.flagged;
    cp.stragglers.push_back(stat);
  }
  sink_->checkpoint(cp);
  digests_since_checkpoint_ = 0;
}

void RenderMaster::cancel_and_reclaim(Context& ctx, int worker) {
  WorkerState& s = workers_[worker];
  if (!s.active || s.cancelled) return;
  release_assignment(worker);
  s.cancelled = true;
  cancelled_tasks_.insert(s.task.task_id);
  // A colocated owner learns of the write-off directly and applies nothing
  // more of the task; remote shards commit its (correct) leftovers and the
  // gate keeps whichever copy lands first.
  if (assembler_ != nullptr) assembler_->reject_task(s.task.task_id);
  // A cancelled half of a speculated pair just dissolves the pair: the
  // survivor keeps rendering, the reclaim below double-covers the range,
  // and the idempotent-commit gate keeps whichever copy lands first.
  const auto it = spec_partner_.find(s.task.task_id);
  if (it != spec_partner_.end()) {
    spec_partner_.erase(it->second);
    spec_partner_.erase(s.task.task_id);
  }
  // A shot already past kActive has had its remaining area written off:
  // reclaiming it would enqueue work nobody is waiting for.
  Shot* shot = s.end_frame > s.next_expected ? open_shot(s.next_expected)
                                              : nullptr;
  if (shot != nullptr) {
    reclaim(ctx, *shot, remainder_of(s, s.next_expected), worker);
  }
  // Digests for the written-off range are moot; a parked request completes
  // its idle transition now (every caller follows with dispatch, and a
  // rank declared dead right after this is skipped by the dispatch loop).
  s.deferred_frames.clear();
  if (s.request_pending) go_idle(worker);
}

void RenderMaster::reclaim(Context& ctx, Shot& shot, RenderTask task,
                           int worker) {
  task.task_id = next_task_id_++;
  reassigned_first_frame_[task.task_id] = task.first_frame;
  if (config_.tracer != nullptr) {
    std::vector<TraceEvent::Arg> args = {{"task", task.task_id},
                                         {"first_frame", task.first_frame},
                                         {"frames", task.frame_count}};
    if (worker >= 0) args.insert(args.begin(), {"worker", worker});
    config_.tracer->instant(ctx.rank(), "sched", "task.reclaim", ctx.now(),
                            std::move(args));
  }
  shot.queue.push_back(task);
  metrics_.counter("recovery.tasks_reassigned").inc();
  metrics_.counter("recovery.frames_reassigned")
      .inc(static_cast<std::uint64_t>(task.frame_count));
}

void RenderMaster::write_off(Context& ctx, int worker) {
  cancel_and_reclaim(ctx, worker);
  // Tell the worker to stop wasting time on the written-off range.
  if (workers_[worker].active) stop_at_delivered(ctx, worker);
}

void RenderMaster::stop_at_delivered(Context& ctx, int worker) {
  WorkerState& s = workers_[worker];
  if (s.awaiting_ack) return;  // the shrink in flight stops it already
  ShrinkRequest req;
  req.task_id = s.task.task_id;
  req.new_end_frame = s.next_expected;
  s.awaiting_ack = true;
  s.splitting = false;
  ctx.send(worker, kTagShrink, encode_shrink(req));
}

void RenderMaster::declare_dead(Context& ctx, int worker) {
  WorkerState& s = workers_[worker];
  if (s.dead) return;
  if (config_.tracer != nullptr) {
    config_.tracer->instant(ctx.rank(), "sched", "worker.dead", ctx.now(),
                            {{"worker", worker}});
  }
  metrics_.counter("recovery.deaths_detected").inc();
  metrics_.gauge("recovery.detection_latency_seconds")
      .add(ctx.now() - s.last_heard);
  cancel_and_reclaim(ctx, worker);
  s.dead = true;
  s.active = false;
  s.awaiting_ack = false;
  bool any_alive = false;
  for (int w = 1; w < static_cast<int>(workers_.size()); ++w) {
    if (!workers_[w].dead) any_alive = true;
  }
  if (!any_alive && !stopping_) {
    // Nobody left to render the reclaimed work: stop with what we have
    // rather than waiting on leases that can never be renewed.
    stopping_ = true;
    ctx.stop();
    return;
  }
  dispatch(ctx);
  maybe_finish(ctx);
}

void RenderMaster::handle_lease_check(Context& ctx, const Message& msg) {
  LeaseCheck check;
  const bool ok = decode_lease_check(&check, msg.payload);
  assert(ok);
  if (!ok || !config_.fault.enabled || stopping_) return;
  if (check.worker < 1 || check.worker >= static_cast<int>(workers_.size())) {
    return;
  }
  WorkerState& s = workers_[check.worker];
  // Stale check: the assignment it covered is gone or already written off.
  if (s.dead || !s.active || s.cancelled || s.task.task_id != check.task_id) {
    return;
  }

  const double now = ctx.now();
  // The lease demands *progress* (accepted frame results), not mere
  // liveness: a worker whose assignment was lost in transit answers pings
  // happily while rendering nothing, and a liveness lease would renew that
  // forever.
  const double expiry = s.last_progress + s.lease_seconds;
  if (now < expiry) {
    // Progress since this check was scheduled: renew.
    LeaseCheck renew = check;
    renew.phase = 0;
    s.ping_time = -1.0;
    ctx.send_after(expiry - now, kTagLeaseCheck, encode_lease_check(renew));
    return;
  }
  if (check.phase == 0 || s.ping_time < 0.0) {
    // Lease expired. One explicit ping, one grace period, then judgment.
    s.ping_time = now;
    metrics_.counter("recovery.pings_sent").inc();
    if (config_.tracer != nullptr) {
      config_.tracer->instant(ctx.rank(), "sched", "lease.ping", now,
                              {{"worker", check.worker},
                               {"task", check.task_id}});
    }
    ctx.send(check.worker, kTagPing, {});
    LeaseCheck grace = check;
    grace.phase = 1;
    ctx.send_after(config_.fault.ping_grace_seconds, kTagLeaseCheck,
                   encode_lease_check(grace));
    return;
  }
  if (s.last_heard >= s.ping_time) {
    // Answered the ping but made no progress: alive but stuck. Write the
    // task off — it will be re-rendered from a dense restart — and tell the
    // worker to abandon any rendering it is silently doing. If it is truly
    // idle (the assignment itself was lost) it rejoins on its next request.
    cancel_and_reclaim(ctx, check.worker);
    stop_at_delivered(ctx, check.worker);
    dispatch(ctx);
    maybe_finish(ctx);
    return;
  }
  declare_dead(ctx, check.worker);
}

void RenderMaster::arm_shard_lease(Context& ctx, int shard, double delay,
                                   int phase) {
  LeaseCheck check;
  check.worker = shard;  // shard index, not a worker rank
  check.task_id = -1;
  check.phase = static_cast<std::uint8_t>(phase);
  ctx.send_after(delay, kTagShardCheck, encode_lease_check(check));
}

void RenderMaster::handle_shard_check(Context& ctx, const Message& msg) {
  LeaseCheck check;
  const bool ok = decode_lease_check(&check, msg.payload);
  assert(ok);
  if (!ok || stopping_ || shard_states_.empty()) return;
  const int shard = check.worker;
  if (shard < 0 || shard >= static_cast<int>(shard_states_.size())) return;
  ShardState& s = shard_states_[shard];
  if (s.dead) return;  // chain ends at death; re-admission restarts it

  const double now = ctx.now();
  // Liveness, not progress: a shard whose owned range is complete commits
  // nothing forever, so any message at all renews its lease.
  const double expiry = s.last_heard + config_.fault.lease_base_seconds;
  if (now < expiry) {
    s.ping_time = -1.0;
    arm_shard_lease(ctx, shard, expiry - now, 0);
    return;
  }
  if (check.phase == 0 || s.ping_time < 0.0) {
    s.ping_time = now;
    metrics_.counter("recovery.pings_sent").inc();
    if (config_.tracer != nullptr) {
      config_.tracer->instant(ctx.rank(), "sched", "shard.ping", now,
                              {{"shard", shard}});
    }
    ctx.send(static_cast<int>(workers_.size()) + shard, kTagPing, {});
    arm_shard_lease(ctx, shard, config_.fault.ping_grace_seconds, 1);
    return;
  }
  if (s.last_heard >= s.ping_time) {
    // Answered the ping: alive. Back to a normal lease.
    s.ping_time = -1.0;
    arm_shard_lease(ctx, shard, config_.fault.lease_base_seconds, 0);
    return;
  }
  declare_shard_dead(ctx, shard);
}

void RenderMaster::declare_shard_dead(Context& ctx, int shard) {
  ShardState& st = shard_states_[shard];
  if (st.dead) return;
  st.dead = true;
  st.reset_sent = false;
  st.ping_time = -1.0;
  metrics_.counter("recovery.shards_failed").inc();
  metrics_.gauge("recovery.detection_latency_seconds")
      .add(ctx.now() - st.last_heard);
  if (config_.tracer != nullptr) {
    config_.tracer->instant(ctx.rank(), "sched", "shard.dead", ctx.now(),
                            {{"shard", shard}});
  }
  rollback_dead_shard(ctx, shard);
  dispatch(ctx);
  maybe_finish(ctx);
}

void RenderMaster::rollback_dead_shard(Context& ctx, int shard) {
  const auto range = config_.shards.range_of(shard);
  const std::int64_t full = std::int64_t{scene_.width()} * scene_.height();
  // Completed frames are durable (TGA renamed into place before the
  // kFrameComplete record, which precedes the digest that completed our
  // area count): the replacement reloads them from disk. Everything else
  // the shard held was memory, and memory is gone — the mirror's committed
  // cells for those frames revert to missing and come back as reclaim
  // tasks, one per (rect, contiguous frame run).
  std::map<std::uint64_t, std::pair<PixelRect, std::set<int>>> lost;
  std::int64_t rolled = 0;
  for (int f = range.first; f < range.second; ++f) {
    if (frame_area_missing_[f] == 0) continue;
    for (const std::uint64_t key : committed_rects_[f]) {
      auto& entry = lost[key];
      entry.first = rect_from_key(key);
      entry.second.insert(f);
      ++rolled;
    }
    area_frames_missing_ += full - frame_area_missing_[f];
    frame_area_missing_[f] = full;
    committed_rects_[f].clear();
  }
  metrics_.counter("recovery.shard_commits_rolled_back")
      .inc(static_cast<std::uint64_t>(rolled));
  enqueue_lost_cells(ctx, lost);
  // Workers mid-task on the dead range are rendering into the void: write
  // their tasks off now instead of waiting out progress leases that can
  // only expire.
  for (int w = 1; w < static_cast<int>(workers_.size()); ++w) {
    WorkerState& s = workers_[w];
    if (s.dead || !s.active || s.cancelled) continue;
    if (s.next_expected < range.second && s.end_frame > range.first) {
      write_off(ctx, w);
    }
  }
}

void RenderMaster::enqueue_lost_cells(
    Context& ctx,
    const std::map<std::uint64_t, std::pair<PixelRect, std::set<int>>>&
        lost) {
  for (const auto& kv : lost) {
    const PixelRect& rect = kv.second.first;
    const std::set<int>& frames = kv.second.second;
    auto it = frames.begin();
    while (it != frames.end()) {
      // A run stops at its shot's end: every task lies inside one shot.
      const int first = *it;
      const int sid = shot_of_frame(first);
      int last = first;
      auto run_end = it;
      ++run_end;
      while (run_end != frames.end() && *run_end == last + 1 &&
             shot_of_frame(*run_end) == sid) {
        last = *run_end;
        ++run_end;
      }
      Shot* shot = open_shot(first);
      if (shot == nullptr) {
        it = run_end;
        continue;
      }
      RenderTask lost_run;
      lost_run.region = rect;
      lost_run.first_frame = first;
      lost_run.frame_count = last - first + 1;
      lost_run.scene_id = shot->scene_id;
      lost_run.frame_delta = shot->scene_first_frame - shot->base_frame;
      reclaim(ctx, *shot, lost_run, -1);
      it = run_end;
    }
  }
}

bool RenderMaster::task_blocked_by_dead_shard(const RenderTask& task) const {
  if (shard_states_.empty()) return false;
  for (std::size_t i = 0; i < shard_states_.size(); ++i) {
    if (!shard_states_[i].dead) continue;
    const auto range = config_.shards.range_of(static_cast<int>(i));
    if (task.first_frame < range.second && task.end_frame() > range.first) {
      return true;
    }
  }
  return false;
}

void RenderMaster::handle_shard_hello(Context& ctx, int source) {
  if (shard_states_.empty()) return;  // liveness off: nothing to re-admit
  const int shard = source - static_cast<int>(workers_.size());
  if (shard < 0 || shard >= static_cast<int>(shard_states_.size())) return;
  ShardState& st = shard_states_[shard];
  const bool was_dead = st.dead;
  if (!was_dead) {
    // The shard restarted before its lease even expired (revival raced
    // detection). Its partial frames died with its memory all the same, so
    // the death rollback runs now — the mirror and the rebuilt shard agree
    // again before any new work dispatches.
    rollback_dead_shard(ctx, shard);
  }
  st.dead = false;
  st.reset_sent = false;
  st.ping_time = -1.0;
  st.last_heard = ctx.now();
  metrics_.counter("recovery.shards_rejoined").inc();
  if (config_.tracer != nullptr) {
    config_.tracer->instant(ctx.rank(), "sched", "shard.rejoin", ctx.now(),
                            {{"shard", shard}});
  }
  if (was_dead) {
    // Death ended the lease chain; re-admission restarts it. (A shard never
    // declared dead still has its chain running — don't stack a second.)
    arm_shard_lease(ctx, shard, config_.fault.lease_base_seconds, 0);
  }
  dispatch(ctx);
  maybe_finish(ctx);
}

void RenderMaster::restore_from_checkpoint(Context& ctx,
                                           const std::vector<char>& restored) {
  const RecoveryState& rec = *config_.recovery;
  const CheckpointRecord& ck = *rec.last_checkpoint;
  const int frames = scene_.frame_count();
  // Fresh ids start above everything the dead scheduler ever minted, so a
  // late journal record can never be confused with new work.
  if (ck.next_task_id > next_task_id_) next_task_id_ = ck.next_task_id;
  std::vector<StragglerDetector::Snapshot> snaps;
  for (const CheckpointRecord::StragglerStat& s : ck.stragglers) {
    StragglerDetector::Snapshot snap;
    snap.worker = s.worker;
    snap.ewma = s.ewma;
    snap.dev = s.dev;
    snap.n = s.n;
    snap.flagged = s.flagged;
    snaps.push_back(snap);
  }
  straggler_.restore(snaps);

  // What will cover each incomplete frame: checkpoint tasks (pending plus
  // in-flight remainders), trimmed around frames that completed after the
  // checkpoint, plus reclaims rebuilt from the journal's own commit records
  // — cells that were committed when the checkpoint was written lost their
  // pixels with the process and no table task covers them. Every rect
  // descends from the one partition tiling, so distinct rects never
  // partially overlap and a frame's covered area is the sum of its distinct
  // rect areas. A frame whose reconstruction falls short of the full image
  // (a shard's journal segment vanished, or was torn past what the
  // checkpoint had already seen) cannot be patched cell by cell: it
  // re-renders wholesale. Over-coverage is gated at commit; under-coverage
  // would hang the run one cell short of completion.
  const std::int64_t full_area =
      std::int64_t{scene_.width()} * scene_.height();
  std::vector<std::set<std::uint64_t>> cover(
      static_cast<std::size_t>(frames));
  const auto cover_range = [&](const PixelRect& rect, int first, int end) {
    const std::uint64_t key = rect_key(rect);
    for (int f = std::max(first, 0); f < std::min(end, frames); ++f) {
      if (!restored[f]) cover[f].insert(key);
    }
  };
  for (const CheckpointRecord::Task& t : ck.pending) {
    cover_range(t.rect, t.first_frame, t.first_frame + t.frame_count);
  }
  for (const CheckpointRecord::WorkerView& v : ck.in_flight) {
    cover_range(v.rect, v.next_expected, v.end_frame);
  }
  for (int f = 0; f < frames; ++f) {
    if (restored[f] || f >= static_cast<int>(rec.frame_commits.size())) {
      continue;
    }
    for (const RegionCommitRecord& c : rec.frame_commits[f]) {
      cover[f].insert(rect_key(c.rect));
    }
  }
  std::vector<char> wholesale(static_cast<std::size_t>(frames), 0);
  for (int f = 0; f < frames; ++f) {
    if (restored[f]) continue;
    std::int64_t area = 0;
    for (const std::uint64_t key : cover[f]) {
      area += rect_from_key(key).area();
    }
    if (area < full_area) wholesale[f] = 1;
  }

  int tasks_restored = 0;
  const auto enqueue_trimmed = [&](const PixelRect& rect, int first, int end,
                                   bool recovery_restart) {
    int f = std::max(first, 0);
    end = std::min(end, frames);
    while (f < end) {
      if (restored[f] || wholesale[f]) {
        ++f;
        continue;
      }
      int b = f;
      while (b < end && !restored[b] && !wholesale[b]) ++b;
      RenderTask task;
      task.task_id = next_task_id_++;
      task.region = rect;
      task.first_frame = f;
      task.frame_count = b - f;
      if (recovery_restart) reassigned_first_frame_[task.task_id] = f;
      requeue(task);
      ++tasks_restored;
      f = b;
    }
  };
  for (const CheckpointRecord::Task& t : ck.pending) {
    enqueue_trimmed(t.rect, t.first_frame, t.first_frame + t.frame_count,
                    /*recovery_restart=*/false);
  }
  for (const CheckpointRecord::WorkerView& v : ck.in_flight) {
    enqueue_trimmed(v.rect, v.next_expected, v.end_frame,
                    /*recovery_restart=*/true);
  }
  std::map<std::uint64_t, std::pair<PixelRect, std::set<int>>> lost;
  for (int f = 0; f < frames; ++f) {
    if (restored[f] || wholesale[f] ||
        f >= static_cast<int>(rec.frame_commits.size())) {
      continue;
    }
    for (const RegionCommitRecord& c : rec.frame_commits[f]) {
      auto& entry = lost[rect_key(c.rect)];
      entry.first = c.rect;
      entry.second.insert(f);
    }
  }
  enqueue_lost_cells(ctx, lost);
  // Wholesale frames re-render as full-image tasks over contiguous runs;
  // their first frame is a dense coherence restart like any fresh task.
  PixelRect whole;
  whole.x0 = 0;
  whole.y0 = 0;
  whole.width = scene_.width();
  whole.height = scene_.height();
  int wf = 0;
  while (wf < frames) {
    if (!wholesale[wf]) {
      ++wf;
      continue;
    }
    int b = wf;
    while (b < frames && wholesale[b]) ++b;
    RenderTask task;
    task.task_id = next_task_id_++;
    task.region = whole;
    task.first_frame = wf;
    task.frame_count = b - wf;
    reassigned_first_frame_[task.task_id] = task.first_frame;
    requeue(task);
    ++tasks_restored;
    wf = b;
  }
  if (config_.tracer != nullptr) {
    config_.tracer->instant(ctx.rank(), "sched", "resume.checkpoint",
                            ctx.now(),
                            {{"tasks", tasks_restored},
                             {"next_task_id", next_task_id_}});
  }
}

void RenderMaster::handle_sample_tick(Context& ctx) {
  // A tick racing the shutdown broadcast is dropped and not re-armed; the
  // runtime abandons anything still queued once the scheduler stops.
  if (stopping_) return;
  ++telemetry_samples_;
  if (config_.sampler != nullptr) {
    config_.sampler->sample(ctx.now(), metrics_.snapshot());
  }
  if (config_.status != nullptr) {
    config_.status->publish(render_status_json(ctx));
  }
  ctx.send_after(config_.sample_interval_seconds, kTagSampleTick, {});
}

namespace {

void append_json_double(std::string* out, double v) {
  if (!std::isfinite(v)) {
    out->append("0");  // JSON cannot carry inf/nan
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out->append(buf);
}

}  // namespace

std::string RenderMaster::render_status_json(Context& ctx) const {
  std::string j = "{";
  j += "\"now\": ";
  append_json_double(&j, ctx.now());
  j += ", \"stopping\": ";
  j += stopping_ ? "true" : "false";
  j += ", \"pending_tasks\": " + std::to_string(queued_tasks());
  j += ", \"frames_completed\": " +
       std::to_string(frames_completed_.value());
  j += ", \"frame_results\": " + std::to_string(frame_results_.value());
  j += ", \"straggler_flags\": " +
       std::to_string(stragglers_flagged_.value());
  j += ", \"telemetry_samples\": " + std::to_string(telemetry_samples_);
  j += ", \"throughput_fps\": ";
  append_json_double(&j, config_.sampler != nullptr
                             ? config_.sampler->rate_per_second(
                                   "sched.frames_committed")
                             : 0.0);
  j += ", \"workers\": [";
  bool first = true;
  for (int w = 1; w < static_cast<int>(workers_.size()); ++w) {
    const WorkerState& s = workers_[w];
    if (!first) j += ", ";
    first = false;
    const char* state = s.dead        ? "dead"
                        : !s.known    ? "unknown"
                        : s.cancelled ? "cancelled"
                        : s.active    ? "active"
                                      : "idle";
    j += "{\"rank\": " + std::to_string(w);
    j += ", \"state\": \"" + std::string(state) + "\"";
    j += ", \"task\": " + std::to_string(s.active ? s.task.task_id : -1);
    j += ", \"next_expected\": " + std::to_string(s.next_expected);
    j += ", \"end_frame\": " + std::to_string(s.end_frame);
    j += ", \"last_heard\": ";
    append_json_double(&j, s.last_heard);
    j += ", \"straggler\": ";
    j += straggler_.is_straggler(w) ? "true" : "false";
    j += "}";
  }
  j += "], \"stragglers\": [";
  first = true;
  for (const int w : straggler_.stragglers()) {
    if (!first) j += ", ";
    first = false;
    j += std::to_string(w);
  }
  j += "]";
  if (config_.shards.sharded()) {
    j += ", \"shards\": [";
    for (int i = 0; i < config_.shards.shard_count; ++i) {
      if (i > 0) j += ", ";
      const auto range = config_.shards.range_of(i);
      std::int64_t done = 0;
      for (int f = range.first; f < range.second; ++f) {
        if (frame_area_missing_[f] == 0) ++done;
      }
      j += "{\"shard\": " + std::to_string(i);
      j += ", \"rank\": " + std::to_string(config_.shards.rank_of_shard(i));
      j += ", \"first_frame\": " + std::to_string(range.first);
      j += ", \"end_frame\": " + std::to_string(range.second);
      j += ", \"frames_done\": " + std::to_string(done);
      j += ", \"dead\": ";
      j += (!shard_states_.empty() && shard_states_[i].dead) ? "true"
                                                             : "false";
      j += "}";
    }
    j += "]";
  }
  // Client tenants and shots (both empty in a classic run).
  j += ", \"tenants\": [";
  first = true;
  for (const Tenant& t : tenants_) {
    if (!first) j += ", ";
    first = false;
    j += "{\"name\": \"" + t.name + "\"";
    j += ", \"weight\": ";
    append_json_double(&j, t.weight);
    j += ", \"quota\": " + std::to_string(t.quota);
    j += ", \"inflight\": " + std::to_string(t.inflight);
    j += ", \"tasks_assigned\": " + std::to_string(t.assigns_counter->value());
    j += ", \"units_assigned\": " + std::to_string(t.units_assigned);
    j += ", \"frames_committed\": " +
         std::to_string(t.frames_counter->value());
    j += "}";
  }
  j += "], \"shots\": [";
  first = true;
  for (const Shot& s : shots_) {
    if (s.tenant < 0) continue;  // the classic run's built-in shot
    if (!first) j += ", ";
    first = false;
    j += "{\"shot\": " + std::to_string(s.shot_id);
    j += ", \"tenant\": \"" + tenants_[s.tenant].name + "\"";
    j += ", \"phase\": \"" + std::string(to_string(s.phase)) + "\"";
    j += ", \"frames_done\": " + std::to_string(s.frames_done);
    j += ", \"frame_count\": " + std::to_string(s.frame_count);
    j += ", \"queued_tasks\": " + std::to_string(s.queue.size());
    j += "}";
  }
  j += "]";
  j += "}\n";
  return j;
}

void RenderMaster::note_commit(Context& ctx, int worker, std::int32_t task_id,
                               std::uint64_t trace_ctx, std::int32_t frame,
                               double render_seconds) {
  frames_committed_live_.inc();
  if (config_.tracer != nullptr && trace_ctx != 0) {
    // Close the frame's flow chain: assignment → render → send → commit all
    // bind to this id, so the ack renders as one connected arc in the trace.
    config_.tracer->flow_end(
        ctx.rank(), trace_flow_id(trace_ctx, frame), ctx.now(),
        {{"worker", worker}, {"task", task_id}, {"frame", frame},
         {"step", 4}});
  }
  if (worker < 1 || worker >= static_cast<int>(workers_.size())) return;
  if (straggler_.observe(worker, render_seconds)) {
    stragglers_flagged_.inc();
    if (config_.tracer != nullptr) {
      config_.tracer->instant(
          ctx.rank(), "sched", "worker.straggler", ctx.now(),
          {{"worker", worker}, {"task", task_id}, {"frame", frame}});
    }
  }
}

void RenderMaster::maybe_finish(Context& ctx) {
  if (stopping_ || area_frames_missing_ != 0) return;
  // Every admitted pixel is committed (or written off with its shot), so
  // anything an active shot still queues (speculation leftovers, reclaim
  // overlap) is duplicate work by definition.
  bool queued = false;
  for (Shot& shot : shots_) {
    if (shot.phase != ShotPhase::kActive) continue;
    while (!shot.queue.empty() && task_fully_committed(shot.queue.front())) {
      shot.queue.pop_front();
    }
    queued = queued || !shot.queue.empty();
  }
  queue_depth_.set(static_cast<double>(queued_tasks()));
  // Until every client has declared itself done, more shots may arrive.
  if (queued || static_cast<int>(done_clients_.size()) <
                    config_.service.client_count) {
    return;
  }
  stopping_ = true;
  for (int w = 1; w < static_cast<int>(workers_.size()); ++w) {
    if (!workers_[w].dead) ctx.send(w, kTagStop, {});
  }
  if (config_.shards.sharded()) {
    for (int i = 0; i < config_.shards.shard_count; ++i) {
      ctx.send(config_.shards.rank_of_shard(i), kTagStop, {});
    }
  }
  for (int c = 0; c < config_.service.client_count; ++c) {
    ctx.send(static_cast<int>(workers_.size()) + c, kTagStop, {});
  }
  ctx.stop();
}

// ---- Multi-tenant service ----------------------------------------------

namespace {

/// Shared charset rule for tenant and label names: path-safe, so they can
/// feed output file names verbatim.
bool valid_service_name(const std::string& s) {
  for (const char c : s) {
    const bool ok = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    if (!ok) return false;
  }
  return true;
}

/// Stride-scheduling scale: pass advances by units * kStrideScale / weight
/// per grant, so a tenant with twice the weight accrues pass half as fast
/// and receives twice the units over any contended window.
constexpr double kStrideScale = 65536.0;

}  // namespace

bool RenderMaster::is_client_rank(Context& ctx, int rank) const {
  (void)ctx;
  const int first = static_cast<int>(workers_.size());
  return rank >= first && rank < first + config_.service.client_count;
}

int RenderMaster::tenant_for(const std::string& name, double weight,
                             std::int32_t quota) {
  const auto it = tenant_ids_.find(name);
  if (it != tenant_ids_.end()) return it->second;
  Tenant t;
  t.name = name;
  t.weight = weight;
  t.quota = quota;
  // A late-arriving tenant starts at the minimum live pass: stride fairness
  // is forward-looking, never a back-payment that would let a newcomer
  // monopolize the farm to "catch up" on time before it existed.
  bool any = false;
  double min_pass = 0.0;
  for (const Tenant& other : tenants_) {
    if (!any || other.pass < min_pass) min_pass = other.pass;
    any = true;
  }
  t.pass = any ? min_pass : 0.0;
  t.frames_counter = &metrics_.counter("tenant." + name + ".frames_committed");
  t.assigns_counter = &metrics_.counter("tenant." + name + ".tasks_assigned");
  const int id = static_cast<int>(tenants_.size());
  tenants_.push_back(std::move(t));
  tenant_ids_[name] = id;
  return id;
}

void RenderMaster::handle_shot_submit(Context& ctx, const Message& msg) {
  if (!is_client_rank(ctx, msg.source) || stopping_) return;
  const auto reject = [&](std::int32_t ref, const std::string& why) {
    metrics_.counter("master.shots_rejected").inc();
    if (config_.tracer != nullptr) {
      config_.tracer->instant(ctx.rank(), "sched", "shot.reject", ctx.now(),
                              {{"client", msg.source}});
    }
    ShotAccept acc;
    acc.client_ref = ref;
    acc.shot_id = -1;
    acc.error = why;
    ctx.send(msg.source, kTagShotAccept, encode_shot_accept(acc));
  };
  ShotSubmit sub;
  if (!decode_shot_submit(&sub, msg.payload)) {
    reject(-1, "malformed ShotSubmit");
    return;
  }
  if (sub.tenant.empty() || sub.tenant.size() > 64 ||
      !valid_service_name(sub.tenant)) {
    reject(sub.client_ref, "invalid tenant name");
    return;
  }
  if (sub.label.size() > 64 || !valid_service_name(sub.label)) {
    reject(sub.client_ref, "invalid shot label");
    return;
  }
  if (!std::isfinite(sub.weight) || sub.weight <= 0.0) {
    reject(sub.client_ref, "weight must be finite and > 0");
    return;
  }
  if (sub.quota < 0) {
    reject(sub.client_ref, "quota must be >= 0");
    return;
  }
  const int scene_count = config_.service.scenes.empty()
                              ? 1
                              : static_cast<int>(config_.service.scenes.size());
  if (sub.scene_id < 0 || sub.scene_id >= scene_count) {
    reject(sub.client_ref, "unknown scene_id");
    return;
  }
  const AnimatedScene& scene = config_.service.scenes.empty()
                                   ? scene_
                                   : *config_.service.scenes[sub.scene_id];
  if (sub.first_frame < 0 || sub.frame_count < 1 ||
      static_cast<std::int64_t>(sub.first_frame) + sub.frame_count >
          scene.frame_count()) {
    reject(sub.client_ref, "frame range outside scene");
    return;
  }

  const int w = scene_.width();
  const int h = scene_.height();
  const int shot_id = static_cast<int>(shots_.size());
  const std::int32_t base =
      static_cast<std::int32_t>(frame_area_missing_.size());
  Shot shot;
  shot.shot_id = shot_id;
  shot.tenant = tenant_for(sub.tenant, sub.weight, sub.quota);
  shot.client_rank = msg.source;
  shot.label = sub.label;
  shot.scene_id = sub.scene_id;
  shot.scene_first_frame = sub.first_frame;
  shot.frame_count = sub.frame_count;
  shot.base_frame = base;

  // Grow the global frame space: the shot's frames live at
  // [base, base + frame_count) and map back to the scene through
  // frame_delta (scene_frame = global_frame + frame_delta).
  assert(assembler_ != nullptr && "shots need the colocated frame owner");
  assembler_->extend(sub.frame_count);
  frame_area_missing_.resize(
      frame_area_missing_.size() + static_cast<std::size_t>(sub.frame_count),
      std::int64_t{w} * h);
  committed_rects_.resize(committed_rects_.size() +
                          static_cast<std::size_t>(sub.frame_count));
  area_frames_missing_ += std::int64_t{w} * h * sub.frame_count;

  partition_shot(shot, scene, {});
  shots_.push_back(std::move(shot));
  metrics_.counter("master.shots_submitted").inc();
  if (config_.tracer != nullptr) {
    config_.tracer->instant(ctx.rank(), "sched", "shot.admit", ctx.now(),
                            {{"shot", shot_id},
                             {"client", msg.source},
                             {"base_frame", base},
                             {"frames", sub.frame_count}});
  }
  ShotAccept acc;
  acc.client_ref = sub.client_ref;
  acc.shot_id = shot_id;
  acc.base_frame = base;
  ctx.send(msg.source, kTagShotAccept, encode_shot_accept(acc));
  dispatch(ctx);
}

void RenderMaster::handle_shot_status(Context& ctx, const Message& msg) {
  if (!is_client_rank(ctx, msg.source)) return;
  ShotStatusRequest req;
  if (!decode_shot_status_request(&req, msg.payload)) return;
  ShotStatusReply reply;
  reply.shot_id = req.shot_id;
  if (req.shot_id >= 0 && req.shot_id < static_cast<int>(shots_.size())) {
    const Shot& shot = shots_[req.shot_id];
    reply.known = 1;
    reply.phase = shot.phase;
    reply.frames_done = shot.frames_done;
    reply.frame_count = shot.frame_count;
  }
  ctx.send(msg.source, kTagShotStatusReply, encode_shot_status_reply(reply));
}

void RenderMaster::handle_shot_cancel(Context& ctx, const Message& msg) {
  if (!is_client_rank(ctx, msg.source)) return;
  ShotCancel cancel;
  if (!decode_shot_cancel(&cancel, msg.payload)) return;
  if (cancel.shot_id < 0 ||
      cancel.shot_id >= static_cast<int>(shots_.size())) {
    return;  // unknown id: nothing to cancel, nothing to report
  }
  Shot& shot = shots_[cancel.shot_id];
  if (shot.client_rank != msg.source) return;  // only the submitter
  if (shot.phase != ShotPhase::kActive) {
    // Idempotent: a repeated cancel (or one racing completion) reports the
    // terminal phase the shot already reached.
    ShotUpdate update;
    update.shot_id = shot.shot_id;
    update.phase = shot.phase;
    update.frames_done = shot.frames_done;
    ctx.send(msg.source, kTagShotUpdate, encode_shot_update(update));
    return;
  }
  shot.phase = ShotPhase::kCancelled;
  metrics_.counter("master.shots_cancelled").inc();
  if (config_.tracer != nullptr) {
    config_.tracer->instant(ctx.rank(), "sched", "shot.cancel", ctx.now(),
                            {{"shot", shot.shot_id},
                             {"frames_done", shot.frames_done}});
  }
  // Queued tasks just vanish; in-flight ones are written off like a lease
  // expiry — results are discarded and the worker is told to stop. The
  // cancelled shot takes no reclaim, so nothing of it is requeued.
  for (const RenderTask& task : shot.queue) {
    cancelled_tasks_.insert(task.task_id);
  }
  shot.queue.clear();
  for (int w = 1; w < static_cast<int>(workers_.size()); ++w) {
    const WorkerState& s = workers_[w];
    if (s.dead || !s.active || s.cancelled) continue;
    if (shot_of_frame(s.task.first_frame) == cancel.shot_id) write_off(ctx, w);
  }
  // The dropped pixels will never arrive: write their area off so the run
  // can finish without them. Not counted as completed frames.
  for (std::int32_t f = shot.base_frame;
       f < shot.base_frame + shot.frame_count; ++f) {
    area_frames_missing_ -= frame_area_missing_[f];
    frame_area_missing_[f] = 0;
  }
  ShotUpdate update;
  update.shot_id = shot.shot_id;
  update.phase = ShotPhase::kCancelled;
  update.frames_done = shot.frames_done;
  ctx.send(msg.source, kTagShotUpdate, encode_shot_update(update));
  dispatch(ctx);
  maybe_finish(ctx);
}

void RenderMaster::handle_client_done(Context& ctx, int source) {
  if (!is_client_rank(ctx, source)) return;
  done_clients_.insert(source);
  maybe_finish(ctx);
}

int RenderMaster::runnable_shot(int tenant) {
  for (int sid = 0; sid < static_cast<int>(shots_.size()); ++sid) {
    Shot& shot = shots_[sid];
    if (shot.tenant != tenant || shot.phase != ShotPhase::kActive) continue;
    // A speculation winner (or reclaim overlap) may have fully covered the
    // queue head while it waited: prune rather than pay for duplicates.
    while (!shot.queue.empty() &&
           task_fully_committed(shot.queue.front())) {
      shot.queue.pop_front();
    }
    if (!shot.queue.empty()) return sid;
  }
  return -1;
}

int RenderMaster::pick_shot() {
  // Without tenants the only queue is the classic run's built-in shot
  // (tenant -1); otherwise the weighted-fair stride queue picks.
  if (tenants_.empty()) return runnable_shot(-1);
  const int tenant = pick_tenant();
  return tenant >= 0 ? runnable_shot(tenant) : -1;
}

int RenderMaster::pick_tenant() {
  int best = -1;
  for (int t = 0; t < static_cast<int>(tenants_.size()); ++t) {
    Tenant& tenant = tenants_[t];
    if (tenant.quota > 0 && tenant.inflight >= tenant.quota) continue;
    if (runnable_shot(t) < 0) continue;
    // Strict < keeps ties on the lowest tenant id: deterministic scan order.
    if (best < 0 || tenant.pass < tenants_[best].pass) best = t;
  }
  // Shot affinity (deficit-round-robin quantum on top of the stride queue):
  // keep serving the last-served tenant while its pass lead over the
  // lowest-pass contender stays under one shot's units. Bounded unfairness
  // — at most one shot's worth of work — in exchange for a shot's tiles
  // finishing together, so frames complete steadily instead of in waves
  // that stall dispatch behind the master's frame writes.
  if (best >= 0 && affinity_tenant_ >= 0 && affinity_tenant_ != best) {
    Tenant& held = tenants_[affinity_tenant_];
    if (held.quota <= 0 || held.inflight < held.quota) {
      const int sid = runnable_shot(affinity_tenant_);
      if (sid >= 0) {
        const double lead_cap =
            static_cast<double>(shots_[sid].units_total) * kStrideScale /
            held.weight;
        if (held.pass - tenants_[best].pass < lead_cap) {
          return affinity_tenant_;
        }
      }
    }
  }
  return best;
}

void RenderMaster::charge_tenant(Context& ctx, int worker, int sid,
                                 const RenderTask& task) {
  const int tenant = shots_[sid].tenant;
  Tenant& t = tenants_[tenant];
  ++t.inflight;
  t.peak_inflight = std::max(t.peak_inflight, t.inflight);
  const std::int64_t units =
      static_cast<std::int64_t>(task.region.area()) * task.frame_count;
  t.units_assigned += units;
  t.pass += units * kStrideScale / t.weight;
  affinity_tenant_ = tenant;
  t.assigns_counter->inc();
  workers_[worker].charged_tenant = tenant;
  ServiceAssignment grant;
  grant.tenant = tenant;
  grant.shot_id = sid;
  grant.units = units;
  assignment_log_.push_back(grant);
  if (config_.tracer != nullptr) {
    config_.tracer->instant(ctx.rank(), "sched", "tenant.grant", ctx.now(),
                            {{"tenant", tenant},
                             {"worker", worker},
                             {"task", task.task_id}});
  }
}

void RenderMaster::release_assignment(int worker) {
  WorkerState& s = workers_[worker];
  if (s.charged_tenant < 0) return;
  Tenant& t = tenants_[s.charged_tenant];
  --t.inflight;
  assert(t.inflight >= 0);
  s.charged_tenant = -1;
}

void RenderMaster::preempt_if_backlogged(Context& ctx) {
  if (!config_.speculate || spec_partner_.empty()) return;
  // Admitted work is waiting and every live worker is busy: speculation
  // clones are the lowest-value occupants, so dissolve one pair and shrink
  // the clone away — its worker comes back for the real backlog. Backlog
  // is a tenant's: without tenants (a classic run) this never fires.
  if (pick_tenant() < 0) return;
  for (const int w : idle_) {
    if (!workers_[w].dead) return;  // an idle worker will take the backlog
  }
  for (int w = 1; w < static_cast<int>(workers_.size()); ++w) {
    WorkerState& s = workers_[w];
    if (s.dead || !s.active || s.cancelled) continue;
    if (spec_clone_tasks_.count(s.task.task_id) == 0) continue;
    const auto it = spec_partner_.find(s.task.task_id);
    if (it == spec_partner_.end()) continue;  // pair already dissolved
    spec_partner_.erase(it->second);
    spec_partner_.erase(s.task.task_id);
    metrics_.counter("master.preemptions").inc();
    if (config_.tracer != nullptr) {
      config_.tracer->instant(ctx.rank(), "sched", "task.preempt", ctx.now(),
                              {{"worker", w}, {"task", s.task.task_id}});
    }
    s.end_frame = std::min(s.end_frame, s.next_expected);
    stop_at_delivered(ctx, w);
    break;  // one preemption per backlog check
  }
}

void RenderMaster::finish_shot(Context& ctx, Shot& shot) {
  shot.phase = ShotPhase::kDone;
  metrics_.counter("master.shots_completed").inc();
  if (config_.tracer != nullptr) {
    config_.tracer->instant(ctx.rank(), "sched", "shot.done", ctx.now(),
                            {{"shot", shot.shot_id},
                             {"frames", shot.frame_count}});
  }
  ShotUpdate update;
  update.shot_id = shot.shot_id;
  update.phase = ShotPhase::kDone;
  update.frames_done = shot.frames_done;
  ctx.send(shot.client_rank, kTagShotUpdate, encode_shot_update(update));
}

int RenderMaster::shot_of_frame(std::int32_t frame) const {
  for (const Shot& shot : shots_) {
    if (frame >= shot.base_frame &&
        frame < shot.base_frame + shot.frame_count) {
      return shot.shot_id;
    }
  }
  return -1;
}

RenderMaster::Shot* RenderMaster::open_shot(std::int32_t frame) {
  const int sid = shot_of_frame(frame);
  if (sid < 0 || shots_[sid].phase != ShotPhase::kActive) return nullptr;
  return &shots_[sid];
}

bool RenderMaster::requeue(const RenderTask& task) {
  Shot* shot = open_shot(task.first_frame);
  if (shot == nullptr) return false;
  shot->queue.push_back(task);
  return true;
}

std::int64_t RenderMaster::queued_tasks() const {
  std::int64_t depth = 0;
  for (const Shot& shot : shots_) {
    depth += static_cast<std::int64_t>(shot.queue.size());
  }
  return depth;
}

void RenderMaster::partition_shot(Shot& shot, const AnimatedScene& scene,
                                  const std::vector<char>& restored) {
  const int w = scene_.width();
  const int h = scene_.height();
  const int worker_count = static_cast<int>(workers_.size()) - 1;
  // Sequence-division tasks should not straddle camera cuts: a shot change
  // forces a full re-render anyway, so cuts are free task boundaries
  // ("any camera movement logically separates one sequence from another").
  // Cuts are scene frame numbers.
  std::vector<int> cuts = config_.partition.sequence_cuts;
  if (config_.partition.scheme == PartitionScheme::kSequenceDivision &&
      cuts.empty()) {
    for (const AnimatedScene::Shot& cut : scene.split_shots()) {
      cuts.push_back(cut.first_frame);
    }
  }
  // Partition each maximal run of frames not restored from disk on its own,
  // with the cuts inside it shifted into run-local frame numbers. A task's
  // first frame is a dense render anyway, so restored frames are free task
  // boundaries.
  const auto is_restored = [&](int local) {
    return !restored.empty() && restored[shot.base_frame + local] != 0;
  };
  std::int64_t covered = 0;
  std::int64_t missing = 0;
  int f = 0;
  while (f < shot.frame_count) {
    if (is_restored(f)) {
      ++f;
      continue;
    }
    int b = f;
    while (b < shot.frame_count && !is_restored(b)) ++b;
    const int lo = shot.scene_first_frame + f;
    const int hi = shot.scene_first_frame + b;
    PartitionConfig run = config_.partition;
    run.sequence_cuts.clear();
    for (const int cut : cuts) {
      if (cut > lo && cut < hi) run.sequence_cuts.push_back(cut - lo);
    }
    for (RenderTask& task :
         make_initial_tasks(run, w, h, b - f, worker_count)) {
      task.task_id = next_task_id_++;
      task.first_frame += shot.base_frame + f;
      task.scene_id = shot.scene_id;
      task.frame_delta = shot.scene_first_frame - shot.base_frame;
      covered +=
          static_cast<std::int64_t>(task.region.area()) * task.frame_count;
      shot.queue.push_back(task);
    }
    missing += std::int64_t{w} * h * (b - f);
    f = b;
  }
  assert(covered == missing && "tasks must tile area × frames");
  shot.units_total = covered;
}

std::string RenderMaster::service_frame_path(std::int32_t frame) const {
  const int sid = shot_of_frame(frame);
  if (sid < 0) {
    return frame_file_path(config_.output_dir, config_.output_prefix, frame);
  }
  const Shot& shot = shots_[sid];
  const std::int32_t local =
      frame - shot.base_frame + shot.scene_first_frame;
  char suffix[32];
  std::snprintf(suffix, sizeof(suffix), "_%04d.tga", local);
  std::string name = config_.output_prefix + "-" +
                     tenants_[shot.tenant].name + "-shot" +
                     std::to_string(shot.shot_id);
  if (!shot.label.empty()) name += "-" + shot.label;
  return config_.output_dir + "/" + name + suffix;
}

std::vector<TenantSummary> RenderMaster::tenant_summaries() const {
  std::vector<TenantSummary> out;
  for (const Tenant& t : tenants_) {
    TenantSummary s;
    s.name = t.name;
    s.weight = t.weight;
    s.quota = t.quota;
    s.tasks_assigned = t.assigns_counter->value();
    s.units_assigned = t.units_assigned;
    s.frames_committed = t.frames_counter->value();
    s.peak_inflight = t.peak_inflight;
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<ShotSummary> RenderMaster::shot_summaries() const {
  std::vector<ShotSummary> out;
  for (const Shot& shot : shots_) {
    if (shot.tenant < 0) continue;  // the classic run's built-in shot
    ShotSummary s;
    s.shot_id = shot.shot_id;
    s.tenant = tenants_[shot.tenant].name;
    s.label = shot.label;
    s.scene_id = shot.scene_id;
    s.scene_first_frame = shot.scene_first_frame;
    s.frame_count = shot.frame_count;
    s.base_frame = shot.base_frame;
    s.phase = shot.phase;
    s.frames_done = shot.frames_done;
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace now
