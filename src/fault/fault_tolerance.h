// Master-side failure detection and recovery accounting.
//
// Detection is lease-based: every message a worker sends doubles as a
// heartbeat (frame results piggyback liveness for free). When a task is
// assigned, the master takes out a progress lease whose deadline scales
// with the task's size and is renewed by every accepted frame result; if a
// worker makes no progress past its lease, the master sends an explicit
// ping and grants one grace period. No pong means the worker is dead; a
// pong without progress means the task is stuck (lost in transit) and is
// written off while the worker lives on. A dead worker's unfinished frames
// are reclaimed and re-enqueued —
// a replacement that holds no coherence state for the region pays a fresh
// full first-frame render, exactly the coherence-restart cost the paper's
// Section 3 analysis prices for adaptive re-splitting.
#pragma once

#include <cstdint>

namespace now {

struct FaultToleranceConfig {
  /// Master tracks leases, pings silent workers, reassigns dead tasks.
  bool enabled = false;
  /// Progress lease = base + per_frame × frames in the assigned task, in
  /// runtime seconds (virtual under kSim, wall seconds elsewhere). The base
  /// must comfortably exceed one full first-frame render on the slowest
  /// machine; each accepted frame result renews the full lease.
  double lease_base_seconds = 30.0;
  double lease_per_frame_seconds = 5.0;
  /// Extra time a pinged worker gets to answer before being declared dead.
  double ping_grace_seconds = 10.0;
};

struct FaultReport {
  int deaths_detected = 0;
  int pings_sent = 0;
  /// Workers re-admitted after a crash (elastic membership): a Hello from a
  /// dead rank clears its death sentence; the rank starts fresh and pays a
  /// full first-frame coherence restart on its next assignment.
  int workers_rejoined = 0;
  // -- shard failover -------------------------------------------------------
  /// Framebuffer shards declared dead (liveness lease expired, ping
  /// unanswered). The scheduler rolls the dead shard's incomplete frames
  /// back to uncommitted and holds their work until a replacement re-admits.
  int shards_failed = 0;
  /// Shards re-admitted after rebuilding committed state from their journal
  /// segment (a Hello from a shard rank).
  int shards_rejoined = 0;
  /// Region-frame commits rolled back because their shard died before the
  /// frame reached durable completion.
  std::int64_t shard_commits_rolled_back = 0;
  // -- end-game speculation -----------------------------------------------
  /// Tasks cloned to idle workers when the pending queue ran dry.
  int speculations_launched = 0;
  /// Speculation pairs resolved with a surviving winner (one copy beat the
  /// other to the remaining frames; the loser was shrunk away).
  int speculations_won = 0;
  /// Region-frames delivered by the losing copy after the winner had
  /// already committed them (discarded by the idempotent-commit gate).
  std::int64_t speculation_frames_wasted = 0;
  /// Compute seconds carried by those discarded duplicate results.
  double speculation_wasted_seconds = 0.0;
  /// Assignments a busy worker refused (kTagTaskNack): requeued immediately
  /// with no restart cost — the worker never started them.
  int tasks_nacked = 0;
  /// Tasks re-enqueued: dead workers' remainders plus ranges reclaimed when
  /// a frame result was lost in transit.
  int tasks_reassigned = 0;
  std::int64_t frames_reassigned = 0;  // region-frames re-enqueued
  /// Messages discarded: from dead ranks, duplicates, cancelled tasks.
  std::int64_t results_ignored = 0;
  /// Compute seconds carried by discarded frame results (work performed by
  /// a worker but thrown away by the master).
  double lost_work_seconds = 0.0;
  /// Compute seconds spent on the first frames of reassigned tasks — the
  /// restart price of each recovery: a full render, or a warm one when the
  /// replacement worker holds the region's coherence state.
  double restart_work_seconds = 0.0;
  /// Sum over deaths of (declaration time − last message heard).
  double detection_latency_seconds = 0.0;
};

}  // namespace now
