// FrameAssembler: the farm's one pixel-commit path. It owns the
// framebuffers of a contiguous frame range, decodes each FrameResult against
// its own committed predecessor pixels, enforces the idempotent commit gate,
// and writes every accepted commit through a FrameSink (journal record, and
// the frame's TGA once its area is complete). What became of each result is
// reported back as a CommitDigest for the scheduler.
//
// The assembler is not an actor and charges no cost; its owner does. A
// FrameShard wraps one and sends each digest to the scheduler over the wire.
// At shards == 1 the master owns one colocated assembler covering the whole
// animation, shares its single FrameSink with it, and hands each digest to
// its digest handler in-process — so the framebuffer is one distributed
// object whatever the number of owners, with one commit path.
//
// Chain validation: an owner may see only a slice of a worker's result
// stream, so the assembler tracks a per-task chain. The first result of a
// task must be dense (workers promote to a key frame at a task's first frame
// and at every ownership boundary), and each later result must carry exactly
// the next frame. A gap — a lost result, including a lost key frame — breaks
// the chain: that result and everything after it for the task are rejected,
// and the scheduler turns the reject into a cancel-and-reclaim.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/ckpt/journal.h"
#include "src/image/framebuffer.h"
#include "src/obs/metrics.h"
#include "src/shard/digest.h"
#include "src/shard/frame_sink.h"

namespace now {

struct ShardReport {
  std::int64_t frame_results = 0;     // decoded results received
  std::int64_t frames_committed = 0;  // fresh region-frame commits
  std::int64_t frames_completed = 0;  // owned frames fully assembled
  std::int64_t frames_restored = 0;   // owned frames loaded on resume
  std::int64_t duplicates = 0;        // commit-gate hits (chain advanced)
  std::int64_t stale_results = 0;     // redeliveries behind the chain
  std::int64_t chain_rejects = 0;     // results that broke their chain
  std::int64_t decode_failures = 0;   // envelopes that failed to decode
  std::int64_t frame_bytes = 0;       // wire payload bytes received
  std::int64_t journal_records = 0;
  std::int64_t journal_bytes = 0;
  bool journal_ok = true;
  /// Completed frames whose TGA could not be written, across every
  /// incarnation's sink.
  std::int64_t frame_write_failures = 0;
  /// Failover rebuilds: the shard rank died (or was fenced by the
  /// scheduler), replayed its journal segment, and re-announced itself.
  std::int64_t rebuilds = 0;
};

class FrameAssembler {
 public:
  /// Owns frames [first_frame, end_frame) of `width` x `height`, all
  /// missing, and writes through `sink` (not owned; must outlive its use).
  /// Decode-failure and payload-byte counters are labeled by
  /// `endpoint_rank` in `metrics` (null disables).
  FrameAssembler(int first_frame, int end_frame, int width, int height,
                 FrameSink* sink, int endpoint_rank, MetricsRegistry* metrics);

  /// What became of one FrameResult message.
  struct Commit {
    CommitDigest digest;
    /// This commit completed its frame: the TGA and the frame-complete
    /// record were written, so the owner charges the write cost.
    bool frame_completed = false;
  };
  /// Decode, chain-check, gate, apply and persist one FrameResult payload
  /// sent by rank `source`.
  Commit commit(int source, const std::string& payload);

  /// Load the durable frames of `frames` (indexed by global frame number;
  /// nullopt = not durable) that fall in the owned range, and re-arm their
  /// commit gates from `commits` so a late duplicate never double-applies.
  /// Returns the number of frames restored. Used by resume and failover.
  int restore(const std::vector<std::optional<Framebuffer>>& frames,
              const std::vector<std::vector<RegionCommitRecord>>& commits);

  /// Append `frames` missing frames to the owned range (service mode admits
  /// shots into a growing frame space).
  void extend(int frames);

  /// The owner wrote `task_id` off: every later result for it is a chain
  /// reject, so nothing of a cancelled task is applied.
  void reject_task(std::int32_t task_id);

  /// The owner's run is over: free the commit gates and chains on the
  /// calling thread. Frames and report stay readable; commit() must not be
  /// called again.
  void release_gates();

  /// Forget every pixel, gate and chain (counters survive) and write through
  /// `sink` from now on: the in-memory state died with a failed shard.
  void reset(FrameSink* sink);

  /// Owned frames, indexed by global frame number minus first_frame().
  const std::vector<Framebuffer>& frames() const { return frames_; }
  int first_frame() const { return first_; }
  int end_frame() const { return first_ + static_cast<int>(frames_.size()); }
  /// Commit counters (journal and rebuild fields stay zero; the owning
  /// actor fills those).
  const ShardReport& report() const { return report_; }

 private:
  /// Per-task slice of the worker's result chain as seen by this owner.
  struct Chain {
    std::int32_t next = -1;  // next frame a chain-valid result must carry
    bool started = false;    // first (dense) result seen
    bool broken = false;     // rejected once; everything later is rejected
  };

  /// Poison the chain and report the result as a chain reject.
  Commit reject(Chain& chain, CommitDigest d);
  void count_decode_failure();

  int first_ = 0;
  int width_ = 0;
  int height_ = 0;
  FrameSink* sink_ = nullptr;
  std::vector<Framebuffer> frames_;
  std::vector<std::int64_t> area_missing_;
  /// Authoritative idempotent-commit gate: per owned frame, the packed
  /// rects already applied (the scheduler keeps a digest-fed mirror for
  /// scheduling decisions only).
  std::vector<std::set<std::uint64_t>> committed_rects_;
  std::map<std::int32_t, Chain> chains_;

  // Per-endpoint instruments (null when metrics are off).
  Counter* decode_failures_ = nullptr;     // global net.frame_decode_failures
  Counter* ep_decode_failures_ = nullptr;  // endpoint.<rank>.frame_decode_...
  Counter* ep_frame_bytes_ = nullptr;      // endpoint.<rank>.frame_bytes

  ShardReport report_;
};

}  // namespace now
