// FrameShard: one framebuffer/IO shard of the sharded master (rank
// worker_count+1+shard_index). It owns a contiguous frame range of the
// animation: workers send their (delta-coded) frame results straight here,
// and the shard answers every result with a CommitDigest to the scheduler
// (rank 0).
//
// The shard is a thin actor around a FrameAssembler — the same commit core
// the master colocates in-process at shards == 1 — so a sharded run's frames
// are byte-identical to an unsharded run's by construction. The actor adds
// what only a separate rank needs: it charges the commit cost, puts each
// digest on the wire, answers liveness pings, and rebuilds itself from its
// own crash-consistent journal segment after a failure.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "src/ckpt/recovery.h"
#include "src/net/runtime.h"
#include "src/obs/event_trace.h"
#include "src/obs/metrics.h"
#include "src/par/cost_model.h"
#include "src/shard/assembler.h"
#include "src/shard/frame_sink.h"
#include "src/shard/ownership.h"

namespace now {

/// One shard's run statistics: a view over its shard.<i>.* series (see
/// read_shard_report), plus its journal health.
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
  /// Failover rebuilds: the shard rank died (or was fenced by the
  /// scheduler), replayed its journal segment, and re-announced itself.
  std::int64_t rebuilds = 0;
};

/// Read shard `shard`'s report from its shard.<shard>.* series; journal_ok
/// has no series and stays the shard actor's own (FrameShard::journal_ok).
ShardReport read_shard_report(MetricsRegistry& ledger, int shard);

struct ShardConfig {
  ShardMap map;
  int shard_index = 0;
  int width = 0;
  int height = 0;
  CostModel cost;
  /// Per-frame targa output for owned frames ("" disables).
  std::string output_dir;
  std::string output_prefix = "frame";
  /// This shard's journal segment ("" disables journaling).
  std::string journal_path;
  bool journal_fsync = true;
  /// Replayed state from a previous run (null = fresh start): restored
  /// frames in the owned range are loaded, and the segment is appended to
  /// from its valid prefix.
  const RecoveryState* recovery = nullptr;
  EventTracer* tracer = nullptr;
  /// The run's ledger: the shard counts everything ShardReport reads under
  /// shard.<shard_index>.* as it happens (registered at construction, so a
  /// series that stays zero still appears). Null disables.
  MetricsRegistry* metrics = nullptr;
};

class FrameShard final : public Actor {
 public:
  explicit FrameShard(const ShardConfig& config);

  void on_start(Context& ctx) override;
  void on_message(Context& ctx, const Message& msg) override;

  /// The owned frames (valid after the runtime finishes).
  const FrameAssembler& assembler() const { return assembler_; }
  /// The current incarnation's journal health.
  bool journal_ok() const { return sink_->journal_ok(); }

 private:
  /// Failover restart (kTagRejoin from the runtime, or kTagShardReset from
  /// a scheduler that declared this incarnation dead): forget all in-memory
  /// state, rebuild committed frames + the idempotent gate from the journal
  /// segment, reopen the sink on the segment's valid prefix, and re-Hello
  /// the scheduler.
  void handle_rebuild(Context& ctx);

  ShardConfig config_;
  std::unique_ptr<FrameSink> sink_;
  FrameAssembler assembler_;
  Counter* rebuilds_ = nullptr;  // shard.<i>.rebuilds
  /// Owned frames the constructor restored from a previous run.
  int frames_restored_ = 0;
};

}  // namespace now
