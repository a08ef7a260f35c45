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
  MetricsRegistry* metrics = nullptr;
};

class FrameShard final : public Actor {
 public:
  explicit FrameShard(const ShardConfig& config);

  void on_start(Context& ctx) override;
  void on_message(Context& ctx, const Message& msg) override;

  /// The owned frames and commit counters (valid after the runtime
  /// finishes).
  const FrameAssembler& assembler() const { return assembler_; }
  ShardReport report() const;

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
  std::int64_t rebuilds_ = 0;
  /// Failed TGA writes of sinks that earlier rebuilds replaced.
  std::int64_t write_failures_carried_ = 0;
};

}  // namespace now
