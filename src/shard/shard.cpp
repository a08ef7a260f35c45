#include "src/shard/shard.h"

#include <cassert>

#include "src/par/protocol.h"

namespace now {

namespace {

/// Open the FrameSink on the shard's journal segment: `resume` appends after
/// `valid_bytes` (0 starts a fresh segment), false truncates and starts
/// over. Shared by the constructor and failover rebuild.
std::unique_ptr<FrameSink> open_sink(const ShardConfig& config, bool resume,
                                     std::size_t valid_bytes) {
  FrameSinkConfig sink;
  sink.output_dir = config.output_dir;
  sink.output_prefix = config.output_prefix;
  sink.journal_path = config.journal_path;
  sink.journal_fsync = config.journal_fsync;
  sink.header.width = config.width;
  sink.header.height = config.height;
  sink.header.frame_count = config.map.frame_count;
  sink.header.shard_count = config.map.shard_count;
  sink.header.shard_index = config.shard_index;
  sink.resume = resume;
  sink.resume_valid_bytes = valid_bytes;
  sink.metrics = config.metrics;
  sink.endpoint_rank = config.map.rank_of_shard(config.shard_index);
  return std::make_unique<FrameSink>(sink);
}

std::size_t resume_valid_bytes(const ShardConfig& config) {
  if (config.recovery == nullptr ||
      config.shard_index >=
          static_cast<int>(config.recovery->shard_valid_bytes.size())) {
    return 0;
  }
  return config.recovery->shard_valid_bytes[config.shard_index];
}

}  // namespace

// Everything — allocation, resume restore, segment open/truncate — happens
// in the constructor, not on_start: a fully-restored resume lets the
// scheduler stop the run during ITS on_start, before any other actor
// starts, and the restored pixels and repaired segment must exist anyway.
FrameShard::FrameShard(const ShardConfig& config)
    : config_(config),
      sink_(open_sink(config, config.recovery != nullptr,
                      resume_valid_bytes(config))),
      assembler_(config.map.range_of(config.shard_index).first,
                 config.map.range_of(config.shard_index).second, config.width,
                 config.height, sink_.get(),
                 config.map.rank_of_shard(config.shard_index), config.metrics) {
  if (config_.tracer != nullptr && !config_.tracer->enabled()) {
    config_.tracer = nullptr;
  }
  // Resume: owned frames the previous run completed (segment record +
  // verified targa) are restored wholesale, with their idempotent gates
  // re-armed from the replayed commit records so a duplicate commit (an
  // overlapping reclaim, a speculation loser from the dead run) can never
  // double-apply into a frame whose area is already zero.
  if (config_.recovery != nullptr) {
    assembler_.restore(config_.recovery->frames,
                       config_.recovery->frame_commits);
  }
}

ShardReport FrameShard::report() const {
  ShardReport r = assembler_.report();
  r.journal_records = sink_->journal_records();
  r.journal_bytes = sink_->journal_bytes();
  r.journal_ok = sink_->journal_ok();
  r.frame_write_failures = write_failures_carried_ + sink_->write_failures();
  r.rebuilds = rebuilds_;
  return r;
}

void FrameShard::on_start(Context& ctx) {
  const std::int64_t restored = assembler_.report().frames_restored;
  if (config_.tracer != nullptr && restored > 0) {
    config_.tracer->instant(ctx.rank(), "shard", "resume.restore", ctx.now(),
                            {{"frames", restored}});
  }
}

void FrameShard::on_message(Context& ctx, const Message& msg) {
  ctx.charge(config_.cost.master_per_message_seconds);
  switch (msg.tag) {
    case kTagFrameResult: {
      const FrameAssembler::Commit c =
          assembler_.commit(msg.source, msg.payload);
      const CommitDigest& d = c.digest;
      if (config_.tracer != nullptr && d.kind == CommitKind::kFresh) {
        config_.tracer->instant(ctx.rank(), "shard", "frame.result", ctx.now(),
                                {{"worker", msg.source},
                                 {"frame", d.frame},
                                 {"full", d.full_render ? 1 : 0}});
        if (d.trace_ctx != 0) {
          config_.tracer->flow_step(
              ctx.rank(), trace_flow_id(d.trace_ctx, d.frame), ctx.now(),
              {{"task", d.task_id}, {"frame", d.frame}, {"step", 3}});
        }
      }
      if (c.frame_completed) {
        ctx.charge(config_.cost.master_frame_write_seconds);
      }
      ctx.send(0, kTagCommitDigest, encode_commit_digest(d));
      break;
    }
    case kTagPing:
      // Liveness probe from the scheduler's shard lease: any answer renews
      // the lease (the pong itself is the heartbeat).
      ctx.send(0, kTagPong, {});
      break;
    case kTagRejoin:   // runtime revived this rank after a crash
    case kTagShardReset:  // scheduler fenced a falsely-declared incarnation
      handle_rebuild(ctx);
      break;
    case kTagStop:
      // The scheduler broadcasts kTagStop at run end; shards have no
      // shutdown work (the runtime drains them when the scheduler stops).
      break;
    default:
      assert(false && "unexpected message tag at shard");
      break;
  }
}

void FrameShard::handle_rebuild(Context& ctx) {
  // The previous incarnation's memory is gone (or declared gone): rebuild
  // from the journal segment, the only durable truth. Completed frames come
  // back verified from disk with their gates re-armed; partially-committed
  // frames are lost and revert to full area — the scheduler performs the
  // matching rollback on its digest mirror and re-covers those cells.
  write_failures_carried_ += sink_->write_failures();
  sink_.reset();  // release the dead incarnation's journal fd before reading
  std::size_t valid_bytes = 0;
  ShardRebuild rb;
  if (!config_.journal_path.empty()) {
    rb = rebuild_shard_segment(config_.journal_path, config_.output_dir,
                               config_.output_prefix, config_.width,
                               config_.height, config_.map.frame_count,
                               config_.map.shard_count, config_.shard_index);
    if (rb.ok) valid_bytes = rb.valid_bytes;
  }
  sink_ = open_sink(config_, /*resume=*/true, valid_bytes);
  assembler_.reset(sink_.get());
  const int restored =
      rb.ok ? assembler_.restore(rb.frames, rb.frame_commits) : 0;
  ++rebuilds_;

  if (config_.tracer != nullptr) {
    config_.tracer->instant(ctx.rank(), "shard", "shard.rebuild", ctx.now(),
                            {{"frames", restored}});
  }
  // Re-admission: the scheduler treats a Hello from a shard rank as "this
  // shard is (back) alive with exactly its durable state".
  ctx.send(0, kTagHello, {});
}

}  // namespace now
