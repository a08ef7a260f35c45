// Protocol-level unit tests for RenderMaster and RenderWorker: drive the
// actors directly through a recording Context — no runtime, no threads —
// and check the message-by-message behavior, including the shrink
// handshake's race handling.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <limits>
#include <string>
#include <vector>

#include "src/obs/status_server.h"
#include "src/par/jobqueue.h"
#include "src/par/master.h"
#include "src/par/worker.h"
#include "src/scene/builtin_scenes.h"

namespace now {
namespace {

struct SentMessage {
  int dest;
  int tag;
  std::string payload;
};

class RecordingContext final : public Context {
 public:
  RecordingContext(int rank, int world_size)
      : rank_(rank), world_size_(world_size) {}

  int rank() const override { return rank_; }
  int world_size() const override { return world_size_; }
  void send(int dest, int tag, std::string payload) override {
    sent.push_back({dest, tag, std::move(payload)});
  }
  void charge(double seconds) override { charged += seconds; }
  double now() const override { return charged; }
  void stop() override { stopped = true; }

  /// Pop the first sent message matching `tag` (and optionally dest).
  SentMessage take(int tag, int dest = -1) {
    for (std::size_t i = 0; i < sent.size(); ++i) {
      if (sent[i].tag == tag && (dest < 0 || sent[i].dest == dest)) {
        SentMessage m = sent[i];
        sent.erase(sent.begin() + static_cast<std::ptrdiff_t>(i));
        return m;
      }
    }
    ADD_FAILURE() << "no message with tag " << tag;
    return {};
  }

  bool has(int tag) const {
    for (const auto& m : sent) {
      if (m.tag == tag) return true;
    }
    return false;
  }

  std::vector<SentMessage> sent;
  double charged = 0.0;
  bool stopped = false;

 private:
  int rank_;
  int world_size_;
};

Message msg_from(int source, int tag, std::string payload = {}) {
  return Message{source, tag, std::move(payload)};
}

// ---------------------------------------------------------------- worker --

class WorkerProtocol : public ::testing::Test {
 protected:
  WorkerProtocol()
      : scene_(orbit_scene(2, 8, 32, 24)),
        worker_(scene_, config_with(&metrics_)),
        ctx_(1, 2) {}

  static WorkerConfig config_with(MetricsRegistry* metrics) {
    WorkerConfig config;
    config.metrics = metrics;
    return config;
  }

  /// Deliver a task and run it to completion, returning its frame results.
  static std::vector<FrameResult> run_results(RenderWorker& worker,
                                              RecordingContext& ctx,
                                              const RenderTask& task) {
    worker.on_message(ctx, msg_from(0, kTagTask, encode_task(task)));
    std::vector<FrameResult> results;
    for (int guard = 0; guard < 100 && ctx.has(kTagContinue); ++guard) {
      ctx.take(kTagContinue);
      worker.on_message(ctx, msg_from(1, kTagContinue));
      while (ctx.has(kTagFrameResult)) {
        FrameResult r;
        EXPECT_TRUE(decode_frame_result(&r, ctx.take(kTagFrameResult).payload));
        results.push_back(r);
      }
    }
    ctx.take(kTagRequest, 0);
    return results;
  }

  /// Deliver a task and run the continuation loop to completion, returning
  /// the frames reported.
  std::vector<int> run_task(const RenderTask& task) {
    worker_.on_message(ctx_, msg_from(0, kTagTask, encode_task(task)));
    return drain_continuations();
  }

  std::vector<int> drain_continuations() {
    std::vector<int> frames;
    for (int guard = 0; guard < 1000; ++guard) {
      // Find a self-sent continuation.
      bool found = false;
      for (std::size_t i = 0; i < ctx_.sent.size(); ++i) {
        if (ctx_.sent[i].tag == kTagContinue) {
          ctx_.sent.erase(ctx_.sent.begin() + static_cast<std::ptrdiff_t>(i));
          found = true;
          break;
        }
      }
      if (!found) break;
      worker_.on_message(ctx_, msg_from(1, kTagContinue));
      // Record any frame results produced.
      for (std::size_t i = 0; i < ctx_.sent.size();) {
        if (ctx_.sent[i].tag == kTagFrameResult) {
          FrameResult r;
          EXPECT_TRUE(decode_frame_result(&r, ctx_.sent[i].payload));
          frames.push_back(r.frame);
          ctx_.sent.erase(ctx_.sent.begin() + static_cast<std::ptrdiff_t>(i));
        } else {
          ++i;
        }
      }
    }
    return frames;
  }

  AnimatedScene scene_;
  MetricsRegistry metrics_;
  RenderWorker worker_;
  RecordingContext ctx_;
};

TEST_F(WorkerProtocol, HelloOnStart) {
  worker_.on_start(ctx_);
  const SentMessage hello = ctx_.take(kTagHello, 0);
  EXPECT_TRUE(hello.payload.empty());
}

TEST_F(WorkerProtocol, RendersAssignedFramesInOrder) {
  const std::vector<int> frames =
      run_task({0, {0, 0, 32, 24}, 2, 3});
  EXPECT_EQ(frames, (std::vector<int>{2, 3, 4}));
  // Task complete: exactly one request back to the master.
  ctx_.take(kTagRequest, 0);
  EXPECT_FALSE(ctx_.has(kTagContinue));
  EXPECT_EQ(worker_.report().frames_rendered, 3);
  EXPECT_EQ(worker_.report().tasks_completed, 1);
  EXPECT_GT(ctx_.charged, 0.0);
}

TEST_F(WorkerProtocol, FirstFrameDenseRestSparse) {
  worker_.on_message(
      ctx_, msg_from(0, kTagTask, encode_task({0, {0, 0, 32, 24}, 0, 3})));
  std::vector<FrameResult> results;
  for (int guard = 0; guard < 100 && ctx_.has(kTagContinue); ++guard) {
    ctx_.take(kTagContinue);
    worker_.on_message(ctx_, msg_from(1, kTagContinue));
    while (ctx_.has(kTagFrameResult)) {
      FrameResult r;
      ASSERT_TRUE(
          decode_frame_result(&r, ctx_.take(kTagFrameResult).payload));
      results.push_back(r);
    }
  }
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].payload.dense);
  EXPECT_EQ(results[0].full_render, 1);
  EXPECT_FALSE(results[1].payload.dense);
  EXPECT_EQ(results[1].full_render, 0);
}

TEST_F(WorkerProtocol, SameRegionTaskContinuesWarmWithADenseFirstFrame) {
  // The worker keeps the region's coherence state across tasks: a later
  // task of the same region — here a jump back to an earlier frame —
  // continues from it. Its first frame is still a dense key frame.
  const PixelRect tile{0, 0, 16, 24};
  const std::vector<FrameResult> first =
      run_results(worker_, ctx_, {1, tile, 4, 3});
  ASSERT_EQ(first.size(), 3u);
  EXPECT_EQ(first[0].full_render, 1);
  const std::vector<FrameResult> second =
      run_results(worker_, ctx_, {2, tile, 1, 2});
  ASSERT_EQ(second.size(), 2u);
  EXPECT_TRUE(second[0].payload.dense);
  EXPECT_EQ(second[0].full_render, 0);
  EXPECT_LT(second[0].pixels_recomputed, tile.area());
  EXPECT_FALSE(second[1].payload.dense);
  // The dense first frame carries the exact pixels of frame 1.
  const Framebuffer ref = render_world(scene_.world_at(1), 32, 24, {});
  Framebuffer got(32, 24);
  apply_payload(&got, second[0].payload);
  for (int y = tile.y0; y < tile.y0 + tile.height; ++y) {
    for (int x = tile.x0; x < tile.x0 + tile.width; ++x) {
      ASSERT_EQ(got.at(x, y), ref.at(x, y)) << x << "," << y;
    }
  }
}

TEST_F(WorkerProtocol, OtherRegionOrSceneFullRenders) {
  // Scene id 1 is the same animation under another id: held state is keyed
  // by (scene id, region), never by content.
  WorkerConfig config = config_with(&metrics_);
  config.extra_scenes = {&scene_};
  RenderWorker worker(scene_, config);
  RecordingContext ctx(1, 2);
  const PixelRect left{0, 0, 16, 24};
  const PixelRect right{16, 0, 16, 24};
  EXPECT_EQ(run_results(worker, ctx, {1, left, 0, 2})[0].full_render, 1);
  EXPECT_EQ(run_results(worker, ctx, {2, right, 2, 2})[0].full_render, 1);
  EXPECT_EQ(
      run_results(worker, ctx, {3, right, 4, 2, 0, /*scene_id=*/1, 0})[0]
          .full_render,
      1);
  EXPECT_EQ(
      run_results(worker, ctx, {4, right, 6, 2, 0, /*scene_id=*/1, 0})[0]
          .full_render,
      0);
}

TEST_F(WorkerProtocol, RejoinDropsHeldCoherenceState) {
  const PixelRect tile{0, 0, 32, 24};
  run_results(worker_, ctx_, {1, tile, 0, 2});
  worker_.on_message(ctx_, msg_from(0, kTagRejoin));
  ctx_.take(kTagHello, 0);
  const std::vector<FrameResult> after =
      run_results(worker_, ctx_, {2, tile, 2, 2});
  ASSERT_FALSE(after.empty());
  EXPECT_EQ(after[0].full_render, 1);
  EXPECT_EQ(after[0].pixels_recomputed, tile.area());
}

TEST_F(WorkerProtocol, WarmTaskKeepsKeyFramesAtShardBoundaries) {
  // Two shards own frames [0, 4) and [4, 8). A warm task's first frame and
  // the first frame of the next shard's range go back dense, whatever the
  // coherence state: neither receiver holds a predecessor from this task.
  WorkerConfig config = config_with(&metrics_);
  config.frame_codec = FrameCodec::kDelta;
  config.shards.shard_count = 2;
  config.shards.worker_count = 1;
  config.shards.frame_count = scene_.frame_count();
  RenderWorker worker(scene_, config);
  RecordingContext ctx(1, config.shards.world_size());
  const PixelRect tile{0, 0, 16, 24};
  run_results(worker, ctx, {1, tile, 0, 2});
  worker.on_message(ctx, msg_from(0, kTagTask, encode_task({2, tile, 3, 5})));
  std::vector<SentMessage> sent;
  for (int guard = 0; guard < 100 && ctx.has(kTagContinue); ++guard) {
    ctx.take(kTagContinue);
    worker.on_message(ctx, msg_from(1, kTagContinue));
    while (ctx.has(kTagFrameResult)) sent.push_back(ctx.take(kTagFrameResult));
  }
  ASSERT_EQ(sent.size(), 5u);
  for (const SentMessage& m : sent) {
    FrameResult r;
    ASSERT_TRUE(decode_frame_result(&r, m.payload));
    EXPECT_EQ(r.full_render, 0) << "frame " << r.frame;
    EXPECT_EQ(m.dest, config.shards.owner_rank(r.frame)) << "frame " << r.frame;
    const bool key = r.frame == 3 || config.shards.key_frame_boundary(r.frame);
    EXPECT_EQ(r.payload.dense, key) << "frame " << r.frame;
  }
}

TEST_F(WorkerProtocol, ShrinkReducesWork) {
  worker_.on_message(
      ctx_, msg_from(0, kTagTask, encode_task({7, {0, 0, 32, 24}, 0, 8})));
  // Render two frames, then shrink to end at frame 4.
  ctx_.take(kTagContinue);
  worker_.on_message(ctx_, msg_from(1, kTagContinue));
  ctx_.take(kTagContinue);
  worker_.on_message(ctx_, msg_from(1, kTagContinue));
  // Discard the results of the two frames already rendered so the drain
  // below only sees post-shrink work.
  while (ctx_.has(kTagFrameResult)) ctx_.take(kTagFrameResult);
  worker_.on_message(ctx_, msg_from(0, kTagShrink,
                                    encode_shrink({7, 4})));
  ShrinkAck ack;
  ASSERT_TRUE(decode_shrink_ack(&ack, ctx_.take(kTagShrinkAck).payload));
  EXPECT_EQ(ack.task_id, 7);
  EXPECT_EQ(ack.honored_end_frame, 4);
  // Continue to completion: frames 2 and 3 only.
  const std::vector<int> rest = drain_continuations();
  EXPECT_EQ(rest, (std::vector<int>{2, 3}));
  ctx_.take(kTagRequest);
}

TEST_F(WorkerProtocol, ShrinkBelowProgressHonorsProgress) {
  worker_.on_message(
      ctx_, msg_from(0, kTagTask, encode_task({7, {0, 0, 32, 24}, 0, 8})));
  for (int i = 0; i < 5; ++i) {
    ctx_.take(kTagContinue);
    worker_.on_message(ctx_, msg_from(1, kTagContinue));
  }
  // Worker already rendered frames 0..4; a shrink to 2 can only honor 5.
  worker_.on_message(ctx_, msg_from(0, kTagShrink, encode_shrink({7, 2})));
  ShrinkAck ack;
  ASSERT_TRUE(decode_shrink_ack(&ack, ctx_.take(kTagShrinkAck).payload));
  EXPECT_EQ(ack.honored_end_frame, 5);
}

TEST_F(WorkerProtocol, ShrinkAfterCompletionAcksNothingLeft) {
  run_task({3, {0, 0, 32, 24}, 0, 2});
  worker_.on_message(ctx_, msg_from(0, kTagShrink, encode_shrink({3, 1})));
  ShrinkAck ack;
  ASSERT_TRUE(decode_shrink_ack(&ack, ctx_.take(kTagShrinkAck).payload));
  EXPECT_EQ(ack.honored_end_frame, -1);
}

TEST_F(WorkerProtocol, StopIsQuiet) {
  worker_.on_message(ctx_, msg_from(0, kTagStop));
  EXPECT_TRUE(ctx_.sent.empty());
}

TEST_F(WorkerProtocol, BusyWorkerNacksDifferentTaskOnly) {
  worker_.on_message(
      ctx_, msg_from(0, kTagTask, encode_task({5, {0, 0, 32, 24}, 0, 4})));
  // A duplicate of the current assignment is silently dropped (it can
  // legitimately arrive twice under fault injection).
  worker_.on_message(
      ctx_, msg_from(0, kTagTask, encode_task({5, {0, 0, 32, 24}, 0, 4})));
  EXPECT_FALSE(ctx_.has(kTagTaskNack));
  // A *different* task while busy is refused so the master can requeue it.
  worker_.on_message(
      ctx_, msg_from(0, kTagTask, encode_task({9, {0, 0, 32, 24}, 4, 2})));
  TaskNack nack;
  ASSERT_TRUE(decode_task_nack(&nack, ctx_.take(kTagTaskNack, 0).payload));
  EXPECT_EQ(nack.task_id, 9);
  // The refusal leaves the current task untouched.
  const std::vector<int> frames = drain_continuations();
  EXPECT_EQ(frames, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(worker_.report().tasks_completed, 1);
}

/// Tasks that decode but lie outside the fixture's one 32x24, 8-frame scene.
std::vector<RenderTask> out_of_range_tasks() {
  const std::int32_t big = std::numeric_limits<std::int32_t>::max();
  std::vector<RenderTask> bad = {
      {20, {0, 0, 32, 24}, 0, 2, 0, /*scene_id=*/1, 0},   // unknown scene
      {21, {0, 0, 32, 24}, 0, 2, 0, /*scene_id=*/-1, 0},  // negative scene
      {22, {0, 0, 0, 24}, 0, 2},                          // empty region
      {23, {0, 0, 32, -4}, 0, 2},                         // negative height
      {24, {-1, 0, 32, 24}, 0, 2},                        // left of image
      {25, {16, 0, 32, 24}, 0, 2},                        // past right edge
      {26, {0, 8, 32, 24}, 0, 2},                         // past bottom edge
      {27, {0, 0, 32, 24}, 0, big},                       // huge frame count
      {28, {0, 0, 32, 24}, 6, 4},                         // past last frame
      {29, {0, 0, 32, 24}, -1, 2},                        // before frame 0
      {30, {0, 0, 32, 24}, 0, -2},                        // negative count
      {31, {0, 0, 32, 24}, 0, 4, 0, 0, /*frame_delta=*/5},   // shifted out
      {32, {0, 0, 32, 24}, 0, 4, 0, 0, /*frame_delta=*/-1},  // shifted below
      {33, {0, 0, 32, 24}, big - 1, 4, 0, 0, -(big - 1)},    // end overflows
  };
  return bad;
}

TEST_F(WorkerProtocol, OutOfRangeTasksAreDroppedUnanswered) {
  for (const RenderTask& task : out_of_range_tasks()) {
    SCOPED_TRACE("task " + std::to_string(task.task_id));
    worker_.on_message(ctx_, msg_from(0, kTagTask, encode_task(task)));
    EXPECT_TRUE(ctx_.sent.empty());  // no continuation, result or NACK
  }
  EXPECT_EQ(worker_.report().frames_rendered, 0);
  EXPECT_EQ(ctx_.charged, 0.0);
  // The worker is still idle: a valid task runs normally afterwards.
  const std::vector<int> frames = run_task({1, {0, 0, 32, 24}, 6, 2});
  EXPECT_EQ(frames, (std::vector<int>{6, 7}));
}

TEST_F(WorkerProtocol, BusyWorkerDropsOutOfRangeTasksWithoutNack) {
  worker_.on_message(
      ctx_, msg_from(0, kTagTask, encode_task({5, {0, 0, 32, 24}, 0, 3})));
  const std::size_t sent = ctx_.sent.size();  // the first continuation
  // A NACK would make the master requeue the bad task verbatim.
  for (const RenderTask& task : out_of_range_tasks()) {
    SCOPED_TRACE("task " + std::to_string(task.task_id));
    worker_.on_message(ctx_, msg_from(0, kTagTask, encode_task(task)));
    EXPECT_EQ(ctx_.sent.size(), sent);
  }
  const std::vector<int> frames = drain_continuations();
  EXPECT_EQ(frames, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(worker_.report().frames_rendered, 3);
}

TEST_F(WorkerProtocol, ShrinkToZeroFramesCountsShrunkAwayNotCompleted) {
  worker_.on_message(
      ctx_, msg_from(0, kTagTask, encode_task({4, {0, 0, 32, 24}, 0, 4})));
  // The whole range is stolen before the first frame renders.
  worker_.on_message(ctx_, msg_from(0, kTagShrink, encode_shrink({4, 0})));
  ShrinkAck ack;
  ASSERT_TRUE(decode_shrink_ack(&ack, ctx_.take(kTagShrinkAck).payload));
  EXPECT_EQ(ack.honored_end_frame, 0);
  const std::vector<int> frames = drain_continuations();
  EXPECT_TRUE(frames.empty());
  // The worker still asks for more work, but the empty task is not a
  // completion.
  ctx_.take(kTagRequest, 0);
  EXPECT_EQ(worker_.report().tasks_completed, 0);
  EXPECT_EQ(worker_.report().tasks_shrunk_away, 1);
  EXPECT_EQ(worker_.report().frames_rendered, 0);
}

// Property: shrinking the task's end to the worker's exact progress at every
// possible frame boundary always accounts the task exactly once — completed
// when the worker rendered through its (post-shrink) end inside the render
// loop, shrunk-away when a shrink emptied the remainder first.
TEST_F(WorkerProtocol, ShrinkAtEveryFrameBoundaryAccountsTaskExactlyOnce) {
  const int total = 5;
  for (int boundary = 0; boundary <= total; ++boundary) {
    SCOPED_TRACE("boundary " + std::to_string(boundary));
    RenderWorker worker(scene_, WorkerConfig{});
    RecordingContext ctx(1, 2);
    worker.on_message(
        ctx, msg_from(0, kTagTask,
                      encode_task({boundary, {0, 0, 32, 24}, 0, total})));
    // Render exactly `boundary` frames.
    int rendered = 0;
    for (int i = 0; i < boundary; ++i) {
      ctx.take(kTagContinue);
      worker.on_message(ctx, msg_from(1, kTagContinue));
      while (ctx.has(kTagFrameResult)) {
        ctx.take(kTagFrameResult);
        ++rendered;
      }
    }
    ASSERT_EQ(rendered, boundary);
    // Shrink to the worker's exact progress.
    worker.on_message(ctx, msg_from(0, kTagShrink,
                                    encode_shrink({boundary, boundary})));
    ShrinkAck ack;
    ASSERT_TRUE(decode_shrink_ack(&ack, ctx.take(kTagShrinkAck).payload));
    if (boundary == total) {
      // The task completed inside the render loop before the shrink landed.
      EXPECT_EQ(ack.honored_end_frame, -1);
    } else {
      EXPECT_EQ(ack.honored_end_frame, boundary);
    }
    // Drain whatever continuation is still pending: no further frame may
    // render past the boundary.
    while (ctx.has(kTagContinue)) {
      ctx.take(kTagContinue);
      worker.on_message(ctx, msg_from(1, kTagContinue));
      EXPECT_FALSE(ctx.has(kTagFrameResult));
    }
    ctx.take(kTagRequest, 0);
    EXPECT_FALSE(ctx.has(kTagRequest));  // exactly one
    EXPECT_EQ(worker.report().frames_rendered, boundary);
    EXPECT_EQ(worker.report().tasks_completed, boundary == total ? 1 : 0);
    EXPECT_EQ(worker.report().tasks_shrunk_away, boundary == total ? 0 : 1);
  }
}

// ---------------------------------------------------------------- master --

class MasterProtocol : public ::testing::Test {
 protected:
  MasterProtocol() : scene_(orbit_scene(2, 6, 32, 24)) {}

  std::unique_ptr<RenderMaster> make_master(PartitionScheme scheme,
                                            bool adaptive = true,
                                            int min_split = 2) {
    MasterConfig config;
    config.partition.scheme = scheme;
    config.partition.block_size = 16;
    config.partition.adaptive = adaptive;
    config.partition.min_split_frames = min_split;
    config.metrics = &metrics_;
    return std::make_unique<RenderMaster>(scene_, config);
  }

  /// A counter the master keeps in the registry it was handed.
  std::uint64_t count(const std::string& series) const {
    return metrics_.snapshot().counter(series);
  }

  /// Worker-side render of a task frame, to produce a valid FrameResult.
  std::string render_result(const RenderTask& task, int frame,
                            Framebuffer* fb) {
    CoherenceOptions options;
    options.enabled = false;
    CoherentRenderer renderer(scene_, task.region, options);
    renderer.render_frame(frame, fb);
    FrameResult result;
    result.task_id = task.task_id;
    result.frame = frame;
    result.rays = 10;
    result.payload = make_dense_payload(*fb, task.region);
    return encode_frame_result(result);
  }

  AnimatedScene scene_;
  MetricsRegistry metrics_;
};

TEST_F(MasterProtocol, AssignsTasksOnHello) {
  auto master = make_master(PartitionScheme::kSequenceDivision);
  RecordingContext ctx(0, 3);
  master->on_start(ctx);
  master->on_message(ctx, msg_from(1, kTagHello));
  RenderTask t1;
  ASSERT_TRUE(decode_task(&t1, ctx.take(kTagTask, 1).payload));
  master->on_message(ctx, msg_from(2, kTagHello));
  RenderTask t2;
  ASSERT_TRUE(decode_task(&t2, ctx.take(kTagTask, 2).payload));
  // Sequence division across 2 workers: 3 frames each.
  EXPECT_EQ(t1.frame_count + t2.frame_count, 6);
  EXPECT_EQ(t2.first_frame, t1.end_frame());
}

TEST_F(MasterProtocol, CompletesAndStops) {
  auto master = make_master(PartitionScheme::kSequenceDivision, false);
  RecordingContext ctx(0, 2);
  master->on_start(ctx);
  master->on_message(ctx, msg_from(1, kTagHello));
  RenderTask task;
  ASSERT_TRUE(decode_task(&task, ctx.take(kTagTask, 1).payload));
  Framebuffer fb(32, 24);
  for (int f = task.first_frame; f < task.end_frame(); ++f) {
    master->on_message(ctx, msg_from(1, kTagFrameResult,
                                     render_result(task, f, &fb)));
  }
  EXPECT_TRUE(ctx.stopped);
  EXPECT_TRUE(ctx.has(kTagStop));
  EXPECT_EQ(count("master.frames_completed"),
            static_cast<std::uint64_t>(scene_.frame_count()));
  // Frames assembled correctly.
  const Framebuffer ref =
      render_world(scene_.world_at(3), 32, 24, CoherenceOptions{}.trace);
  ASSERT_NE(master->assembler(), nullptr);
  EXPECT_EQ(master->assembler()->frames()[3], ref);
}

TEST_F(MasterProtocol, AdaptiveSplitHandshake) {
  auto master = make_master(PartitionScheme::kSequenceDivision, true, 2);
  RecordingContext ctx(0, 3);
  master->on_start(ctx);
  master->on_message(ctx, msg_from(1, kTagHello));
  RenderTask t1;
  ASSERT_TRUE(decode_task(&t1, ctx.take(kTagTask, 1).payload));
  master->on_message(ctx, msg_from(2, kTagHello));
  RenderTask t2;
  ASSERT_TRUE(decode_task(&t2, ctx.take(kTagTask, 2).payload));

  // Worker 1 finishes everything; worker 2 reports nothing yet.
  Framebuffer fb(32, 24);
  for (int f = t1.first_frame; f < t1.end_frame(); ++f) {
    master->on_message(ctx, msg_from(1, kTagFrameResult,
                                     render_result(t1, f, &fb)));
  }
  master->on_message(ctx, msg_from(1, kTagRequest));
  // No pending tasks: the master must try to shrink worker 2.
  ShrinkRequest shrink;
  ASSERT_TRUE(decode_shrink(&shrink, ctx.take(kTagShrink, 2).payload));
  EXPECT_EQ(shrink.task_id, t2.task_id);
  EXPECT_LT(shrink.new_end_frame, t2.end_frame());

  // Worker 2 honors the split; master assigns the stolen range to worker 1.
  master->on_message(
      ctx, msg_from(2, kTagShrinkAck,
                    encode_shrink_ack({t2.task_id, shrink.new_end_frame})));
  RenderTask stolen;
  ASSERT_TRUE(decode_task(&stolen, ctx.take(kTagTask, 1).payload));
  EXPECT_EQ(stolen.first_frame, shrink.new_end_frame);
  EXPECT_EQ(stolen.end_frame(), t2.end_frame());
  EXPECT_EQ(count("master.adaptive_splits"), 1u);

  // Both workers finish their ranges; master stops.
  for (int f = t2.first_frame; f < shrink.new_end_frame; ++f) {
    master->on_message(ctx, msg_from(2, kTagFrameResult,
                                     render_result(t2, f, &fb)));
  }
  for (int f = stolen.first_frame; f < stolen.end_frame(); ++f) {
    master->on_message(ctx, msg_from(1, kTagFrameResult,
                                     render_result(stolen, f, &fb)));
  }
  EXPECT_TRUE(ctx.stopped);
}

TEST_F(MasterProtocol, NackedSplitLeavesWorkerIdle) {
  auto master = make_master(PartitionScheme::kSequenceDivision, true, 2);
  RecordingContext ctx(0, 3);
  master->on_start(ctx);
  master->on_message(ctx, msg_from(1, kTagHello));
  RenderTask t1;
  ASSERT_TRUE(decode_task(&t1, ctx.take(kTagTask, 1).payload));
  master->on_message(ctx, msg_from(2, kTagHello));
  RenderTask t2;
  ASSERT_TRUE(decode_task(&t2, ctx.take(kTagTask, 2).payload));

  Framebuffer fb(32, 24);
  for (int f = t1.first_frame; f < t1.end_frame(); ++f) {
    master->on_message(ctx, msg_from(1, kTagFrameResult,
                                     render_result(t1, f, &fb)));
  }
  master->on_message(ctx, msg_from(1, kTagRequest));
  ctx.take(kTagShrink, 2);
  // Worker 2 already finished (race): nack.
  master->on_message(ctx, msg_from(2, kTagShrinkAck,
                                   encode_shrink_ack({t2.task_id, -1})));
  EXPECT_FALSE(ctx.has(kTagTask));  // nothing to assign
  EXPECT_EQ(count("master.adaptive_splits"), 0u);
  // Worker 2's results arrive and complete the animation.
  for (int f = t2.first_frame; f < t2.end_frame(); ++f) {
    master->on_message(ctx, msg_from(2, kTagFrameResult,
                                     render_result(t2, f, &fb)));
  }
  master->on_message(ctx, msg_from(2, kTagRequest));
  EXPECT_TRUE(ctx.stopped);
}

// Failure injection: malformed payloads and unknown tags must be dropped and
// counted (net.malformed_messages), not crash the process or corrupt
// protocol state — in every build, asserts on.
TEST_F(MasterProtocol, MalformedPayloadsAreIgnored) {
  auto master = make_master(PartitionScheme::kSequenceDivision, false);
  RecordingContext ctx(0, 2);
  master->on_start(ctx);
  master->on_message(ctx, msg_from(1, kTagHello));
  RenderTask task;
  ASSERT_TRUE(decode_task(&task, ctx.take(kTagTask, 1).payload));

  // Garbage frame results, shrink acks, NACKs and digests, a digest for a
  // frame outside the animation, and a tag the master does not handle:
  // dropped.
  master->on_message(ctx, msg_from(1, kTagFrameResult, "not a frame"));
  master->on_message(ctx, msg_from(1, kTagShrinkAck, "zzz"));
  master->on_message(ctx, msg_from(1, kTagTaskNack, "z"));
  master->on_message(ctx, msg_from(1, kTagCommitDigest, "no digest"));
  CommitDigest far;
  far.worker = 1;
  far.task_id = task.task_id;
  far.frame = 1000;
  master->on_message(ctx,
                     msg_from(1, kTagCommitDigest, encode_commit_digest(far)));
  master->on_message(ctx, msg_from(1, 9999, "?"));
  EXPECT_FALSE(ctx.stopped);
  EXPECT_EQ(count("master.frame_results"), 0u);
  EXPECT_EQ(count("net.malformed_messages"), 5u);
  EXPECT_EQ(count("net.malformed_messages.tag" +
                  std::to_string(kTagCommitDigest)),
            2u);

  // The protocol still completes normally afterwards.
  Framebuffer fb(32, 24);
  for (int f = task.first_frame; f < task.end_frame(); ++f) {
    master->on_message(ctx, msg_from(1, kTagFrameResult,
                                     render_result(task, f, &fb)));
  }
  EXPECT_TRUE(ctx.stopped);
}

TEST_F(WorkerProtocol, MalformedTaskAndShrinkAreIgnored) {
  worker_.on_message(ctx_, msg_from(0, kTagTask, "garbage"));
  EXPECT_FALSE(ctx_.has(kTagContinue));  // no task started
  // A valid task still works after the garbage.
  const std::vector<int> frames = run_task({1, {0, 0, 32, 24}, 0, 2});
  EXPECT_EQ(frames, (std::vector<int>{0, 1}));
  // Garbage shrink and an unknown tag are dropped without an answer.
  ctx_.sent.clear();
  worker_.on_message(ctx_, msg_from(0, kTagShrink, "junk"));
  worker_.on_message(ctx_, msg_from(0, 9999, "?"));
  EXPECT_TRUE(ctx_.sent.empty());
  const MetricsSnapshot snap = metrics_.snapshot();
  EXPECT_EQ(snap.counter("net.malformed_messages"), 3u);
  EXPECT_EQ(snap.counter("net.malformed_messages.tag" + std::to_string(kTagTask)),
            1u);
  EXPECT_EQ(
      snap.counter("net.malformed_messages.tag" + std::to_string(kTagShrink)),
      1u);
}

TEST_F(MasterProtocol, TaskNackRequeuesImmediately) {
  auto master = make_master(PartitionScheme::kSequenceDivision, false);
  RecordingContext ctx(0, 3);
  master->on_start(ctx);
  master->on_message(ctx, msg_from(1, kTagHello));
  RenderTask t1;
  ASSERT_TRUE(decode_task(&t1, ctx.take(kTagTask, 1).payload));
  master->on_message(ctx, msg_from(2, kTagHello));
  RenderTask t2;
  ASSERT_TRUE(decode_task(&t2, ctx.take(kTagTask, 2).payload));

  // Worker 1 refuses t1 (its state says it is busy with something else):
  // the task is requeued immediately, no lease timeout involved.
  master->on_message(ctx, msg_from(1, kTagTaskNack,
                                   encode_task_nack({t1.task_id})));
  EXPECT_EQ(count("recovery.tasks_nacked"), 1u);
  EXPECT_FALSE(ctx.has(kTagTask));  // no idle worker to take it yet
  // A stale duplicate refusal is ignored (the slot is already freed).
  master->on_message(ctx, msg_from(1, kTagTaskNack,
                                   encode_task_nack({t1.task_id})));
  EXPECT_EQ(count("recovery.tasks_nacked"), 1u);

  // Worker 2 finishes its own range and asks for more: it must receive the
  // refused task verbatim — same id, same range, no restart accounting.
  Framebuffer fb(32, 24);
  for (int f = t2.first_frame; f < t2.end_frame(); ++f) {
    master->on_message(ctx, msg_from(2, kTagFrameResult,
                                     render_result(t2, f, &fb)));
  }
  master->on_message(ctx, msg_from(2, kTagRequest));
  RenderTask requeued;
  ASSERT_TRUE(decode_task(&requeued, ctx.take(kTagTask, 2).payload));
  EXPECT_EQ(requeued.task_id, t1.task_id);
  EXPECT_EQ(requeued.first_frame, t1.first_frame);
  EXPECT_EQ(requeued.frame_count, t1.frame_count);
  EXPECT_EQ(count("recovery.tasks_reassigned"), 0u);

  for (int f = requeued.first_frame; f < requeued.end_frame(); ++f) {
    master->on_message(ctx, msg_from(2, kTagFrameResult,
                                     render_result(requeued, f, &fb)));
  }
  master->on_message(ctx, msg_from(2, kTagRequest));
  EXPECT_TRUE(ctx.stopped);
}

TEST_F(MasterProtocol, StaticModeNeverShrinks) {
  auto master = make_master(PartitionScheme::kSequenceDivision, false);
  RecordingContext ctx(0, 3);
  master->on_start(ctx);
  master->on_message(ctx, msg_from(1, kTagHello));
  ctx.take(kTagTask, 1);
  master->on_message(ctx, msg_from(2, kTagHello));
  ctx.take(kTagTask, 2);
  master->on_message(ctx, msg_from(1, kTagRequest));
  EXPECT_FALSE(ctx.has(kTagShrink));
}

/// Every integer value of `"key": N` in a JSON document, in order.
std::vector<std::int64_t> json_ints(const std::string& doc,
                                    const std::string& key) {
  std::vector<std::int64_t> out;
  const std::string needle = "\"" + key + "\": ";
  for (std::size_t at = doc.find(needle); at != std::string::npos;
       at = doc.find(needle, at + 1)) {
    out.push_back(std::stoll(doc.substr(at + needle.size())));
  }
  return out;
}

TEST_F(MasterProtocol, ServiceStatusCountsTasksQueuedOnShots) {
  // Service mode queues work per shot: /status's pending_tasks must count
  // every shot's queue, matching the per-shot queued_tasks it reports.
  StatusBoard board;
  MasterConfig config;
  config.partition.scheme = PartitionScheme::kFrameDivision;
  config.partition.block_size = 16;  // 32x24 → 4 tiles
  config.partition.adaptive = false;
  config.service.enabled = true;
  config.service.client_count = 1;
  config.sample_interval_seconds = 1.0;
  config.status = &board;
  RenderMaster master(scene_, config);
  const int client = 3;  // master 0, workers 1-2, client 3
  RecordingContext ctx(0, 4);
  master.on_start(ctx);

  std::int64_t peak = 0;
  const auto tick = [&] {
    master.on_message(ctx, msg_from(0, kTagSampleTick));
    const std::string doc = board.latest();
    const std::vector<std::int64_t> pending = json_ints(doc, "pending_tasks");
    ASSERT_EQ(pending.size(), 1u) << doc;
    std::int64_t queued = 0;
    for (const std::int64_t q : json_ints(doc, "queued_tasks")) queued += q;
    EXPECT_EQ(pending[0], queued) << doc;
    peak = std::max(peak, pending[0]);
  };
  tick();
  ShotSubmit sub;
  sub.tenant = "acme";
  sub.frame_count = scene_.frame_count();
  master.on_message(ctx, msg_from(client, kTagShotSubmit,
                                  encode_shot_submit(sub)));
  tick();
  EXPECT_EQ(peak, 4);
  master.on_message(ctx, msg_from(1, kTagHello));
  ctx.take(kTagTask, 1);
  tick();
  master.on_message(ctx, msg_from(2, kTagHello));
  ctx.take(kTagTask, 2);
  tick();
  EXPECT_NE(board.latest().find("\"pending_tasks\": 2"), std::string::npos)
      << board.latest();
}

}  // namespace
}  // namespace now
