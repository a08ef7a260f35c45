// The sharded framebuffer subsystem, end to end: the ownership map's
// arithmetic, the digest wire record, the FrameAssembler commit core, and
// the standing gate of the whole
// design — a --shards N run produces byte-identical frames to the classic
// single-master run on every backend, including under worker crashes,
// rejoins, speculation, and crash-consistent resume from every shard
// journal-segment boundary.
#include "src/shard/shard.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/ckpt/journal.h"
#include "src/ckpt/recovery.h"
#include "src/image/image_io.h"
#include "src/image/pixel_codec.h"
#include "src/par/protocol.h"
#include "src/par/render_farm.h"
#include "src/par/serial.h"
#include "src/scene/builtin_scenes.h"
#include "src/shard/digest.h"
#include "src/shard/ownership.h"
#include "tests/test_tmp.h"

namespace now {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(f),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary);
  f << bytes;
}

void expect_frames_equal(const std::vector<Framebuffer>& got,
                         const std::vector<Framebuffer>& want,
                         const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t f = 0; f < got.size(); ++f) {
    ASSERT_EQ(got[f], want[f]) << label << " frame " << f;
  }
}

std::vector<Framebuffer> reference_frames(const AnimatedScene& scene,
                                          const TraceOptions& trace) {
  std::vector<Framebuffer> out;
  for (int f = 0; f < scene.frame_count(); ++f) {
    out.push_back(
        render_world(scene.world_at(f), scene.width(), scene.height(), trace));
  }
  return out;
}

// -- ShardMap ---------------------------------------------------------------

TEST(ShardMap, RangesTileTheAnimationContiguously) {
  for (const int frames : {1, 5, 6, 7, 24, 100}) {
    for (int shards = 1; shards <= std::min(frames, 9); ++shards) {
      ShardMap map;
      map.shard_count = shards;
      map.worker_count = 4;
      map.frame_count = frames;
      int next = 0;
      for (int s = 0; s < shards; ++s) {
        const auto [first, end] = map.range_of(s);
        EXPECT_EQ(first, next) << frames << "/" << shards << " shard " << s;
        EXPECT_GT(end, first);
        // Balanced-contiguous: sizes differ by at most one frame.
        EXPECT_LE(end - first, frames / shards + 1);
        EXPECT_GE(end - first, frames / shards);
        for (int f = first; f < end; ++f) {
          EXPECT_EQ(map.shard_of(f), s);
          EXPECT_EQ(map.owner_rank(f),
                    map.sharded() ? 1 + map.worker_count + s : 0);
        }
        next = end;
      }
      EXPECT_EQ(next, frames);
    }
  }
}

TEST(ShardMap, UnshardedMapIsTheClassicMaster) {
  ShardMap map;
  map.worker_count = 3;
  map.frame_count = 24;
  EXPECT_FALSE(map.sharded());
  EXPECT_EQ(map.world_size(), 4);
  for (int f = 0; f < map.frame_count; ++f) {
    EXPECT_EQ(map.owner_rank(f), 0);
    EXPECT_FALSE(map.key_frame_boundary(f));
  }
}

TEST(ShardMap, KeyFrameBoundariesAreExactlyTheRangeStarts) {
  ShardMap map;
  map.shard_count = 3;
  map.worker_count = 2;
  map.frame_count = 10;
  EXPECT_EQ(map.world_size(), 1 + 2 + 3);
  for (int f = 0; f < map.frame_count; ++f) {
    const bool is_range_start =
        f > 0 && map.range_of(map.shard_of(f)).first == f;
    EXPECT_EQ(map.key_frame_boundary(f), is_range_start) << "frame " << f;
  }
}

// -- CommitDigest codec -----------------------------------------------------

TEST(CommitDigest, RoundTripsEveryKind) {
  for (const CommitKind kind :
       {CommitKind::kFresh, CommitKind::kDuplicate, CommitKind::kStale,
        CommitKind::kChainReject, CommitKind::kDecodeFail}) {
    CommitDigest d;
    d.worker = 3;
    d.task_id = 17;
    d.frame = 41;
    d.rect = PixelRect{4, 8, 32, 16};
    d.kind = kind;
    d.full_render = 1;
    d.rays = 123456789ull;
    d.shadow_rays = 987654321ull;
    d.pixels_recomputed = 512;
    d.compute_seconds = 0.125;
    CommitDigest out;
    ASSERT_TRUE(decode_commit_digest(&out, encode_commit_digest(d)));
    EXPECT_EQ(out.worker, d.worker);
    EXPECT_EQ(out.task_id, d.task_id);
    EXPECT_EQ(out.frame, d.frame);
    EXPECT_EQ(out.rect, d.rect);
    EXPECT_EQ(out.kind, d.kind);
    EXPECT_EQ(out.full_render, d.full_render);
    EXPECT_EQ(out.rays, d.rays);
    EXPECT_EQ(out.shadow_rays, d.shadow_rays);
    EXPECT_EQ(out.pixels_recomputed, d.pixels_recomputed);
    EXPECT_EQ(out.compute_seconds, d.compute_seconds);
  }
}

TEST(CommitDigest, RectKeyRoundTripsEveryRect) {
  // The scheduler rolls a dead shard's mirror back into render tasks by
  // inverting the commit-gate key, so the packing must be lossless for any
  // rect a partition can produce (16-bit lanes).
  for (const PixelRect rect :
       {PixelRect{0, 0, 1, 1}, PixelRect{4, 8, 32, 16},
        PixelRect{65535, 65535, 65535, 65535}, PixelRect{640, 480, 17, 3}}) {
    const PixelRect back = rect_from_key(rect_key(rect));
    EXPECT_EQ(back, rect);
  }
}

TEST(CommitDigest, RejectsTruncatedAndGarbagePayloads) {
  CommitDigest d;
  d.kind = CommitKind::kFresh;
  const std::string good = encode_commit_digest(d);
  CommitDigest out;
  for (std::size_t cut = 0; cut < good.size(); ++cut) {
    EXPECT_FALSE(decode_commit_digest(&out, good.substr(0, cut)));
  }
  EXPECT_FALSE(decode_commit_digest(&out, std::string(good.size(), '\xee')));
  // An out-of-range kind byte is structural corruption, not a new state.
  CommitDigest probe = d;
  probe.kind = static_cast<CommitKind>(200);
  EXPECT_FALSE(decode_commit_digest(&out, encode_commit_digest(probe)));
}

// -- FrameAssembler: the one commit path ------------------------------------

std::string encoded_result(std::int32_t task, std::int32_t frame,
                           const PixelRect& rect, bool dense, Rgb8 color) {
  FrameResult r;
  r.task_id = task;
  r.frame = frame;
  if (dense) {
    r.payload = make_dense_payload(Framebuffer(8, 4, color), rect);
  } else {
    r.payload.rect = rect;  // sparse, nothing recomputed
    r.payload.dense = false;
  }
  return encode_frame_result(r);
}

TEST(FrameAssembler, ChainsGateAndCompletesOwnedFrames) {
  // Shard 0 owns frames [2, 5) of an 8x4 animation tiled by two 4x4
  // regions.
  MetricsRegistry metrics;
  FrameSink sink(FrameSinkConfig{});
  FrameAssembler a(2, 5, 8, 4, &sink, 7, &metrics, 0);
  const auto count = [&metrics](const std::string& series) {
    return metrics.snapshot().counter("shard.0." + series);
  };
  const PixelRect left{0, 0, 4, 4};
  const PixelRect right{4, 0, 4, 4};
  const Rgb8 red{200, 0, 0};
  const Rgb8 blue{0, 0, 200};
  const auto kind = [&](std::int32_t task, std::int32_t frame,
                        const PixelRect& rect, bool dense, Rgb8 color) {
    return a.commit(1, encoded_result(task, frame, rect, dense, color))
        .digest.kind;
  };

  EXPECT_EQ(kind(1, 2, left, true, red), CommitKind::kFresh);
  EXPECT_EQ(kind(1, 2, left, true, red), CommitKind::kStale);
  // Sparse, nothing recomputed: the region carries over from frame 2.
  EXPECT_EQ(kind(1, 3, left, false, blue), CommitKind::kFresh);
  // A second copy of the same region-frame (speculation) hits the gate.
  EXPECT_EQ(kind(2, 3, left, true, blue), CommitKind::kDuplicate);
  const FrameAssembler::Commit done =
      a.commit(1, encoded_result(3, 2, right, true, blue));
  EXPECT_EQ(done.digest.kind, CommitKind::kFresh);
  EXPECT_TRUE(done.frame_completed);
  EXPECT_EQ(a.frames()[0].at(0, 0), red);
  EXPECT_EQ(a.frames()[0].at(7, 3), blue);
  EXPECT_EQ(a.frames()[1].at(0, 0), red);

  // A gap breaks the chain for good.
  EXPECT_EQ(kind(3, 4, right, true, blue), CommitKind::kChainReject);
  EXPECT_EQ(kind(3, 3, right, true, blue), CommitKind::kChainReject);
  // A lost key frame is a gap too; only a sparse first result at the first
  // owned frame is also corruption.
  EXPECT_EQ(kind(4, 3, right, false, blue), CommitKind::kChainReject);
  EXPECT_EQ(count("decode_failures"), 0u);
  EXPECT_EQ(kind(5, 2, right, false, blue), CommitKind::kChainReject);
  EXPECT_EQ(count("decode_failures"), 1u);
  // Frames outside the owned range and garbage never touch the buffers.
  EXPECT_EQ(kind(6, 5, right, true, blue), CommitKind::kDecodeFail);
  EXPECT_EQ(a.commit(1, "junk").digest.kind, CommitKind::kDecodeFail);
  // A task the owner wrote off applies nothing more.
  a.reject_task(7);
  EXPECT_EQ(kind(7, 3, right, true, blue), CommitKind::kChainReject);
  EXPECT_EQ(kind(8, 3, right, true, blue), CommitKind::kFresh);

  EXPECT_EQ(count("frame_results"), 11u);
  EXPECT_EQ(count("frames_committed"), 4u);
  EXPECT_EQ(count("frames_completed"), 2u);
  EXPECT_EQ(count("duplicates"), 1u);
  EXPECT_EQ(count("stale_results"), 1u);
  EXPECT_EQ(count("chain_rejects"), 5u);
  EXPECT_EQ(count("decode_failures"), 3u);
  const MetricsSnapshot m = metrics.snapshot();
  EXPECT_EQ(m.counter("endpoint.7.frame_decode_failures"), 3u);
  EXPECT_EQ(m.counter("net.frame_decode_failures"), 3u);
  EXPECT_EQ(m.counter("endpoint.7.frame_bytes"), count("frame_bytes"));
}

// -- End-to-end identity: the standing gate ---------------------------------

FarmConfig shard_config(FarmBackend backend, int shards) {
  FarmConfig config;
  config.backend = backend;
  config.workers = 3;
  if (backend == FarmBackend::kSim) {
    config.worker_speeds = {1.0, 0.5, 1.5};  // heterogeneous, deterministic
  }
  config.partition.scheme = PartitionScheme::kSequenceDivision;
  config.partition.adaptive = true;
  config.partition.min_split_frames = 2;
  config.shards = shards;
  return config;
}

TEST(ShardFarm, SimShardCountsAreByteIdenticalToSingleMaster) {
  const AnimatedScene scene = orbit_scene(3, 12, 48, 36);
  const FarmResult single = render_farm(scene, shard_config(FarmBackend::kSim, 1));
  ASSERT_EQ(single.master.frames_completed, scene.frame_count());
  ASSERT_TRUE(single.shards.empty());

  for (const int shards : {2, 3, 4, 8}) {
    const FarmResult result =
        render_farm(scene, shard_config(FarmBackend::kSim, shards));
    expect_frames_equal(result.frames, single.frames,
                        "sim shards=" + std::to_string(shards));
    ASSERT_EQ(static_cast<int>(result.shards.size()), shards);
    // Every owned frame completed at its shard, none anywhere else.
    std::int64_t completed = 0;
    for (const ShardReport& s : result.shards) {
      completed += s.frames_completed;
      EXPECT_EQ(s.decode_failures, 0);
      EXPECT_EQ(s.chain_rejects, 0);
    }
    EXPECT_EQ(completed, scene.frame_count());
    EXPECT_EQ(result.master.frames_completed, scene.frame_count());
  }
}

TEST(ShardFarm, WarmHybridTasksAreByteIdentical) {
  // Hybrid queues several subsequence tasks per tile, and a worker is given
  // its held tile again: most tasks start warm. Their dense first frames and
  // the boundary key frames keep every shard's chains intact.
  const AnimatedScene scene = orbit_scene(3, 12, 48, 36);
  FarmConfig config = shard_config(FarmBackend::kSim, 2);
  config.partition.scheme = PartitionScheme::kHybrid;
  config.partition.block_size = 24;
  config.partition.hybrid_frames = 4;  // the boundary, frame 6, is inside
  config.partition.adaptive = false;   // a task; no split adds tasks
  const FarmResult result = render_farm(scene, config);
  expect_frames_equal(result.frames,
                      reference_frames(scene, config.coherence.trace),
                      "hybrid shards=2");
  for (const ShardReport& s : result.shards) {
    EXPECT_EQ(s.decode_failures, 0);
    EXPECT_EQ(s.chain_rejects, 0);
  }
  // One key frame per task (4 tiles x 3 subsequences) plus one per tile at
  // the boundary, and a full render only where a worker takes a tile it
  // does not hold.
  EXPECT_EQ(result.metrics.counter("net.key_frames"), 12u + 4u);
  EXPECT_LT(result.master.full_renders, 12);
}

TEST(ShardFarm, SchedulerSeesDigestsNotPixels) {
  const AnimatedScene scene = orbit_scene(3, 12, 48, 36);
  const FarmResult result =
      render_farm(scene, shard_config(FarmBackend::kSim, 3));
  // The bottleneck the subsystem removes: zero frame-payload bytes at the
  // scheduler endpoint; every pixel landed on a shard endpoint instead.
  EXPECT_EQ(result.metrics.counter("endpoint.0.frame_bytes"), 0u);
  EXPECT_GT(result.metrics.counter("endpoint.0.digest_bytes"), 0u);
  std::uint64_t shard_frame_bytes = 0;
  const ShardMap map{3, 3, scene.frame_count()};
  for (int s = 0; s < 3; ++s) {
    const std::string name = "endpoint." +
                             std::to_string(map.rank_of_shard(s)) +
                             ".frame_bytes";
    shard_frame_bytes += result.metrics.counter(name);
  }
  EXPECT_GT(shard_frame_bytes, 0u);
  EXPECT_EQ(result.metrics.counter("net.frame_decode_failures"), 0u);
}

TEST(ShardFarm, ThreadsShardsAreByteIdentical) {
  const AnimatedScene scene = orbit_scene(2, 9, 40, 30);
  const FarmResult result =
      render_farm(scene, shard_config(FarmBackend::kThreads, 2));
  EXPECT_EQ(result.master.frames_completed, scene.frame_count());
  const auto ref = reference_frames(scene, FarmConfig().coherence.trace);
  expect_frames_equal(result.frames, ref, "threads shards=2");
}

TEST(ShardFarm, TcpShardsAreByteIdentical) {
  const AnimatedScene scene = orbit_scene(2, 9, 40, 30);
  const FarmResult result =
      render_farm(scene, shard_config(FarmBackend::kTcp, 2));
  EXPECT_EQ(result.master.frames_completed, scene.frame_count());
  const auto ref = reference_frames(scene, FarmConfig().coherence.trace);
  expect_frames_equal(result.frames, ref, "tcp shards=2");
}

TEST(ShardFarm, ShardCountAboveFrameCountIsRejected) {
  const AnimatedScene scene = orbit_scene(2, 6, 40, 30);
  FarmConfig config = shard_config(FarmBackend::kSim, scene.frame_count() + 1);
  EXPECT_THROW(validate_farm_config(scene, config), std::invalid_argument);
  config.shards = 0;
  EXPECT_THROW(validate_farm_config(scene, config), std::invalid_argument);
}

TEST(ShardFarm, DroppedMessagesWithShardsRequireTheDetector) {
  // A result lost between worker and shard is invisible to the scheduler
  // until a lease expires; without the detector the run would hang.
  const AnimatedScene scene = orbit_scene(2, 6, 40, 30);
  FarmConfig config = shard_config(FarmBackend::kSim, 2);
  config.fault_plan.events.push_back(
      FaultPlan::drop_nth(1, 1, kTagFrameResult));
  EXPECT_THROW(validate_farm_config(scene, config), std::invalid_argument);
  config.fault.enabled = true;
  EXPECT_NO_THROW(validate_farm_config(scene, config));
}

// -- Faults against the sharded topology ------------------------------------

FarmConfig sim_shard_fault_config(int shards) {
  FarmConfig config = shard_config(FarmBackend::kSim, shards);
  config.worker_speeds = {1.0, 1.0, 1.0};
  config.fault.enabled = true;
  config.fault.lease_base_seconds = 8.0;
  config.fault.lease_per_frame_seconds = 4.0;
  config.fault.ping_grace_seconds = 3.0;
  return config;
}

TEST(ShardFault, WorkerDeathMidCommitIsRecoveredPixelExact) {
  // The crash fires immediately after the worker's second frame-result send
  // — mid-way through committing its task to the owning shard. The shard
  // keeps the committed prefix; the reassigned remainder restarts dense.
  const AnimatedScene scene = orbit_scene(3, 12, 48, 36);
  FarmConfig config = sim_shard_fault_config(2);
  config.fault_plan.events.push_back(FaultPlan::crash_after_frames(1, 2));

  const FarmResult result = render_farm(scene, config);
  EXPECT_EQ(result.faults.deaths_detected, 1);
  EXPECT_GE(result.faults.tasks_reassigned, 1);
  EXPECT_EQ(result.master.frames_completed, scene.frame_count());
  const auto ref = reference_frames(scene, config.coherence.trace);
  expect_frames_equal(result.frames, ref, "shard-death");
}

TEST(ShardFault, DroppedResultIsReclaimedPixelExact) {
  const AnimatedScene scene = orbit_scene(3, 12, 48, 36);
  FarmConfig config = sim_shard_fault_config(2);
  config.fault_plan.events.push_back(
      FaultPlan::drop_nth(1, 2, kTagFrameResult));

  const FarmResult result = render_farm(scene, config);
  EXPECT_EQ(result.master.frames_completed, scene.frame_count());
  const auto ref = reference_frames(scene, config.coherence.trace);
  expect_frames_equal(result.frames, ref, "shard-drop");
}

TEST(ShardFault, LostKeyFrameIsAGapNotADecodeFailure) {
  // Dropping worker 1's first result loses its task's dense key frame, so
  // the next result reaches its owner sparse with no chain started. That is
  // a lost message, like any other gap: the task is reclaimed, and no owner
  // — colocated at shards == 1 or a shard rank — counts a decode failure.
  const AnimatedScene scene = orbit_scene(3, 12, 48, 36);
  const auto ref = reference_frames(scene, FarmConfig().coherence.trace);
  for (const int shards : {1, 2}) {
    const std::string label = "shards=" + std::to_string(shards);
    FarmConfig config = sim_shard_fault_config(shards);
    config.fault_plan.events.push_back(
        FaultPlan::drop_nth(1, 1, kTagFrameResult));
    const FarmResult result = render_farm(scene, config);
    expect_frames_equal(result.frames, ref, label);
    EXPECT_EQ(result.faults.tasks_reassigned, 1) << label;
    EXPECT_EQ(result.metrics.counter("net.frame_decode_failures"), 0u)
        << label;
    std::int64_t chain_rejects = 0;
    for (const ShardReport& s : result.shards) {
      EXPECT_EQ(s.decode_failures, 0) << label;
      chain_rejects += s.chain_rejects;
    }
    if (shards > 1) {
      EXPECT_GE(chain_rejects, 1) << label;
    }
  }
}

TEST(ShardFault, CrashedWorkerRejoinsAndStaysPixelExact) {
  // No detector and no adaptive stealing: the dead rank's range stays its
  // own, so the run can only complete through the rejoin path — completion
  // itself proves the revived worker re-rendered its range onto the shards.
  const AnimatedScene scene = orbit_scene(3, 12, 48, 36);
  FarmConfig config = shard_config(FarmBackend::kSim, 2);
  config.worker_speeds = {1.0, 1.0, 1.0};
  config.partition.adaptive = false;
  config.fault_plan.events.push_back(FaultPlan::crash_at(1, 2.0));
  config.fault_plan.events.push_back(FaultPlan::rejoin_at(1, 50.0));

  const FarmResult result = render_farm(scene, config);
  EXPECT_EQ(result.metrics.counter("fault.crashes"), 1u);
  EXPECT_EQ(result.metrics.counter("fault.rejoins"), 1u);
  EXPECT_EQ(result.master.frames_completed, scene.frame_count());
  const auto ref = reference_frames(scene, config.coherence.trace);
  expect_frames_equal(result.frames, ref, "shard-rejoin");
}

TEST(ShardFault, SpeculationStaysPixelExact) {
  const AnimatedScene scene = orbit_scene(3, 12, 48, 36);
  FarmConfig config = shard_config(FarmBackend::kSim, 2);
  config.worker_speeds = {1.0, 1.0, 0.2};  // one straggler: the end-game
  config.partition.adaptive = false;
  config.speculation = true;

  const FarmResult result = render_farm(scene, config);
  EXPECT_GE(result.faults.speculations_launched, 1);
  EXPECT_EQ(result.master.frames_completed, scene.frame_count());
  const auto ref = reference_frames(scene, config.coherence.trace);
  expect_frames_equal(result.frames, ref, "shard-speculation");
}

TEST(ShardFault, TcpWorkerCrashSeversMeshSocketsAndIsSurvived) {
  const AnimatedScene scene = orbit_scene(2, 9, 40, 30);
  FarmConfig config = shard_config(FarmBackend::kTcp, 2);
  config.fault.enabled = true;
  config.fault.lease_base_seconds = 0.4;
  config.fault.lease_per_frame_seconds = 0.05;
  config.fault.ping_grace_seconds = 0.25;
  // Rank 1 must still owe work when it dies after its first result, even
  // if its thread starts late: messages into the survivors during the
  // first 0.25 s arrive 0.25 s late, so neither can finish its task and
  // take or steal rank 1's first (as in fault_test's crash tests).
  for (const int rank : {2, 3}) {
    config.fault_plan.events.push_back(
        FaultPlan::delay_window(rank, 0.0, 0.25, 0.25));
  }
  config.fault_plan.events.push_back(FaultPlan::crash_after_frames(1, 1));

  const FarmResult result = render_farm(scene, config);
  EXPECT_EQ(result.faults.deaths_detected, 1);
  EXPECT_EQ(result.master.frames_completed, scene.frame_count());
  const auto ref = reference_frames(scene, config.coherence.trace);
  expect_frames_equal(result.frames, ref, "tcp-shard-crash");
}

// -- Crash-consistent sharded resume ----------------------------------------

FarmConfig shard_journal_config(const std::string& dir, int shards) {
  FarmConfig config = shard_config(FarmBackend::kSim, shards);
  config.output_dir = dir;
  config.output_prefix = "frame";
  config.journal_path = dir + "/render.journal";
  config.journal_fsync = false;        // replay logic under test, not disks
  config.journal_checkpoint_every = 2; // force checkpoint records into play
  return config;
}

TEST(ShardResume, ByteIdenticalFromEverySegmentBoundary) {
  const AnimatedScene scene = orbit_scene(3, 6, 48, 36);
  const int kShards = 2;
  const std::string base = test_tmp_subdir("shard_resume_base");
  const FarmConfig base_config = shard_journal_config(base, kShards);
  const FarmResult clean = render_farm(scene, base_config);
  ASSERT_EQ(clean.master.frames_completed, scene.frame_count());

  const std::string sched_bytes = read_file(base_config.journal_path);
  std::vector<std::string> seg_bytes(kShards);
  std::vector<JournalReplay> seg_replay(kShards);
  for (int s = 0; s < kShards; ++s) {
    const std::string path = shard_journal_path(base_config.journal_path, s);
    seg_bytes[s] = read_file(path);
    seg_replay[s] = replay_journal(path);
    ASSERT_TRUE(seg_replay[s].ok) << seg_replay[s].error;
    ASSERT_EQ(seg_replay[s].header.shard_count, kShards);
    ASSERT_EQ(seg_replay[s].header.shard_index, s);
    ASSERT_GE(seg_replay[s].record_offsets.size(), 2u);
  }

  // A crash leaves each shard's segment cut at an arbitrary record boundary
  // (or torn mid-record). Cut one segment at every boundary while the other
  // survives whole — the frame files present are a conservative superset of
  // what any segment prefix declares complete.
  for (int victim = 0; victim < kShards; ++victim) {
    std::vector<std::size_t> cuts(seg_replay[victim].record_offsets);
    cuts.push_back(seg_replay[victim].record_offsets[0] + 7);  // torn tail
    for (const std::size_t cut : cuts) {
      ASSERT_LE(cut, seg_bytes[victim].size());
      const std::string dir = test_tmp_subdir("shard_resume_cut");
      FarmConfig config = shard_journal_config(dir, kShards);
      write_file(config.journal_path, sched_bytes);
      for (int s = 0; s < kShards; ++s) {
        write_file(shard_journal_path(config.journal_path, s),
                   s == victim ? seg_bytes[s].substr(0, cut) : seg_bytes[s]);
      }
      for (int f = 0; f < scene.frame_count(); ++f) {
        write_file(frame_file_path(dir, "frame", f),
                   read_file(frame_file_path(base, "frame", f)));
      }

      config.resume = true;
      const FarmResult result = render_farm(scene, config);
      const std::string label = "shard" + std::to_string(victim) + "@cut" +
                                std::to_string(cut);
      ASSERT_TRUE(result.resume.resumed) << label;
      std::int64_t restored = 0;
      std::int64_t completed = 0;
      for (const ShardReport& s : result.shards) {
        restored += s.frames_restored;
        completed += s.frames_completed;
      }
      EXPECT_EQ(restored, result.resume.frames_restored) << label;
      // Restored and re-rendered frames partition the animation exactly, on
      // both the scheduler's ledger and the shards' own counters.
      EXPECT_EQ(restored + result.master.frames_completed,
                scene.frame_count())
          << label;
      EXPECT_EQ(restored + completed, scene.frame_count()) << label;
      expect_frames_equal(result.frames, clean.frames, label);
      for (int f = 0; f < scene.frame_count(); ++f) {
        EXPECT_EQ(read_file(frame_file_path(dir, "frame", f)),
                  read_file(frame_file_path(base, "frame", f)))
            << label << " frame " << f;
      }
      // Every segment is whole again after the resumed run.
      for (int s = 0; s < kShards; ++s) {
        const JournalReplay after =
            replay_journal(shard_journal_path(config.journal_path, s));
        ASSERT_TRUE(after.ok) << label << " " << after.error;
        EXPECT_FALSE(after.truncated_tail) << label;
        const auto [first, end] = ShardMap{kShards, 3, scene.frame_count()}
                                      .range_of(s);
        for (int f = first; f < end; ++f) {
          EXPECT_TRUE(after.frame_complete[f]) << label << " frame " << f;
        }
      }
    }
  }
}

// Start offset and type byte of every valid record of a journal file.
std::vector<std::pair<std::size_t, JournalRecordType>> journal_records(
    const std::string& bytes, const JournalReplay& replay) {
  std::vector<std::pair<std::size_t, JournalRecordType>> out;
  std::size_t start = 0;
  for (const std::size_t end : replay.record_offsets) {
    out.emplace_back(start, static_cast<JournalRecordType>(bytes[start + 4]));
    start = end;
  }
  return out;
}

bool syncs_on_append(JournalRecordType type) {
  return type != JournalRecordType::kRegionCommit;
}

TEST(ShardFarm, JournalSyncsCountsEveryPromiseAndNoRegionCommit) {
  const AnimatedScene scene = orbit_scene(3, 6, 48, 36);
  for (const int shards : {1, 2}) {
    const std::string label = "shards " + std::to_string(shards);
    for (const bool fsync : {true, false}) {
      const std::string dir = test_tmp_subdir("shard_journal_syncs");
      FarmConfig config = shard_journal_config(dir, shards);
      config.journal_fsync = fsync;
      const FarmResult result = render_farm(scene, config);
      ASSERT_EQ(result.master.frames_completed, scene.frame_count()) << label;
      // Header, frame-complete and checkpoint records each made one sync,
      // in the scheduler journal and in every shard segment alike.
      std::vector<std::string> paths = {config.journal_path};
      if (shards > 1) {
        for (int s = 0; s < shards; ++s) {
          paths.push_back(shard_journal_path(config.journal_path, s));
        }
      }
      std::uint64_t promises = 0;
      std::uint64_t region_commits = 0;
      for (const std::string& path : paths) {
        const std::string bytes = read_file(path);
        for (const auto& [start, type] :
             journal_records(bytes, replay_journal(path))) {
          if (syncs_on_append(type)) {
            ++promises;
          } else {
            ++region_commits;
          }
        }
      }
      EXPECT_GT(region_commits, 0u) << label;
      ASSERT_EQ(result.metrics.counters.count("journal.syncs"), 1u) << label;
      EXPECT_EQ(result.metrics.counter("journal.syncs"), fsync ? promises : 0)
          << label << (fsync ? " fsync" : " no fsync");
    }
    // Without a journal the counter is not registered at all.
    FarmConfig plain = shard_config(FarmBackend::kSim, shards);
    const FarmResult result = render_farm(scene, plain);
    EXPECT_EQ(result.metrics.counters.count("journal.syncs"), 0u) << label;
  }
}

TEST(ShardResume, UnsyncedRegionCommitTailCutAtEveryPointIsByteIdentical) {
  // Group commit makes a shard segment durable only through its last synced
  // record (header or frame-complete); a power loss may keep any prefix of
  // the region commits written after it. The scheduler journal, synced at
  // each checkpoint, may already count the digests those commits answered
  // for, so it is left whole. Only the frame files the cut segment still
  // declares complete are on disk. Every cut point of every such tail must
  // resume to the clean run's bytes: a frame whose coverage falls short
  // re-renders wholesale.
  const AnimatedScene scene = orbit_scene(3, 6, 48, 36);
  const int kShards = 2;
  const std::string base = test_tmp_subdir("shard_tail_base");
  FarmConfig base_config = shard_journal_config(base, kShards);
  base_config.journal_fsync = true;
  const FarmResult clean = render_farm(scene, base_config);
  ASSERT_EQ(clean.master.frames_completed, scene.frame_count());
  const std::string sched_bytes = read_file(base_config.journal_path);

  int cuts_tried = 0;
  for (int victim = 0; victim < kShards; ++victim) {
    const std::string path =
        shard_journal_path(base_config.journal_path, victim);
    const std::string seg = read_file(path);
    const JournalReplay full = replay_journal(path);
    ASSERT_TRUE(full.ok) << full.error;
    const auto records = journal_records(seg, full);
    // Cut points: after the last synced record, after each region commit
    // that follows it, and torn inside each of those region commits.
    std::vector<std::size_t> cuts;
    for (std::size_t i = 0; i < records.size(); ++i) {
      if (syncs_on_append(records[i].second)) {
        cuts.push_back(full.record_offsets[i]);
        continue;
      }
      cuts.push_back(records[i].first + 7);
      cuts.push_back(full.record_offsets[i]);
    }
    for (const std::size_t cut : cuts) {
      const std::string label =
          "shard" + std::to_string(victim) + "@cut" + std::to_string(cut);
      const std::string dir = test_tmp_subdir("shard_tail_cut");
      FarmConfig config = shard_journal_config(dir, kShards);
      config.journal_fsync = true;
      write_file(config.journal_path, sched_bytes);
      for (int s = 0; s < kShards; ++s) {
        write_file(shard_journal_path(config.journal_path, s),
                   s == victim ? seg.substr(0, cut)
                               : read_file(shard_journal_path(
                                     base_config.journal_path, s)));
      }
      const JournalReplay cut_replay =
          replay_journal(shard_journal_path(config.journal_path, victim));
      const auto [first, end] =
          ShardMap{kShards, 3, scene.frame_count()}.range_of(victim);
      for (int f = 0; f < scene.frame_count(); ++f) {
        const std::string file = frame_file_path(dir, "frame", f);
        const bool victim_frame = f >= first && f < end;
        if (victim_frame && !cut_replay.frame_complete[f]) {
          std::remove(file.c_str());
        } else {
          write_file(file, read_file(frame_file_path(base, "frame", f)));
        }
      }

      config.resume = true;
      const FarmResult result = render_farm(scene, config);
      ASSERT_TRUE(result.resume.resumed) << label;
      expect_frames_equal(result.frames, clean.frames, label);
      for (int f = 0; f < scene.frame_count(); ++f) {
        EXPECT_EQ(read_file(frame_file_path(dir, "frame", f)),
                  read_file(frame_file_path(base, "frame", f)))
            << label << " frame " << f;
      }
      const JournalReplay after =
          replay_journal(shard_journal_path(config.journal_path, victim));
      ASSERT_TRUE(after.ok) << label << " " << after.error;
      EXPECT_FALSE(after.truncated_tail) << label;
      for (int f = first; f < end; ++f) {
        EXPECT_TRUE(after.frame_complete[f]) << label << " frame " << f;
      }
      ++cuts_tried;
    }
  }
  EXPECT_GT(cuts_tried, 2 * kShards);
}

TEST(ShardResume, MissingSegmentRerendersItsRangeByteIdentically) {
  const AnimatedScene scene = orbit_scene(3, 6, 48, 36);
  const std::string base = test_tmp_subdir("shard_resume_lost_base");
  const FarmConfig base_config = shard_journal_config(base, 2);
  const FarmResult clean = render_farm(scene, base_config);

  const std::string dir = test_tmp_subdir("shard_resume_lost");
  FarmConfig config = shard_journal_config(dir, 2);
  write_file(config.journal_path, read_file(base_config.journal_path));
  // Segment 1 is gone entirely (lost disk): its range re-renders from
  // scratch while segment 0's restored frames are kept.
  write_file(shard_journal_path(config.journal_path, 0),
             read_file(shard_journal_path(base_config.journal_path, 0)));
  for (int f = 0; f < scene.frame_count(); ++f) {
    write_file(frame_file_path(dir, "frame", f),
               read_file(frame_file_path(base, "frame", f)));
  }

  config.resume = true;
  const FarmResult result = render_farm(scene, config);
  ASSERT_TRUE(result.resume.resumed);
  EXPECT_GT(result.shards[0].frames_restored, 0);
  EXPECT_EQ(result.shards[1].frames_restored, 0);
  EXPECT_GT(result.master.frames_completed, 0);
  expect_frames_equal(result.frames, clean.frames, "lost-segment");
}

TEST(ShardResume, ShardCountChangeOnResumeIsRejected) {
  const AnimatedScene scene = orbit_scene(3, 6, 48, 36);
  const std::string dir = test_tmp_subdir("shard_resume_mismatch");
  render_farm(scene, shard_journal_config(dir, 2));

  // 2 → 3, 2 → 1: both directions are hard errors naming the flag — a
  // silent remap would interleave two incompatible ownership layouts.
  for (const int new_count : {3, 1}) {
    FarmConfig config = shard_journal_config(dir, new_count);
    config.resume = true;
    try {
      render_farm(scene, config);
      FAIL() << "resume with shards=" << new_count
             << " over a shards=2 journal must throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--shards"), std::string::npos)
          << e.what();
    }
  }
}

TEST(ShardResume, SingleMasterJournalRejectsShardedResume) {
  const AnimatedScene scene = orbit_scene(3, 6, 48, 36);
  const std::string dir = test_tmp_subdir("shard_resume_up");
  render_farm(scene, shard_journal_config(dir, 1));

  FarmConfig config = shard_journal_config(dir, 2);
  config.resume = true;
  EXPECT_THROW(render_farm(scene, config), std::invalid_argument);
}

TEST(ShardFarm, SlowShardDoesNotReproposeADeclinedSplit) {
  // A static hold renders almost for free, while the slowed shard's digests
  // trail far behind: the scheduler's view of each worker's frontier lags
  // the frames it has actually rendered. A split the victim declines (it
  // has rendered its whole task) must not be proposed again on every
  // dispatch until the digests catch up.
  CradleParams params;
  params.frames = 60;
  params.width = 160;
  params.height = 120;
  params.amplitude_degrees = 0.0;
  const AnimatedScene scene = newton_cradle_scene(params);
  FarmConfig config;
  config.backend = FarmBackend::kSim;
  config.worker_speeds = {1.0, 1.0, 0.3};
  config.partition.scheme = PartitionScheme::kSequenceDivision;
  config.obs.trace = true;
  const FarmResult single = render_farm(scene, config);
  config.shards = 2;
  const int last_shard_rank = 3 + 2;
  config.fault_plan.events.push_back(
      FaultPlan::slowdown_window(last_shard_rank, 0.0, 1e9, 0.05));
  const FarmResult result = render_farm(scene, config);
  expect_frames_equal(result.frames, single.frames, "slow shard");

  std::int64_t proposed = 0;
  std::int64_t accepted = 0;
  for (const TraceEvent& e : result.trace_events) {
    if (std::string(e.name) == "task.shrink") ++proposed;
    if (std::string(e.name) == "task.split") ++accepted;
  }
  ASSERT_GT(accepted, 0);
  EXPECT_EQ(accepted, result.master.adaptive_splits);
  const std::int64_t declined = proposed - accepted;
  EXPECT_LE(declined, accepted);
  EXPECT_EQ(result.metrics.counter("sched.shrinks_declined"),
            static_cast<std::uint64_t>(declined));
}

TEST(ShardFarm, ParkedWorkerIsNeverAShrinkOrCloneVictim) {
  // The slowed shard's digests trail the workers, so a worker that has
  // rendered its whole task asks for more while the scheduler still counts
  // frames outstanding: its kTagRequest is parked. A shrink sent to it is
  // certain to be declined, and a clone of it re-renders frames already at
  // the shards, so neither end-game move may pick it.
  CradleParams params;
  params.frames = 60;
  params.width = 160;
  params.height = 120;
  params.amplitude_degrees = 0.0;
  const AnimatedScene scene = newton_cradle_scene(params);
  FarmConfig config;
  config.backend = FarmBackend::kSim;
  config.worker_speeds = {1.0, 1.0, 0.3};
  config.partition.scheme = PartitionScheme::kSequenceDivision;
  config.speculation = true;
  config.obs.trace = true;
  const FarmResult single = render_farm(scene, config);
  config.shards = 2;
  const int last_shard_rank = 3 + 2;
  config.fault_plan.events.push_back(
      FaultPlan::slowdown_window(last_shard_rank, 0.0, 1e9, 0.05));
  const FarmResult result = render_farm(scene, config);
  expect_frames_equal(result.frames, single.frames, "parked worker");

  // Replay the scheduler's view from its own trace: a worker whose request
  // arrived after its last assignment is idle or parked, never a victim.
  struct View {
    bool asked = false;
    std::int64_t first = 0;
    std::int64_t end = 0;
    std::set<std::int64_t> digested;
  };
  std::map<std::int64_t, View> workers;
  const auto arg = [](const TraceEvent& e, const char* key) {
    for (const TraceEvent::Arg& a : e.args) {
      if (std::string(a.key) == key) return a.value;
    }
    ADD_FAILURE() << e.name << " has no " << key;
    return std::int64_t{-1};
  };
  int parked = 0;
  int victims = 0;
  for (const TraceEvent& e : result.trace_events) {
    if (e.rank != 0) continue;
    const std::string name = e.name;
    if (name == "task.assign") {
      View& w = workers[arg(e, "worker")];
      w = View{};
      w.first = arg(e, "first_frame");
      w.end = w.first + arg(e, "frames");
    } else if (name == "task.split") {
      workers[arg(e, "victim")].end = arg(e, "first_frame");
    } else if (name == "frame.digest") {
      View& w = workers[arg(e, "worker")];
      const std::int64_t f = arg(e, "frame");
      if (f >= w.first && f < w.end) w.digested.insert(f);
    } else if (name == "net.recv" && arg(e, "tag") == kTagRequest) {
      View& w = workers[arg(e, "src")];
      w.asked = true;
      if (static_cast<std::int64_t>(w.digested.size()) < w.end - w.first) {
        ++parked;
      }
    } else if (name == "task.shrink" || name == "task.speculate") {
      ++victims;
      EXPECT_FALSE(workers[arg(e, "victim")].asked)
          << name << " at t=" << e.ts_seconds << " targets parked worker "
          << arg(e, "victim");
    }
  }
  ASSERT_GT(parked, 0);
  EXPECT_GT(victims, 0);
}

}  // namespace
}  // namespace now
