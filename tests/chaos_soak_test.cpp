// The chaos-soak harness and the single-death survival gates: seeded random
// fault schedules (kills, drops, duplicates, reorders, delays, slowdowns)
// composed across every rank class must leave the rendered animation
// byte-identical to a fault-free run; a killed framebuffer shard must be
// detected, rolled back, and rebuilt from its journal segment; a killed
// scheduler must restart from its checkpoint via --resume. Every failure
// message carries the resolved fault schedule and the seed that generated
// it, so any red iteration can be replayed exactly:
//   render_farm_cli --chaos-seed <seed> ...
#include "src/fault/chaos.h"

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "src/ckpt/journal.h"
#include "src/ckpt/recovery.h"
#include "src/par/protocol.h"
#include "src/par/render_farm.h"
#include "src/par/serial.h"
#include "src/scene/builtin_scenes.h"
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

// -- ChaosRng / make_chaos_plan ---------------------------------------------

TEST(ChaosPlan, SameSeedSamePlanDifferentSeedsDiffer) {
  ChaosConfig config;
  config.seed = 42;
  config.worker_count = 3;
  config.shard_count = 2;
  config.journaled = true;
  config.result_tag = kTagFrameResult;
  const std::string a = describe_fault_plan(make_chaos_plan(config));
  const std::string b = describe_fault_plan(make_chaos_plan(config));
  EXPECT_EQ(a, b) << "a seed must name exactly one schedule";

  // Adjacent seeds decorrelate: across a small window, at least one
  // schedule differs from seed 42's.
  bool any_different = false;
  for (std::uint64_t s = 43; s < 48; ++s) {
    ChaosConfig other = config;
    other.seed = s;
    if (describe_fault_plan(make_chaos_plan(other)) != a) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

TEST(ChaosPlan, EveryGeneratedPlanIsLegal) {
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    ChaosConfig config;
    config.seed = seed;
    config.worker_count = 1 + static_cast<int>(seed % 4);
    config.shard_count = static_cast<int>(seed % 3);  // 0/1 unsharded, 2 sharded
    config.journaled = (seed % 2) == 0;
    config.sim = (seed % 5) != 0;
    config.result_tag = kTagFrameResult;
    const FaultPlan plan = make_chaos_plan(config);

    const bool sharded = config.shard_count > 1;
    const int world = 1 + config.worker_count +
                      (sharded ? config.shard_count : 0);
    ASSERT_NO_THROW(validate_fault_plan(plan, world))
        << "seed " << seed << "\n" << describe_fault_plan(plan);

    std::set<int> crashed_ranks;
    for (const FaultEvent& e : plan.events) {
      if (e.kind == FaultKind::kCrash) {
        EXPECT_TRUE(crashed_ranks.insert(e.rank).second)
            << "seed " << seed << ": two crashes on rank " << e.rank;
        EXPECT_NE(e.rank, 0) << "seed " << seed
                             << ": the generator must never kill rank 0";
        if (e.rank > config.worker_count) {
          EXPECT_TRUE(config.journaled)
              << "seed " << seed << ": shard kill without a journal";
        }
        EXPECT_TRUE(plan.rank_rejoins(e.rank))
            << "seed " << seed << ": crash without a paired rejoin";
      }
      if (e.kind == FaultKind::kSlowdown) {
        EXPECT_TRUE(config.sim)
            << "seed " << seed << ": slowdown generated for a non-sim run";
      }
      if (e.kind == FaultKind::kDropMessage ||
          e.kind == FaultKind::kDuplicateMessage ||
          e.kind == FaultKind::kReorderMessage) {
        EXPECT_EQ(e.tag, kTagFrameResult) << "seed " << seed;
      }
    }
  }
}

// -- The soak itself ---------------------------------------------------------

const AnimatedScene& soak_scene() {
  static const AnimatedScene scene = orbit_scene(3, 12, 48, 36);
  return scene;
}

const std::vector<Framebuffer>& soak_reference() {
  static const std::vector<Framebuffer> ref =
      reference_frames(soak_scene(), FarmConfig().coherence.trace);
  return ref;
}

FarmConfig soak_config(int shards) {
  FarmConfig config;
  config.backend = FarmBackend::kSim;
  config.worker_speeds = {1.0, 1.0, 1.0};
  config.partition.scheme = PartitionScheme::kSequenceDivision;
  config.partition.adaptive = true;
  config.partition.min_split_frames = 2;
  config.shards = shards;
  config.fault.enabled = true;
  config.fault.lease_base_seconds = 8.0;
  config.fault.lease_per_frame_seconds = 4.0;
  config.fault.ping_grace_seconds = 3.0;
  return config;
}

/// One soak iteration: expand the seed, render under the schedule, demand
/// byte-identity. The failure message is the replay recipe (satellite
/// requirement: every red iteration prints its schedule and seed).
void run_soak_seed(std::uint64_t seed, int shards) {
  ChaosConfig chaos;
  chaos.seed = seed;
  chaos.worker_count = 3;
  chaos.shard_count = shards;
  chaos.journaled = shards > 1;
  chaos.sim = true;
  chaos.result_tag = kTagFrameResult;
  const FaultPlan plan = make_chaos_plan(chaos);
  SCOPED_TRACE("chaos seed " + std::to_string(seed) +
               " (replay: render_farm_cli --chaos-seed " +
               std::to_string(seed) + ")\n" + describe_fault_plan(plan));

  FarmConfig config = soak_config(shards);
  config.fault_plan = plan;
  if (shards > 1) {
    const std::string dir = test_tmp_subdir("chaos_soak");
    config.output_dir = dir;
    config.output_prefix = "frame";
    config.journal_path = dir + "/render.journal";
    config.journal_fsync = false;
    config.journal_checkpoint_every = 2;
  }
  const FarmResult result = render_farm(soak_scene(), config);
  ASSERT_EQ(result.master.frames_completed + result.master.frames_restored,
            soak_scene().frame_count());
  expect_frames_equal(result.frames, soak_reference(),
                      "seed " + std::to_string(seed));
}

TEST(ChaosSoak, UnshardedSeedsAreByteIdentical) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) run_soak_seed(seed, 1);
}

TEST(ChaosSoak, ShardedJournaledSeedsAreByteIdentical) {
  for (std::uint64_t seed = 11; seed <= 20; ++seed) run_soak_seed(seed, 2);
}

TEST(ChaosSoak, ChaosRunReplaysBitIdentically) {
  ChaosConfig chaos;
  chaos.seed = 7;
  chaos.worker_count = 3;
  chaos.shard_count = 1;
  chaos.result_tag = kTagFrameResult;
  FarmConfig config = soak_config(1);
  config.fault_plan = make_chaos_plan(chaos);

  const FarmResult a = render_farm(soak_scene(), config);
  const FarmResult b = render_farm(soak_scene(), config);
  EXPECT_EQ(a.elapsed_seconds, b.elapsed_seconds);
  EXPECT_EQ(a.runtime.messages, b.runtime.messages);
  EXPECT_EQ(a.runtime.bytes, b.runtime.bytes);
  EXPECT_EQ(a.faults.deaths_detected, b.faults.deaths_detected);
  EXPECT_EQ(a.faults.shards_failed, b.faults.shards_failed);
  expect_frames_equal(a.frames, b.frames, "chaos-replay");
}

// -- Shard failover ----------------------------------------------------------

FarmConfig shard_failover_config(const std::string& dir) {
  FarmConfig config = soak_config(2);
  config.output_dir = dir;
  config.output_prefix = "frame";
  config.journal_path = dir + "/render.journal";
  config.journal_fsync = false;
  config.journal_checkpoint_every = 2;
  return config;
}

std::int64_t total_rebuilds(const FarmResult& result) {
  std::int64_t n = 0;
  for (const ShardReport& s : result.shards) n += s.rebuilds;
  return n;
}

TEST(ShardFailover, KilledShardIsDetectedRolledBackAndRebuilt) {
  // Workers are ranks 1..3, shards 4..5. Kill shard rank 4 after its second
  // digest — mid-way through its owned range — and bring the replacement up
  // only after the liveness lease has declared the death (lease 8s + grace
  // 3s < 20s), so the detect → rollback → hold → rebuild → re-dispatch path
  // runs end to end.
  const std::string dir = test_tmp_subdir("shard_failover");
  FarmConfig config = shard_failover_config(dir);
  config.fault_plan.events.push_back(FaultPlan::crash_after_frames(4, 2));
  config.fault_plan.events.push_back(FaultPlan::rejoin_after_crash(4, 20.0));

  const FarmResult result = render_farm(soak_scene(), config);
  EXPECT_EQ(result.faults.shards_failed, 1);
  EXPECT_EQ(result.faults.shards_rejoined, 1);
  EXPECT_GE(result.faults.shard_commits_rolled_back, 0);
  EXPECT_GE(total_rebuilds(result), 1);
  EXPECT_EQ(result.master.frames_completed, soak_scene().frame_count());
  expect_frames_equal(result.frames, soak_reference(), "shard-failover");
  EXPECT_EQ(result.metrics.counter("recovery.shards_failed"), 1u);
  EXPECT_EQ(result.metrics.counter("recovery.shards_rejoined"), 1u);
}

TEST(ShardFailover, RejoinBeforeDetectionStillRecovers) {
  // The shard restarts 1s after its crash — long before the lease (8s)
  // expires. Its Hello arrives while the scheduler still believes it alive;
  // the scheduler must roll the shard back anyway (its memory is gone) and
  // the run must stay byte-identical.
  const std::string dir = test_tmp_subdir("shard_fast_rejoin");
  FarmConfig config = shard_failover_config(dir);
  config.fault_plan.events.push_back(FaultPlan::crash_after_frames(5, 1));
  config.fault_plan.events.push_back(FaultPlan::rejoin_after_crash(5, 1.0));

  const FarmResult result = render_farm(soak_scene(), config);
  EXPECT_EQ(result.faults.shards_rejoined, 1);
  EXPECT_GE(total_rebuilds(result), 1);
  EXPECT_EQ(result.master.frames_completed, soak_scene().frame_count());
  expect_frames_equal(result.frames, soak_reference(), "fast-rejoin");
}

TEST(ShardFailover, FailoverAtEveryCommitBoundaryIsByteIdentical) {
  // Property sweep: kill the shard after its k-th committed digest for every
  // k that can fire mid-range. Each boundary exercises a different split of
  // durable (journaled, completed) versus rolled-back (re-rendered) frames.
  for (int k = 1; k <= 5; ++k) {
    SCOPED_TRACE("kill after digest " + std::to_string(k));
    const std::string dir = test_tmp_subdir("shard_boundary");
    FarmConfig config = shard_failover_config(dir);
    config.fault_plan.events.push_back(FaultPlan::crash_after_frames(4, k));
    config.fault_plan.events.push_back(FaultPlan::rejoin_after_crash(4, 20.0));

    const FarmResult result = render_farm(soak_scene(), config);
    EXPECT_GE(result.faults.shards_rejoined, 1);
    ASSERT_EQ(result.master.frames_completed, soak_scene().frame_count());
    expect_frames_equal(result.frames, soak_reference(),
                        "boundary k=" + std::to_string(k));
  }
}

TEST(ShardFailover, TcpKilledShardRebuildsAndCompletes) {
  // Real sockets: the killed shard's links are severed, the replacement
  // re-dials rank 0, rebuilds from its journal segment, and the farm
  // finishes byte-identical to the serial reference.
  const AnimatedScene scene = orbit_scene(2, 9, 40, 30);
  const std::string dir = test_tmp_subdir("tcp_shard_kill");
  FarmConfig config;
  config.backend = FarmBackend::kTcp;
  config.workers = 3;
  config.partition.scheme = PartitionScheme::kSequenceDivision;
  config.partition.adaptive = true;
  config.partition.min_split_frames = 2;
  config.shards = 2;
  config.output_dir = dir;
  config.output_prefix = "frame";
  config.journal_path = dir + "/render.journal";
  config.journal_fsync = false;
  config.journal_checkpoint_every = 2;
  config.fault.enabled = true;
  config.fault.lease_base_seconds = 0.4;
  config.fault.lease_per_frame_seconds = 0.05;
  config.fault.ping_grace_seconds = 0.25;
  // Shard ranks are 4..5; the rejoin lands whichever side of detection the
  // scheduler happens to be on — both paths must converge.
  config.fault_plan.events.push_back(FaultPlan::crash_after_frames(4, 1));
  config.fault_plan.events.push_back(FaultPlan::rejoin_after_crash(4, 0.5));

  const FarmResult result = render_farm(scene, config);
  EXPECT_GE(result.faults.shards_rejoined, 1);
  EXPECT_GE(total_rebuilds(result), 1);
  EXPECT_EQ(result.master.frames_completed, scene.frame_count());
  const auto ref = reference_frames(scene, config.coherence.trace);
  expect_frames_equal(result.frames, ref, "tcp-shard-kill");
}

// -- Scheduler checkpoint / restart ------------------------------------------

FarmConfig scheduler_journal_config(const std::string& dir) {
  FarmConfig config;
  config.backend = FarmBackend::kSim;
  config.worker_speeds = {1.0, 0.5, 1.5};
  config.partition.scheme = PartitionScheme::kSequenceDivision;
  config.partition.adaptive = true;
  config.partition.min_split_frames = 2;
  config.output_dir = dir;
  config.output_prefix = "frame";
  config.journal_path = dir + "/render.journal";
  config.journal_fsync = false;
  config.journal_checkpoint_every = 2;
  return config;
}

TEST(SchedulerRestart, KillAtAnyVirtualTimeThenResumeIsByteIdentical) {
  const AnimatedScene scene = orbit_scene(3, 6, 48, 36);
  const std::string base = test_tmp_subdir("sched_base");
  const FarmResult clean = render_farm(scene, scheduler_journal_config(base));
  ASSERT_EQ(clean.master.frames_completed, scene.frame_count());

  for (const double kill_time : {1.0, 3.0, 6.0, 12.0}) {
    SCOPED_TRACE("scheduler killed at t=" + std::to_string(kill_time));
    const std::string dir = test_tmp_subdir("sched_kill");
    FarmConfig config = scheduler_journal_config(dir);
    config.fault_plan.events.push_back(FaultPlan::crash_at(0, kill_time));
    const FarmResult partial = render_farm(scene, config);
    // Rank 0 is dead: the run ends with whatever reached disk. The journal
    // prefix plus frame files are exactly what a restart has to work with.
    ASSERT_LE(partial.master.frames_completed, scene.frame_count());

    FarmConfig restart = scheduler_journal_config(dir);
    restart.resume = true;
    const FarmResult result = render_farm(scene, restart);
    ASSERT_TRUE(result.resume.resumed);
    EXPECT_EQ(result.master.frames_completed + result.resume.frames_restored,
              scene.frame_count());
    expect_frames_equal(result.frames, clean.frames,
                        "kill@" + std::to_string(kill_time));
    for (int f = 0; f < scene.frame_count(); ++f) {
      EXPECT_EQ(read_file(frame_file_path(dir, "frame", f)),
                read_file(frame_file_path(base, "frame", f)))
          << "frame " << f;
    }
  }
}

TEST(SchedulerRestart, ResumeRestoresFromEveryCheckpointInterval) {
  // Sweep the checkpoint cadence, cut the journal at every record boundary,
  // and restart: whenever the surviving prefix holds a checkpoint the
  // scheduler must restore from it (flag reported) — and the result must be
  // byte-identical either way.
  const AnimatedScene scene = orbit_scene(3, 6, 48, 36);
  for (const int interval : {1, 3}) {
    const std::string base = test_tmp_subdir("ckpt_int_base");
    FarmConfig base_config = scheduler_journal_config(base);
    base_config.journal_checkpoint_every = interval;
    const FarmResult clean = render_farm(scene, base_config);
    ASSERT_EQ(clean.master.frames_completed, scene.frame_count());

    const std::string journal_bytes = read_file(base_config.journal_path);
    const JournalReplay full = replay_journal(base_config.journal_path);
    ASSERT_TRUE(full.ok) << full.error;

    // Every third record boundary keeps the sweep quick while still
    // crossing several checkpoint intervals.
    for (std::size_t i = 0; i < full.record_offsets.size(); i += 3) {
      const std::size_t cut = full.record_offsets[i];
      SCOPED_TRACE("interval " + std::to_string(interval) + " cut@" +
                   std::to_string(cut));
      const std::string dir = test_tmp_subdir("ckpt_int_cut");
      write_file(dir + "/render.journal", journal_bytes.substr(0, cut));
      for (int f = 0; f < scene.frame_count(); ++f) {
        write_file(frame_file_path(dir, "frame", f),
                   read_file(frame_file_path(base, "frame", f)));
      }
      // Snapshot what the surviving prefix holds before the resume run
      // re-opens and extends the file.
      const JournalReplay prefix = replay_journal(dir + "/render.journal");
      ASSERT_TRUE(prefix.ok) << prefix.error;
      const bool prefix_has_checkpoint = prefix.last_checkpoint.has_value();

      FarmConfig config = scheduler_journal_config(dir);
      config.journal_checkpoint_every = interval;
      config.resume = true;
      const FarmResult result = render_farm(scene, config);
      ASSERT_TRUE(result.resume.resumed);
      EXPECT_EQ(result.resume.scheduler_checkpoint, prefix_has_checkpoint);
      expect_frames_equal(result.frames, clean.frames, "restore");
    }
  }
}

}  // namespace
}  // namespace now
