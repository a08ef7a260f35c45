// Fault injection and recovery: the FaultInjector's interpretation of a
// FaultPlan, and end-to-end farm runs that lose workers or messages yet
// still assemble a pixel-exact animation.
#include <gtest/gtest.h>

#include <stdexcept>

#include "src/fault/fault_injector.h"
#include "src/fault/fault_plan.h"
#include "src/par/render_farm.h"
#include "src/par/serial.h"
#include "src/scene/builtin_scenes.h"

namespace now {
namespace {

std::vector<Framebuffer> reference_frames(const AnimatedScene& scene,
                                          const TraceOptions& trace) {
  std::vector<Framebuffer> out;
  for (int f = 0; f < scene.frame_count(); ++f) {
    out.push_back(
        render_world(scene.world_at(f), scene.width(), scene.height(), trace));
  }
  return out;
}

void expect_frames_equal(const std::vector<Framebuffer>& got,
                         const std::vector<Framebuffer>& want,
                         const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t f = 0; f < got.size(); ++f) {
    ASSERT_EQ(got[f], want[f]) << label << " frame " << f;
  }
}

// -- FaultInjector unit tests ----------------------------------------------

TEST(FaultInjector, CrashAtTimeIsSticky) {
  FaultPlan plan;
  plan.events.push_back(FaultPlan::crash_at(1, 5.0));
  FaultInjector inj(plan, 3);
  EXPECT_FALSE(inj.crashed(1, 4.99));
  EXPECT_EQ(inj.crashes_triggered(), 0);
  EXPECT_TRUE(inj.crashed(1, 5.0));
  // Sticky even if asked about an earlier time afterwards.
  EXPECT_TRUE(inj.crashed(1, 0.0));
  EXPECT_FALSE(inj.crashed(2, 100.0));
  EXPECT_EQ(inj.crashes_triggered(), 1);
}

TEST(FaultInjector, CrashAfterFramesDeliversTheNthResult) {
  FaultPlan plan;
  plan.progress_tag = 5;
  plan.events.push_back(FaultPlan::crash_after_frames(1, 2));
  FaultInjector inj(plan, 3);

  // First result: alive before and after.
  EXPECT_FALSE(inj.crashed(1, 0.0));
  FaultInjector::SendFaults f = inj.on_send(1, 0, /*tag=*/5, 0.0);
  EXPECT_FALSE(f.drop);
  EXPECT_FALSE(inj.crashed(1, 1.0));

  // Second result: the send itself is not dropped (callers check crashed()
  // *before* on_send), but the rank is dead immediately after.
  f = inj.on_send(1, 0, /*tag=*/5, 1.0);
  EXPECT_FALSE(f.drop);
  EXPECT_TRUE(inj.crashed(1, 1.0));
  EXPECT_EQ(inj.crashes_triggered(), 1);

  // Non-progress tags never arm the trigger.
  FaultInjector inj2(plan, 3);
  for (int i = 0; i < 10; ++i) inj2.on_send(1, 0, /*tag=*/6, 0.0);
  EXPECT_FALSE(inj2.crashed(1, 100.0));
}

TEST(FaultInjector, DropAndDuplicateNthMatchingMessage) {
  FaultPlan plan;
  plan.events.push_back(FaultPlan::drop_nth(1, 2, /*tag=*/5));
  plan.events.push_back(FaultPlan::duplicate_nth(2, 1));
  FaultInjector inj(plan, 3);

  // Rank 1: tag filter means only tag-5 sends count.
  EXPECT_FALSE(inj.on_send(1, 0, 6, 0.0).drop);  // not counted
  EXPECT_FALSE(inj.on_send(1, 0, 5, 0.0).drop);  // 1st match
  EXPECT_TRUE(inj.on_send(1, 0, 5, 0.0).drop);   // 2nd match: dropped
  EXPECT_FALSE(inj.on_send(1, 0, 5, 0.0).drop);  // one-shot
  EXPECT_EQ(inj.messages_dropped(), 1);

  // Rank 2: any tag, first send duplicated.
  EXPECT_TRUE(inj.on_send(2, 0, 9, 0.0).duplicate);
  EXPECT_FALSE(inj.on_send(2, 0, 9, 0.0).duplicate);
  EXPECT_EQ(inj.messages_duplicated(), 1);
}

TEST(FaultInjector, DelayWindowAndSlowdownScale) {
  FaultPlan plan;
  plan.events.push_back(FaultPlan::delay_window(1, 2.0, 4.0, 0.5));
  plan.events.push_back(FaultPlan::slowdown_window(2, 0.0, 10.0, 0.25));
  FaultInjector inj(plan, 3);

  EXPECT_DOUBLE_EQ(inj.delivery_delay(1, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(inj.delivery_delay(1, 2.0), 0.5);
  EXPECT_DOUBLE_EQ(inj.delivery_delay(1, 3.99), 0.5);
  EXPECT_DOUBLE_EQ(inj.delivery_delay(1, 4.0), 0.0);
  EXPECT_DOUBLE_EQ(inj.delivery_delay(2, 3.0), 0.0);

  EXPECT_DOUBLE_EQ(inj.charge_scale(2, 5.0), 4.0);  // quarter speed
  EXPECT_DOUBLE_EQ(inj.charge_scale(2, 10.0), 1.0);
  EXPECT_DOUBLE_EQ(inj.charge_scale(1, 5.0), 1.0);
}

TEST(FaultInjector, ReorderHoldsTheNthMatchingMessage) {
  FaultPlan plan;
  plan.events.push_back(FaultPlan::reorder_nth(1, 2, /*tag=*/5));
  FaultInjector inj(plan, 3);

  EXPECT_FALSE(inj.on_send(1, 0, 5, 0.0).hold);  // 1st match passes
  const FaultInjector::SendFaults f = inj.on_send(1, 0, 5, 0.0);
  EXPECT_TRUE(f.hold);  // 2nd match parked
  EXPECT_FALSE(f.drop);
  EXPECT_FALSE(inj.on_send(1, 0, 5, 0.0).hold);  // one-shot
  EXPECT_EQ(inj.messages_reordered(), 1);
  EXPECT_EQ(inj.messages_dropped(), 0);
}

TEST(FaultPlan, ProgressTagRoutesByRankClass) {
  FaultPlan plan;
  plan.progress_tag = 5;
  plan.shard_progress_tag = 14;
  plan.scheduler_progress_tag = 2;
  plan.first_shard_rank = 4;  // workers 1..3, shards 4..
  EXPECT_EQ(plan.progress_tag_for(0), 2);
  EXPECT_EQ(plan.progress_tag_for(1), 5);
  EXPECT_EQ(plan.progress_tag_for(3), 5);
  EXPECT_EQ(plan.progress_tag_for(4), 14);
  EXPECT_EQ(plan.progress_tag_for(5), 14);

  // Unsharded: every non-zero rank is a worker.
  FaultPlan flat;
  flat.progress_tag = 5;
  EXPECT_EQ(flat.progress_tag_for(0), 5);
  EXPECT_EQ(flat.progress_tag_for(2), 5);
}

TEST(FaultPlan, DescribeListsEveryEventAndTheTagWiring) {
  FaultPlan plan;
  plan.progress_tag = 5;
  plan.events.push_back(FaultPlan::crash_after_frames(1, 2));
  plan.events.push_back(FaultPlan::rejoin_after_crash(1, 3.5));
  plan.events.push_back(FaultPlan::reorder_nth(2, 4, 5));
  const std::string text = describe_fault_plan(plan);
  EXPECT_NE(text.find("3 event(s)"), std::string::npos) << text;
  EXPECT_NE(text.find("crash rank 1 after 2 progress message(s)"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("rejoin rank 1 3.500s after its crash"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("reorder rank 2 message #4 (tag 5)"), std::string::npos)
      << text;
}

TEST(FaultPlan, ValidateRejectsMalformedEvents) {
  FaultPlan plan;
  plan.events.push_back(FaultPlan::crash_at(1, 5.0));
  EXPECT_NO_THROW(validate_fault_plan(plan, 3));

  plan.events[0].after_frames = 2;  // both triggers set
  EXPECT_THROW(validate_fault_plan(plan, 3), std::invalid_argument);

  plan.events[0] = FaultPlan::crash_at(0, 5.0);  // master cannot fault
  EXPECT_THROW(validate_fault_plan(plan, 3), std::invalid_argument);

  plan.events[0] = FaultPlan::drop_nth(1, 0);
  EXPECT_THROW(validate_fault_plan(plan, 3), std::invalid_argument);

  plan.events[0] = FaultPlan::delay_window(1, 3.0, 3.0, 0.5);
  EXPECT_THROW(validate_fault_plan(plan, 3), std::invalid_argument);

  plan.events[0] = FaultPlan::slowdown_window(1, 0.0, 1.0, 0.0);
  EXPECT_THROW(validate_fault_plan(plan, 3), std::invalid_argument);
}

TEST(FaultPlan, ValidateGatesSchedulerCrashesAndRejoinPairing) {
  // Rank 0 may crash only when the caller vouches for a restart path.
  FaultPlan plan;
  plan.events.push_back(FaultPlan::crash_at(0, 5.0));
  EXPECT_THROW(validate_fault_plan(plan, 3), std::invalid_argument);
  EXPECT_NO_THROW(
      validate_fault_plan(plan, 3, /*allow_scheduler_crash=*/true));

  // A rejoin needs exactly one crash on the same rank...
  FaultPlan orphan;
  orphan.events.push_back(FaultPlan::rejoin_at(1, 5.0));
  EXPECT_THROW(validate_fault_plan(orphan, 3), std::invalid_argument);

  // ...and a time-triggered rejoin must come after a time-triggered crash.
  FaultPlan early;
  early.events.push_back(FaultPlan::crash_at(1, 5.0));
  early.events.push_back(FaultPlan::rejoin_at(1, 4.0));
  EXPECT_THROW(validate_fault_plan(early, 3), std::invalid_argument);

  // Relative rejoins are ordered by construction, whatever the trigger.
  FaultPlan relative;
  relative.events.push_back(FaultPlan::crash_after_frames(1, 2));
  relative.events.push_back(FaultPlan::rejoin_after_crash(1, 1.0));
  EXPECT_NO_THROW(validate_fault_plan(relative, 3));
}

// -- End-to-end: simulated NOW ---------------------------------------------

FarmConfig sim_fault_config() {
  FarmConfig config;
  config.backend = FarmBackend::kSim;
  config.worker_speeds = {1.0, 1.0, 1.0};
  config.partition.scheme = PartitionScheme::kSequenceDivision;
  config.partition.adaptive = true;
  config.partition.min_split_frames = 2;
  config.fault.enabled = true;
  config.fault.lease_base_seconds = 8.0;
  config.fault.lease_per_frame_seconds = 4.0;
  config.fault.ping_grace_seconds = 3.0;
  return config;
}

TEST(FaultSim, WorkerDeathIsDetectedAndRecoveredPixelExact) {
  const AnimatedScene scene = orbit_scene(3, 12, 48, 36);
  FarmConfig config = sim_fault_config();
  config.fault_plan.events.push_back(FaultPlan::crash_after_frames(1, 2));

  const FarmResult result = render_farm(scene, config);
  EXPECT_EQ(result.metrics.counter("fault.crashes"), 1u);
  EXPECT_EQ(result.faults.deaths_detected, 1);
  EXPECT_GE(result.faults.pings_sent, 1);
  EXPECT_GE(result.faults.tasks_reassigned, 1);
  EXPECT_GT(result.faults.frames_reassigned, 0);
  EXPECT_GT(result.faults.detection_latency_seconds, 0.0);
  // The replacement's first frame is the restart price: warm here, since
  // every sequence-division region is the whole frame and the replacement
  // holds it, but never free.
  EXPECT_GT(result.faults.restart_work_seconds, 0.0);
  EXPECT_EQ(result.master.full_renders, 3);  // each worker's first task
  EXPECT_EQ(result.master.frames_completed, scene.frame_count());

  const auto ref = reference_frames(scene, config.coherence.trace);
  expect_frames_equal(result.frames, ref, "one-death");
}

TEST(FaultSim, CrashAtVirtualTimeAlsoRecovers) {
  const AnimatedScene scene = orbit_scene(3, 12, 48, 36);
  FarmConfig config = sim_fault_config();
  config.fault_plan.events.push_back(FaultPlan::crash_at(2, 6.0));

  const FarmResult result = render_farm(scene, config);
  EXPECT_EQ(result.faults.deaths_detected, 1);
  EXPECT_EQ(result.master.frames_completed, scene.frame_count());
  const auto ref = reference_frames(scene, config.coherence.trace);
  expect_frames_equal(result.frames, ref, "crash-at-time");
}

TEST(FaultSim, FaultedRunReplaysBitIdentically) {
  const AnimatedScene scene = orbit_scene(3, 12, 48, 36);
  FarmConfig config = sim_fault_config();
  config.fault_plan.events.push_back(FaultPlan::crash_after_frames(1, 2));
  config.fault_plan.events.push_back(
      FaultPlan::delay_window(2, 0.0, 5.0, 0.25));

  const FarmResult a = render_farm(scene, config);
  const FarmResult b = render_farm(scene, config);
  EXPECT_EQ(a.elapsed_seconds, b.elapsed_seconds);
  EXPECT_EQ(a.runtime.messages, b.runtime.messages);
  EXPECT_EQ(a.runtime.bytes, b.runtime.bytes);
  EXPECT_EQ(a.faults.deaths_detected, b.faults.deaths_detected);
  EXPECT_EQ(a.faults.pings_sent, b.faults.pings_sent);
  EXPECT_EQ(a.faults.tasks_reassigned, b.faults.tasks_reassigned);
  EXPECT_EQ(a.faults.detection_latency_seconds,
            b.faults.detection_latency_seconds);
  expect_frames_equal(a.frames, b.frames, "replay");
}

TEST(FaultSim, TwoDeathsStillCompleteOnTheSurvivor) {
  const AnimatedScene scene = orbit_scene(3, 12, 48, 36);
  FarmConfig config = sim_fault_config();
  config.fault_plan.events.push_back(FaultPlan::crash_after_frames(1, 2));
  config.fault_plan.events.push_back(FaultPlan::crash_after_frames(2, 3));

  const FarmResult result = render_farm(scene, config);
  EXPECT_EQ(result.faults.deaths_detected, 2);
  EXPECT_GE(result.faults.tasks_reassigned, 2);
  EXPECT_EQ(result.master.frames_completed, scene.frame_count());
  const auto ref = reference_frames(scene, config.coherence.trace);
  expect_frames_equal(result.frames, ref, "two-deaths");
}

TEST(FaultSim, AllWorkersDeadStopsWithPartialFrames) {
  const AnimatedScene scene = orbit_scene(3, 12, 48, 36);
  FarmConfig config = sim_fault_config();
  config.worker_speeds = {1.0, 1.0};
  config.fault_plan.events.push_back(FaultPlan::crash_after_frames(1, 1));
  config.fault_plan.events.push_back(FaultPlan::crash_after_frames(2, 1));

  // Must terminate (never blocks shutdown on a dead rank) with whatever
  // frames made it.
  const FarmResult result = render_farm(scene, config);
  EXPECT_EQ(result.faults.deaths_detected, 2);
  EXPECT_LT(result.master.frames_completed, scene.frame_count());
}

TEST(FaultSim, LostFrameResultIsReRendered) {
  const AnimatedScene scene = orbit_scene(3, 12, 48, 36);
  FarmConfig config = sim_fault_config();
  // Worker 1's second frame result vanishes: the gap is detected when the
  // third arrives, the remainder is written off and re-rendered.
  config.fault_plan.events.push_back(
      FaultPlan::drop_nth(1, 2, kTagFrameResult));

  const FarmResult result = render_farm(scene, config);
  EXPECT_EQ(result.metrics.counter("fault.messages_dropped"), 1u);
  EXPECT_EQ(result.faults.deaths_detected, 0);
  EXPECT_GE(result.faults.tasks_reassigned, 1);
  EXPECT_GT(result.faults.lost_work_seconds, 0.0);
  EXPECT_EQ(result.master.frames_completed, scene.frame_count());
  const auto ref = reference_frames(scene, config.coherence.trace);
  expect_frames_equal(result.frames, ref, "lost-result");
}

TEST(FaultSim, LostFinalFrameResultIsReclaimedAtTaskEnd) {
  const AnimatedScene scene = orbit_scene(3, 12, 48, 36);
  FarmConfig config = sim_fault_config();
  config.partition.adaptive = false;  // keep each task's frame range fixed
  // Sequence division, 3 workers, 12 frames: worker 1 renders frames 0-3,
  // and its 4th (final) result is dropped — no later result ever exposes
  // the gap, so the reclaim happens when its work request arrives.
  config.fault_plan.events.push_back(
      FaultPlan::drop_nth(1, 4, kTagFrameResult));

  const FarmResult result = render_farm(scene, config);
  EXPECT_EQ(result.metrics.counter("fault.messages_dropped"), 1u);
  EXPECT_GE(result.faults.tasks_reassigned, 1);
  EXPECT_EQ(result.master.frames_completed, scene.frame_count());
  const auto ref = reference_frames(scene, config.coherence.trace);
  expect_frames_equal(result.frames, ref, "lost-final-result");
}

TEST(FaultSim, ReorderedFrameResultIsAbsorbedPixelExact) {
  const AnimatedScene scene = orbit_scene(3, 12, 48, 36);
  FarmConfig config = sim_fault_config();
  // Worker 1's second result is held and delivered behind its third: the
  // master sees a gap, writes off the remainder, then discards the
  // out-of-order late arrival — and the reclaim restores every pixel.
  config.fault_plan.events.push_back(
      FaultPlan::reorder_nth(1, 2, kTagFrameResult));

  const FarmResult result = render_farm(scene, config);
  EXPECT_EQ(result.metrics.counter("fault.messages_reordered"), 1u);
  EXPECT_EQ(result.master.frames_completed, scene.frame_count());
  const auto ref = reference_frames(scene, config.coherence.trace);
  expect_frames_equal(result.frames, ref, "reorder");
}

TEST(FaultSim, ReorderedRunReplaysBitIdentically) {
  const AnimatedScene scene = orbit_scene(3, 12, 48, 36);
  FarmConfig config = sim_fault_config();
  config.fault_plan.events.push_back(
      FaultPlan::reorder_nth(1, 2, kTagFrameResult));
  config.fault_plan.events.push_back(
      FaultPlan::reorder_nth(2, 3, kTagFrameResult));

  const FarmResult a = render_farm(scene, config);
  const FarmResult b = render_farm(scene, config);
  EXPECT_EQ(a.elapsed_seconds, b.elapsed_seconds);
  EXPECT_EQ(a.runtime.messages, b.runtime.messages);
  EXPECT_EQ(a.runtime.bytes, b.runtime.bytes);
  expect_frames_equal(a.frames, b.frames, "reorder-replay");
}

TEST(FaultSim, DuplicatedFrameResultIsIgnoredExactlyOnce) {
  const AnimatedScene scene = orbit_scene(3, 12, 48, 36);
  FarmConfig config = sim_fault_config();
  config.fault_plan.events.push_back(
      FaultPlan::duplicate_nth(2, 1, kTagFrameResult));

  const FarmResult result = render_farm(scene, config);
  EXPECT_EQ(result.metrics.counter("fault.messages_duplicated"), 1u);
  EXPECT_GE(result.faults.results_ignored, 1);
  EXPECT_EQ(result.faults.deaths_detected, 0);
  EXPECT_EQ(result.master.frames_completed, scene.frame_count());
  const auto ref = reference_frames(scene, config.coherence.trace);
  expect_frames_equal(result.frames, ref, "duplicate-result");
}

TEST(FaultSim, SlowdownWindowStretchesVirtualTime) {
  const AnimatedScene scene = orbit_scene(3, 8, 48, 36);
  FarmConfig config;
  config.backend = FarmBackend::kSim;
  config.worker_speeds = {1.0, 1.0};
  config.partition.scheme = PartitionScheme::kFrameDivision;
  config.partition.block_size = 16;
  FarmConfig slowed = config;
  slowed.fault_plan.events.push_back(
      FaultPlan::slowdown_window(1, 0.0, 1e9, 0.5));

  const FarmResult fast = render_farm(scene, config);
  const FarmResult slow = render_farm(scene, slowed);
  EXPECT_GT(slow.elapsed_seconds, fast.elapsed_seconds);
  expect_frames_equal(slow.frames, fast.frames, "slowdown");
}

TEST(FaultSim, DelaySpikeIntoAWorkerStretchesVirtualTime) {
  const AnimatedScene scene = orbit_scene(3, 8, 48, 36);
  FarmConfig config;
  config.backend = FarmBackend::kSim;
  config.worker_speeds = {1.0, 1.0};
  config.partition.scheme = PartitionScheme::kFrameDivision;
  config.partition.block_size = 16;
  FarmConfig delayed = config;
  delayed.fault_plan.events.push_back(
      FaultPlan::delay_window(1, 0.0, 1.0, 5.0));

  const FarmResult base = render_farm(scene, config);
  const FarmResult spiky = render_farm(scene, delayed);
  EXPECT_GT(spiky.elapsed_seconds, base.elapsed_seconds);
  expect_frames_equal(spiky.frames, base.frames, "delay-spike");
}

TEST(FaultSim, FaultFreePlanAddsNoOverhead) {
  const AnimatedScene scene = orbit_scene(3, 8, 48, 36);
  FarmConfig config;
  config.backend = FarmBackend::kSim;
  config.worker_speeds = {1.0, 0.5};
  config.partition.scheme = PartitionScheme::kFrameDivision;
  config.partition.block_size = 16;
  FarmConfig guarded = config;
  guarded.fault.enabled = true;  // leases armed, nothing ever expires

  const FarmResult off = render_farm(scene, config);
  const FarmResult on = render_farm(scene, guarded);
  EXPECT_EQ(on.faults.deaths_detected, 0);
  EXPECT_EQ(on.faults.tasks_reassigned, 0);
  EXPECT_EQ(on.master.rays_total, off.master.rays_total);
  expect_frames_equal(on.frames, off.frames, "guarded");
}

// -- End-to-end: wall-clock runtimes ---------------------------------------

FarmConfig wall_fault_config(FarmBackend backend) {
  FarmConfig config;
  config.backend = backend;
  config.workers = 3;
  config.partition.scheme = PartitionScheme::kSequenceDivision;
  config.partition.adaptive = true;
  config.partition.min_split_frames = 2;
  config.fault.enabled = true;
  // Wall-clock leases: frames on these tiny scenes render in well under a
  // millisecond, so sub-second leases are generous while keeping the
  // detection wait (and the test) short.
  config.fault.lease_base_seconds = 0.4;
  config.fault.lease_per_frame_seconds = 0.05;
  config.fault.ping_grace_seconds = 0.25;
  return config;
}

// The crash tests kill rank 1 after its first result, so rank 1 must hold
// work then. Its actor thread can start late under load, though: the
// survivors then either take all three tasks or finish theirs and steal
// rank 1's down to the single frame it renders, and rank 1 dies owing
// nothing. Every message into the survivors during the first 0.25 s
// arrives 0.25 s late, so neither can finish a task and go idle before
// rank 1 has claimed its task and rendered its first frame.
void hold_back_survivors(FarmConfig* config) {
  for (const int rank : {2, 3}) {
    config->fault_plan.events.push_back(
        FaultPlan::delay_window(rank, 0.0, 0.25, 0.25));
  }
}

TEST(FaultThreads, WorkerCrashIsSurvived) {
  const AnimatedScene scene = orbit_scene(2, 9, 40, 30);
  FarmConfig config = wall_fault_config(FarmBackend::kThreads);
  // Crash after the FIRST result: the worker still owes ≥ 2 frames of its
  // 3-frame task and can never ack a shrink, so the run cannot complete
  // without the master detecting the death and reclaiming the remainder
  // (after frame 2+, a lucky adaptive steal could make recovery unneeded).
  hold_back_survivors(&config);
  config.fault_plan.events.push_back(FaultPlan::crash_after_frames(1, 1));

  const FarmResult result = render_farm(scene, config);
  EXPECT_EQ(result.faults.deaths_detected, 1);
  EXPECT_GE(result.faults.tasks_reassigned, 1);
  EXPECT_EQ(result.master.frames_completed, scene.frame_count());
  const auto ref = reference_frames(scene, config.coherence.trace);
  expect_frames_equal(result.frames, ref, "threads-crash");
}

TEST(FaultTcp, WorkerCrashSeversSocketsAndIsSurvived) {
  const AnimatedScene scene = orbit_scene(2, 9, 40, 30);
  FarmConfig config = wall_fault_config(FarmBackend::kTcp);
  // After the first result, for the same reason as the kThreads test.
  hold_back_survivors(&config);
  config.fault_plan.events.push_back(FaultPlan::crash_after_frames(1, 1));

  const FarmResult result = render_farm(scene, config);
  EXPECT_EQ(result.faults.deaths_detected, 1);
  EXPECT_GE(result.faults.tasks_reassigned, 1);
  EXPECT_EQ(result.master.frames_completed, scene.frame_count());
  const auto ref = reference_frames(scene, config.coherence.trace);
  expect_frames_equal(result.frames, ref, "tcp-crash");
}

TEST(FaultThreads, DuplicatedResultIsHarmless) {
  const AnimatedScene scene = orbit_scene(2, 6, 40, 30);
  FarmConfig config = wall_fault_config(FarmBackend::kThreads);
  config.fault_plan.events.push_back(
      FaultPlan::duplicate_nth(1, 1, kTagFrameResult));

  const FarmResult result = render_farm(scene, config);
  EXPECT_EQ(result.master.frames_completed, scene.frame_count());
  const auto ref = reference_frames(scene, config.coherence.trace);
  expect_frames_equal(result.frames, ref, "threads-duplicate");
}

}  // namespace
}  // namespace now
