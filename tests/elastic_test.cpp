// Elastic worker membership and end-game speculation: a crashed rank that
// rejoins mid-run is re-admitted (full first-frame coherence restart) and
// the farm still assembles pixel-exact frames; when the pending queue runs
// dry the master clones the slowest task and keeps whichever copy commits
// first.
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

// -- FaultInjector::revive --------------------------------------------------

TEST(Rejoin, ReviveClearsACrashThatAlreadyFired) {
  FaultPlan plan;
  plan.events.push_back(FaultPlan::crash_at(1, 5.0));
  plan.events.push_back(FaultPlan::rejoin_at(1, 9.0));
  FaultInjector inj(plan, 3);
  EXPECT_TRUE(inj.crashed(1, 6.0));
  inj.revive(1, 9.0);
  EXPECT_FALSE(inj.crashed(1, 10.0));
  // The consumed crash event must not re-trigger at a later query.
  EXPECT_FALSE(inj.crashed(1, 100.0));
  EXPECT_EQ(inj.rejoins_triggered(), 1);
}

TEST(Rejoin, ReviveConsumesAnUnfiredCrashToo) {
  // Rejoin at T means "alive from T onward": if the crash never got a
  // chance to fire before the revive, it must not fire afterwards either.
  FaultPlan plan;
  plan.events.push_back(FaultPlan::crash_at(1, 5.0));
  plan.events.push_back(FaultPlan::rejoin_at(1, 9.0));
  FaultInjector inj(plan, 3);
  inj.revive(1, 9.0);  // nobody ever asked crashed() before the rejoin
  EXPECT_FALSE(inj.crashed(1, 10.0));
  EXPECT_EQ(inj.crashes_triggered(), 0);
}

TEST(Rejoin, PlanValidationRequiresACrashToRejoinFrom) {
  FaultPlan plan;
  plan.events.push_back(FaultPlan::rejoin_at(1, 5.0));
  EXPECT_THROW(validate_fault_plan(plan, 3), std::invalid_argument);

  // Rejoin must come strictly after an at_time crash.
  plan.events.clear();
  plan.events.push_back(FaultPlan::crash_at(1, 5.0));
  plan.events.push_back(FaultPlan::rejoin_at(1, 5.0));
  EXPECT_THROW(validate_fault_plan(plan, 3), std::invalid_argument);

  // At most one rejoin per rank.
  plan.events.clear();
  plan.events.push_back(FaultPlan::crash_at(1, 5.0));
  plan.events.push_back(FaultPlan::rejoin_at(1, 6.0));
  plan.events.push_back(FaultPlan::rejoin_at(1, 7.0));
  EXPECT_THROW(validate_fault_plan(plan, 3), std::invalid_argument);

  plan.events.clear();
  plan.events.push_back(FaultPlan::crash_at(1, 5.0));
  plan.events.push_back(FaultPlan::rejoin_at(1, 6.0));
  EXPECT_NO_THROW(validate_fault_plan(plan, 3));

  // Progress-triggered crashes have no comparable time; any rejoin works.
  plan.events.clear();
  plan.events.push_back(FaultPlan::crash_after_frames(1, 2));
  plan.events.push_back(FaultPlan::rejoin_at(1, 1.0));
  EXPECT_NO_THROW(validate_fault_plan(plan, 3));
}

// -- End-to-end: die, rejoin, complete --------------------------------------

// Without lease-based detection the master cannot reclaim the crashed
// rank's region, so the run can only complete through the rejoin path —
// completion itself proves re-admission worked. This makes the test
// timing-robust on wall-clock backends: the farm simply waits at the
// barrier until the rejoin arrives.
FarmConfig rejoin_config(FarmBackend backend) {
  FarmConfig config;
  config.backend = backend;
  config.workers = 3;
  if (backend == FarmBackend::kSim) config.worker_speeds = {1.0, 1.0, 1.0};
  config.partition.scheme = PartitionScheme::kSequenceDivision;
  config.partition.adaptive = false;  // keep the dead rank's range its own
  return config;
}

TEST(Rejoin, SimCrashedWorkerRejoinsAndRunCompletes) {
  const AnimatedScene scene = orbit_scene(3, 12, 48, 36);
  FarmConfig config = rejoin_config(FarmBackend::kSim);
  config.fault_plan.events.push_back(FaultPlan::crash_at(1, 2.0));
  config.fault_plan.events.push_back(FaultPlan::rejoin_at(1, 50.0));

  const FarmResult result = render_farm(scene, config);
  EXPECT_EQ(result.metrics.counter("fault.crashes"), 1u);
  EXPECT_EQ(result.metrics.counter("fault.rejoins"), 1u);
  EXPECT_EQ(result.faults.deaths_detected, 0);  // no detector configured
  EXPECT_EQ(result.master.frames_completed, scene.frame_count());
  // The rejoined worker re-rendered its reclaimed range from a dense
  // restart; at least one task was written off for it.
  EXPECT_GE(result.faults.tasks_reassigned, 1);
  const auto ref = reference_frames(scene, config.coherence.trace);
  expect_frames_equal(result.frames, ref, "sim-rejoin");
}

TEST(Rejoin, SimRejoinReplaysBitIdentically) {
  const AnimatedScene scene = orbit_scene(3, 12, 48, 36);
  FarmConfig config = rejoin_config(FarmBackend::kSim);
  config.fault_plan.events.push_back(FaultPlan::crash_at(1, 2.0));
  config.fault_plan.events.push_back(FaultPlan::rejoin_at(1, 50.0));

  const FarmResult a = render_farm(scene, config);
  const FarmResult b = render_farm(scene, config);
  EXPECT_EQ(a.elapsed_seconds, b.elapsed_seconds);
  EXPECT_EQ(a.runtime.messages, b.runtime.messages);
  expect_frames_equal(a.frames, b.frames, "rejoin-replay");
}

TEST(Rejoin, SimDeclaredDeadWorkerIsReadmittedByItsHello) {
  // With the detector on and slow survivors, the dead rank is declared dead
  // well before its rejoin fires, so the Hello arrives from a rank the
  // master has written off — the elastic-membership re-admission path.
  const AnimatedScene scene = orbit_scene(3, 12, 48, 36);
  FarmConfig config = rejoin_config(FarmBackend::kSim);
  config.worker_speeds = {1.0, 0.25, 0.25};
  config.fault.enabled = true;
  config.fault.lease_base_seconds = 8.0;
  config.fault.lease_per_frame_seconds = 4.0;
  config.fault.ping_grace_seconds = 3.0;
  config.fault_plan.events.push_back(FaultPlan::crash_at(1, 2.0));
  // Without the rejoin the same run detects the death by ~t=30 and finishes
  // at ~t=53 on the two slow survivors: t=40 lands between "written off"
  // and "job done", so the Hello arrives from a rank the master believes
  // dead while there is still work left to give it.
  config.fault_plan.events.push_back(FaultPlan::rejoin_at(1, 40.0));

  const FarmResult result = render_farm(scene, config);
  EXPECT_EQ(result.faults.deaths_detected, 1);
  EXPECT_EQ(result.faults.workers_rejoined, 1);
  EXPECT_EQ(result.metrics.counter("recovery.workers_rejoined"), 1u);
  EXPECT_EQ(result.master.frames_completed, scene.frame_count());
  const auto ref = reference_frames(scene, config.coherence.trace);
  expect_frames_equal(result.frames, ref, "sim-readmit");
}

// The wall-clock rejoin tests crash rank 1 on its second result, so rank 1
// must render two frames of its range before the survivors run out of
// other work. Under load its actor thread can start late, and the
// survivors then take all three tasks: rank 1 never renders, the crash
// never fires and the run ends early. Every message into the survivors
// during the first 0.25 s arrives 0.25 s late, which holds them back
// until rank 1 has claimed its task and rendered into it (as the
// WorkerCrash tests do).
void hold_back_survivors(FarmConfig* config) {
  for (const int rank : {2, 3}) {
    config->fault_plan.events.push_back(
        FaultPlan::delay_window(rank, 0.0, 0.25, 0.25));
  }
}

TEST(Rejoin, ThreadsCrashedWorkerRejoinsAndRunCompletes) {
  const AnimatedScene scene = orbit_scene(2, 9, 40, 30);
  FarmConfig config = rejoin_config(FarmBackend::kThreads);
  // Progress-triggered crash: fires on rank 1's second result no matter how
  // fast this machine renders. The run then stalls (no detector, nobody
  // else owns rank 1's range) until the wall-clock rejoin revives it.
  // The rejoin time must leave the crash room to fire first even on a
  // loaded machine (a rejoin consumes a not-yet-fired crash): two frames
  // normally take ~10 ms, so 1 s is a wide margin, and the stall it causes
  // bounds this test's wall time.
  hold_back_survivors(&config);
  config.fault_plan.events.push_back(FaultPlan::crash_after_frames(1, 2));
  config.fault_plan.events.push_back(FaultPlan::rejoin_at(1, 1.0));

  const FarmResult result = render_farm(scene, config);
  EXPECT_EQ(result.metrics.counter("fault.crashes"), 1u);
  EXPECT_EQ(result.metrics.counter("fault.rejoins"), 1u);
  EXPECT_EQ(result.master.frames_completed, scene.frame_count());
  const auto ref = reference_frames(scene, config.coherence.trace);
  expect_frames_equal(result.frames, ref, "threads-rejoin");
}

TEST(Rejoin, TcpCrashedWorkerReconnectsAndRunCompletes) {
  // On the TCP backend a crash severs the rank's sockets; the rejoin dials
  // a new connection into the still-open listener, re-handshakes, and the
  // re-Hello rides the fresh socket.
  const AnimatedScene scene = orbit_scene(2, 9, 40, 30);
  FarmConfig config = rejoin_config(FarmBackend::kTcp);
  // Socket setup alone can take hundreds of ms under load; 2 s keeps the
  // crash-before-rejoin ordering safe (see the threads test above).
  hold_back_survivors(&config);
  config.fault_plan.events.push_back(FaultPlan::crash_after_frames(1, 2));
  config.fault_plan.events.push_back(FaultPlan::rejoin_at(1, 2.0));

  const FarmResult result = render_farm(scene, config);
  EXPECT_EQ(result.metrics.counter("fault.crashes"), 1u);
  EXPECT_EQ(result.metrics.counter("fault.rejoins"), 1u);
  EXPECT_EQ(result.master.frames_completed, scene.frame_count());
  const auto ref = reference_frames(scene, config.coherence.trace);
  expect_frames_equal(result.frames, ref, "tcp-rejoin");
}

TEST(Rejoin, CrashWithoutRejoinStillRequiresTheDetector) {
  const AnimatedScene scene = orbit_scene(2, 6, 32, 24);
  FarmConfig config = rejoin_config(FarmBackend::kSim);
  config.fault_plan.events.push_back(FaultPlan::crash_at(1, 2.0));
  EXPECT_THROW(render_farm(scene, config), std::invalid_argument);
}

// -- End-game speculation ---------------------------------------------------

FarmConfig speculation_config() {
  FarmConfig config;
  config.backend = FarmBackend::kSim;
  // One straggler at 1/5 speed: after the two fast workers drain the
  // pending queue, idle (2) outnumbers active tasks (1) — the end-game.
  config.worker_speeds = {1.0, 1.0, 0.2};
  config.partition.scheme = PartitionScheme::kSequenceDivision;
  config.partition.adaptive = false;  // isolate speculation from splitting
  config.speculation = true;
  return config;
}

TEST(Speculation, ClonesTheStragglerAndStaysPixelExact) {
  const AnimatedScene scene = orbit_scene(3, 12, 48, 36);
  const FarmConfig config = speculation_config();

  const FarmResult result = render_farm(scene, config);
  EXPECT_GE(result.faults.speculations_launched, 1);
  EXPECT_GE(result.faults.speculations_won, 1);
  EXPECT_EQ(result.metrics.counter("recovery.speculations_launched"),
            static_cast<std::uint64_t>(result.faults.speculations_launched));
  EXPECT_EQ(result.master.frames_completed, scene.frame_count());
  const auto ref = reference_frames(scene, config.coherence.trace);
  expect_frames_equal(result.frames, ref, "speculation");
}

TEST(Speculation, BeatsTheNonSpeculativeRun) {
  const AnimatedScene scene = orbit_scene(3, 12, 48, 36);
  FarmConfig spec = speculation_config();
  FarmConfig base = spec;
  base.speculation = false;

  const FarmResult with = render_farm(scene, spec);
  const FarmResult without = render_farm(scene, base);
  EXPECT_GE(with.faults.speculations_launched, 1);
  EXPECT_EQ(without.faults.speculations_launched, 0);
  // Duplicating the straggler's tail onto an idle fast worker must not be
  // slower, and on this 5x speed gap should be strictly faster.
  EXPECT_LT(with.elapsed_seconds, without.elapsed_seconds);
  expect_frames_equal(with.frames, without.frames, "spec-vs-base");
}

TEST(Speculation, ReplaysBitIdentically) {
  const AnimatedScene scene = orbit_scene(3, 12, 48, 36);
  const FarmConfig config = speculation_config();
  const FarmResult a = render_farm(scene, config);
  const FarmResult b = render_farm(scene, config);
  EXPECT_EQ(a.elapsed_seconds, b.elapsed_seconds);
  EXPECT_EQ(a.faults.speculations_launched, b.faults.speculations_launched);
  EXPECT_EQ(a.faults.speculation_frames_wasted,
            b.faults.speculation_frames_wasted);
  expect_frames_equal(a.frames, b.frames, "spec-replay");
}

TEST(Speculation, WithAdaptiveSplittingStillPixelExact) {
  // Adaptive splitting steals ranges above min_split_frames; speculation
  // covers the tail below it. Together they must still commit every pixel
  // exactly once (the idempotent gate absorbs any overlap).
  const AnimatedScene scene = orbit_scene(3, 12, 48, 36);
  FarmConfig config = speculation_config();
  config.partition.adaptive = true;
  config.partition.min_split_frames = 4;

  const FarmResult result = render_farm(scene, config);
  EXPECT_EQ(result.master.frames_completed, scene.frame_count());
  const auto ref = reference_frames(scene, config.coherence.trace);
  expect_frames_equal(result.frames, ref, "spec-adaptive");
}

TEST(Speculation, ThreadsBackendStaysPixelExact) {
  const AnimatedScene scene = orbit_scene(2, 9, 40, 30);
  FarmConfig config;
  config.backend = FarmBackend::kThreads;
  config.workers = 3;
  config.partition.scheme = PartitionScheme::kSequenceDivision;
  config.partition.adaptive = false;
  config.speculation = true;

  // Wall-clock scheduling decides whether speculation triggers; whatever
  // happens, the output must be exact and the run must terminate.
  const FarmResult result = render_farm(scene, config);
  EXPECT_EQ(result.master.frames_completed, scene.frame_count());
  const auto ref = reference_frames(scene, config.coherence.trace);
  expect_frames_equal(result.frames, ref, "threads-speculation");
}

}  // namespace
}  // namespace now
