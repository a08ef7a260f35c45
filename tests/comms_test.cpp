// Delta frame transport, end to end: raw and delta codecs must assemble
// byte-identical animations on every backend, under message drops,
// duplicated deliveries, and mid-sequence worker death (which forces the
// replacement task to restart from a dense key frame).
#include <gtest/gtest.h>

#include <string>
#include <vector>

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

FarmConfig base_config(FarmBackend backend, FrameCodec codec) {
  FarmConfig config;
  config.backend = backend;
  config.workers = 3;
  config.frame_codec = codec;
  if (backend != FarmBackend::kSim) config.coherence.threads = 1;
  return config;
}

TEST(DeltaTransport, SimRawAndDeltaAssembleIdenticalFramesAndDeltaIsSmaller) {
  // Low motion: one small orbiting sphere leaves most of each frame
  // untouched, the regime the delta codec exists for.
  const AnimatedScene scene = orbit_scene(2, 10, 64, 48);
  const auto ref = reference_frames(scene, TraceOptions{});

  FarmResult raw = render_farm(scene, base_config(FarmBackend::kSim,
                                                  FrameCodec::kRaw));
  FarmResult delta = render_farm(scene, base_config(FarmBackend::kSim,
                                                    FrameCodec::kDelta));
  expect_frames_equal(raw.frames, ref, "sim-raw");
  expect_frames_equal(delta.frames, ref, "sim-delta");

  const std::uint64_t raw_wire = raw.metrics.counter("net.frame_bytes_wire");
  const std::uint64_t delta_wire =
      delta.metrics.counter("net.frame_bytes_wire");
  ASSERT_GT(raw_wire, 0u);
  EXPECT_LT(delta_wire, raw_wire);
  EXPECT_GT(delta.metrics.counter("net.frame_bytes_raw"), 0u);
  EXPECT_GT(delta.metrics.counter("net.key_frames"), 0u);
  EXPECT_GT(delta.metrics.counter("net.delta_frames"), 0u);
  EXPECT_EQ(delta.metrics.counter("net.frame_decode_failures"), 0u);
  // The sim charges the Ethernet by payload size: smaller frames, less
  // virtual time on the shared medium.
  EXPECT_LE(delta.metrics.gauge("sim.ethernet_busy_seconds"),
            raw.metrics.gauge("sim.ethernet_busy_seconds"));
}

TEST(DeltaTransport, WallClockBackendsMatchSerialReference) {
  const AnimatedScene scene = orbit_scene(3, 8, 48, 36);
  const auto ref = reference_frames(scene, TraceOptions{});
  for (const FarmBackend backend :
       {FarmBackend::kThreads, FarmBackend::kTcp}) {
    for (const FrameCodec codec : {FrameCodec::kRaw, FrameCodec::kDelta}) {
      const std::string label = std::string(to_string(backend)) + "/" +
                                to_string(codec);
      expect_frames_equal(
          render_farm(scene, base_config(backend, codec)).frames, ref, label);
    }
  }
}

TEST(DeltaTransport, SurvivesDroppedAndDuplicatedResultsOnSim) {
  const AnimatedScene scene = orbit_scene(3, 12, 48, 36);
  const auto ref = reference_frames(scene, TraceOptions{});
  for (const FrameCodec codec : {FrameCodec::kRaw, FrameCodec::kDelta}) {
    FarmConfig config = base_config(FarmBackend::kSim, codec);
    // A dropped frame result breaks the sender's delta chain: the master
    // must detect the gap at the next result, write the task off, and
    // restart the remainder from a dense key frame elsewhere.
    config.fault_plan.events.push_back(
        FaultPlan::drop_nth(1, 2, kTagFrameResult));
    config.fault_plan.events.push_back(
        FaultPlan::duplicate_nth(2, 3, kTagFrameResult));
    const FarmResult result = render_farm(scene, config);
    expect_frames_equal(result.frames, ref,
                        std::string("faults/") + to_string(codec));
    EXPECT_EQ(result.metrics.counter("net.frame_decode_failures"), 0u);
  }
}

TEST(DeltaTransport, WorkerDeathMidSequenceForcesKeyFrameRestart) {
  const AnimatedScene scene = orbit_scene(3, 12, 48, 36);
  const auto ref = reference_frames(scene, TraceOptions{});
  FarmConfig config = base_config(FarmBackend::kSim, FrameCodec::kDelta);
  config.worker_speeds = {1.0, 1.0, 1.0};
  config.fault.enabled = true;
  config.fault.lease_base_seconds = 4.0;
  config.fault.lease_per_frame_seconds = 2.0;
  config.fault.ping_grace_seconds = 2.0;
  // Dies after two committed frames: mid-task, mid-delta-chain. The
  // reclaimed remainder must re-enter as a fresh task whose first frame is
  // a dense key frame, or the master would rebuild on a stale predecessor.
  config.fault_plan.events.push_back(FaultPlan::crash_after_frames(1, 2));

  const FarmResult result = render_farm(scene, config);
  EXPECT_EQ(result.faults.deaths_detected, 1);
  expect_frames_equal(result.frames, ref, "death-restart");
  EXPECT_EQ(result.metrics.counter("net.frame_decode_failures"), 0u);
}

TEST(DeltaTransport, WallClockRunSurvivesWorkerDeathAndRejoin) {
  const AnimatedScene scene = orbit_scene(2, 9, 40, 30);
  const auto ref = reference_frames(scene, TraceOptions{});
  for (const FarmBackend backend :
       {FarmBackend::kThreads, FarmBackend::kTcp}) {
    FarmConfig config = base_config(backend, FrameCodec::kDelta);
    // The revived process re-Hellos; its next task starts from a key frame.
    config.fault_plan.events.push_back(FaultPlan::crash_after_frames(1, 2));
    config.fault_plan.events.push_back(
        FaultPlan::rejoin_at(1, backend == FarmBackend::kTcp ? 2.0 : 1.0));
    const FarmResult result = render_farm(scene, config);
    expect_frames_equal(result.frames, ref,
                        std::string("rejoin/") + to_string(backend));
    EXPECT_EQ(result.master.frames_completed, scene.frame_count());
  }
}

TEST(DeltaTransport, CameraCutProducesKeyFramesNotCorruption) {
  // A camera cut forces a coherence restart mid-task: the worker's next
  // frame is a full render and must travel as a dense key frame.
  const AnimatedScene scene = two_shot_scene(10, 5);
  const auto ref = reference_frames(scene, TraceOptions{});
  FarmConfig config = base_config(FarmBackend::kSim, FrameCodec::kDelta);
  config.partition.scheme = PartitionScheme::kFrameDivision;
  const FarmResult result = render_farm(scene, config);
  expect_frames_equal(result.frames, ref, "camera-cut");
  // One key frame per task start plus one per cut crossing, at minimum.
  EXPECT_GT(result.metrics.counter("net.key_frames"), 0u);
  EXPECT_EQ(result.metrics.counter("net.frame_decode_failures"), 0u);
}

}  // namespace
}  // namespace now
