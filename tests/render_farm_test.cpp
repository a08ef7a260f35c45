// End-to-end farm tests: every backend × partitioning scheme must assemble
// the exact same frames a serial render produces.
#include "src/par/render_farm.h"

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "src/ckpt/journal.h"
#include "src/image/image_io.h"
#include "src/par/serial.h"
#include "src/scene/builtin_scenes.h"
#include "tests/test_tmp.h"

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

struct FarmCase {
  FarmBackend backend;
  PartitionScheme scheme;
  bool coherence;
  bool adaptive;
  int workers;
};

std::ostream& operator<<(std::ostream& os, const FarmCase& c) {
  return os << to_string(c.backend) << "/" << to_string(c.scheme)
            << (c.coherence ? "/fc" : "/nofc")
            << (c.adaptive ? "/adaptive" : "/static") << "/w" << c.workers;
}

class FarmMatrix : public ::testing::TestWithParam<FarmCase> {};

TEST_P(FarmMatrix, FramesMatchSerialReference) {
  const FarmCase& fc = GetParam();
  const AnimatedScene scene = orbit_scene(4, 8, 64, 48);

  FarmConfig config;
  config.backend = fc.backend;
  config.workers = fc.workers;
  if (fc.backend == FarmBackend::kSim) {
    config.worker_speeds.assign(static_cast<std::size_t>(fc.workers), 1.0);
    if (fc.workers >= 2) config.worker_speeds[0] = 2.0;  // heterogeneous
  }
  config.partition.scheme = fc.scheme;
  config.partition.block_size = 16;
  config.partition.hybrid_frames = 3;
  config.partition.adaptive = fc.adaptive;
  config.coherence.enabled = fc.coherence;

  const FarmResult result = render_farm(scene, config);
  const auto ref = reference_frames(scene, config.coherence.trace);

  std::ostringstream label;
  label << fc;
  expect_frames_equal(result.frames, ref, label.str());
  EXPECT_EQ(result.master.frames_completed, scene.frame_count());
  EXPECT_GT(result.elapsed_seconds, 0.0);
  EXPECT_GT(result.master.rays_total, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, FarmMatrix,
    ::testing::Values(
        // Simulated NOW: all schemes, with and without coherence.
        FarmCase{FarmBackend::kSim, PartitionScheme::kSequenceDivision, true, true, 3},
        FarmCase{FarmBackend::kSim, PartitionScheme::kSequenceDivision, true, false, 3},
        FarmCase{FarmBackend::kSim, PartitionScheme::kSequenceDivision, false, true, 3},
        FarmCase{FarmBackend::kSim, PartitionScheme::kFrameDivision, true, true, 3},
        FarmCase{FarmBackend::kSim, PartitionScheme::kFrameDivision, false, true, 3},
        FarmCase{FarmBackend::kSim, PartitionScheme::kHybrid, true, true, 3},
        FarmCase{FarmBackend::kSim, PartitionScheme::kHybrid, false, false, 4},
        FarmCase{FarmBackend::kSim, PartitionScheme::kFrameDivision, true, true, 1},
        FarmCase{FarmBackend::kSim, PartitionScheme::kSequenceDivision, true, true, 8},
        // Real threads.
        FarmCase{FarmBackend::kThreads, PartitionScheme::kSequenceDivision, true, true, 3},
        FarmCase{FarmBackend::kThreads, PartitionScheme::kFrameDivision, true, true, 3},
        FarmCase{FarmBackend::kThreads, PartitionScheme::kHybrid, false, true, 2},
        // Loopback TCP sockets.
        FarmCase{FarmBackend::kTcp, PartitionScheme::kFrameDivision, true, true, 3},
        FarmCase{FarmBackend::kTcp, PartitionScheme::kSequenceDivision, true, true, 2}));

TEST(RenderFarm, SimBackendIsDeterministic) {
  const AnimatedScene scene = orbit_scene(3, 6, 48, 36);
  FarmConfig config;
  config.backend = FarmBackend::kSim;
  config.worker_speeds = {1.0, 0.5, 0.5};
  config.partition.scheme = PartitionScheme::kFrameDivision;
  config.partition.block_size = 16;

  const FarmResult a = render_farm(scene, config);
  const FarmResult b = render_farm(scene, config);
  EXPECT_EQ(a.elapsed_seconds, b.elapsed_seconds);
  EXPECT_EQ(a.runtime.messages, b.runtime.messages);
  EXPECT_EQ(a.runtime.bytes, b.runtime.bytes);
  EXPECT_EQ(a.master.rays_total, b.master.rays_total);
  expect_frames_equal(a.frames, b.frames, "determinism");
}

TEST(RenderFarm, CoherenceReducesRaysAndTime) {
  const AnimatedScene scene = orbit_scene(3, 8, 64, 48);
  FarmConfig with_fc;
  with_fc.backend = FarmBackend::kSim;
  with_fc.worker_speeds = {1.0, 0.5, 0.5};
  with_fc.partition.scheme = PartitionScheme::kFrameDivision;
  with_fc.partition.block_size = 16;
  FarmConfig without_fc = with_fc;
  without_fc.coherence.enabled = false;

  const FarmResult fc = render_farm(scene, with_fc);
  const FarmResult nofc = render_farm(scene, without_fc);
  EXPECT_LT(fc.master.rays_total, nofc.master.rays_total);
  EXPECT_LT(fc.elapsed_seconds, nofc.elapsed_seconds);
}

TEST(RenderFarm, CoherenceOffWorkersReportNoMarkStore) {
  const AnimatedScene scene = orbit_scene(3, 4, 48, 36);
  FarmConfig config;
  config.backend = FarmBackend::kSim;
  config.worker_speeds = {1.0, 0.5};
  config.partition.scheme = PartitionScheme::kFrameDivision;
  config.partition.block_size = 16;
  config.coherence.enabled = false;
  const FarmResult r = render_farm(scene, config);
  ASSERT_EQ(r.workers.size(), 2u);
  for (const WorkerReport& w : r.workers) {
    EXPECT_GT(w.frames_rendered, 0);
    EXPECT_EQ(w.peak_mark_bytes, 0);
  }
  config.coherence.enabled = true;
  for (const WorkerReport& w : render_farm(scene, config).workers) {
    EXPECT_GT(w.peak_mark_bytes, 0);
  }
}

TEST(RenderFarm, SparseReturnsSendFewerBytes) {
  const AnimatedScene scene = orbit_scene(3, 8, 64, 48);
  FarmConfig sparse;
  sparse.backend = FarmBackend::kSim;
  sparse.worker_speeds = {1.0, 1.0};
  sparse.partition.scheme = PartitionScheme::kFrameDivision;
  sparse.partition.block_size = 32;
  FarmConfig dense = sparse;
  dense.sparse_returns = false;

  const FarmResult a = render_farm(scene, sparse);
  const FarmResult b = render_farm(scene, dense);
  EXPECT_LT(a.runtime.bytes, b.runtime.bytes);
  expect_frames_equal(a.frames, b.frames, "sparse-vs-dense");
}

TEST(RenderFarm, AdaptiveSplitsHappenUnderHeterogeneity) {
  // One fast and one very slow worker on sequence division: the fast worker
  // finishes its half and must steal from the slow one.
  const AnimatedScene scene = orbit_scene(3, 12, 48, 36);
  FarmConfig config;
  config.backend = FarmBackend::kSim;
  config.worker_speeds = {4.0, 0.25};
  config.partition.scheme = PartitionScheme::kSequenceDivision;
  config.partition.adaptive = true;
  config.partition.min_split_frames = 2;

  const FarmResult result = render_farm(scene, config);
  EXPECT_GT(result.master.adaptive_splits, 0);
  const auto ref = reference_frames(scene, config.coherence.trace);
  expect_frames_equal(result.frames, ref, "adaptive");
}

TEST(RenderFarm, PaperSpeedMixRebalancesAndStaysExact) {
  // The paper's machine mix — one fast SGI and two at half speed — on
  // sequence division: the fast worker must steal work, and the stolen
  // ranges' full-render restarts must not perturb a single pixel.
  const AnimatedScene scene = orbit_scene(3, 12, 48, 36);
  FarmConfig config;
  config.backend = FarmBackend::kSim;
  config.worker_speeds = {1.0, 0.5, 0.5};
  config.partition.scheme = PartitionScheme::kSequenceDivision;
  config.partition.adaptive = true;
  config.partition.min_split_frames = 2;

  const FarmResult result = render_farm(scene, config);
  EXPECT_GT(result.master.adaptive_splits, 0);
  const auto ref = reference_frames(scene, config.coherence.trace);
  expect_frames_equal(result.frames, ref, "paper-speed-mix");
}

TEST(RenderFarm, ValidatesConfigUpFront) {
  const AnimatedScene scene = orbit_scene(2, 4, 32, 24);
  const FarmConfig good;
  EXPECT_NO_THROW(validate_farm_config(scene, good));

  FarmConfig bad = good;
  bad.workers = 0;
  EXPECT_THROW(render_farm(scene, bad), std::invalid_argument);

  bad = good;
  bad.worker_speeds = {1.0, 0.0};
  EXPECT_THROW(render_farm(scene, bad), std::invalid_argument);

  bad = good;
  bad.master_speed = -1.0;
  EXPECT_THROW(render_farm(scene, bad), std::invalid_argument);

  bad = good;
  bad.partition.block_size = 0;
  EXPECT_THROW(render_farm(scene, bad), std::invalid_argument);

  bad = good;
  bad.partition.hybrid_frames = 0;
  EXPECT_THROW(render_farm(scene, bad), std::invalid_argument);

  bad = good;
  bad.partition.min_split_frames = 0;
  EXPECT_THROW(render_farm(scene, bad), std::invalid_argument);

  bad = good;
  bad.fault.enabled = true;
  bad.fault.lease_base_seconds = 0.0;
  EXPECT_THROW(render_farm(scene, bad), std::invalid_argument);

  // Crash faults without detection enabled would hang the run: refused.
  bad = good;
  bad.workers = 2;
  bad.fault_plan.events.push_back(FaultPlan::crash_at(1, 5.0));
  EXPECT_THROW(render_farm(scene, bad), std::invalid_argument);

  // Faulting the master (rank 0) or an out-of-range rank: refused.
  bad = good;
  bad.workers = 2;
  bad.fault.enabled = true;
  bad.fault_plan.events.push_back(FaultPlan::crash_at(0, 5.0));
  EXPECT_THROW(render_farm(scene, bad), std::invalid_argument);
  bad.fault_plan.events.back() = FaultPlan::crash_at(3, 5.0);
  EXPECT_THROW(render_farm(scene, bad), std::invalid_argument);

  // Slowdown windows are sim-only.
  bad = good;
  bad.backend = FarmBackend::kThreads;
  bad.fault_plan.events.push_back(
      FaultPlan::slowdown_window(1, 0.0, 1.0, 0.5));
  EXPECT_THROW(render_farm(scene, bad), std::invalid_argument);
}

TEST(RenderFarm, AdaptiveBeatsStaticOnHeterogeneousSequenceDivision) {
  // Coherence off isolates the scheduler: every frame costs the same, so
  // work stolen from the slow worker is pure win.
  const AnimatedScene scene = orbit_scene(3, 12, 48, 36);
  FarmConfig adaptive;
  adaptive.backend = FarmBackend::kSim;
  adaptive.worker_speeds = {1.0, 0.25};
  adaptive.coherence.enabled = false;
  adaptive.partition.scheme = PartitionScheme::kSequenceDivision;
  adaptive.partition.adaptive = true;
  adaptive.partition.min_split_frames = 2;
  FarmConfig fixed = adaptive;
  fixed.partition.adaptive = false;

  const FarmResult a = render_farm(scene, adaptive);
  const FarmResult s = render_farm(scene, fixed);
  EXPECT_LT(a.elapsed_seconds, s.elapsed_seconds);
}

std::int64_t trace_arg(const TraceEvent& e, const std::string& key) {
  for (const TraceEvent::Arg& a : e.args) {
    if (key == a.key) return a.value;
  }
  ADD_FAILURE() << e.name << " has no arg " << key;
  return -1;
}

TEST(RenderFarm, StealingUnderCoherenceRestartsOnlyOnANewRegion) {
  // A thief keeps the coherence state of the last region it rendered. In
  // sequence division every region is the whole frame, so every steal
  // continues warm: only the two workers' first tasks full-render.
  const AnimatedScene scene = orbit_scene(3, 12, 48, 36);
  FarmConfig config;
  config.backend = FarmBackend::kSim;
  config.worker_speeds = {4.0, 0.25};
  config.partition.scheme = PartitionScheme::kSequenceDivision;
  config.partition.adaptive = true;
  config.partition.min_split_frames = 2;

  const FarmResult r = render_farm(scene, config);
  ASSERT_GT(r.master.adaptive_splits, 0);
  EXPECT_EQ(r.master.full_renders, 2);
  expect_frames_equal(r.frames, reference_frames(scene, config.coherence.trace),
                      "sequence division");
}

TEST(RenderFarm, StealingANewRegionPaysAFullRenderRestart) {
  // Frame division: a thief whose last region differs from the stolen one
  // restarts coherence with a full render — the effect that makes the
  // paper's sequence division lose to frame division — and a thief that
  // already holds the stolen region continues warm. The two tiles differ
  // in area, so a rendered frame's pixel count names its region.
  const AnimatedScene scene = orbit_scene(3, 16, 48, 24);
  FarmConfig config;
  config.backend = FarmBackend::kSim;
  config.worker_speeds = {4.0, 0.25};
  config.partition.scheme = PartitionScheme::kFrameDivision;
  config.partition.block_size = 32;  // tiles of 32x24 and 16x24
  config.partition.adaptive = true;
  config.partition.min_split_frames = 2;
  config.obs.trace = true;

  const FarmResult r = render_farm(scene, config);
  ASSERT_GT(r.master.adaptive_splits, 0);
  std::map<int, std::int64_t> task_of;  // rank → task of its open render
  std::map<int, std::int64_t> held;     // rank → area of its last region
  std::map<int, std::int64_t> last_task;
  int new_region_steals = 0;
  int warm_steals = 0;
  int full_renders = 0;
  for (const TraceEvent& e : r.trace_events) {
    if (std::string(e.name) != "frame.render") continue;
    if (e.phase == TraceEvent::Phase::kBegin) {
      task_of[e.rank] = trace_arg(e, "task");
      continue;
    }
    if (e.phase != TraceEvent::Phase::kEnd) continue;
    const std::int64_t task = task_of[e.rank];
    const std::int64_t area = trace_arg(e, "pixels_total");
    const bool full = trace_arg(e, "full") != 0;
    full_renders += full ? 1 : 0;
    if (last_task.count(e.rank) > 0 && last_task[e.rank] == task) {
      EXPECT_FALSE(full) << "rank " << e.rank << " task " << task;
      continue;
    }
    // The first frame of a task: a full render exactly when the rank held
    // another region (or none).
    const bool new_region = held.count(e.rank) == 0 || held[e.rank] != area;
    EXPECT_EQ(full, new_region) << "rank " << e.rank << " task " << task;
    if (held.count(e.rank) > 0) ++(new_region ? new_region_steals : warm_steals);
    held[e.rank] = area;
    last_task[e.rank] = task;
  }
  EXPECT_GT(new_region_steals, 0);
  EXPECT_GT(warm_steals, 0);
  EXPECT_EQ(full_renders, r.master.full_renders);
  EXPECT_EQ(r.master.full_renders, 2 + new_region_steals);
  expect_frames_equal(r.frames, reference_frames(scene, config.coherence.trace),
                      "frame division");
}

TEST(RenderFarm, WritesFrameFiles) {
  const AnimatedScene scene = orbit_scene(2, 3, 32, 24);
  FarmConfig config;
  config.backend = FarmBackend::kSim;
  config.workers = 2;
  config.partition.scheme = PartitionScheme::kFrameDivision;
  config.partition.block_size = 16;
  config.output_dir = ::testing::TempDir();

  const FarmResult result = render_farm(scene, config);
  for (int f = 0; f < scene.frame_count(); ++f) {
    char name[64];
    std::snprintf(name, sizeof(name), "/frame_%04d.tga", f);
    Framebuffer fb;
    ASSERT_TRUE(read_tga(&fb, config.output_dir + name)) << name;
    EXPECT_EQ(fb, result.frames[f]);
  }
}

TEST(RenderFarm, UnwritableOutputDirCountsFailuresAndJournalsNoFrame) {
  // output_dir's parent does not exist, so every TGA write fails. The frames
  // still assemble in memory, but none may be declared durable — and the
  // loss must be reported.
  const AnimatedScene scene = orbit_scene(2, 3, 32, 24);
  for (const int shards : {1, 2}) {
    FarmConfig config;
    config.backend = FarmBackend::kSim;
    config.workers = 2;
    config.shards = shards;
    config.partition.scheme = PartitionScheme::kFrameDivision;
    config.partition.block_size = 16;
    config.output_dir = ::testing::TempDir() + "/no_such_parent/frames";
    const std::string label = "shards " + std::to_string(shards);
    config.journal_path = ::testing::TempDir() + "/write_failures_" +
                          std::to_string(shards) + "_m.journal";
    config.journal_fsync = false;

    const FarmResult result = render_farm(scene, config);
    EXPECT_EQ(result.frames.size(),
              static_cast<std::size_t>(scene.frame_count()))
        << label;
    EXPECT_EQ(result.frame_write_failures, scene.frame_count()) << label;
    EXPECT_EQ(result.metrics.counter("frames.write_failures"),
              static_cast<std::uint64_t>(scene.frame_count()))
        << label;
    // Frame-complete records live in the frame owners' journals.
    std::vector<std::string> journals = {config.journal_path};
    if (shards > 1) {
      journals = {shard_journal_path(config.journal_path, 0),
                  shard_journal_path(config.journal_path, 1)};
    }
    for (const std::string& path : journals) {
      const JournalReplay replay = replay_journal(path);
      ASSERT_TRUE(replay.ok) << label << " " << path << ": " << replay.error;
      EXPECT_TRUE(replay.frame_digest.empty()) << label << " " << path;
    }
  }
}

TEST(RenderFarm, UnopenableJournalClearsJournalHealth) {
  // The journal's directory does not exist, so no journal (scheduler's or
  // shard segment) can be opened. The farm still renders every frame, and
  // the failure shows in the journal-health flag and the run's
  // ckpt.journal_ok gauge.
  const AnimatedScene scene = orbit_scene(2, 3, 32, 24);
  for (const int shards : {1, 2}) {
    FarmConfig config;
    config.backend = FarmBackend::kSim;
    config.workers = 2;
    config.shards = shards;
    config.output_dir = test_tmp_subdir("frames");
    config.journal_path = test_tmp_dir() + "/no_such_dir/r.journal";
    const std::string label = "shards " + std::to_string(shards);

    const FarmResult result = render_farm(scene, config);
    EXPECT_EQ(result.master.frames_completed, scene.frame_count()) << label;
    EXPECT_FALSE(result.master.journal_ok) << label;
    for (const ShardReport& s : result.shards) EXPECT_FALSE(s.journal_ok);
    EXPECT_EQ(result.metrics.gauge("ckpt.journal_ok"), 0.0) << label;
    EXPECT_EQ(result.metrics.counter("ckpt.journal_records"), 0u) << label;
  }
}

}  // namespace
}  // namespace now
