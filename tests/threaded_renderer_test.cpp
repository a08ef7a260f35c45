// Intra-worker parallelism: a CoherentRenderer with threads = N must produce
// byte-identical output to threads = 1 — the framebuffer, every
// FrameRenderResult counter, and the coherence grid's mark statistics (the
// `chunks` wall-clock metadata is explicitly excluded) — and every frame
// must equal a from-scratch render_world of it. Also covers the ThreadPool
// primitive itself.
#include <atomic>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/coherent_renderer.h"
#include "src/core/thread_pool.h"
#include "src/geom/plane.h"
#include "src/geom/sphere.h"
#include "src/scene/builtin_scenes.h"

namespace now {
namespace {

TEST(ThreadPool, ResolveThreadCount) {
  EXPECT_EQ(resolve_thread_count(1), 1);
  EXPECT_EQ(resolve_thread_count(4), 4);
  EXPECT_GE(resolve_thread_count(0), 1);  // hardware concurrency, at least 1
}

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  for (const int threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.thread_count(), threads);
    std::vector<std::atomic<int>> hits(97);
    for (auto& h : hits) h.store(0);
    pool.parallel_for(97, [&](int task, int worker) {
      ASSERT_GE(worker, 0);
      ASSERT_LT(worker, threads);
      hits[static_cast<std::size_t>(task)].fetch_add(1);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, ReusableAcrossJobs) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int job = 0; job < 5; ++job) {
    pool.parallel_for(10, [&](int, int) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 50);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(
                   8,
                   [&](int task, int) {
                     if (task == 3) throw std::runtime_error("boom");
                   }),
               std::runtime_error);
  // The pool survives a throwing job.
  std::atomic<int> total{0};
  pool.parallel_for(4, [&](int, int) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 4);
}

TEST(ThreadPool, ZeroTasksIsANoOp) {
  ThreadPool pool(2);
  pool.parallel_for(0, [&](int, int) { FAIL() << "must not be called"; });
}

// -------------------------------------------------------------------------
// Renderer determinism: threads = N vs threads = 1.

struct FrameObservation {
  Framebuffer fb;
  FrameRenderResult result;
  CoherenceGridStats grid;
  /// Every region pixel's live marks (empty when coherence is disabled).
  std::vector<std::vector<std::uint32_t>> pixel_marks;
};

/// Render every frame of `scene` with the given options and capture
/// everything the determinism guarantee covers.
std::vector<FrameObservation> observe(const AnimatedScene& scene,
                                      const PixelRect& region,
                                      CoherenceOptions options, int threads) {
  options.threads = threads;
  CoherentRenderer renderer(scene, region, options);
  EXPECT_EQ(renderer.thread_count(), threads);
  Framebuffer fb(scene.width(), scene.height(), Rgb8{9, 9, 9});
  std::vector<FrameObservation> out;
  for (int frame = 0; frame < scene.frame_count(); ++frame) {
    FrameRenderResult r = renderer.render_frame(frame, &fb);
    std::vector<std::vector<std::uint32_t>> marks;
    if (options.enabled) {
      for (int y = region.y0; y < region.y0 + region.height; ++y) {
        for (int x = region.x0; x < region.x0 + region.width; ++x) {
          const auto cells = renderer.coherence_grid().pixel_cells(x, y);
          marks.emplace_back(cells.begin(), cells.end());
        }
      }
    }
    out.push_back(
        {fb, std::move(r), renderer.coherence_stats(), std::move(marks)});
  }
  return out;
}

void expect_identical_runs(const AnimatedScene& scene, const PixelRect& region,
                           const CoherenceOptions& options, int threads) {
  const std::vector<FrameObservation> seq = observe(scene, region, options, 1);
  const std::vector<FrameObservation> par =
      observe(scene, region, options, threads);
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t f = 0; f < seq.size(); ++f) {
    const FrameObservation& a = seq[f];
    const FrameObservation& b = par[f];
    SCOPED_TRACE("frame " + std::to_string(f) + ", threads " +
                 std::to_string(threads));
    EXPECT_EQ(a.fb, b.fb);
    // Both sides run the same band loop, so they are also held against a
    // from-scratch render of the frame.
    const Framebuffer ref =
        render_world(scene.world_at(static_cast<int>(f)), scene.width(),
                     scene.height(), options.trace);
    EXPECT_TRUE(a.fb.extract(region) == ref.extract(region));
    EXPECT_TRUE(b.fb.extract(region) == ref.extract(region));
    EXPECT_EQ(a.result.pixels_recomputed, b.result.pixels_recomputed);
    EXPECT_EQ(a.result.pixels_total, b.result.pixels_total);
    EXPECT_EQ(a.result.dirty_voxels, b.result.dirty_voxels);
    EXPECT_EQ(a.result.voxels_marked, b.result.voxels_marked);
    EXPECT_EQ(a.result.full_render, b.result.full_render);
    EXPECT_EQ(a.result.stats.camera_rays, b.result.stats.camera_rays);
    EXPECT_EQ(a.result.stats.reflection_rays, b.result.stats.reflection_rays);
    EXPECT_EQ(a.result.stats.refraction_rays, b.result.stats.refraction_rays);
    EXPECT_EQ(a.result.stats.shadow_rays, b.result.stats.shadow_rays);
    EXPECT_EQ(a.result.stats.pixels_shaded, b.result.stats.pixels_shaded);
    EXPECT_TRUE(a.result.recomputed == b.result.recomputed);
    EXPECT_EQ(a.grid.live_marks, b.grid.live_marks);
    EXPECT_EQ(a.grid.total_marks, b.grid.total_marks);
    EXPECT_EQ(a.grid.compactions, b.grid.compactions);
    EXPECT_EQ(a.grid.reserved_marks, b.grid.reserved_marks);
    EXPECT_TRUE(a.pixel_marks == b.pixel_marks);
    // Sequential renders carry no chunk timings; threaded full-region
    // renders must cover the region's row bands exactly once.
    EXPECT_TRUE(a.result.chunks.empty());
    if (threads > 1) {
      int rows = 0;
      for (const ChunkTiming& c : b.result.chunks) rows += c.rows;
      EXPECT_EQ(rows, region.height);
    }
  }
}

TEST(ThreadedRenderer, OrbitSceneMatchesSequential) {
  const AnimatedScene scene = orbit_scene(4, 5, 64, 48);
  for (const int threads : {2, 3, 4}) {
    expect_identical_runs(scene, {0, 0, 64, 48}, {}, threads);
  }
}

TEST(ThreadedRenderer, CradleSceneMatchesSequential) {
  CradleParams params;
  params.frames = 4;
  params.width = 64;
  params.height = 48;
  const AnimatedScene scene = newton_cradle_scene(params);
  expect_identical_runs(scene, {0, 0, 64, 48}, {}, 4);
}

TEST(ThreadedRenderer, RegionRestrictedMatchesSequential) {
  // An off-origin region whose height is not a multiple of the chunk size.
  const AnimatedScene scene = orbit_scene(3, 4, 64, 48);
  expect_identical_runs(scene, {16, 9, 32, 27}, {}, 3);
}

TEST(ThreadedRenderer, DisabledCoherenceMatchesSequential) {
  const AnimatedScene scene = orbit_scene(3, 3, 48, 36);
  CoherenceOptions options;
  options.enabled = false;
  expect_identical_runs(scene, {0, 0, 48, 36}, options, 4);
}

TEST(CoherentRenderer, DisabledCoherenceBuildsNoMarkStore) {
  const AnimatedScene scene = orbit_scene(3, 3, 48, 36);
  CoherenceOptions options;
  options.enabled = false;
  for (const int threads : {1, 2}) {
    options.threads = threads;
    CoherentRenderer renderer(scene, {0, 0, 48, 36}, options);
    Framebuffer fb(48, 36);
    for (int frame = 0; frame < scene.frame_count(); ++frame) {
      EXPECT_EQ(renderer.render_frame(frame, &fb).voxels_marked, 0);
    }
    EXPECT_EQ(renderer.coherence_stats().bytes(), 0);
  }
}

TEST(ThreadedRenderer, BlockGranularityMatchesSequential) {
  const AnimatedScene scene = orbit_scene(3, 4, 64, 48);
  CoherenceOptions options;
  options.block_size = 8;
  expect_identical_runs(scene, {0, 0, 64, 48}, options, 2);
}

TEST(ThreadedRenderer, CameraCutMatchesSequential) {
  const AnimatedScene scene = two_shot_scene(6, 3);
  expect_identical_runs(
      scene, {0, 0, scene.width(), scene.height()}, {}, 4);
}

/// Orbit scene plus a plane that moves every frame: find_dirty_voxels
/// reports all_dirty on every transition, exercising the full-invalidation
/// incremental path.
AnimatedScene all_dirty_scene(int frames) {
  AnimatedScene scene = orbit_scene(2, frames, 48, 36);
  Spline drift;
  drift.add_key(0.0, {0, 0, 0});
  drift.add_key(frames / 15.0, {0, 0.5, 0});
  const int mat = scene.add_material(Material::matte(Color{0.4, 0.4, 0.5}));
  scene.add_object("ceiling", std::make_unique<Plane>(Vec3{0, -1, 0}, -8.0),
                   mat, std::make_unique<KeyframeAnimator>(drift));
  return scene;
}

TEST(ThreadedRenderer, AllDirtyFramesMatchSequential) {
  expect_identical_runs(all_dirty_scene(4), {0, 0, 48, 36}, {}, 4);
}

// Regression for the stale-mark leak: the all_dirty incremental path must
// drop every stored mark before re-marking, leaving the grid with exactly
// the marks a from-scratch render of the same frame would store.
TEST(CoherentRenderer, AllDirtyDropsStaleMarks) {
  const AnimatedScene scene = all_dirty_scene(4);
  const PixelRect region{0, 0, 48, 36};

  CoherentRenderer incremental(scene, region);
  Framebuffer fb(48, 36);
  FrameRenderResult last;
  for (int frame = 0; frame < scene.frame_count(); ++frame) {
    last = incremental.render_frame(frame, &fb);
  }
  ASSERT_FALSE(last.full_render);
  ASSERT_EQ(last.dirty_voxels,
            incremental.coherence_grid().grid().cell_count());

  // A fresh renderer that only ever saw the final frame stores the marks of
  // that frame alone; the incremental renderer must not have accumulated
  // more live marks than that.
  CoherentRenderer fresh(scene, region);
  Framebuffer fresh_fb(48, 36);
  fresh.render_frame(scene.frame_count() - 1, &fresh_fb);
  EXPECT_EQ(incremental.coherence_grid().stats().live_marks,
            fresh.coherence_grid().stats().live_marks);
  EXPECT_EQ(fb, fresh_fb);
}

}  // namespace
}  // namespace now
