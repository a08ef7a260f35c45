// CoherentRenderer: the byte-identical-output guarantee and the bookkeeping
// around full vs incremental renders.
#include "src/core/coherent_renderer.h"

#include <gtest/gtest.h>

#include "src/scene/builtin_scenes.h"

namespace now {
namespace {

Framebuffer reference_frame(const AnimatedScene& scene, int frame,
                            const TraceOptions& trace) {
  return render_world(scene.world_at(frame), scene.width(), scene.height(),
                      trace);
}

TEST(CoherentRenderer, FirstFrameIsFullRender) {
  const AnimatedScene scene = orbit_scene(3, 5, 64, 48);
  CoherentRenderer renderer(scene, {0, 0, 64, 48});
  Framebuffer fb(64, 48);
  const FrameRenderResult r = renderer.render_frame(0, &fb);
  EXPECT_TRUE(r.full_render);
  EXPECT_EQ(r.pixels_recomputed, 64 * 48);
}

TEST(CoherentRenderer, MatchesFullRenderEveryFrame) {
  const AnimatedScene scene = orbit_scene(4, 6, 64, 48);
  CoherenceOptions options;
  CoherentRenderer renderer(scene, {0, 0, 64, 48}, options);
  Framebuffer fb(64, 48);
  for (int frame = 0; frame < scene.frame_count(); ++frame) {
    const FrameRenderResult r = renderer.render_frame(frame, &fb);
    const Framebuffer ref = reference_frame(scene, frame, options.trace);
    ASSERT_EQ(fb, ref) << "coherent render diverged at frame " << frame
                       << " (recomputed " << r.pixels_recomputed << ")";
  }
}

TEST(CoherentRenderer, IncrementalFramesRecomputeFewerPixels) {
  const AnimatedScene scene = orbit_scene(3, 6, 64, 48);
  CoherentRenderer renderer(scene, {0, 0, 64, 48});
  Framebuffer fb(64, 48);
  renderer.render_frame(0, &fb);
  const FrameRenderResult r = renderer.render_frame(1, &fb);
  EXPECT_FALSE(r.full_render);
  EXPECT_LT(r.pixels_recomputed, r.pixels_total);
  EXPECT_GT(r.pixels_recomputed, 0);
}

TEST(CoherentRenderer, StaticSceneRecomputesNothing) {
  // Build a scene whose objects never move: every incremental frame should
  // recompute zero pixels and trace zero rays.
  Rng rng(11);
  AnimatedScene scene = random_scene(&rng, 5, 4);
  // Strip the animators.
  AnimatedScene static_scene;
  static_scene.set_frames(scene.frame_count(), scene.fps());
  static_scene.set_resolution(scene.width(), scene.height());
  static_scene.set_background(scene.background());
  static_scene.set_camera(scene.camera_at(0));
  for (int m = 0; m < scene.material_count(); ++m) {
    static_scene.add_material(scene.material(m));
  }
  for (int i = 0; i < scene.light_count(); ++i) {
    static_scene.add_light(scene.light_at(i, 0));
  }
  for (int i = 0; i < scene.object_count(); ++i) {
    static_scene.add_object(scene.object(i).name,
                            scene.object(i).local->clone(),
                            scene.object(i).material_id, nullptr);
  }

  CoherentRenderer renderer(static_scene, {0, 0, 64, 48});
  Framebuffer fb(64, 48);
  renderer.render_frame(0, &fb);
  for (int frame = 1; frame < static_scene.frame_count(); ++frame) {
    const FrameRenderResult r = renderer.render_frame(frame, &fb);
    EXPECT_EQ(r.pixels_recomputed, 0) << "frame " << frame;
    EXPECT_EQ(r.stats.total_rays(), 0u) << "frame " << frame;
  }
}

TEST(CoherentRenderer, DisabledCoherenceAlwaysFullRenders) {
  const AnimatedScene scene = orbit_scene(3, 3, 48, 36);
  CoherenceOptions options;
  options.enabled = false;
  CoherentRenderer renderer(scene, {0, 0, 48, 36}, options);
  Framebuffer fb(48, 36);
  for (int frame = 0; frame < 3; ++frame) {
    const FrameRenderResult r = renderer.render_frame(frame, &fb);
    EXPECT_TRUE(r.full_render);
    EXPECT_EQ(r.pixels_recomputed, 48 * 36);
  }
}

TEST(CoherentRenderer, RegionRendererOnlyTouchesItsRegion) {
  const AnimatedScene scene = orbit_scene(4, 4, 64, 48);
  const PixelRect region{16, 8, 32, 24};
  CoherenceOptions options;
  CoherentRenderer renderer(scene, region, options);
  const Rgb8 sentinel{12, 34, 56};
  Framebuffer fb(64, 48, sentinel);
  for (int frame = 0; frame < 4; ++frame) {
    renderer.render_frame(frame, &fb);
  }
  const Framebuffer ref = reference_frame(scene, 3, options.trace);
  for (int y = 0; y < 48; ++y) {
    for (int x = 0; x < 64; ++x) {
      if (region.contains(x, y)) {
        EXPECT_EQ(fb.at(x, y), ref.at(x, y)) << x << "," << y;
      } else {
        EXPECT_EQ(fb.at(x, y), sentinel) << x << "," << y;
      }
    }
  }
}

TEST(CoherentRenderer, CameraCutForcesFullRender) {
  const AnimatedScene scene = two_shot_scene(6, 3);
  CoherentRenderer renderer(scene, {0, 0, scene.width(), scene.height()});
  Framebuffer fb(scene.width(), scene.height());
  for (int frame = 0; frame < 6; ++frame) {
    const FrameRenderResult r = renderer.render_frame(frame, &fb);
    if (frame == 0 || frame == 3) {
      EXPECT_TRUE(r.full_render) << "frame " << frame;
    } else {
      EXPECT_FALSE(r.full_render) << "frame " << frame;
    }
  }
}

TEST(CoherentRenderer, OutOfOrderFrameContinuesCoherence) {
  // Coherence compares the last rendered world with the next one directly,
  // so a skip ahead under the same camera and lights is incremental.
  const AnimatedScene scene = orbit_scene(3, 8, 48, 36);
  CoherentRenderer renderer(scene, {0, 0, 48, 36});
  Framebuffer fb(48, 36);
  renderer.render_frame(0, &fb);
  renderer.render_frame(1, &fb);
  const FrameRenderResult r = renderer.render_frame(5, &fb);  // skip ahead
  EXPECT_FALSE(r.full_render);
  EXPECT_LT(r.pixels_recomputed, r.pixels_total);
  const Framebuffer ref = reference_frame(scene, 5, TraceOptions{});
  EXPECT_EQ(fb, ref);
}

TEST(CoherentRenderer, FramesInAnyOrderMatchFullRender) {
  // Forward jumps, backward jumps and repeats, on a whole frame and on a
  // tile: every frame equals a from-scratch render, only the first is a full
  // render, and a repeated frame recomputes nothing.
  const AnimatedScene scene = orbit_scene(4, 10, 64, 48);
  const std::vector<int> order = {0, 3, 9, 2, 2, 5, 1, 8, 0, 0, 7, 4};
  for (const PixelRect& region :
       {PixelRect{0, 0, 64, 48}, PixelRect{16, 8, 32, 24}}) {
    CoherentRenderer renderer(scene, region);
    Framebuffer fb(64, 48);
    int last = -1;
    for (std::size_t i = 0; i < order.size(); ++i) {
      const int frame = order[i];
      const FrameRenderResult r = renderer.render_frame(frame, &fb);
      EXPECT_EQ(r.full_render, i == 0) << "step " << i;
      if (frame == last) {
        EXPECT_EQ(r.pixels_recomputed, 0) << "step " << i;
        EXPECT_EQ(r.dirty_voxels, 0) << "step " << i;
      }
      const Framebuffer ref = reference_frame(scene, frame, TraceOptions{});
      for (int y = region.y0; y < region.y0 + region.height; ++y) {
        for (int x = region.x0; x < region.x0 + region.width; ++x) {
          ASSERT_EQ(fb.at(x, y), ref.at(x, y))
              << "step " << i << " frame " << frame << " pixel " << x << ","
              << y;
        }
      }
      last = frame;
    }
  }
}

TEST(CoherentRenderer, JumpAcrossCameraCutIsFullRender) {
  // Frames 0-3 and 6-7 share the scene's camera; frames 4-5 use another.
  AnimatedScene scene = orbit_scene(3, 8, 48, 36);
  const Camera first = scene.camera_at(0);
  scene.add_camera_cut(
      4, Camera({5, 5, 5}, {0, 0, 0}, {0, 1, 0}, 50.0, 48.0 / 36.0));
  scene.add_camera_cut(6, first);
  CoherentRenderer renderer(scene, {0, 0, 48, 36});
  Framebuffer fb(48, 36);
  // {frame, full render expected}: into the cut, within it, out of it, and
  // from before the cut to after it (equal cameras: continues).
  const std::vector<std::pair<int, bool>> steps = {
      {1, true}, {5, true}, {4, false}, {2, true}, {7, false}, {0, false}};
  for (const auto& [frame, full] : steps) {
    const FrameRenderResult r = renderer.render_frame(frame, &fb);
    EXPECT_EQ(r.full_render, full) << "frame " << frame;
    ASSERT_EQ(fb, reference_frame(scene, frame, TraceOptions{}))
        << "frame " << frame;
  }
}

TEST(CoherentRenderer, JumpAcrossLightChangeIsFullRender) {
  // The light moves over frames 0-3 and rests from frame 3 on.
  AnimatedScene scene = orbit_scene(3, 8, 48, 36);
  Spline path(InterpMode::kLinear);
  path.add_key(0.0, {0, 0, 0});
  path.add_key(scene.frame_time(3), {2, 0, 0});
  scene.add_light(Light::point({-3, 4, 2}, Color{0.8, 0.7, 0.6}, 0.6),
                  std::make_unique<KeyframeAnimator>(std::move(path)));
  ASSERT_FALSE(scene.lights_changed(3, 7));
  CoherentRenderer renderer(scene, {0, 0, 48, 36});
  Framebuffer fb(48, 36);
  // {frame, full render expected}.
  const std::vector<std::pair<int, bool>> steps = {
      {6, true}, {3, false}, {1, true}, {5, true}, {7, false}, {4, false}};
  for (const auto& [frame, full] : steps) {
    const FrameRenderResult r = renderer.render_frame(frame, &fb);
    EXPECT_EQ(r.full_render, full) << "frame " << frame;
    ASSERT_EQ(fb, reference_frame(scene, frame, TraceOptions{}))
        << "frame " << frame;
  }
}

TEST(CoherentRenderer, BlockModeMatchesFullRenderToo) {
  const AnimatedScene scene = orbit_scene(3, 4, 64, 48);
  CoherenceOptions options;
  options.block_size = 8;  // Jevans-style blocks
  CoherentRenderer renderer(scene, {0, 0, 64, 48}, options);
  Framebuffer fb(64, 48);
  for (int frame = 0; frame < 4; ++frame) {
    renderer.render_frame(frame, &fb);
    const Framebuffer ref = reference_frame(scene, frame, options.trace);
    ASSERT_EQ(fb, ref) << "frame " << frame;
  }
}

TEST(CoherentRenderer, BlockModeRecomputesAtLeastAsManyPixels) {
  const AnimatedScene scene = orbit_scene(3, 4, 64, 48);
  CoherenceOptions pixel_opts;
  CoherenceOptions block_opts;
  block_opts.block_size = 16;
  CoherentRenderer pixel_r(scene, {0, 0, 64, 48}, pixel_opts);
  CoherentRenderer block_r(scene, {0, 0, 64, 48}, block_opts);
  Framebuffer fb1(64, 48), fb2(64, 48);
  pixel_r.render_frame(0, &fb1);
  block_r.render_frame(0, &fb2);
  for (int frame = 1; frame < 4; ++frame) {
    const auto rp = pixel_r.render_frame(frame, &fb1);
    const auto rb = block_r.render_frame(frame, &fb2);
    EXPECT_GE(rb.pixels_recomputed, rp.pixels_recomputed) << "frame " << frame;
  }
}

TEST(CoherentRenderer, MovingLightForcesFullRenderAndStaysCorrect) {
  // A moving light is outside the voxel change model: every frame where the
  // light moved must be a (correct) full render.
  AnimatedScene scene = orbit_scene(3, 5, 48, 36);
  Spline path(InterpMode::kLinear);
  path.add_key(0.0, {0, 0, 0});
  path.add_key(4.0 / 15.0, {2, 0, 0});
  scene.add_light(Light::point({-3, 4, 2}, Color{0.8, 0.7, 0.6}, 0.6),
                  std::make_unique<KeyframeAnimator>(std::move(path)));

  CoherentRenderer renderer(scene, {0, 0, 48, 36});
  Framebuffer fb(48, 36);
  for (int frame = 0; frame < scene.frame_count(); ++frame) {
    const FrameRenderResult r = renderer.render_frame(frame, &fb);
    EXPECT_TRUE(r.full_render) << "frame " << frame;
    const Framebuffer ref = reference_frame(scene, frame, TraceOptions{});
    ASSERT_EQ(fb, ref) << "frame " << frame;
  }
}

TEST(CoherentRenderer, PredictDirtyIsSupersetOfActualChange) {
  const AnimatedScene scene = orbit_scene(4, 5, 64, 48);
  CoherentRenderer renderer(scene, {0, 0, 64, 48});
  Framebuffer fb(64, 48);
  renderer.render_frame(0, &fb);
  Framebuffer prev = fb;
  for (int frame = 1; frame < 5; ++frame) {
    const PixelMask predicted = renderer.predict_dirty(frame);
    renderer.render_frame(frame, &fb);
    const PixelMask actual = actual_diff_mask(prev, fb);
    EXPECT_TRUE(actual.subset_of(predicted))
        << "frame " << frame << ": "
        << actual.minus(predicted).count() << " false negatives";
    prev = fb;
  }
}

}  // namespace
}  // namespace now
