// One lattice, one walk: the coherence marks the tracer's own 3D-DDA leaves
// must be exactly the marks of the reference walk — every traced segment
// replayed through RayRecorder::on_segment, which walks it again on the
// coherence lattice — cell for cell and in order. And the accelerator a
// renderer updates in place between frames must equal a fresh build.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/coherent_renderer.h"
#include "src/geom/box.h"
#include "src/geom/plane.h"
#include "src/geom/sphere.h"
#include "src/math/rng.h"
#include "src/scene/builtin_scenes.h"
#include "src/scene/scene_parser.h"

namespace now {
namespace {

/// Every segment a tracer reports, replayable through a RayRecorder.
class SegmentLog final : public RayListener {
 public:
  void on_segment(int px, int py, const Ray& ray, double t_end,
                  RayKind kind) override {
    segments_.push_back({px, py, ray, t_end, kind});
  }
  void replay(RayRecorder* recorder) const {
    for (const Segment& s : segments_) {
      recorder->on_segment(s.px, s.py, s.ray, s.t_end, s.kind);
    }
  }
  void clear() { segments_.clear(); }

 private:
  struct Segment {
    int px;
    int py;
    Ray ray;
    double t_end;
    RayKind kind;
  };
  std::vector<Segment> segments_;
};

AnimatedScene demo_scene(int width, int height) {
  ParseResult parsed =
      parse_scene_file(std::string(NOW_SOURCE_DIR) + "/examples/scenes/demo.scene");
  EXPECT_TRUE(parsed.ok) << parsed.error;
  parsed.scene.set_resolution(width, height);
  return std::move(parsed.scene);
}

AnimatedScene small_cradle(int frames) {
  CradleParams params;
  params.frames = frames;
  params.width = 64;
  params.height = 48;
  return newton_cradle_scene(params);
}

AnimatedScene small_bounce(int frames) {
  BounceParams params;
  params.frames = frames;
  params.width = 64;
  params.height = 48;
  return bouncing_ball_scene(params);
}

/// Render every frame of `scene` and check, for every recomputed pixel,
/// that its marks equal the reference walk's on the renderer's own
/// accelerator, and that voxels_marked counts the reference's cells.
void expect_marks_match_reference(const AnimatedScene& scene,
                                  const PixelRect& region,
                                  const CoherenceOptions& options) {
  CoherentRenderer renderer(scene, region, options);
  Framebuffer fb(scene.width(), scene.height());
  CoherenceGrid reference(renderer.lattice(), region);
  RayRecorder recorder(&reference, options.record_shadow_rays);
  SegmentLog log;
  std::int64_t pixels_checked = 0;
  for (int frame = 0; frame < scene.frame_count(); ++frame) {
    SCOPED_TRACE("frame " + std::to_string(frame));
    const FrameRenderResult r = renderer.render_frame(frame, &fb);
    const World world = scene.world_at(frame);
    Tracer tracer(world, renderer.accelerator(), options.trace);
    tracer.set_listener(&log);
    const std::uint64_t before = recorder.stats().voxels_visited;
    for (int y = region.y0; y < region.y0 + region.height; ++y) {
      for (int x = region.x0; x < region.x0 + region.width; ++x) {
        if (!r.recomputed.at(x, y)) continue;
        log.clear();
        (void)tracer.shade_pixel(x, y, scene.width(), scene.height());
        reference.begin_pixel(x, y);
        log.replay(&recorder);
        const auto want = reference.pixel_cells(x, y);
        const auto got = renderer.coherence_grid().pixel_cells(x, y);
        ASSERT_EQ(std::vector<std::uint32_t>(got.begin(), got.end()),
                  std::vector<std::uint32_t>(want.begin(), want.end()))
            << "pixel (" << x << ", " << y << ")";
        ++pixels_checked;
      }
    }
    EXPECT_EQ(r.voxels_marked, static_cast<std::int64_t>(
                                   recorder.stats().voxels_visited - before));
  }
  EXPECT_GT(pixels_checked, region.area());
}

// ---------------------------------------------------------------------------
// Renderer marks against the reference walk, per scene and configuration.

TEST(CoherentRenderer, FusedMarksMatchReferenceWalkNewton) {
  expect_marks_match_reference(small_cradle(6), {0, 0, 64, 48}, {});
}

TEST(CoherentRenderer, FusedMarksMatchReferenceWalkBouncingBall) {
  // Five planes, a glass ball: refraction and total internal reflection.
  expect_marks_match_reference(small_bounce(6), {0, 0, 64, 48}, {});
}

TEST(CoherentRenderer, FusedMarksMatchReferenceWalkOrbit) {
  expect_marks_match_reference(orbit_scene(4, 5, 64, 48), {0, 0, 64, 48}, {});
}

TEST(CoherentRenderer, FusedMarksMatchReferenceWalkDemoScene) {
  // 24 frames across a camera cut.
  const AnimatedScene scene = demo_scene(64, 48);
  expect_marks_match_reference(scene, {0, 0, 64, 48}, {});
}

TEST(CoherentRenderer, FusedMarksMatchReferenceWalkWithoutShadowMarks) {
  CoherenceOptions options;
  options.trace.shadows = false;
  options.record_shadow_rays = false;
  expect_marks_match_reference(small_cradle(5), {0, 0, 64, 48}, options);
}

TEST(CoherentRenderer, FusedMarksMatchReferenceWalkOnGridOverrides) {
  const AnimatedScene scene = small_bounce(4);
  const Aabb extent = animation_extent(scene).padded(0.01);
  for (const int n : {2, 40}) {
    SCOPED_TRACE("grid " + std::to_string(n));
    CoherenceOptions options;
    options.grid_override = VoxelGrid(extent, n, n, n);
    expect_marks_match_reference(scene, {0, 0, 64, 48}, options);
  }
}

TEST(CoherentRenderer, FusedMarksMatchReferenceWalkOnAPartialGridOverride) {
  // A lattice over only part of the scene: objects reaching out of it are
  // tested for every ray, and marks still follow the reference walk.
  const AnimatedScene scene = small_cradle(4);
  const Aabb extent = animation_extent(scene);
  CoherenceOptions options;
  options.grid_override =
      VoxelGrid({extent.lo, extent.center()}, 6, 5, 4);
  expect_marks_match_reference(scene, {0, 0, 64, 48}, options);
  // The full first frame: every hit found, in the lattice or out of it.
  CoherentRenderer renderer(scene, {0, 0, 64, 48}, options);
  Framebuffer fb(64, 48);
  renderer.render_frame(0, &fb);
  EXPECT_EQ(fb, render_world(scene.world_at(0), 64, 48, options.trace));
}

TEST(CoherentRenderer, FusedMarksMatchReferenceWalkInBlockMode) {
  CoherenceOptions options;
  options.block_size = 8;
  expect_marks_match_reference(orbit_scene(3, 4, 64, 48), {0, 0, 64, 48},
                               options);
}

TEST(ThreadedRenderer, FusedMarksMatchReferenceWalk) {
  const AnimatedScene cradle = small_cradle(5);
  const AnimatedScene demo = demo_scene(48, 36);
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    CoherenceOptions options;
    options.threads = threads;
    expect_marks_match_reference(cradle, {0, 0, 64, 48}, options);
    expect_marks_match_reference(cradle, {8, 5, 40, 30}, options);
    expect_marks_match_reference(demo, {0, 0, 48, 36}, options);
  }
}

// ---------------------------------------------------------------------------
// Edge rays through one tracer: fused marks against the reference walk.

struct EdgeWorld {
  World world;
  VoxelGrid lattice{{{0, 0, 0}, {4, 4, 4}}, 4, 4, 4};

  EdgeWorld() {
    world.add_material(Material{});
    // A box whose faces lie on cell faces, a sphere, and a plane that lies
    // in front of the lattice for rays coming from z < 0.
    world.add_object(
        std::make_unique<Box>(Box::from_corners({2, 1, 1}, {3, 2, 3})), 0, 0);
    world.add_object(std::make_unique<Sphere>(Vec3{1, 3, 2.5}, 0.6), 0, 1);
    world.add_object(std::make_unique<Plane>(Vec3{0, 0, 1}, -0.5), 0, 2);
    world.add_light(Light::point({3.5, 3.5, -2}, Color::white()));
  }
};

/// Trace `rays` (one pixel each) with marking fused and with the reference
/// walk, and compare every pixel's marks.
void expect_edge_rays_match(const EdgeWorld& ew, const std::vector<Ray>& rays) {
  const UniformGridAccelerator accel(ew.world, ew.lattice);
  const PixelRect region{0, 0, 64, 64};
  ASSERT_LE(rays.size(), static_cast<std::size_t>(region.area()));
  CoherenceGrid fused(ew.lattice, region);
  CoherenceGrid reference(ew.lattice, region);
  RayRecorder fused_recorder(&fused);
  RayRecorder reference_recorder(&reference);
  SegmentLog log;
  Tracer fused_tracer(ew.world, accel);
  fused_tracer.set_listener(&fused_recorder);
  Tracer logged_tracer(ew.world, accel);
  logged_tracer.set_listener(&log);
  for (std::size_t i = 0; i < rays.size(); ++i) {
    const int px = static_cast<int>(i) % region.width;
    const int py = static_cast<int>(i) / region.width;
    fused_tracer.trace(rays[i], 0, 1.0, px, py, RayKind::kCamera);
    logged_tracer.trace(rays[i], 0, 1.0, px, py, RayKind::kCamera);
  }
  log.replay(&reference_recorder);
  EXPECT_EQ(fused_recorder.stats().segments,
            reference_recorder.stats().segments);
  EXPECT_EQ(fused_recorder.stats().voxels_visited,
            reference_recorder.stats().voxels_visited);
  for (std::size_t i = 0; i < rays.size(); ++i) {
    const int px = static_cast<int>(i) % region.width;
    const int py = static_cast<int>(i) / region.width;
    const auto want = reference.pixel_cells(px, py);
    const auto got = fused.pixel_cells(px, py);
    ASSERT_EQ(std::vector<std::uint32_t>(got.begin(), got.end()),
              std::vector<std::uint32_t>(want.begin(), want.end()))
        << "ray " << i << " from " << rays[i].origin.x << ","
        << rays[i].origin.y << "," << rays[i].origin.z;
  }
}

TEST(CoherentRenderer, FusedMarksMatchReferenceWalkOnEdgeRays) {
  const EdgeWorld ew;
  expect_edge_rays_match(
      ew, {
              // Origin on a cell face.
              {{1.0, 0.5, 0.5}, {1.0, 0.3, 0.2}},
              {{2.0, 2.0, 2.0}, {-1.0, -0.5, 0.25}},
              // Axis-parallel directions, inside and from outside.
              {{0.5, 0.5, 3.5}, {0.0, 0.0, -1.0}},
              {{-1.0, 1.5, 2.0}, {1.0, 0.0, 0.0}},
              {{2.5, 6.0, 2.0}, {0.0, -1.0, 0.0}},
              // Along a cell edge.
              {{-1.0, 2.0, 2.0}, {1.0, 0.0, 0.0}},
              // Hits exactly on a face: the box's x = 2 face is a cell face.
              {{-2.0, 1.5, 2.0}, {1.0, 0.0, 0.0}},
              {{2.5, 1.5, -3.0}, {0.0, 0.0, 1.0}},
              // An unbounded hit in front of the lattice (plane z = -0.5),
              // and one grazing its entry.
              {{2.0, 2.0, -3.0}, {0.1, 0.1, 1.0}},
              {{2.0, 2.0, -3.0}, {0.0, 0.3, 1.0}},
              // Misses the lattice entirely.
              {{-5.0, -5.0, 6.0}, {0.0, 1.0, 0.0}},
          });
}

TEST(CoherentRenderer, FusedMarksMatchReferenceWalkOnLatticeSnappedRays) {
  // Origins on cell faces, edges and corners, directions along axes,
  // diagonals and at random: the degenerate inputs of a 3D-DDA.
  const EdgeWorld ew;
  Rng rng(5);
  std::vector<Ray> rays;
  const auto pick = [&](int lo, int hi) {
    return lo + static_cast<int>(rng.next_below(static_cast<std::uint32_t>(hi - lo + 1)));
  };
  const auto snapped = [&] { return pick(-4, 12) * 0.5; };
  while (rays.size() < 64 * 64) {
    const Vec3 origin{snapped(), snapped(), snapped()};
    Vec3 dir;
    switch (pick(0, 2)) {
      case 0: dir[pick(0, 2)] = pick(0, 1) == 0 ? 1.0 : -1.0; break;
      case 1:
        dir = {static_cast<double>(pick(-1, 1)),
               static_cast<double>(pick(-1, 1)),
               static_cast<double>(pick(-1, 1))};
        break;
      default:
        dir = {rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
    }
    if (dir.length() == 0.0) continue;
    rays.push_back({origin, dir});
  }
  expect_edge_rays_match(ew, rays);
}

/// A sheet at x = 1.5 whose bounds claim x in [2.2, 2.8]: the grid lists it
/// only in later cells than the one holding its hit, so a trace finds the
/// hit one cell past the marking limit — the float disagreement between a
/// primitive's intersection and the DDA's face parameters, made large.
class MisplacedSheet final : public Primitive {
 public:
  ShapeType type() const override { return ShapeType::kBox; }
  bool intersect(const Ray& ray, double t_min, double t_max,
                 Hit* hit) const override {
    if (ray.direction.x == 0.0) return false;
    const double t = (1.5 - ray.origin.x) / ray.direction.x;
    if (t <= t_min || t >= t_max) return false;
    hit->t = t;
    hit->point = ray.at(t);
    hit->set_normal(ray, {-1, 0, 0});
    return true;
  }
  Aabb bounds() const override { return {{2.2, 0.0, 0.0}, {2.8, 4.0, 4.0}}; }
  std::unique_ptr<Primitive> transformed(const Transform&) const override {
    return clone();
  }
  std::unique_ptr<Primitive> clone() const override {
    return std::make_unique<MisplacedSheet>();
  }
};

TEST(CoherentRenderer, FusedMarksMatchReferenceWalkWhenTheHitPrecedesItsCell) {
  EdgeWorld ew;
  ew.world = World();
  ew.world.add_material(Material{});
  ew.world.add_object(std::make_unique<MisplacedSheet>(), 0, 0);
  expect_edge_rays_match(ew, {{{-1.0, 0.5, 0.5}, {1.0, 0.0, 0.0}},
                              {{-1.0, 1.5, 2.5}, {1.0, 0.1, 0.05}}});
}

// ---------------------------------------------------------------------------
// In-place accelerator update against a fresh build.

void expect_lists_equal(const UniformGridAccelerator& a,
                        const UniformGridAccelerator& b) {
  ASSERT_TRUE(a.grid() == b.grid());
  EXPECT_EQ(a.unbounded_objects(), b.unbounded_objects());
  for (int c = 0; c < static_cast<int>(a.grid().cell_count()); ++c) {
    ASSERT_EQ(a.cell_objects(c), b.cell_objects(c)) << "cell " << c;
  }
}

void expect_updates_match_fresh_builds(const AnimatedScene& scene) {
  const VoxelGrid lattice = VoxelGrid::heuristic(
      animation_extent(scene), scene.object_count(), 3.0, 64);
  World world = scene.world_at(0);
  UniformGridAccelerator updated(world, lattice);
  int moves = 0;
  for (int frame = 1; frame < scene.frame_count(); ++frame) {
    SCOPED_TRACE("frame " + std::to_string(frame));
    const std::vector<int> moved = scene.changed_objects(frame - 1, frame);
    moves += static_cast<int>(moved.size());
    world = scene.world_at(frame);
    updated.update(moved);
    const World fresh_world = scene.world_at(frame);
    expect_lists_equal(updated, UniformGridAccelerator(fresh_world, lattice));
  }
  EXPECT_GT(moves, 0);
}

TEST(UniformGrid, InPlaceUpdateEqualsFreshBuildNewton) {
  expect_updates_match_fresh_builds(small_cradle(12));
}

TEST(UniformGrid, InPlaceUpdateEqualsFreshBuildBouncingBall) {
  expect_updates_match_fresh_builds(small_bounce(12));
}

TEST(UniformGrid, InPlaceUpdateEqualsFreshBuildDemoScene) {
  expect_updates_match_fresh_builds(demo_scene(32, 24));
}

TEST(CoherentRenderer, AcceleratorUpdatedInPlaceEqualsFreshBuild) {
  // The renderer's own accelerator, frame after frame, on its lattice.
  const AnimatedScene scene = small_bounce(8);
  CoherentRenderer renderer(scene, {0, 0, 64, 48});
  Framebuffer fb(64, 48);
  for (int frame = 0; frame < scene.frame_count(); ++frame) {
    SCOPED_TRACE("frame " + std::to_string(frame));
    renderer.render_frame(frame, &fb);
    const World world = scene.world_at(frame);
    expect_lists_equal(renderer.accelerator(),
                       UniformGridAccelerator(world, renderer.lattice()));
  }
}

TEST(CoherentRenderer, MovingPlaneRebuildsTheAccelerator) {
  // A moved plane dirties every voxel: the frame takes the fresh-build path
  // (a new accelerator), not an in-place update, and stays exact.
  AnimatedScene scene;
  scene.set_resolution(48, 36);
  scene.set_frames(4, 15.0);
  const int mat = scene.add_material(Material{});
  Spline lift(InterpMode::kLinear);
  lift.add_key(0.0, {0, 0, 0});
  lift.add_key(1.0, {0, 0.5, 0});
  scene.add_object("floor", std::make_unique<Plane>(Vec3{0, 1, 0}, 0.0), mat,
                   std::make_unique<KeyframeAnimator>(std::move(lift)));
  scene.add_object("ball", std::make_unique<Sphere>(Vec3{0, 1, 0}, 0.5), mat);
  scene.set_camera(Camera({0, 1.5, 5}, {0, 1, 0}, {0, 1, 0}, 45.0, 48.0 / 36.0));
  scene.add_light(Light::point({2, 4, 3}, Color::white()));
  CoherentRenderer renderer(scene, {0, 0, 48, 36});
  Framebuffer fb(48, 36);
  renderer.render_frame(0, &fb);
  for (int frame = 1; frame < scene.frame_count(); ++frame) {
    SCOPED_TRACE("frame " + std::to_string(frame));
    const UniformGridAccelerator* before = &renderer.accelerator();
    const FrameRenderResult r = renderer.render_frame(frame, &fb);
    EXPECT_FALSE(r.full_render);
    EXPECT_EQ(r.dirty_voxels, renderer.lattice().cell_count());
    // The new build exists before the old one is freed: a new address.
    EXPECT_NE(&renderer.accelerator(), before);
    const World world = scene.world_at(frame);
    expect_lists_equal(renderer.accelerator(),
                       UniformGridAccelerator(world, renderer.lattice()));
    EXPECT_EQ(fb, render_world(world, 48, 36, {}));
  }
}

}  // namespace
}  // namespace now
