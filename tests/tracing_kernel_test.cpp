// Exactness of the scalar tracing kernel. The uniform grid tests each
// object at most once per query (its mailbox), which is exact only under
// the open-interval contract every Primitive::intersect keeps: it reports
// the nearest root in (t_min, t_max), so a miss stays a miss when t_max
// shrinks and a hit at t is a miss over (t_min, t). The lattice entry and
// the textures take floors without std::floor, which must give the cells
// and lattice points the floor-based code gave.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/core/coherent_renderer.h"
#include "src/geom/box.h"
#include "src/geom/cylinder.h"
#include "src/geom/disc.h"
#include "src/geom/plane.h"
#include "src/geom/sphere.h"
#include "src/geom/triangle.h"
#include "src/math/rng.h"
#include "src/scene/builtin_scenes.h"
#include "src/scene/scene_parser.h"
#include "src/trace/render.h"
#include "src/trace/texture.h"
#include "src/trace/uniform_grid.h"

namespace now {
namespace {

bool same_hit(const Hit& a, const Hit& b) {
  return a.t == b.t && a.point == b.point && a.normal == b.normal &&
         a.front_face == b.front_face && a.object_id == b.object_id;
}

/// A closed triangle mesh around `center`: enough triangles that the
/// mesh's own BVH has inner nodes.
std::unique_ptr<Mesh> ball_mesh(const Vec3& center, double radius) {
  constexpr int kRings = 6;
  constexpr int kSegments = 8;
  std::vector<Vec3> verts;
  std::vector<int> faces;
  for (int r = 0; r <= kRings; ++r) {
    const double phi = kPi * r / kRings;
    for (int s = 0; s < kSegments; ++s) {
      const double theta = kTwoPi * s / kSegments;
      verts.push_back(center + Vec3{std::sin(phi) * std::cos(theta),
                                    std::cos(phi),
                                    std::sin(phi) * std::sin(theta)} *
                                   radius);
    }
  }
  for (int r = 0; r < kRings; ++r) {
    for (int s = 0; s < kSegments; ++s) {
      const int a = r * kSegments + s;
      const int b = r * kSegments + (s + 1) % kSegments;
      const int c = a + kSegments;
      const int d = b + kSegments;
      faces.insert(faces.end(), {a, c, b, b, c, d});
    }
  }
  return std::make_unique<Mesh>(std::move(verts), std::move(faces));
}

std::vector<std::unique_ptr<Primitive>> one_of_each_shape() {
  std::vector<std::unique_ptr<Primitive>> shapes;
  shapes.push_back(std::make_unique<Sphere>(Vec3{0.1, -0.2, 0.3}, 0.9));
  shapes.push_back(std::make_unique<Plane>(Vec3{0, 0.6, 0.8}, 0.25));
  shapes.push_back(std::make_unique<Box>(
      Vec3{0.2, 0, 0.1}, Vec3{0.6, 0.4, 0.8},
      Mat3::axis_angle(Vec3{1, 2, 2} / 3.0, 0.7)));
  shapes.push_back(std::make_unique<Cylinder>(Vec3{-0.5, -0.8, 0},
                                              Vec3{0.4, 0.9, 0.2}, 0.3));
  shapes.push_back(
      std::make_unique<Disc>(Vec3{0, 0.1, 0}, Vec3{0, 0.6, 0.8}, 0.9));
  shapes.push_back(std::make_unique<Triangle>(
      Vec3{-1, 0, 0}, Vec3{1, -0.2, 0.3}, Vec3{0, 1, -0.2}));
  shapes.push_back(ball_mesh({0, 0.2, -0.1}, 1.1));
  return shapes;
}

TEST(OpenIntervalContract, EveryShapeReportsTheNearestRootInsideTheInterval) {
  const auto shapes = one_of_each_shape();
  ASSERT_EQ(shapes.size(), 7u);  // one per ShapeType
  for (const auto& shape : shapes) {
    const char* name = to_string(shape->type());
    Rng rng(0x5eed + static_cast<std::uint64_t>(shape->type()));
    int hits = 0;
    for (int i = 0; i < 4000; ++i) {
      // Half the rays start well outside, half near the shape (some
      // inside); t_min is sometimes past the near surface.
      const Ray ray{i % 2 == 0 ? rng.point_in_box({-3, -3, -3}, {3, 3, 3})
                               : rng.point_in_box({-0.5, -0.5, -0.5},
                                                  {0.5, 0.5, 0.5}),
                    rng.unit_vector() * rng.uniform(0.5, 2.0)};
      const double t_min = i % 3 == 0 ? rng.uniform(0.0, 2.0) : kRayEpsilon;
      Hit full;
      if (!shape->intersect(ray, t_min, kRayInfinity, &full)) {
        // A miss stays a miss under any smaller t_max.
        Hit h;
        const double t_max = rng.uniform(t_min, 10.0);
        ASSERT_FALSE(shape->intersect(ray, t_min, t_max, &h))
            << name << " ray " << i;
        continue;
      }
      ++hits;
      ASSERT_GT(full.t, t_min) << name << " ray " << i;
      ASSERT_LT(full.t, kRayInfinity) << name << " ray " << i;
      // A hit at t is a miss over (t_min, t) and over any shorter range.
      Hit h;
      ASSERT_FALSE(shape->intersect(ray, t_min, full.t, &h))
          << name << " ray " << i << " t " << full.t;
      ASSERT_FALSE(shape->intersect(ray, t_min,
                                    rng.uniform(t_min, full.t), &h))
          << name << " ray " << i;
      // ... and the same hit, bit for bit, over any range that holds t.
      for (const double t_max :
           {std::nextafter(full.t, kRayInfinity), full.t * 2.0 + 1.0}) {
        Hit again;
        ASSERT_TRUE(shape->intersect(ray, t_min, t_max, &again))
            << name << " ray " << i;
        ASSERT_TRUE(same_hit(full, again)) << name << " ray " << i;
      }
    }
    EXPECT_GT(hits, 200) << name;  // the rays do find the shape
  }
}

/// Every segment a render traces, with the range its query used.
class SegmentLog final : public RayListener {
 public:
  struct Segment {
    Ray ray;
    double t_end;
    RayKind kind;
  };
  void on_segment(int, int, const Ray& ray, double t_end,
                  RayKind kind) override {
    segments.push_back({ray, t_end, kind});
  }
  std::vector<Segment> segments;
};

/// The grid answers every query the way the brute-force reference does,
/// and bit for bit the same with no trail, with a fresh trail per query,
/// and with one trail (one mailbox) reused across all queries, recording
/// or not. Shadow queries use the range the tracer gives them.
void expect_grid_exact(const World& world, const UniformGridAccelerator& grid,
                       const std::vector<SegmentLog::Segment>& segments) {
  const BruteForceAccelerator brute(world);
  CellTrail reused;
  CellTrail reused_silent;
  reused_silent.record = false;
  std::uint64_t hits = 0;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const SegmentLog::Segment& s = segments[i];
    const bool shadow = s.kind == RayKind::kShadow;
    const double t_max =
        shadow ? s.t_end - 2.0 * kRayEpsilon : kRayInfinity;
    const auto query = [&](const Accelerator& accel, Hit* hit,
                           CellTrail* trail) {
      return shadow ? accel.any_hit(s.ray, kRayEpsilon, t_max, hit, trail)
                    : accel.closest_hit(s.ray, kRayEpsilon, t_max, hit, trail);
    };
    Hit ref, bare, fresh_hit, reused_hit, silent_hit;
    CellTrail fresh;
    const bool found = query(brute, &ref, nullptr);
    ASSERT_EQ(query(grid, &bare, nullptr), found) << "segment " << i;
    ASSERT_EQ(query(grid, &fresh_hit, &fresh), found) << "segment " << i;
    ASSERT_EQ(query(grid, &reused_hit, &reused), found) << "segment " << i;
    ASSERT_EQ(query(grid, &silent_hit, &reused_silent), found)
        << "segment " << i;
    ASSERT_EQ(fresh.cells, reused.cells) << "segment " << i;
    ASSERT_TRUE(reused_silent.cells.empty());
    if (!found) continue;
    ++hits;
    // Any-hit may stop at another blocker than the reference's first.
    if (!shadow) {
      ASSERT_EQ(ref.object_id, bare.object_id) << "segment " << i;
      ASSERT_EQ(ref.t, bare.t) << "segment " << i;
    }
    ASSERT_TRUE(same_hit(bare, fresh_hit)) << "segment " << i;
    ASSERT_TRUE(same_hit(bare, reused_hit)) << "segment " << i;
    ASSERT_TRUE(same_hit(bare, silent_hit)) << "segment " << i;
  }
  EXPECT_GT(hits, segments.size() / 4);
}

std::vector<SegmentLog::Segment> traced_segments(const World& world,
                                                 const Accelerator& accel,
                                                 int width, int height) {
  Tracer tracer(world, accel);
  SegmentLog log;
  tracer.set_listener(&log);
  Framebuffer fb(width, height);
  render_frame(&tracer, &fb);
  return std::move(log.segments);
}

AnimatedScene demo_scene(int width, int height) {
  ParseResult parsed = parse_scene_file(std::string(NOW_SOURCE_DIR) +
                                        "/examples/scenes/demo.scene");
  EXPECT_TRUE(parsed.ok) << parsed.error;
  parsed.scene.set_resolution(width, height);
  return std::move(parsed.scene);
}

/// Each scene frame on the coherence lattice a renderer would build.
void expect_scene_exact(const AnimatedScene& scene, int frame) {
  const CoherenceOptions defaults;
  const VoxelGrid lattice = VoxelGrid::heuristic(
      animation_extent(scene), scene.object_count(), defaults.grid_density,
      defaults.grid_max_axis);
  const World world = scene.world_at(frame);
  const UniformGridAccelerator grid(world, lattice);
  expect_grid_exact(world, grid,
                    traced_segments(world, grid, scene.width(),
                                    scene.height()));

  // Whole frames: the brute-force reference, the grid alone and the grid
  // recording a listener's walks render the same pixels from the same rays.
  const BruteForceAccelerator brute(world);
  Tracer by_brute(world, brute), by_grid(world, grid), by_walk(world, grid);
  SegmentLog log;
  by_walk.set_listener(&log);
  Framebuffer f1(scene.width(), scene.height());
  Framebuffer f2(scene.width(), scene.height());
  Framebuffer f3(scene.width(), scene.height());
  render_frame(&by_brute, &f1);
  render_frame(&by_grid, &f2);
  render_frame(&by_walk, &f3);
  EXPECT_EQ(f1, f2);
  EXPECT_EQ(f2, f3);
  EXPECT_EQ(by_brute.stats().total_rays(), by_grid.stats().total_rays());
  EXPECT_EQ(by_grid.stats().total_rays(), by_walk.stats().total_rays());
}

TEST(GridKernelExact, NewtonFrames) {
  CradleParams params;
  params.frames = 8;
  params.width = 64;
  params.height = 48;
  const AnimatedScene scene = newton_cradle_scene(params);
  for (const int frame : {0, 5}) {
    SCOPED_TRACE(frame);
    expect_scene_exact(scene, frame);
  }
}

TEST(GridKernelExact, DemoSceneFrames) {
  const AnimatedScene scene = demo_scene(48, 36);
  for (const int frame : {0, 13}) {
    SCOPED_TRACE(frame);
    expect_scene_exact(scene, frame);
  }
}

TEST(GridKernelExact, LongThinCylindersAcrossManyCells) {
  World world;
  const int mat = world.add_material(Material::matte(Color::gray(0.5)));
  Rng rng(2323);
  std::vector<std::pair<Vec3, Vec3>> sticks;
  for (int i = 0; i < 24; ++i) {
    const Vec3 a = rng.point_in_box({-3.8, -3.8, -3.8}, {3.8, 3.8, 3.8});
    const Vec3 b = rng.point_in_box({-3.8, -3.8, -3.8}, {3.8, 3.8, 3.8});
    sticks.push_back({a, b});
    world.add_object(
        std::make_unique<Cylinder>(a, b, rng.uniform(0.02, 0.08)), mat);
  }
  for (int i = 0; i < 6; ++i) {
    world.add_object(
        std::make_unique<Sphere>(
            rng.point_in_box({-3, -3, -3}, {3, 3, 3}), rng.uniform(0.1, 0.4)),
        mat);
  }
  world.add_object(std::make_unique<Plane>(Vec3{0, 1, 0}, -4.5), mat);
  const VoxelGrid lattice({{-4, -4, -4}, {4, 4, 4}}, 24, 24, 24);
  const UniformGridAccelerator grid(world, lattice);

  std::vector<SegmentLog::Segment> segments;
  for (int i = 0; i < 6000; ++i) {
    const auto& [a, b] = sticks[rng.next_below(24)];
    const Vec3 on_axis = a + (b - a) * rng.uniform(0.0, 1.0);
    Ray ray;
    if (i % 2 == 0) {
      // Aimed at a stick from anywhere, grazing it more often than not.
      ray.origin = rng.point_in_box({-5, -5, -5}, {5, 5, 5});
      ray.direction =
          on_axis + rng.unit_vector() * rng.uniform(0.0, 0.1) - ray.origin;
    } else {
      // Along a stick, slightly tilted: many cells in a row list it.
      ray.origin = a - (b - a) * 0.1 + rng.unit_vector() * 0.05;
      ray.direction = (b - a) + rng.unit_vector() * rng.uniform(0.0, 0.2);
    }
    const RayKind kind = i % 3 == 0 ? RayKind::kShadow : RayKind::kCamera;
    segments.push_back({ray, rng.uniform(0.2, 1.5), kind});
  }
  expect_grid_exact(world, grid, segments);
}

TEST(ObjectMailbox, TestsEachObjectOncePerQuery) {
  ObjectMailbox box;
  box.begin(3);
  EXPECT_TRUE(box.first_test(1));
  EXPECT_FALSE(box.first_test(1));
  EXPECT_TRUE(box.first_test(0));
  box.begin(5);  // the next query, over more objects
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(box.first_test(i)) << i;
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(box.first_test(i)) << i;
}

TEST(ObjectMailbox, StampWrapForgetsEveryEarlierQuery) {
  ObjectMailbox box(std::numeric_limits<std::uint32_t>::max() - 1);
  box.begin(2);  // the last stamp before the wrap
  EXPECT_TRUE(box.first_test(0));
  box.begin(2);  // wraps
  EXPECT_TRUE(box.first_test(0));
  EXPECT_TRUE(box.first_test(1));
  EXPECT_FALSE(box.first_test(1));
  box.begin(2);
  EXPECT_TRUE(box.first_test(0));
  EXPECT_TRUE(box.first_test(1));
}

/// The values a floor must get right: signed zeros, integers and their
/// nextafter neighbours, ±2^52 and its neighbours, and a seeded sweep over
/// many magnitudes.
std::vector<double> floor_probes(double limit) {
  std::vector<double> v = {0.0, -0.0, 0.5, -0.5, 1e-300, -1e-300};
  for (int k = -70; k <= 70; ++k) {
    const double x = k;
    v.insert(v.end(), {x, std::nextafter(x, -limit), std::nextafter(x, limit),
                       x + 0.5, x - 0.5});
  }
  for (const double x : {0x1.0p52, -0x1.0p52, 0x1.0p53, -0x1.0p53, 1e15,
                         -1e15, 0x1.0p62, -0x1.0p62}) {
    v.insert(v.end(), {x, std::nextafter(x, -limit), std::nextafter(x, limit)});
  }
  Rng rng(52);
  for (int i = 0; i < 20000; ++i) {
    const double magnitude = std::ldexp(rng.next_double(), rng.next_below(62));
    v.push_back(rng.next_below(2) == 0 ? magnitude : -magnitude);
  }
  return v;
}

TEST(FloorFree, FloorToIntMatchesStdFloor) {
  for (const double x : floor_probes(0x1.0p62)) {
    ASSERT_EQ(floor_to_int(x), static_cast<std::int64_t>(std::floor(x)))
        << std::hexfloat << x;
  }
}

TEST(FloorFree, LatticeLocateMatchesFloorThenClamp) {
  // A lattice at the origin with unit cells: locate() sees the coordinate
  // itself, so each probe exercises the clamp directly.
  constexpr int kN = 7;
  const VoxelGrid grid({{0, 0, 0}, {kN, kN, kN}}, kN, kN, kN);
  ASSERT_EQ(grid.cell_size(), (Vec3{1, 1, 1}));
  std::vector<double> probes = floor_probes(kRayInfinity);
  probes.insert(probes.end(), {kN - 1.0, kN - 0.0, kN + 0.5, 1e9, -1e9, 1e300,
                               -1e300, kRayInfinity, -kRayInfinity,
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity()});
  for (const double x : probes) {
    // The floor + clamp the lattice entry used, evaluated in doubles.
    const double f = std::floor(x);
    const int expected = f < 0.0 ? 0 : (f >= kN ? kN - 1 : static_cast<int>(f));
    int ix, iy, iz;
    grid.locate({x, x, x}, &ix, &iy, &iz);
    ASSERT_EQ(ix, expected) << std::hexfloat << x;
    ASSERT_EQ(iy, expected) << std::hexfloat << x;
    ASSERT_EQ(iz, expected) << std::hexfloat << x;
  }
}

TEST(FloorFree, CheckerCellsMatchFloorOnNegativeCoordinates) {
  const Color a = Color::white();
  const Color b = Color::black();
  for (const double cell : {1.0, 0.8, 0.3}) {
    const CheckerTexture tex(a, b, cell);
    Rng rng(7);
    for (int i = 0; i < 5000; ++i) {
      const Vec3 p = rng.point_in_box({-20, -20, -20}, {20, 20, 20});
      const auto index = [&](double v) {
        return static_cast<std::int64_t>(std::floor(v / cell));
      };
      const Color expected =
          ((index(p.x) + index(p.y) + index(p.z)) & 1) == 0 ? a : b;
      ASSERT_EQ(tex.value(p), expected) << p << " cell " << cell;
    }
  }
}

TEST(FloorFree, ValueNoiseIsContinuousAcrossNegativeLatticePlanes) {
  // Value noise interpolates between lattice points, so approaching an
  // integer plane from either side gives the same value; a floor that
  // rounds negative coordinates toward zero breaks that at every negative
  // plane.
  for (int k = -6; k <= 6; ++k) {
    const double x = k;
    const Vec3 below{std::nextafter(x, -1e9), 0.37, -2.61};
    const Vec3 above{std::nextafter(x, 1e9), 0.37, -2.61};
    EXPECT_NEAR(value_noise(below), value_noise(above), 1e-9) << k;
    EXPECT_NEAR(value_noise({x, 0.37, -2.61}), value_noise(above), 1e-9) << k;
  }
}

}  // namespace
}  // namespace now
