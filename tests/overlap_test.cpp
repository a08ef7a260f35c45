// Primitive-vs-box overlap predicates: the change detector's correctness
// rests on these being conservative (no false negatives), so each predicate
// is validated against a sampling oracle.
#include "src/geom/overlap.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>

#include "src/core/coherent_renderer.h"
#include "src/geom/box.h"
#include "src/geom/cylinder.h"
#include "src/geom/plane.h"
#include "src/geom/sphere.h"
#include "src/geom/triangle.h"
#include "src/geom/voxel_grid.h"
#include "src/math/rng.h"
#include "src/scene/builtin_scenes.h"
#include "src/trace/uniform_grid.h"

namespace now {
namespace {

TEST(PointBoxDistance, InsideIsZero) {
  const Aabb box{{0, 0, 0}, {1, 1, 1}};
  EXPECT_DOUBLE_EQ(point_box_distance_squared({0.5, 0.5, 0.5}, box), 0.0);
  EXPECT_DOUBLE_EQ(point_box_distance_squared({0, 0, 0}, box), 0.0);
}

TEST(PointBoxDistance, OutsideAxisAndCorner) {
  const Aabb box{{0, 0, 0}, {1, 1, 1}};
  EXPECT_DOUBLE_EQ(point_box_distance_squared({2, 0.5, 0.5}, box), 1.0);
  EXPECT_DOUBLE_EQ(point_box_distance_squared({2, 2, 2}, box), 3.0);
}

TEST(SegmentBoxDistance, IntersectingSegmentIsZero) {
  const Aabb box{{0, 0, 0}, {1, 1, 1}};
  EXPECT_NEAR(segment_box_distance({-1, 0.5, 0.5}, {2, 0.5, 0.5}, box), 0.0,
              1e-9);
}

TEST(SegmentBoxDistance, ParallelSegment) {
  const Aabb box{{0, 0, 0}, {1, 1, 1}};
  EXPECT_NEAR(segment_box_distance({-1, 3, 0.5}, {2, 3, 0.5}, box), 2.0, 1e-6);
}

TEST(SegmentBoxDistance, EndpointNearest) {
  const Aabb box{{0, 0, 0}, {1, 1, 1}};
  // Segment pointing away: nearest point is the endpoint at (2, 0.5, 0.5).
  EXPECT_NEAR(segment_box_distance({2, 0.5, 0.5}, {5, 0.5, 0.5}, box), 1.0,
              1e-6);
}

// Reference for segment_box_distance: a 64-step ternary search on the
// convex distance-along-segment function. Independent of the closed form's
// face-crossing decomposition, so agreement checks the decomposition.
double ternary_segment_box_distance(const Vec3& a, const Vec3& b,
                                    const Aabb& box) {
  double lo = 0.0;
  double hi = 1.0;
  for (int iter = 0; iter < 64; ++iter) {
    const double m1 = lo + (hi - lo) / 3.0;
    const double m2 = hi - (hi - lo) / 3.0;
    const double d1 = point_box_distance_squared(lerp(a, b, m1), box);
    const double d2 = point_box_distance_squared(lerp(a, b, m2), box);
    if (d1 < d2) {
      hi = m2;
    } else {
      lo = m1;
    }
  }
  const double t = 0.5 * (lo + hi);
  return std::sqrt(point_box_distance_squared(lerp(a, b, t), box));
}

// A segment endpoint drawn relative to `box`: each coordinate is either a
// face value (so points land exactly on faces, edges and corners) or a
// uniform value around the box.
Vec3 point_near_box(Rng* rng, const Aabb& box) {
  Vec3 p;
  for (int axis = 0; axis < 3; ++axis) {
    switch (rng->next_below(3)) {
      case 0:
        p[axis] = box.lo[axis];
        break;
      case 1:
        p[axis] = box.hi[axis];
        break;
      default:
        p[axis] = rng->uniform(box.lo[axis] - 1.5, box.hi[axis] + 1.5);
    }
  }
  return p;
}

TEST(SegmentBoxDistance, ClosedFormMatchesTernaryOracle) {
  Rng rng(141);
  for (int iter = 0; iter < 100000; ++iter) {
    const Vec3 lo = rng.point_in_box({-2, -2, -2}, {1, 1, 1});
    const Aabb box{lo, lo + rng.point_in_box({0.05, 0.05, 0.05}, {2, 2, 2})};
    Vec3 a;
    Vec3 b;
    switch (iter % 4) {
      case 0:  // general position
        a = rng.point_in_box({-4, -4, -4}, {4, 4, 4});
        b = rng.point_in_box({-4, -4, -4}, {4, 4, 4});
        break;
      case 1:  // degenerate: a single point
        a = point_near_box(&rng, box);
        b = a;
        break;
      case 2: {  // axis-parallel
        a = point_near_box(&rng, box);
        b = a;
        const int axis = static_cast<int>(rng.next_below(3));
        b[axis] += rng.uniform(-3.0, 3.0);
        break;
      }
      default:  // endpoints on faces, edges and corners
        a = point_near_box(&rng, box);
        b = point_near_box(&rng, box);
    }
    const double closed = segment_box_distance(a, b, box);
    const double oracle = ternary_segment_box_distance(a, b, box);
    ASSERT_LE(closed, oracle + 1e-12) << "iter " << iter;
    ASSERT_NEAR(closed, oracle, 1e-9) << "iter " << iter;
  }
}

// Every cell of both per-frame grids the paper's algorithm rasterizes into
// (the ray accelerator's and the coherence grid's) must classify each
// cylinder exactly as the oracle-based predicate does, so marks, dirty sets
// and frames cannot move. Returns the number of (cylinder, cell) pairs seen.
std::int64_t expect_cylinder_cells_match_oracle(const AnimatedScene& scene,
                                                const std::string& label) {
  const CoherenceOptions coherence;
  const VoxelGrid coherence_grid = VoxelGrid::heuristic(
      animation_extent(scene), scene.object_count(), coherence.grid_density,
      coherence.grid_max_axis);
  std::int64_t cells = 0;
  for (int frame = 0; frame < scene.frame_count(); ++frame) {
    const World world = scene.world_at(frame);
    const UniformGridAccelerator accel(world);
    for (const VoxelGrid* grid : {&accel.grid(), &coherence_grid}) {
      for (const WorldObject& object : world.objects()) {
        const auto* cyl = dynamic_cast<const Cylinder*>(object.primitive.get());
        if (cyl == nullptr) continue;
        for (int iz = 0; iz < grid->nz(); ++iz) {
          for (int iy = 0; iy < grid->ny(); ++iy) {
            for (int ix = 0; ix < grid->nx(); ++ix) {
              const Aabb box = grid->cell_bounds(ix, iy, iz);
              const bool oracle =
                  cyl->bounds().overlaps(box) &&
                  ternary_segment_box_distance(cyl->p0(), cyl->p1(), box) <=
                      cyl->radius() + 1e-9;
              ++cells;
              if (cyl->overlaps_box(box) != oracle) {
                ADD_FAILURE() << label << " frame " << frame << " cell ("
                              << ix << ", " << iy << ", " << iz
                              << ") oracle " << oracle;
                return cells;
              }
            }
          }
        }
      }
    }
  }
  return cells;
}

TEST(CylinderOverlap, SceneGridCellsMatchTernaryOracle) {
  std::int64_t cells = 0;
  for (const double degrees : {43.5, 45.0, 46.5, 0.0}) {
    CradleParams params;
    params.amplitude_degrees = degrees;
    cells += expect_cylinder_cells_match_oracle(
        newton_cradle_scene(params), "newton " + std::to_string(degrees));
  }
  cells += expect_cylinder_cells_match_oracle(gallery_scene(24), "gallery");
  cells += expect_cylinder_cells_match_oracle(bouncing_ball_scene(), "bounce");
  EXPECT_GT(cells, 1000000);
}

TEST(PlaneOverlap, Basics) {
  const Aabb box{{0, 0, 0}, {1, 1, 1}};
  EXPECT_TRUE(plane_overlaps_box({0, 1, 0}, 0.5, box));
  EXPECT_TRUE(plane_overlaps_box({0, 1, 0}, 0.0, box));   // touching face
  EXPECT_FALSE(plane_overlaps_box({0, 1, 0}, 1.5, box));
  EXPECT_FALSE(plane_overlaps_box({0, 1, 0}, -0.5, box));
  // Diagonal plane through the corner region.
  const Vec3 n = Vec3(1, 1, 1).normalized();
  EXPECT_TRUE(plane_overlaps_box(n, 0.5, box));
  EXPECT_FALSE(plane_overlaps_box(n, 10.0, box));
}

TEST(TriangleOverlap, ContainedAndDisjoint) {
  const Aabb box{{0, 0, 0}, {2, 2, 2}};
  EXPECT_TRUE(triangle_overlaps_box({0.5, 0.5, 1}, {1.5, 0.5, 1},
                                    {1, 1.5, 1}, box));
  EXPECT_FALSE(triangle_overlaps_box({5, 5, 5}, {6, 5, 5}, {5, 6, 5}, box));
}

TEST(TriangleOverlap, PiercingTriangle) {
  // Large triangle whose plane slices the box but whose vertices are all
  // outside: must still report overlap.
  const Aabb box{{0, 0, 0}, {1, 1, 1}};
  EXPECT_TRUE(triangle_overlaps_box({-5, 0.5, -5}, {5, 0.5, -5},
                                    {0, 0.5, 10}, box));
}

TEST(TriangleOverlap, NearMissAboveFace) {
  const Aabb box{{0, 0, 0}, {1, 1, 1}};
  EXPECT_FALSE(triangle_overlaps_box({-5, 1.01, -5}, {5, 1.01, -5},
                                     {0, 1.01, 10}, box));
}

TEST(OrientedBoxOverlap, AxisAlignedCases) {
  const Aabb box{{0, 0, 0}, {2, 2, 2}};
  EXPECT_TRUE(oriented_box_overlaps_box({1, 1, 1}, Mat3::identity(),
                                        {0.5, 0.5, 0.5}, box));
  EXPECT_FALSE(oriented_box_overlaps_box({5, 1, 1}, Mat3::identity(),
                                         {0.5, 0.5, 0.5}, box));
  // Touching exactly at a face.
  EXPECT_TRUE(oriented_box_overlaps_box({2.5, 1, 1}, Mat3::identity(),
                                        {0.5, 0.5, 0.5}, box));
}

TEST(OrientedBoxOverlap, RotationMatters) {
  const Aabb box{{0, 0, 0}, {1, 1, 1}};
  // A slab rotated 45° about z reaches down into the box corner that the
  // axis-aligned version misses (its long axis points at the corner).
  const Vec3 center{1.7, 1.7, 0.5};
  const Vec3 half{1.0, 0.1, 0.4};
  EXPECT_FALSE(oriented_box_overlaps_box(center, Mat3::identity(), half, box));
  EXPECT_TRUE(oriented_box_overlaps_box(center, Mat3::rotation_z(kPi / 4),
                                        half, box));
}

// Sampling oracle: predicates must never report "no overlap" when random
// point sampling finds a shared point (conservativeness).
TEST(OverlapOracle, SphereNeverFalseNegative) {
  Rng rng(31);
  for (int iter = 0; iter < 300; ++iter) {
    const Sphere s(rng.point_in_box({-2, -2, -2}, {2, 2, 2}),
                   rng.uniform(0.2, 1.0));
    const Vec3 lo = rng.point_in_box({-2, -2, -2}, {1, 1, 1});
    const Aabb box{lo, lo + rng.point_in_box({0.2, 0.2, 0.2}, {2, 2, 2})};
    if (s.overlaps_box(box)) continue;  // claims overlap: fine either way
    // Claims disjoint: no sampled box point may be inside the sphere.
    for (int i = 0; i < 200; ++i) {
      const Vec3 p = rng.point_in_box(box.lo, box.hi);
      ASSERT_GT((p - s.center()).length(), s.radius())
          << "false negative at iter " << iter;
    }
  }
}

TEST(OverlapOracle, CylinderNeverFalseNegative) {
  Rng rng(32);
  for (int iter = 0; iter < 200; ++iter) {
    const Vec3 p0 = rng.point_in_box({-2, -2, -2}, {2, 2, 2});
    const Cylinder c(p0, p0 + rng.unit_vector() * rng.uniform(0.5, 2.0),
                     rng.uniform(0.1, 0.6));
    const Vec3 lo = rng.point_in_box({-2, -2, -2}, {1, 1, 1});
    const Aabb box{lo, lo + rng.point_in_box({0.2, 0.2, 0.2}, {2, 2, 2})};
    if (c.overlaps_box(box)) continue;
    for (int i = 0; i < 200; ++i) {
      const Vec3 p = rng.point_in_box(box.lo, box.hi);
      Hit h;
      // Point-in-cylinder test via projection.
      const Vec3 axis = c.p1() - c.p0();
      const double len = axis.length();
      const Vec3 a = axis / len;
      const double t = dot(p - c.p0(), a);
      const bool inside = t >= 0 && t <= len &&
                          (p - (c.p0() + a * t)).length() <= c.radius();
      ASSERT_FALSE(inside) << "false negative at iter " << iter;
    }
  }
}

TEST(OverlapOracle, OrientedBoxNeverFalseNegative) {
  Rng rng(33);
  for (int iter = 0; iter < 200; ++iter) {
    const Box obb(rng.point_in_box({-2, -2, -2}, {2, 2, 2}),
                  rng.point_in_box({0.1, 0.1, 0.1}, {1, 1, 1}),
                  Mat3::axis_angle(rng.unit_vector(), rng.uniform(0, kTwoPi)));
    const Vec3 lo = rng.point_in_box({-2, -2, -2}, {1, 1, 1});
    const Aabb box{lo, lo + rng.point_in_box({0.2, 0.2, 0.2}, {2, 2, 2})};
    if (obb.overlaps_box(box)) continue;
    const Mat3 inv = obb.rotation().transposed();
    for (int i = 0; i < 200; ++i) {
      const Vec3 p = rng.point_in_box(box.lo, box.hi);
      const Vec3 local = inv * (p - obb.center());
      const bool inside = std::fabs(local.x) <= obb.half_extents().x &&
                          std::fabs(local.y) <= obb.half_extents().y &&
                          std::fabs(local.z) <= obb.half_extents().z;
      ASSERT_FALSE(inside) << "false negative at iter " << iter;
    }
  }
}

}  // namespace
}  // namespace now
