// Shared geometric predicates for primitive-vs-box overlap.
#pragma once

#include "src/math/aabb.h"
#include "src/math/transform.h"
#include "src/math/vec3.h"

namespace now {

/// Squared distance from a point to an axis-aligned box (0 when inside).
double point_box_distance_squared(const Vec3& p, const Aabb& box);

/// Minimum distance between the segment [a, b] and `box` (0 on overlap).
/// Exact in closed form: the squared distance along the segment is a convex
/// piecewise quadratic whose face-plane crossings cut it into at most 7
/// pieces; each piece's quadratic is minimised analytically.
double segment_box_distance(const Vec3& a, const Vec3& b, const Aabb& box);

/// Exact plane-vs-box overlap: true when the plane n·x = d passes through
/// the box (signed corner distances straddle or touch zero).
bool plane_overlaps_box(const Vec3& normal, double d, const Aabb& box);

/// Exact triangle-vs-box overlap (separating axis test, Akenine-Moller).
bool triangle_overlaps_box(const Vec3& v0, const Vec3& v1, const Vec3& v2,
                           const Aabb& box);

/// Exact oriented-box-vs-axis-aligned-box overlap (separating axis test).
/// The oriented box is given by center, rotation and per-axis half extents.
bool oriented_box_overlaps_box(const Vec3& center, const Mat3& rotation,
                               const Vec3& half_extents, const Aabb& box);

}  // namespace now
