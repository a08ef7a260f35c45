#include "src/geom/overlap.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace now {

double point_box_distance_squared(const Vec3& p, const Aabb& box) {
  double d2 = 0.0;
  for (int axis = 0; axis < 3; ++axis) {
    const double v = p[axis];
    if (v < box.lo[axis]) {
      const double d = box.lo[axis] - v;
      d2 += d * d;
    } else if (v > box.hi[axis]) {
      const double d = v - box.hi[axis];
      d2 += d * d;
    }
  }
  return d2;
}

double segment_box_distance(const Vec3& a, const Vec3& b, const Aabb& box) {
  // f(t) = point_box_distance_squared(a + t (b - a), box) is a convex
  // piecewise quadratic: it changes form only where the point crosses one of
  // the six face planes. Those crossings cut [0, 1] into at most 7 pieces;
  // on each, f is a single quadratic whose minimiser is found in closed form
  // and clamped to the piece. The smallest piece minimum is the answer.
  const Vec3 d = b - a;
  double cuts[8];
  int n = 0;
  cuts[n++] = 0.0;
  for (int axis = 0; axis < 3; ++axis) {
    if (d[axis] == 0.0) continue;
    for (const double face : {box.lo[axis], box.hi[axis]}) {
      const double t = (face - a[axis]) / d[axis];
      if (!(t > 0.0 && t < 1.0)) continue;
      int j = n++;  // insertion keeps cuts sorted; cuts[0] == 0 < t stops it
      for (; cuts[j - 1] > t; --j) cuts[j] = cuts[j - 1];
      cuts[j] = t;
    }
  }
  cuts[n++] = 1.0;

  double best = std::numeric_limits<double>::infinity();
  for (int k = 0; k + 1 < n && best > 0.0; ++k) {
    const double t0 = cuts[k];
    const double t1 = cuts[k + 1];
    // Which face each coordinate lies beyond is fixed inside the piece, so
    // classify at its midpoint: f(t) = qa t^2 + 2 qb t + const there.
    const double mid = 0.5 * (t0 + t1);
    double qa = 0.0;
    double qb = 0.0;
    for (int axis = 0; axis < 3; ++axis) {
      const double p = a[axis] + mid * d[axis];
      double face;
      if (p < box.lo[axis]) {
        face = box.lo[axis];
      } else if (p > box.hi[axis]) {
        face = box.hi[axis];
      } else {
        continue;
      }
      qa += d[axis] * d[axis];
      qb += d[axis] * (a[axis] - face);
    }
    const double t = qa > 0.0 ? std::clamp(-qb / qa, t0, t1) : t0;
    best = std::min(best, point_box_distance_squared(lerp(a, b, t), box));
  }
  return std::sqrt(best);
}

bool plane_overlaps_box(const Vec3& normal, double d, const Aabb& box) {
  // Project the box onto the plane normal; the plane passes through the box
  // iff the projection interval contains d.
  const Vec3 c = box.center();
  const Vec3 e = box.extent() * 0.5;
  const double center_dist = dot(normal, c) - d;
  const double radius = std::fabs(normal.x) * e.x + std::fabs(normal.y) * e.y +
                        std::fabs(normal.z) * e.z;
  return std::fabs(center_dist) <= radius;
}

namespace {

// Project the triangle (in box-centered coordinates) and the box half
// extents onto `axis` and check for separation.
bool axis_separates(const Vec3& axis, const Vec3& v0, const Vec3& v1,
                    const Vec3& v2, const Vec3& half) {
  const double p0 = dot(v0, axis);
  const double p1 = dot(v1, axis);
  const double p2 = dot(v2, axis);
  const double r = half.x * std::fabs(axis.x) + half.y * std::fabs(axis.y) +
                   half.z * std::fabs(axis.z);
  const double tri_min = std::min({p0, p1, p2});
  const double tri_max = std::max({p0, p1, p2});
  return tri_min > r || tri_max < -r;
}

}  // namespace

bool triangle_overlaps_box(const Vec3& tv0, const Vec3& tv1, const Vec3& tv2,
                           const Aabb& box) {
  const Vec3 c = box.center();
  const Vec3 half = box.extent() * 0.5;
  const Vec3 v0 = tv0 - c;
  const Vec3 v1 = tv1 - c;
  const Vec3 v2 = tv2 - c;
  const Vec3 e0 = v1 - v0;
  const Vec3 e1 = v2 - v1;
  const Vec3 e2 = v0 - v2;

  // 9 cross-product axes.
  const Vec3 box_axes[3] = {{1, 0, 0}, {0, 1, 0}, {0, 0, 1}};
  for (const Vec3& ba : box_axes) {
    for (const Vec3& edge : {e0, e1, e2}) {
      const Vec3 axis = cross(ba, edge);
      if (axis.length_squared() < 1e-18) continue;  // parallel, skip axis
      if (axis_separates(axis, v0, v1, v2, half)) return false;
    }
  }
  // 3 box face normals.
  for (const Vec3& ba : box_axes) {
    if (axis_separates(ba, v0, v1, v2, half)) return false;
  }
  // Triangle face normal.
  const Vec3 n = cross(e0, e1);
  if (n.length_squared() > 1e-18 && axis_separates(n, v0, v1, v2, half)) {
    return false;
  }
  return true;
}

bool oriented_box_overlaps_box(const Vec3& center, const Mat3& rotation,
                               const Vec3& half_extents, const Aabb& box) {
  // Standard OBB-vs-AABB separating axis test: the AABB is an OBB with
  // identity orientation.
  const Vec3 a_half = box.extent() * 0.5;
  const Vec3 t = center - box.center();

  // R[i][j] = dot(aabb_axis_i, obb_axis_j); aabb axes are the identity.
  double R[3][3];
  double AbsR[3][3];
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      R[i][j] = rotation.col(j)[i];
      AbsR[i][j] = std::fabs(R[i][j]) + 1e-12;
    }
  }
  const double T[3] = {t.x, t.y, t.z};
  const double ea[3] = {a_half.x, a_half.y, a_half.z};
  const double eb[3] = {half_extents.x, half_extents.y, half_extents.z};

  // Axes of the AABB.
  for (int i = 0; i < 3; ++i) {
    const double ra = ea[i];
    const double rb =
        eb[0] * AbsR[i][0] + eb[1] * AbsR[i][1] + eb[2] * AbsR[i][2];
    if (std::fabs(T[i]) > ra + rb) return false;
  }
  // Axes of the OBB.
  for (int j = 0; j < 3; ++j) {
    const double ra =
        ea[0] * AbsR[0][j] + ea[1] * AbsR[1][j] + ea[2] * AbsR[2][j];
    const double rb = eb[j];
    const double proj = T[0] * R[0][j] + T[1] * R[1][j] + T[2] * R[2][j];
    if (std::fabs(proj) > ra + rb) return false;
  }
  // Cross-product axes A_i × B_j.
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      const int i1 = (i + 1) % 3;
      const int i2 = (i + 2) % 3;
      const int j1 = (j + 1) % 3;
      const int j2 = (j + 2) % 3;
      const double ra = ea[i1] * AbsR[i2][j] + ea[i2] * AbsR[i1][j];
      const double rb = eb[j1] * AbsR[i][j2] + eb[j2] * AbsR[i][j1];
      const double proj = T[i2] * R[i1][j] - T[i1] * R[i2][j];
      if (std::fabs(proj) > ra + rb) return false;
    }
  }
  return true;
}

}  // namespace now
