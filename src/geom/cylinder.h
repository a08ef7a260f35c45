#pragma once

#include "src/geom/primitive.h"

namespace now {

/// Capped cylinder between endpoints p0 and p1 with the given radius.
/// The Newton cradle's frame and strings are built from these.
class Cylinder final : public Primitive {
 public:
  /// Stores the axis length and the unit axis, each computed by the
  /// expression intersect() and bounds() would otherwise evaluate per call.
  Cylinder(const Vec3& p0, const Vec3& p1, double radius)
      : p0_(p0),
        p1_(p1),
        radius_(radius),
        height_((p1 - p0).length()),
        unit_axis_(height_ > 0.0 ? (p1 - p0) / height_ : Vec3{}) {}

  ShapeType type() const override { return ShapeType::kCylinder; }
  // Defined below, in the header, so the grid's per-shape dispatch inlines it.
  bool intersect(const Ray& ray, double t_min, double t_max,
                 Hit* hit) const override;
  Aabb bounds() const override;

  /// Conservative: capsule (cylinder + spherical caps) vs box. A superset of
  /// the capped cylinder, as the change detector requires.
  bool overlaps_box(const Aabb& box) const override;

  std::unique_ptr<Primitive> transformed(const Transform& t) const override;
  std::unique_ptr<Primitive> clone() const override;

  const Vec3& p0() const { return p0_; }
  const Vec3& p1() const { return p1_; }
  double radius() const { return radius_; }

 private:
  Vec3 p0_;
  Vec3 p1_;
  double radius_;
  double height_;   // |p1 - p0|
  Vec3 unit_axis_;  // (p1 - p0) / height_ (zero when the cylinder is degenerate)
};

inline bool Cylinder::intersect(const Ray& ray, double t_min, double t_max,
                                Hit* hit) const {
  if (height_ < 1e-12) return false;
  const Vec3& a = unit_axis_;

  // Decompose ray into components parallel/perpendicular to the axis.
  const Vec3 oc = ray.origin - p0_;
  const Vec3 d_perp = ray.direction - dot(ray.direction, a) * a;
  const Vec3 oc_perp = oc - dot(oc, a) * a;

  bool found = false;
  double best_t = t_max;
  Vec3 best_normal;

  // Lateral surface: |perp(o + t d)|^2 = r^2.
  const double qa = d_perp.length_squared();
  const double qb = 2.0 * dot(d_perp, oc_perp);
  const double qc = oc_perp.length_squared() - radius_ * radius_;
  if (qa > 1e-18) {
    const double disc = qb * qb - 4.0 * qa * qc;
    if (disc >= 0.0) {
      const double sq = std::sqrt(disc);
      for (const double t : {(-qb - sq) / (2 * qa), (-qb + sq) / (2 * qa)}) {
        if (t <= t_min || t >= best_t) continue;
        const Vec3 p = ray.at(t);
        const double h = dot(p - p0_, a);
        if (h < 0.0 || h > height_) continue;
        best_t = t;
        best_normal = (p - (p0_ + a * h)) / radius_;
        found = true;
      }
    }
  }

  // End caps: discs at p0 (normal -a) and p1 (normal +a).
  const double denom = dot(ray.direction, a);
  if (std::fabs(denom) > 1e-12) {
    for (int cap = 0; cap < 2; ++cap) {
      const Vec3& c = cap == 0 ? p0_ : p1_;
      const Vec3 n = cap == 0 ? -a : a;
      const double t = dot(c - ray.origin, a) / denom;
      if (t <= t_min || t >= best_t) continue;
      const Vec3 p = ray.at(t);
      if ((p - c).length_squared() > radius_ * radius_) continue;
      best_t = t;
      best_normal = n;
      found = true;
    }
  }

  if (!found) return false;
  hit->t = best_t;
  hit->point = ray.at(best_t);
  hit->set_normal(ray, best_normal);
  return true;
}

}  // namespace now
