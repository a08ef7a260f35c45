#pragma once

#include "src/geom/primitive.h"

namespace now {

/// Infinite plane n·x = d with unit normal n. The only unbounded primitive;
/// the grid accelerator keeps planes on a separate always-tested list.
class Plane final : public Primitive {
 public:
  Plane(const Vec3& unit_normal, double d) : normal_(unit_normal), d_(d) {}

  /// Plane through `point` with the given (not necessarily unit) normal.
  static Plane through(const Vec3& point, const Vec3& normal);

  ShapeType type() const override { return ShapeType::kPlane; }
  // Defined below, in the header, so the grid's per-shape dispatch inlines it.
  bool intersect(const Ray& ray, double t_min, double t_max,
                 Hit* hit) const override;
  Aabb bounds() const override { return {}; }
  bool is_bounded() const override { return false; }
  bool overlaps_box(const Aabb& box) const override;
  std::unique_ptr<Primitive> transformed(const Transform& t) const override;
  std::unique_ptr<Primitive> clone() const override;

  const Vec3& normal() const { return normal_; }
  double d() const { return d_; }

 private:
  Vec3 normal_;
  double d_;
};

inline bool Plane::intersect(const Ray& ray, double t_min, double t_max,
                             Hit* hit) const {
  const double denom = dot(normal_, ray.direction);
  if (std::fabs(denom) < 1e-12) return false;  // parallel
  const double t = (d_ - dot(normal_, ray.origin)) / denom;
  if (t <= t_min || t >= t_max) return false;
  hit->t = t;
  hit->point = ray.at(t);
  hit->set_normal(ray, normal_);
  return true;
}

}  // namespace now
