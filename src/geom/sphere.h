#pragma once

#include "src/geom/primitive.h"

namespace now {

class Sphere final : public Primitive {
 public:
  Sphere(const Vec3& center, double radius) : center_(center), radius_(radius) {}

  ShapeType type() const override { return ShapeType::kSphere; }
  // Defined below, in the header, so the grid's per-shape dispatch inlines it.
  bool intersect(const Ray& ray, double t_min, double t_max,
                 Hit* hit) const override;
  Aabb bounds() const override;
  bool overlaps_box(const Aabb& box) const override;
  std::unique_ptr<Primitive> transformed(const Transform& t) const override;
  std::unique_ptr<Primitive> clone() const override;

  const Vec3& center() const { return center_; }
  double radius() const { return radius_; }

 private:
  Vec3 center_;
  double radius_;
};

inline bool Sphere::intersect(const Ray& ray, double t_min, double t_max,
                              Hit* hit) const {
  const Vec3 oc = ray.origin - center_;
  const double a = ray.direction.length_squared();
  const double half_b = dot(oc, ray.direction);
  const double c = oc.length_squared() - radius_ * radius_;
  const double disc = half_b * half_b - a * c;
  if (disc < 0.0) return false;
  const double sqrt_disc = std::sqrt(disc);
  double root = (-half_b - sqrt_disc) / a;
  if (root <= t_min || root >= t_max) {
    root = (-half_b + sqrt_disc) / a;
    if (root <= t_min || root >= t_max) return false;
  }
  hit->t = root;
  hit->point = ray.at(root);
  hit->set_normal(ray, (hit->point - center_) / radius_);
  return true;
}

}  // namespace now
