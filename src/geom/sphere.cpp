#include "src/geom/sphere.h"

#include "src/geom/overlap.h"

namespace now {

Aabb Sphere::bounds() const {
  const Vec3 r{radius_, radius_, radius_};
  return {center_ - r, center_ + r};
}

bool Sphere::overlaps_box(const Aabb& box) const {
  return point_box_distance_squared(center_, box) <= radius_ * radius_;
}

std::unique_ptr<Primitive> Sphere::transformed(const Transform& t) const {
  return std::make_unique<Sphere>(t.apply_point(center_), radius_ * t.scale);
}

std::unique_ptr<Primitive> Sphere::clone() const {
  return std::make_unique<Sphere>(*this);
}

}  // namespace now
