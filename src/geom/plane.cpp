#include "src/geom/plane.h"

#include "src/geom/overlap.h"

namespace now {

Plane Plane::through(const Vec3& point, const Vec3& normal) {
  const Vec3 n = normal.normalized();
  return Plane(n, dot(n, point));
}

bool Plane::overlaps_box(const Aabb& box) const {
  return plane_overlaps_box(normal_, d_, box);
}

std::unique_ptr<Primitive> Plane::transformed(const Transform& t) const {
  // world plane: n'·x = d' with n' = R n and d' = s*d + n'·translation.
  const Vec3 n = t.apply_direction(normal_);
  const double d = d_ * t.scale + dot(n, t.translation);
  return std::make_unique<Plane>(n, d);
}

std::unique_ptr<Primitive> Plane::clone() const {
  return std::make_unique<Plane>(*this);
}

}  // namespace now
