#include "src/geom/cylinder.h"

#include <algorithm>

#include "src/geom/overlap.h"

namespace now {

Aabb Cylinder::bounds() const {
  // Tight bounds of a capped cylinder: per axis, extent of the endpoints
  // expanded by r*sqrt(1 - a[axis]^2) where a is the unit axis.
  Vec3 pad{radius_, radius_, radius_};
  if (height_ > 1e-12) {
    for (int i = 0; i < 3; ++i) {
      const double s = 1.0 - unit_axis_[i] * unit_axis_[i];
      pad[i] = radius_ * std::sqrt(std::max(0.0, s));
    }
  }
  return {min(p0_, p1_) - pad, max(p0_, p1_) + pad};
}

bool Cylinder::overlaps_box(const Aabb& box) const {
  if (!bounds().overlaps(box)) return false;
  return segment_box_distance(p0_, p1_, box) <= radius_ + 1e-9;
}

std::unique_ptr<Primitive> Cylinder::transformed(const Transform& t) const {
  return std::make_unique<Cylinder>(t.apply_point(p0_), t.apply_point(p1_),
                                    radius_ * t.scale);
}

std::unique_ptr<Primitive> Cylinder::clone() const {
  return std::make_unique<Cylinder>(*this);
}

}  // namespace now
