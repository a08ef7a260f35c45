#include "src/geom/box.h"

#include <algorithm>

#include "src/geom/overlap.h"

namespace now {

Box Box::from_corners(const Vec3& lo, const Vec3& hi) {
  return Box((lo + hi) * 0.5, (hi - lo) * 0.5);
}

bool Box::intersect(const Ray& ray, double t_min, double t_max,
                    Hit* hit) const {
  // Transform the ray into the box's local frame.
  const Vec3 local_origin = inverse_ * (ray.origin - center_);
  const Vec3 local_dir = inverse_ * ray.direction;

  double t0 = t_min;
  double t1 = t_max;
  int enter_axis = -1;
  int exit_axis = -1;
  for (int axis = 0; axis < 3; ++axis) {
    const double inv_d = 1.0 / local_dir[axis];
    double near = (-half_[axis] - local_origin[axis]) * inv_d;
    double far = (half_[axis] - local_origin[axis]) * inv_d;
    if (inv_d < 0.0) std::swap(near, far);
    if (near > t0) {
      t0 = near;
      enter_axis = axis;
    }
    if (far < t1) {
      t1 = far;
      exit_axis = axis;
    }
    if (t0 > t1) return false;
  }

  double t = t0;
  int axis = enter_axis;
  if (axis < 0) {  // ray origin inside the box: use the exit face
    t = t1;
    axis = exit_axis;
    if (t <= t_min || t >= t_max) return false;
  }
  if (t <= t_min || t >= t_max) return false;

  hit->t = t;
  hit->point = ray.at(t);
  const Vec3 local_point = inverse_ * (hit->point - center_);
  Vec3 local_normal{0, 0, 0};
  local_normal[axis] = local_point[axis] > 0.0 ? 1.0 : -1.0;
  hit->set_normal(ray, rotation_ * local_normal);
  return true;
}

Aabb Box::bounds() const {
  // Extent of the rotated box along each world axis.
  Vec3 world_half{0, 0, 0};
  for (int axis = 0; axis < 3; ++axis) {
    const Vec3 col = rotation_.col(axis);
    world_half.x += std::fabs(col.x) * half_[axis];
    world_half.y += std::fabs(col.y) * half_[axis];
    world_half.z += std::fabs(col.z) * half_[axis];
  }
  return {center_ - world_half, center_ + world_half};
}

bool Box::overlaps_box(const Aabb& box) const {
  return oriented_box_overlaps_box(center_, rotation_, half_, box);
}

std::unique_ptr<Primitive> Box::transformed(const Transform& t) const {
  return std::make_unique<Box>(t.apply_point(center_), half_ * t.scale,
                               t.rotation * rotation_);
}

std::unique_ptr<Primitive> Box::clone() const {
  return std::make_unique<Box>(*this);
}

}  // namespace now
