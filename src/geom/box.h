#pragma once

#include "src/geom/primitive.h"

namespace now {

/// Oriented box: center, per-axis half extents and a rotation. With identity
/// rotation this is an axis-aligned box.
class Box final : public Primitive {
 public:
  Box(const Vec3& center, const Vec3& half_extents,
      const Mat3& rotation = Mat3::identity())
      : center_(center),
        half_(half_extents),
        rotation_(rotation),
        inverse_(rotation.transposed()) {}

  /// Axis-aligned box from min/max corners.
  static Box from_corners(const Vec3& lo, const Vec3& hi);

  ShapeType type() const override { return ShapeType::kBox; }
  bool intersect(const Ray& ray, double t_min, double t_max,
                 Hit* hit) const override;
  Aabb bounds() const override;
  bool overlaps_box(const Aabb& box) const override;
  std::unique_ptr<Primitive> transformed(const Transform& t) const override;
  std::unique_ptr<Primitive> clone() const override;

  const Vec3& center() const { return center_; }
  const Vec3& half_extents() const { return half_; }
  const Mat3& rotation() const { return rotation_; }

 private:
  Vec3 center_;
  Vec3 half_;
  Mat3 rotation_;
  Mat3 inverse_;  // rotation_^T, which takes world rays into the local frame
};

}  // namespace now
