// Primitive interface.
//
// Primitives live in *world space*: animated objects re-instantiate their
// local-space primitive through the frame's Transform (a moved sphere is just
// a sphere with a different center). This keeps both ray intersection and
// the change detector's primitive-vs-voxel overlap tests free of inverse
// transforms.
#pragma once

#include <memory>

#include "src/math/aabb.h"
#include "src/math/ray.h"
#include "src/math/transform.h"
#include "src/math/vec3.h"

namespace now {

/// Used by the scene parser and tests to identify concrete primitive types.
enum class ShapeType : std::uint8_t {
  kSphere,
  kPlane,
  kBox,
  kCylinder,
  kDisc,
  kTriangle,
  kMesh,
};

const char* to_string(ShapeType type);

struct Hit {
  double t = kRayInfinity;
  Vec3 point;
  Vec3 normal;       // unit, always opposing the incident ray
  bool front_face = true;  // false when the ray started inside the surface
  int object_id = -1;      // filled in by the scene lookup

  /// Orient `outward` against the ray and record sidedness.
  void set_normal(const Ray& ray, const Vec3& outward) {
    front_face = dot(ray.direction, outward) < 0.0;
    normal = front_face ? outward : -outward;
  }
};

class Primitive {
 public:
  virtual ~Primitive() = default;

  virtual ShapeType type() const = 0;

  /// Nearest intersection with t in (t_min, t_max). Returns false on miss.
  /// t_max may only filter the candidate roots, never change them: the
  /// grid's mailbox skips a repeat test on the strength of it.
  virtual bool intersect(const Ray& ray, double t_min, double t_max,
                         Hit* hit) const = 0;

  /// World-space bounds. Unbounded primitives (planes) return an empty box
  /// and report is_bounded() == false.
  virtual Aabb bounds() const = 0;
  virtual bool is_bounded() const { return true; }

  /// Conservative primitive-vs-box overlap: must return true whenever the
  /// primitive's surface or interior touches `box`; may return true on some
  /// near misses. The change detector rasterizes footprints with this.
  virtual bool overlaps_box(const Aabb& box) const { return bounds().overlaps(box); }

  /// A copy of this primitive moved by `t` (world = t(local)).
  virtual std::unique_ptr<Primitive> transformed(const Transform& t) const = 0;

  virtual std::unique_ptr<Primitive> clone() const = 0;
};

}  // namespace now
