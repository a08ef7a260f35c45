// Procedural textures.
//
// All textures are functions of the 3D surface point only (POV-Ray style
// solid textures); there are no UV coordinates to carry through primitives.
// Textures must be pure functions of position so that re-rendering a pixel
// under frame coherence reproduces the original color exactly.
#pragma once

#include <cstdint>
#include <memory>

#include "src/math/vec3.h"

namespace now {

/// std::floor(v) as an integer, for |v| < 2^63: the conversion truncates
/// toward zero, and a truncation above v steps down by one. Exact on that
/// domain, and free of the libm call std::floor is on baseline x86-64.
inline std::int64_t floor_to_int(double v) {
  const auto i = static_cast<std::int64_t>(v);
  return static_cast<double>(i) > v ? i - 1 : i;
}

class Texture {
 public:
  virtual ~Texture() = default;
  virtual Color value(const Vec3& point) const = 0;
  virtual std::shared_ptr<Texture> clone() const = 0;
};

class SolidColor final : public Texture {
 public:
  explicit SolidColor(const Color& c) : color_(c) {}
  Color value(const Vec3&) const override { return color_; }
  std::shared_ptr<Texture> clone() const override {
    return std::make_shared<SolidColor>(color_);
  }
  const Color& color() const { return color_; }

 private:
  Color color_;
};

/// 3D checkerboard with the given cell size.
class CheckerTexture final : public Texture {
 public:
  CheckerTexture(const Color& a, const Color& b, double cell_size)
      : a_(a), b_(b), cell_(cell_size) {}
  Color value(const Vec3& p) const override;
  std::shared_ptr<Texture> clone() const override {
    return std::make_shared<CheckerTexture>(a_, b_, cell_);
  }

 private:
  Color a_;
  Color b_;
  double cell_;
};

/// Running-bond brick pattern (the paper's Figure 1 room is brick). The
/// pattern is evaluated on the two world axes most orthogonal to `normal_hint`
/// so the same texture works on walls and floors.
class BrickTexture final : public Texture {
 public:
  BrickTexture(const Color& brick, const Color& mortar, double brick_width,
               double brick_height, double mortar_size)
      : brick_(brick),
        mortar_(mortar),
        width_(brick_width),
        height_(brick_height),
        mortar_size_(mortar_size) {}
  Color value(const Vec3& p) const override;
  std::shared_ptr<Texture> clone() const override {
    return std::make_shared<BrickTexture>(brick_, mortar_, width_, height_,
                                          mortar_size_);
  }

 private:
  Color brick_;
  Color mortar_;
  double width_;
  double height_;
  double mortar_size_;
};

/// Marble-like banding driven by deterministic lattice value noise.
class MarbleTexture final : public Texture {
 public:
  MarbleTexture(const Color& a, const Color& b, double frequency,
                double turbulence)
      : a_(a), b_(b), frequency_(frequency), turbulence_(turbulence) {}
  Color value(const Vec3& p) const override;
  std::shared_ptr<Texture> clone() const override {
    return std::make_shared<MarbleTexture>(a_, b_, frequency_, turbulence_);
  }

 private:
  Color a_;
  Color b_;
  double frequency_;
  double turbulence_;
};

/// Deterministic lattice value noise in [0, 1] (no global tables).
double value_noise(const Vec3& p);

/// Sum of `octaves` value-noise octaves, normalized to [0, 1].
double turbulence(const Vec3& p, int octaves);

}  // namespace now
