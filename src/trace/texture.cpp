#include "src/trace/texture.h"

#include <cmath>
#include <cstdint>

namespace now {
namespace {

/// Hash a lattice point to [0, 1). Plain integer mixing keeps it fast and
/// identical on every platform.
double lattice_value(std::int64_t x, std::int64_t y, std::int64_t z) {
  std::uint64_t h = static_cast<std::uint64_t>(x) * 0x9e3779b97f4a7c15ULL ^
                    static_cast<std::uint64_t>(y) * 0xc2b2ae3d27d4eb4fULL ^
                    static_cast<std::uint64_t>(z) * 0x165667b19e3779f9ULL;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

double smoothstep(double t) { return t * t * (3.0 - 2.0 * t); }

}  // namespace

double value_noise(const Vec3& p) {
  const std::int64_t x0 = floor_to_int(p.x);
  const std::int64_t y0 = floor_to_int(p.y);
  const std::int64_t z0 = floor_to_int(p.z);
  // Equal to std::floor but for the sign of a zero, which p - floor(p)
  // and smoothstep do not carry through.
  const double fx = static_cast<double>(x0);
  const double fy = static_cast<double>(y0);
  const double fz = static_cast<double>(z0);
  const double tx = smoothstep(p.x - fx);
  const double ty = smoothstep(p.y - fy);
  const double tz = smoothstep(p.z - fz);

  double corners[2][2][2];
  for (int dz = 0; dz < 2; ++dz)
    for (int dy = 0; dy < 2; ++dy)
      for (int dx = 0; dx < 2; ++dx)
        corners[dz][dy][dx] = lattice_value(x0 + dx, y0 + dy, z0 + dz);

  double xy[2][2];
  for (int dz = 0; dz < 2; ++dz)
    for (int dy = 0; dy < 2; ++dy)
      xy[dz][dy] = corners[dz][dy][0] + tx * (corners[dz][dy][1] - corners[dz][dy][0]);
  double x[2];
  for (int dz = 0; dz < 2; ++dz) x[dz] = xy[dz][0] + ty * (xy[dz][1] - xy[dz][0]);
  return x[0] + tz * (x[1] - x[0]);
}

double turbulence(const Vec3& p, int octaves) {
  double sum = 0.0;
  double amplitude = 1.0;
  double total = 0.0;
  Vec3 q = p;
  for (int i = 0; i < octaves; ++i) {
    sum += amplitude * value_noise(q);
    total += amplitude;
    amplitude *= 0.5;
    q *= 2.0;
  }
  return total > 0.0 ? sum / total : 0.0;
}

Color CheckerTexture::value(const Vec3& p) const {
  const auto cell = [&](double v) { return floor_to_int(v / cell_); };
  const std::int64_t parity = (cell(p.x) + cell(p.y) + cell(p.z)) & 1;
  return parity == 0 ? a_ : b_;
}

Color BrickTexture::value(const Vec3& p) const {
  // Evaluate on the (x, y) plane by default; for floors (y-dominant normals)
  // the caller's geometry still produces a plausible bond via x/z ordering.
  // Wall coordinates: u along x+z (so all four room walls pattern), v up y.
  const double u = p.x + p.z;
  const double v = p.y;
  // The local coordinates below only meet comparisons, so a +0 where
  // std::floor gives -0 changes nothing.
  const std::int64_t row = floor_to_int(v / height_);
  // Offset every other course by half a brick (running bond).
  const double u_shift = (row & 1) ? width_ * 0.5 : 0.0;
  const double local_v = v - static_cast<double>(row) * height_;
  const double cu = u + u_shift;
  const std::int64_t col = floor_to_int(cu / width_);
  const double local_u = cu - static_cast<double>(col) * width_;
  const bool in_mortar = local_v < mortar_size_ || local_u < mortar_size_;
  if (in_mortar) return mortar_;
  // Slight per-brick tint variation so the wall does not look flat.
  const double tint =
      0.85 + 0.3 * value_noise({static_cast<double>(col), static_cast<double>(row), 0.0});
  return brick_ * tint;
}

Color MarbleTexture::value(const Vec3& p) const {
  const double t = turbulence(p * frequency_, 4);
  const double s = 0.5 * (1.0 + std::sin(frequency_ * (p.x + p.y + p.z) +
                                         turbulence_ * t * kTwoPi));
  return lerp(a_, b_, s);
}

}  // namespace now
