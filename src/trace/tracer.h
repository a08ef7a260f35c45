// Whitted-style recursive ray tracer.
//
// Implements the paper's intensity model
//   I = I_local + k_rg * I_reflected + k_tg * I_transmitted
// with Phong local illumination and hard shadow rays, to a fixed maximum
// recursion depth (the paper renders with "maximum ray depth of 5").
//
// Every traced ray segment — camera, reflected, refracted and shadow — is
// reported to an optional RayListener together with the pixel that spawned
// it and the lattice walk the accelerator made for it (CellTrail). The
// frame-coherence recorder (src/core) is such a listener: it appends the
// pixel to the pixel list of every voxel the segment traverses (Figure 3 of
// the paper), taking the cells the trace already walked from the trail and
// walking on only past them — one 3D-DDA per segment, not two.
#pragma once

#include <cstdint>

#include "src/trace/accelerator.h"
#include "src/trace/world.h"

namespace now {

struct TraceStats {
  std::uint64_t camera_rays = 0;
  std::uint64_t reflection_rays = 0;
  std::uint64_t refraction_rays = 0;
  std::uint64_t shadow_rays = 0;
  std::uint64_t pixels_shaded = 0;

  std::uint64_t total_rays() const {
    return camera_rays + reflection_rays + refraction_rays + shadow_rays;
  }

  TraceStats& operator+=(const TraceStats& o);

  friend TraceStats operator+(TraceStats a, const TraceStats& b) {
    a += b;
    return a;
  }
};

/// Observer of every traced ray segment. `t_end` is the parameter at which
/// the segment stops mattering for the pixel: the hit parameter, the
/// distance to the light for unblocked shadow rays, or kRayInfinity for
/// rays that leave the scene.
class RayListener {
 public:
  virtual ~RayListener() = default;
  virtual void on_segment(int px, int py, const Ray& ray, double t_end,
                          RayKind kind) = 0;
  /// The tracer's entry point: the segment plus the walk the accelerator
  /// made for it. The default ignores the walk.
  virtual void on_traced_segment(int px, int py, const Ray& ray, double t_end,
                                 RayKind kind, const CellTrail& /*trail*/) {
    on_segment(px, py, ray, t_end, kind);
  }
};

struct TraceOptions {
  int max_depth = 5;
  bool shadows = true;
  /// n×n supersampling grid per pixel (1 = pixel centers only, the paper's
  /// configuration; anti-aliasing is an extension).
  int supersample_axis = 1;
  /// Contribution cutoff: recursion stops when the accumulated weight falls
  /// below this (POV-Ray's adc_bailout). 0 disables.
  double adaptive_bailout = 0.0;
  /// Global ambient light color multiplying material ambient terms.
  Color ambient_light = Color::white();
};

class Tracer {
 public:
  Tracer(const World& world, const Accelerator& accel, TraceOptions options = {});

  /// Not owned; nullptr disables reporting.
  void set_listener(RayListener* listener) {
    listener_ = listener;
    trail_.record = listener != nullptr;
  }

  /// Fully shade pixel (px, py) of a width×height image: fires all camera
  /// rays (supersampling included) and the recursive trees beneath them.
  Color shade_pixel(int px, int py, int width, int height);

  /// Trace one ray (exposed for tests). Attribution pixel (px, py) is passed
  /// through to the listener.
  Color trace(const Ray& ray, int depth, double weight, int px, int py,
              RayKind kind);

  const TraceStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

  const TraceOptions& options() const { return options_; }
  const World& world() const { return world_; }

 private:
  Color shade_hit(const Hit& hit, const Ray& ray, int depth, double weight,
                  int px, int py);
  /// Direct illumination from one light, shadow ray included.
  /// `unit_dir` is the incident ray's direction, normalized.
  Color direct_light(const Light& light, const Hit& hit, const Vec3& unit_dir,
                     const Material& mat, const Color& tex_color, int px,
                     int py);

  const World& world_;
  const Accelerator& accel_;
  TraceOptions options_;
  RayListener* listener_ = nullptr;
  /// Every query's trail: its mailbox serves each query, and the walk is
  /// recorded only while a listener is set and handed to it before the
  /// next query.
  CellTrail trail_;
  TraceStats stats_;
};

}  // namespace now
