#include "src/trace/tracer.h"

#include <cmath>

namespace now {

TraceStats& TraceStats::operator+=(const TraceStats& o) {
  camera_rays += o.camera_rays;
  reflection_rays += o.reflection_rays;
  refraction_rays += o.refraction_rays;
  shadow_rays += o.shadow_rays;
  pixels_shaded += o.pixels_shaded;
  return *this;
}

Tracer::Tracer(const World& world, const Accelerator& accel,
               TraceOptions options)
    : world_(world), accel_(accel), options_(options) {
  trail_.record = false;
}

Color Tracer::shade_pixel(int px, int py, int width, int height) {
  const int n = options_.supersample_axis;
  Color sum;
  for (int sy = 0; sy < n; ++sy) {
    for (int sx = 0; sx < n; ++sx) {
      const Ray ray =
          world_.camera().generate_ray(px, py, width, height, sx, sy, n);
      sum += trace(ray, 0, 1.0, px, py, RayKind::kCamera);
    }
  }
  ++stats_.pixels_shaded;
  return sum / static_cast<double>(n * n);
}

Color Tracer::trace(const Ray& ray, int depth, double weight, int px, int py,
                    RayKind kind) {
  switch (kind) {
    case RayKind::kCamera: ++stats_.camera_rays; break;
    case RayKind::kReflection: ++stats_.reflection_rays; break;
    case RayKind::kRefraction: ++stats_.refraction_rays; break;
    case RayKind::kShadow: ++stats_.shadow_rays; break;
  }

  Hit hit;
  if (!accel_.closest_hit(ray, kRayEpsilon, kRayInfinity, &hit, &trail_)) {
    if (listener_ != nullptr) {
      listener_->on_traced_segment(px, py, ray, kRayInfinity, kind, trail_);
    }
    return world_.background();
  }
  if (listener_ != nullptr) {
    listener_->on_traced_segment(px, py, ray, hit.t, kind, trail_);
  }
  return shade_hit(hit, ray, depth, weight, px, py);
}

Color Tracer::shade_hit(const Hit& hit, const Ray& ray, int depth,
                        double weight, int px, int py) {
  // object_id indexes the scene's stable ids; materials are looked up
  // through the world object that produced the hit. Scene ids equal world
  // indices for worlds built by the scene module, so a linear fallback is
  // only needed when they diverge.
  const Material* mat = nullptr;
  if (hit.object_id >= 0 && hit.object_id < world_.object_count() &&
      world_.object(hit.object_id).object_id == hit.object_id) {
    mat = &world_.material(world_.object(hit.object_id).material_id);
  } else {
    for (const WorldObject& obj : world_.objects()) {
      if (obj.object_id == hit.object_id) {
        mat = &world_.material(obj.material_id);
        break;
      }
    }
  }
  if (mat == nullptr) return Color{1, 0, 1};  // unmatched id: loud magenta

  const Color tex_color = mat->texture->value(hit.point);
  const Vec3 unit_dir = ray.direction.normalized();

  // Ambient term.
  Color result = tex_color * mat->ambient * options_.ambient_light;

  // Direct illumination with shadow rays.
  for (const Light& light : world_.lights()) {
    result += direct_light(light, hit, unit_dir, *mat, tex_color, px, py);
  }

  if (depth >= options_.max_depth) return result;

  double reflect_w = mat->reflectivity;
  double transmit_w = mat->transmittance;
  if (mat->fresnel && (reflect_w > 0.0 || transmit_w > 0.0)) {
    // Schlick approximation on the incident angle.
    const double cos_i = -dot(unit_dir, hit.normal);
    const double eta = hit.front_face ? 1.0 / mat->ior : mat->ior;
    double r0 = (1.0 - eta) / (1.0 + eta);
    r0 *= r0;
    const double fr = r0 + (1.0 - r0) * std::pow(1.0 - clamp01(cos_i), 5.0);
    reflect_w = reflect_w + transmit_w * fr;
    transmit_w = transmit_w * (1.0 - fr);
  }

  // Reflected contribution (k_rg * I_reflected).
  if (reflect_w > 0.0 &&
      (options_.adaptive_bailout <= 0.0 ||
       weight * reflect_w > options_.adaptive_bailout)) {
    const Vec3 dir = reflect(unit_dir, hit.normal);
    const Ray reflected{hit.point + hit.normal * kRayEpsilon, dir};
    result += reflect_w * trace(reflected, depth + 1, weight * reflect_w, px,
                                py, RayKind::kReflection);
  }

  // Transmitted contribution (k_tg * I_transmitted).
  if (transmit_w > 0.0 &&
      (options_.adaptive_bailout <= 0.0 ||
       weight * transmit_w > options_.adaptive_bailout)) {
    const double eta = hit.front_face ? 1.0 / mat->ior : mat->ior;
    Vec3 dir;
    if (refract(unit_dir, hit.normal, eta, &dir)) {
      const Ray refracted{hit.point - hit.normal * kRayEpsilon, dir};
      result += transmit_w * trace(refracted, depth + 1, weight * transmit_w,
                                   px, py, RayKind::kRefraction);
    } else {
      // Total internal reflection: the transmitted energy reflects instead.
      const Vec3 rdir = reflect(unit_dir, hit.normal);
      const Ray reflected{hit.point + hit.normal * kRayEpsilon, rdir};
      result += transmit_w * trace(reflected, depth + 1, weight * transmit_w,
                                   px, py, RayKind::kReflection);
    }
  }
  return result;
}

Color Tracer::direct_light(const Light& light, const Hit& hit,
                           const Vec3& unit_dir, const Material& mat,
                           const Color& tex_color, int px, int py) {
  Vec3 to_light;
  double light_dist;
  light.sample(hit.point, &to_light, &light_dist);

  const double n_dot_l = dot(hit.normal, to_light);
  if (n_dot_l <= 0.0) return Color::black();  // light behind the surface

  if (options_.shadows) {
    ++stats_.shadow_rays;
    const Ray shadow_ray{hit.point + hit.normal * kRayEpsilon, to_light};
    Hit blocker;
    const double max_t = light_dist - 2.0 * kRayEpsilon;
    const bool blocked =
        accel_.any_hit(shadow_ray, kRayEpsilon, max_t, &blocker, &trail_);
    if (listener_ != nullptr) {
      // Mark up to the blocker: an occluder moving out of the traversed
      // span, or any object moving into it, can change this pixel. Objects
      // beyond the blocker cannot.
      listener_->on_traced_segment(px, py, shadow_ray,
                                   blocked ? blocker.t : light_dist,
                                   RayKind::kShadow, trail_);
    }
    if (blocked) return Color::black();
  }

  const Color light_color = light.color * light.intensity;
  Color out = tex_color * mat.diffuse * n_dot_l * light_color;

  // Phong highlight about the mirror direction of the light.
  const Vec3 view = -unit_dir;
  const Vec3 refl = reflect(-to_light, hit.normal);
  const double r_dot_v = dot(refl, view);
  if (r_dot_v > 0.0 && mat.specular > 0.0) {
    out += light_color * mat.specular * std::pow(r_dot_v, mat.shininess);
  }
  return out;
}

}  // namespace now
