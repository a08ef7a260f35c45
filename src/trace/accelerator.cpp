#include "src/trace/accelerator.h"

namespace now {

bool BruteForceAccelerator::closest_hit(const Ray& ray, double t_min,
                                        double t_max, Hit* hit,
                                        CellTrail* trail) const {
  if (trail != nullptr) trail->reset(nullptr);
  bool found = false;
  double nearest = t_max;
  for (int i = 0; i < world_.object_count(); ++i) {
    Hit h;
    if (world_.object(i).primitive->intersect(ray, t_min, nearest, &h)) {
      nearest = h.t;
      h.object_id = world_.object(i).object_id;
      *hit = h;
      found = true;
    }
  }
  return found;
}

bool BruteForceAccelerator::any_hit(const Ray& ray, double t_min, double t_max,
                                    Hit* hit, CellTrail* trail) const {
  if (trail != nullptr) trail->reset(nullptr);
  for (int i = 0; i < world_.object_count(); ++i) {
    Hit h;
    if (world_.object(i).primitive->intersect(ray, t_min, t_max, &h)) {
      if (hit != nullptr) {
        h.object_id = world_.object(i).object_id;
        *hit = h;
      }
      return true;
    }
  }
  return false;
}

}  // namespace now
