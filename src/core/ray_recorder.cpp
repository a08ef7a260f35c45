#include "src/core/ray_recorder.h"

namespace now {

void RayRecorder::on_segment(int px, int py, const Ray& ray, double t_end,
                             RayKind kind) {
  if (kind == RayKind::kShadow && !record_shadow_rays_) return;
  ++stats_.segments;
  const VoxelGrid& vg = grid_->grid();
  vg.walk(ray, 0.0, mark_limit(t_end),
          [&](int ix, int iy, int iz, double, double) {
            grid_->mark(vg.cell_index(ix, iy, iz), px, py, lane_);
            ++stats_.voxels_visited;
            return true;
          });
}

}  // namespace now
