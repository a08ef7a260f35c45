#include "src/core/ray_recorder.h"

namespace now {

void RayRecorder::on_segment(int px, int py, const Ray& ray, double t_end,
                             RayKind kind) {
  if (kind == RayKind::kShadow && !record_shadow_rays_) return;
  ++stats_.segments;
  mark_walk(px, py, ray, mark_limit(t_end));
}

void RayRecorder::mark_walk(int px, int py, const Ray& ray, double limit) {
  const VoxelGrid& vg = grid_->grid();
  VoxelGrid::Dda d;
  if (!vg.begin(ray, 0.0, limit, &d)) return;
  CoherenceGrid::PixelMarker marker = grid_->marker(px, py, lane_);
  std::uint64_t visited = 0;
  do {
    marker.mark(static_cast<std::uint32_t>(vg.cell_index(d)));
    ++visited;
  } while (vg.next(&d));
  stats_.voxels_visited += visited;
}

void RayRecorder::on_traced_segment(int px, int py, const Ray& ray,
                                    double t_end, RayKind kind,
                                    const CellTrail& trail) {
  if (kind == RayKind::kShadow && !record_shadow_rays_) return;
  ++stats_.segments;
  const VoxelGrid& vg = grid_->grid();
  const double limit = mark_limit(t_end);
  if (trail.lattice == nullptr || !(*trail.lattice == vg)) {
    mark_walk(px, py, ray, limit);  // walked another lattice, or none
    return;
  }
  // walk(ray, 0, limit) enters its first cell iff that cell's entry is at
  // most the limit, and each later cell iff its entry is below it.
  if (!trail.entered || trail.t_first > limit) return;
  const std::size_t traced = trail.cells.size();
  if (traced >= 2 && trail.dda.t >= limit) {
    // The trace walked past the limit (a hit found behind the cell that
    // holds it). Entries only grow after the first cell, so the cut lies
    // inside the trail: rare enough to walk afresh.
    mark_walk(px, py, ray, limit);
    return;
  }
  CoherenceGrid::PixelMarker marker = grid_->marker(px, py, lane_);
  for (const std::uint32_t cell : trail.cells) marker.mark(cell);
  std::uint64_t visited = traced;
  VoxelGrid::Dda d = trail.dda;
  if (traced == 0) {
    marker.mark(static_cast<std::uint32_t>(vg.cell_index(d)));
    ++visited;
  }
  d.clip(limit);
  while (vg.next(&d)) {
    marker.mark(static_cast<std::uint32_t>(vg.cell_index(d)));
    ++visited;
  }
  stats_.voxels_visited += visited;
}

}  // namespace now
