// RayRecorder: the RayListener that implements the inner loop of Figure 3 —
//   "for each voxel that a ray associated with this pixel intersects,
//    add the pixel to the voxel's pixel list."
//
// A segment is marked along the 3D-DDA walk of the coherence lattice (the
// paper's "modified 3D-DDA algorithm"), clipped at the segment's
// termination parameter: objects behind a hit point cannot affect the
// pixel, so voxels beyond it are not marked. The marked cells are exactly
// those of walk(ray, 0, mark_limit(t_end)), in walk order.
//
// Two entry points share that walk. on_traced_segment() is the tracer's:
// when the accelerator walked the same lattice, the cells it visited come
// with the segment (CellTrail), and the recorder marks them and resumes the
// walk's state up to the limit — the trace and the marks make one walk.
// on_segment() is mark-only: it walks the segment itself (a replayed
// segment log, or an accelerator on another lattice).
//
// Shadow-ray marking can be disabled to measure the cost/benefit of the
// paper's shadow-coherence feature (only valid with shadows off, otherwise
// occluder motion would be missed).
//
// With several render threads, each thread marks through its own grid lane
// (see CoherenceGrid), so one recorder per thread writes the grid directly.
#pragma once

#include <cstdint>

#include "src/core/coherence_grid.h"
#include "src/trace/tracer.h"

namespace now {

/// Marking limit for a segment ending at `t_end`: extend fractionally past
/// the hit so the voxel containing the hit point is marked even when the hit
/// lies exactly on a cell boundary.
inline double mark_limit(double t_end) {
  return t_end >= kRayInfinity ? kRayInfinity : t_end * (1.0 + 1e-9) + 1e-12;
}

struct RayRecorderStats {
  std::uint64_t segments = 0;
  std::uint64_t voxels_visited = 0;
};

class RayRecorder final : public RayListener {
 public:
  explicit RayRecorder(CoherenceGrid* grid, bool record_shadow_rays = true,
                       int lane = 0)
      : grid_(grid), record_shadow_rays_(record_shadow_rays), lane_(lane) {}

  void on_segment(int px, int py, const Ray& ray, double t_end,
                  RayKind kind) override;
  void on_traced_segment(int px, int py, const Ray& ray, double t_end,
                         RayKind kind, const CellTrail& trail) override;

  const RayRecorderStats& stats() const { return stats_; }

 private:
  /// Mark walk(ray, 0, limit) from its first cell.
  void mark_walk(int px, int py, const Ray& ray, double limit);

  CoherenceGrid* grid_;
  bool record_shadow_rays_;
  int lane_;
  RayRecorderStats stats_;
};

}  // namespace now
