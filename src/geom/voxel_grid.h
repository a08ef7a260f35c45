// Uniform spatial subdivision: the voxel lattice shared by the grid ray
// accelerator and the frame-coherence grid. As in the paper, one uniform
// subdivision of object space serves both: CoherentRenderer builds its
// accelerator on the coherence lattice, so the walk that traces a ray is
// the walk that marks it.
//
// Traversal is the Amanatides & Woo 3D-DDA, kept as a resumable state
// (Dda): a walk can stop at a cell and continue later under a new limit.
// The paper's "modified 3D-DDA" is that walk clipped to a ray segment
// [0, t_end]; walk() is a thin loop over the state.
#pragma once

#include <cassert>
#include <cmath>

#include "src/math/aabb.h"
#include "src/math/ray.h"

namespace now {

class VoxelGrid {
 public:
  VoxelGrid() = default;

  VoxelGrid(const Aabb& bounds, int nx, int ny, int nz)
      : bounds_(bounds), nx_(nx), ny_(ny), nz_(nz) {
    assert(nx > 0 && ny > 0 && nz > 0);
    const Vec3 ext = bounds.extent();
    cell_size_ = {ext.x / nx, ext.y / ny, ext.z / nz};
  }

  /// Grid over `extent` with resolution chosen by the Cleary/Woo heuristic:
  /// roughly `density * cbrt(object_count)` cells per axis, shaped to the
  /// extent's aspect ratio, clamped to [1, max_axis].
  static VoxelGrid heuristic(const Aabb& extent, int object_count,
                             double density = 3.0, int max_axis = 128);

  bool valid() const { return nx_ > 0; }
  const Aabb& bounds() const { return bounds_; }
  int nx() const { return nx_; }
  int ny() const { return ny_; }
  int nz() const { return nz_; }
  std::int64_t cell_count() const {
    return std::int64_t{nx_} * ny_ * nz_;
  }
  const Vec3& cell_size() const { return cell_size_; }

  int cell_index(int ix, int iy, int iz) const {
    return (iz * ny_ + iy) * nx_ + ix;
  }

  Aabb cell_bounds(int ix, int iy, int iz) const {
    const Vec3 lo{bounds_.lo.x + ix * cell_size_.x,
                  bounds_.lo.y + iy * cell_size_.y,
                  bounds_.lo.z + iz * cell_size_.z};
    return {lo, lo + cell_size_};
  }

  /// Cell containing `p`, clamped to the grid.
  void locate(const Vec3& p, int* ix, int* iy, int* iz) const {
    *ix = clamp_axis((p.x - bounds_.lo.x) / cell_size_.x, nx_);
    *iy = clamp_axis((p.y - bounds_.lo.y) / cell_size_.y, ny_);
    *iz = clamp_axis((p.z - bounds_.lo.z) / cell_size_.z, nz_);
  }

  /// Inclusive cell index range overlapped by `box` (clamped to the grid).
  /// Returns false when the box misses the grid entirely.
  bool cell_range(const Aabb& box, int* ix0, int* iy0, int* iz0, int* ix1,
                  int* iy1, int* iz1) const {
    if (!bounds_.overlaps(box)) return false;
    locate(box.lo, ix0, iy0, iz0);
    locate(box.hi, ix1, iy1, iz1);
    return true;
  }

  /// Resumable 3D-DDA state: the current cell, the parameter at which the
  /// ray enters it, and where each axis next crosses a cell face. A later
  /// cell is entered only when its entry parameter lies below `t_exit`.
  struct Dda {
    int cell[3];
    int step[3];
    double t_next[3];
    double t_delta[3];
    double t = 0.0;       // entry parameter of the current cell
    double t_far = 0.0;   // where the range given to begin() leaves the grid
    double t_exit = 0.0;  // clip: min(t_far, the latest limit)

    int exit_axis() const {
      int axis = t_next[1] < t_next[0] ? 1 : 0;
      if (t_next[2] < t_next[axis]) axis = 2;
      return axis;
    }
    /// Exit parameter of the current cell, clipped.
    double cell_exit() const {
      const double t_axis = t_next[exit_axis()];
      return t_axis < t_exit ? t_axis : t_exit;
    }
    /// Clip the rest of the walk at `limit` (never beyond the grid).
    void clip(double limit) { t_exit = limit < t_far ? limit : t_far; }
  };

  /// Start a walk of ray parameters [t_min, t_max] at its first cell.
  /// Returns false when the range misses the grid.
  bool begin(const Ray& ray, double t_min, double t_max, Dda* d) const {
    double t_enter, t_exit;
    if (!bounds_.intersect(ray, t_min, t_max, &t_enter, &t_exit)) return false;

    // Start cell: nudge inside to avoid landing exactly on a face.
    const double t_start = t_enter + 1e-12 * (1.0 + std::fabs(t_enter));
    locate(ray.at(t_start), &d->cell[0], &d->cell[1], &d->cell[2]);

    for (int axis = 0; axis < 3; ++axis) {
      const double dir = ray.direction[axis];
      if (dir > 0.0) {
        d->step[axis] = 1;
        const double edge =
            bounds_.lo[axis] + (d->cell[axis] + 1) * cell_size_[axis];
        d->t_next[axis] = (edge - ray.origin[axis]) / dir;
        d->t_delta[axis] = cell_size_[axis] / dir;
      } else if (dir < 0.0) {
        d->step[axis] = -1;
        const double edge = bounds_.lo[axis] + d->cell[axis] * cell_size_[axis];
        d->t_next[axis] = (edge - ray.origin[axis]) / dir;
        d->t_delta[axis] = -cell_size_[axis] / dir;
      } else {
        d->step[axis] = 0;
        d->t_next[axis] = kRayInfinity;
        d->t_delta[axis] = kRayInfinity;
      }
    }
    d->t = t_enter;
    d->t_far = t_exit;
    d->t_exit = t_exit;
    return true;
  }

  /// Step to the next cell. Returns false, leaving `d` at the current cell,
  /// when the next cell is entered at or after the clip or lies outside the
  /// grid; a later clip() at a larger limit can then resume the walk.
  bool next(Dda* d) const {
    const int axis = d->exit_axis();
    if (d->t_next[axis] >= d->t_exit) return false;
    const int c = d->cell[axis] + d->step[axis];
    const int n = axis == 0 ? nx_ : (axis == 1 ? ny_ : nz_);
    if (c < 0 || c >= n) return false;  // left the grid
    d->t = d->t_next[axis];
    d->cell[axis] = c;
    d->t_next[axis] += d->t_delta[axis];
    return true;
  }

  int cell_index(const Dda& d) const {
    return cell_index(d.cell[0], d.cell[1], d.cell[2]);
  }

  /// Walk the cells pierced by ray parameter range [t_min, t_max] in order.
  /// Visitor signature: bool(int ix, int iy, int iz, double t_enter,
  /// double t_exit); returning false stops the walk early.
  template <typename Visitor>
  void walk(const Ray& ray, double t_min, double t_max, Visitor&& visit) const {
    Dda d;
    if (!begin(ray, t_min, t_max, &d)) return;
    do {
      if (!visit(d.cell[0], d.cell[1], d.cell[2], d.t, d.cell_exit())) return;
    } while (next(&d));
  }

  /// Same lattice: equal bounds and resolution. Cheap enough to check per
  /// ray segment.
  friend bool operator==(const VoxelGrid& a, const VoxelGrid& b) {
    return a.nx_ == b.nx_ && a.ny_ == b.ny_ && a.nz_ == b.nz_ &&
           a.bounds_.lo == b.bounds_.lo && a.bounds_.hi == b.bounds_.hi;
  }

 private:
  /// floor(v) clamped to [0, n - 1], by comparisons and one truncation:
  /// below 1 (negatives, ±0 and NaN included) floor is at most 0, at or
  /// above the integer n it is at least n, and in between it equals the
  /// truncation. std::floor would be a libm call on baseline x86-64.
  static int clamp_axis(double v, int n) {
    if (!(v >= 1.0)) return 0;
    if (v >= n) return n - 1;
    return static_cast<int>(v);
  }

  Aabb bounds_;
  int nx_ = 0;
  int ny_ = 0;
  int nz_ = 0;
  Vec3 cell_size_;
};

}  // namespace now
