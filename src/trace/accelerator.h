// Ray-intersection accelerators.
//
// The paper's tracer (POV-Ray 3.0) uses uniform spatial subdivision
// (Glassner-style); we provide that plus a brute-force reference used for
// differential testing — both must report identical hits.
//
// A query may also ask for the walk it made (CellTrail): the uniform grid
// reports the lattice cells its 3D-DDA visited from t = 0, so a frame-
// coherence marker on the same lattice can mark the ray without walking it
// a second time.
#pragma once

#include <cstdint>
#include <vector>

#include "src/geom/voxel_grid.h"
#include "src/trace/world.h"

namespace now {

/// The lattice walk a query made, from ray parameter 0: the cells it
/// visited, in order, and the DDA state at the last of them, so a marker
/// can resume the walk up to its own limit. Every accelerator resets the
/// trail it is given; one that walks no lattice leaves `lattice` null.
struct CellTrail {
  const VoxelGrid* lattice = nullptr;
  /// The ray's [0, ∞) range meets the lattice; `t_first` is where.
  bool entered = false;
  double t_first = 0.0;
  /// State at the last visited cell (at the first cell when none was).
  VoxelGrid::Dda dda;
  std::vector<std::uint32_t> cells;  // visited cells, walk order

  void reset(const VoxelGrid* walked) {
    lattice = walked;
    entered = false;
    cells.clear();
  }
};

class Accelerator {
 public:
  virtual ~Accelerator() = default;

  /// Nearest hit with t in (t_min, t_max). Fills hit->object_id. When
  /// `trail` is non-null it receives the walk (see CellTrail).
  virtual bool closest_hit(const Ray& ray, double t_min, double t_max,
                           Hit* hit, CellTrail* trail = nullptr) const = 0;

  /// Any hit — used by shadow rays. On success, `hit` (if non-null) holds the
  /// blocker found, which is not necessarily the nearest. The walk stops at
  /// that blocker.
  virtual bool any_hit(const Ray& ray, double t_min, double t_max, Hit* hit,
                       CellTrail* trail = nullptr) const = 0;

  virtual const char* name() const = 0;
};

class BruteForceAccelerator final : public Accelerator {
 public:
  explicit BruteForceAccelerator(const World& world) : world_(world) {}

  bool closest_hit(const Ray& ray, double t_min, double t_max, Hit* hit,
                   CellTrail* trail = nullptr) const override;
  bool any_hit(const Ray& ray, double t_min, double t_max, Hit* hit,
               CellTrail* trail = nullptr) const override;
  const char* name() const override { return "brute-force"; }

 private:
  const World& world_;
};

}  // namespace now
