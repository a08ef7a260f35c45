// Uniform-grid ray accelerator (Glassner 1984 style, as used by POV-Ray's
// era of tracers and referenced by the paper).
//
// Bounded primitives are rasterized into grid cells with their conservative
// overlaps_box() tests, each cell listing its objects in ascending world
// order; unbounded primitives (planes), and any object not inside the
// lattice, live on a side list tested for every ray.
//
// Queries walk the lattice from ray parameter 0 and can hand that walk to a
// coherence marker (CellTrail). CoherentRenderer builds the accelerator once
// per shot on its coherence lattice and, between consecutive frames, moves
// only the objects that moved (update()) instead of rebuilding.
#pragma once

#include <vector>

#include "src/geom/voxel_grid.h"
#include "src/trace/accelerator.h"

namespace now {

class UniformGridAccelerator final : public Accelerator {
 public:
  /// Builds the grid for `world`; `density`/`max_axis` feed the resolution
  /// heuristic (see VoxelGrid::heuristic).
  explicit UniformGridAccelerator(const World& world, double density = 3.0,
                                  int max_axis = 128);

  /// Build on an explicit lattice (the coherence lattice, or a resolution
  /// sweep's).
  UniformGridAccelerator(const World& world, const VoxelGrid& grid);

  bool closest_hit(const Ray& ray, double t_min, double t_max, Hit* hit,
                   CellTrail* trail = nullptr) const override;
  bool any_hit(const Ray& ray, double t_min, double t_max, Hit* hit,
               CellTrail* trail = nullptr) const override;
  const char* name() const override { return "uniform-grid"; }

  /// The referenced world now holds another frame of the same scene (same
  /// objects, same order); the objects at world indices `moved` changed.
  /// Moves each from its old footprint to its new one, leaving every list
  /// equal to a fresh build's. Scene-built worlds index objects by scene
  /// id, so AnimatedScene::changed_objects can be passed as is.
  void update(const std::vector<int>& moved);

  const VoxelGrid& grid() const { return grid_; }
  /// Object indices listed in cell `cell`, ascending.
  const std::vector<int>& cell_objects(int cell) const { return cells_[cell]; }
  /// Object indices tested for every ray, ascending.
  const std::vector<int>& unbounded_objects() const { return unbounded_; }
  std::int64_t total_cell_entries() const;

 private:
  /// Inclusive cell range an object was rasterized over; `ix0 < 0` when it
  /// sits on the side list instead. Beside it, the object's shape, which
  /// picks a non-virtual intersect for the shapes the grid knows.
  struct Footprint {
    int ix0 = -1, iy0 = 0, iz0 = 0, ix1 = 0, iy1 = 0, iz1 = 0;
    ShapeType shape = ShapeType::kMesh;
  };

  void build();
  /// Rasterize object `i` into the cells (or the side list), inserting it in
  /// ascending order unless `append`, which a build in index order may use.
  void place(int i, bool append);
  void unplace(int i);
  /// Primitive::intersect of object `i`: inlined for spheres, planes and
  /// cylinders, virtual for the other shapes.
  bool intersect(int i, const Ray& ray, double t_min, double t_max,
                 Hit* hit) const;
  /// Test the objects of `list`, skipping those `mailbox` (if any) has
  /// seen this query; keeps the nearest hit under `nearest`.
  bool test_list(const std::vector<int>& list, const Ray& ray, double t_min,
                 double& nearest, Hit* hit, ObjectMailbox* mailbox) const;
  /// Start a trail's walk at the lattice's first cell along `ray` from 0.
  bool begin_walk(const Ray& ray, VoxelGrid::Dda* d, CellTrail* trail) const;

  const World& world_;
  VoxelGrid grid_;
  std::vector<std::vector<int>> cells_;  // object indices per cell
  std::vector<int> unbounded_;           // object indices of planes etc.
  std::vector<Footprint> footprints_;    // per object index
};

}  // namespace now
