#include "src/trace/uniform_grid.h"

#include <algorithm>
#include <cassert>

#include "src/geom/cylinder.h"
#include "src/geom/plane.h"
#include "src/geom/sphere.h"

namespace now {

UniformGridAccelerator::UniformGridAccelerator(const World& world,
                                               double density, int max_axis)
    : world_(world),
      grid_(VoxelGrid::heuristic(world.bounded_extent(), world.object_count(),
                                 density, max_axis)) {
  build();
}

UniformGridAccelerator::UniformGridAccelerator(const World& world,
                                               const VoxelGrid& grid)
    : world_(world), grid_(grid) {
  build();
}

void UniformGridAccelerator::build() {
  cells_.assign(static_cast<std::size_t>(grid_.cell_count()), {});
  unbounded_.clear();
  footprints_.assign(static_cast<std::size_t>(world_.object_count()), {});
  for (int i = 0; i < world_.object_count(); ++i) place(i, /*append=*/true);
}

void UniformGridAccelerator::place(int i, bool append) {
  const auto insert = [i, append](std::vector<int>& list) {
    if (append) {
      list.push_back(i);
    } else {
      list.insert(std::lower_bound(list.begin(), list.end(), i), i);
    }
  };
  const Primitive& prim = *world_.object(i).primitive;
  Footprint& fp = footprints_[static_cast<std::size_t>(i)];
  fp = {};
  fp.shape = prim.type();
  const Aabb box = prim.bounds();
  // An object reaching outside the lattice (possible with an explicit
  // grid) could be hit where no walked cell lists it: test it every ray.
  if (!prim.is_bounded() || !grid_.bounds().contains(box.lo) ||
      !grid_.bounds().contains(box.hi)) {
    insert(unbounded_);
    return;
  }
  grid_.cell_range(box, &fp.ix0, &fp.iy0, &fp.iz0, &fp.ix1, &fp.iy1, &fp.iz1);
  for (int iz = fp.iz0; iz <= fp.iz1; ++iz) {
    for (int iy = fp.iy0; iy <= fp.iy1; ++iy) {
      for (int ix = fp.ix0; ix <= fp.ix1; ++ix) {
        if (prim.overlaps_box(grid_.cell_bounds(ix, iy, iz))) {
          insert(cells_[grid_.cell_index(ix, iy, iz)]);
        }
      }
    }
  }
}

void UniformGridAccelerator::unplace(int i) {
  const auto erase = [i](std::vector<int>& list) {
    const auto it = std::lower_bound(list.begin(), list.end(), i);
    if (it != list.end() && *it == i) list.erase(it);
  };
  const Footprint& fp = footprints_[static_cast<std::size_t>(i)];
  if (fp.ix0 < 0) {
    erase(unbounded_);
    return;
  }
  for (int iz = fp.iz0; iz <= fp.iz1; ++iz) {
    for (int iy = fp.iy0; iy <= fp.iy1; ++iy) {
      for (int ix = fp.ix0; ix <= fp.ix1; ++ix) {
        erase(cells_[grid_.cell_index(ix, iy, iz)]);
      }
    }
  }
}

void UniformGridAccelerator::update(const std::vector<int>& moved) {
  assert(footprints_.size() ==
         static_cast<std::size_t>(world_.object_count()));
  for (const int i : moved) {
    unplace(i);
    place(i, /*append=*/false);
  }
}

bool UniformGridAccelerator::intersect(int i, const Ray& ray, double t_min,
                                       double t_max, Hit* hit) const {
  const Primitive& prim = *world_.object(i).primitive;
  switch (footprints_[static_cast<std::size_t>(i)].shape) {
    case ShapeType::kSphere:
      return static_cast<const Sphere&>(prim).Sphere::intersect(ray, t_min,
                                                                t_max, hit);
    case ShapeType::kPlane:
      return static_cast<const Plane&>(prim).Plane::intersect(ray, t_min,
                                                              t_max, hit);
    case ShapeType::kCylinder:
      return static_cast<const Cylinder&>(prim).Cylinder::intersect(
          ray, t_min, t_max, hit);
    default:
      return prim.intersect(ray, t_min, t_max, hit);
  }
}

bool UniformGridAccelerator::test_list(const std::vector<int>& list,
                                       const Ray& ray, double t_min,
                                       double& nearest, Hit* hit,
                                       ObjectMailbox* mailbox) const {
  bool found = false;
  for (const int i : list) {
    if (mailbox != nullptr && !mailbox->first_test(i)) continue;
    Hit h;
    if (intersect(i, ray, t_min, nearest, &h)) {
      nearest = h.t;
      h.object_id = world_.object(i).object_id;
      *hit = h;
      found = true;
    }
  }
  return found;
}

bool UniformGridAccelerator::begin_walk(const Ray& ray, VoxelGrid::Dda* d,
                                        CellTrail* trail) const {
  // Walk from 0, where marking starts, whatever t_min the query tests
  // objects with: the trace and the marks then share one cell sequence.
  const bool entered = grid_.begin(ray, 0.0, kRayInfinity, d);
  if (trail != nullptr) {
    trail->reset(&grid_);
    trail->entered = entered;
    trail->t_first = d->t;
  }
  return entered;
}

bool UniformGridAccelerator::closest_hit(const Ray& ray, double t_min,
                                         double t_max, Hit* hit,
                                         CellTrail* query) const {
  // The side list shares no object with the cells: it needs no mailbox.
  double nearest = t_max;
  bool found = test_list(unbounded_, ray, t_min, nearest, hit, nullptr);
  ObjectMailbox* const mailbox = query != nullptr ? &query->mailbox : nullptr;
  CellTrail* const trail = query != nullptr && query->record ? query : nullptr;
  VoxelGrid::Dda d;
  if (!begin_walk(ray, &d, trail)) return found;
  if (mailbox != nullptr) mailbox->begin(footprints_.size());
  d.clip(t_max);
  // Every object listed in a cell lies inside the lattice, so an unbounded
  // hit in front of it ends the trace before the first cell.
  if (d.t <= d.t_exit && !(found && nearest < d.t)) {
    do {
      const int cell = grid_.cell_index(d);
      if (trail != nullptr) {
        trail->cells.push_back(static_cast<std::uint32_t>(cell));
      }
      if (test_list(cells_[cell], ray, t_min, nearest, hit, mailbox)) {
        found = true;
      }
      // A hit inside or before this cell terminates the walk: no later
      // cell can contain a closer intersection. Objects spanning multiple
      // cells may report a hit beyond the current cell's exit, so only
      // stop once the hit is within the cell.
      if (found && nearest <= d.cell_exit() + 1e-12) break;
    } while (grid_.next(&d));
  }
  if (trail != nullptr) trail->dda = d;
  return found;
}

bool UniformGridAccelerator::any_hit(const Ray& ray, double t_min,
                                     double t_max, Hit* hit,
                                     CellTrail* query) const {
  double nearest = t_max;
  Hit local;
  bool found = test_list(unbounded_, ray, t_min, nearest, &local, nullptr);
  ObjectMailbox* const mailbox = query != nullptr ? &query->mailbox : nullptr;
  CellTrail* const trail = query != nullptr && query->record ? query : nullptr;
  // The walk stops at the first blocker: an unbounded one ends it before
  // the first cell, so it is begun only for the trail.
  VoxelGrid::Dda d;
  if ((!found || trail != nullptr) && begin_walk(ray, &d, trail)) {
    d.clip(t_max);
    if (!found && d.t <= d.t_exit) {
      if (mailbox != nullptr) mailbox->begin(footprints_.size());
      do {
        const int cell = grid_.cell_index(d);
        if (trail != nullptr) {
          trail->cells.push_back(static_cast<std::uint32_t>(cell));
        }
        for (const int i : cells_[cell]) {
          if (mailbox != nullptr && !mailbox->first_test(i)) continue;
          Hit h;
          if (intersect(i, ray, t_min, t_max, &h)) {
            h.object_id = world_.object(i).object_id;
            local = h;
            found = true;
            break;
          }
        }
      } while (!found && grid_.next(&d));
    }
    if (trail != nullptr) trail->dda = d;
  }
  if (found && hit != nullptr) *hit = local;
  return found;
}

std::int64_t UniformGridAccelerator::total_cell_entries() const {
  std::int64_t n = 0;
  for (const auto& cell : cells_) n += static_cast<std::int64_t>(cell.size());
  return n;
}

}  // namespace now
