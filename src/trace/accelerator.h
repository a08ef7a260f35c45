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

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/geom/voxel_grid.h"
#include "src/trace/world.h"

namespace now {

/// Per-query object mailbox: an accelerator whose cells share objects
/// tests each object at most once per query. Skipping a repeat test is
/// exact because Primitive::intersect reports the nearest root in the open
/// interval (t_min, t_max): within one query t_max only shrinks, so a miss
/// stays a miss, and a hit at t is a miss over (t_min, t).
class ObjectMailbox {
 public:
  /// `stamp` is the last query's stamp; tests start near the wrap with it.
  explicit ObjectMailbox(std::uint32_t stamp = 0) : stamp_(stamp) {}

  /// Starts a query over object indices [0, objects): none is tested yet.
  void begin(std::size_t objects) {
    if (stamps_.size() < objects) stamps_.resize(objects, 0);
    if (++stamp_ == 0) {  // wrapped: forget every earlier query's stamps
      std::fill(stamps_.begin(), stamps_.end(), 0);
      stamp_ = 1;
    }
  }

  /// True the first time object `i` is offered in this query, which then
  /// marks it tested.
  bool first_test(int i) {
    std::uint32_t& s = stamps_[static_cast<std::size_t>(i)];
    if (s == stamp_) return false;
    s = stamp_;
    return true;
  }

 private:
  std::vector<std::uint32_t> stamps_;  // per object: stamp of its last test
  std::uint32_t stamp_;
};

/// The lattice walk a query made, from ray parameter 0: the cells it
/// visited, in order, and the DDA state at the last of them, so a marker
/// can resume the walk up to its own limit. Every accelerator resets the
/// trail it is given; one that walks no lattice leaves `lattice` null.
///
/// The trail is also the per-thread state a query may use: its mailbox.
/// A caller that wants the mailbox but not the walk clears `record`.
struct CellTrail {
  /// Whether queries fill in the walk below.
  bool record = true;
  const VoxelGrid* lattice = nullptr;
  /// The ray's [0, ∞) range meets the lattice; `t_first` is where.
  bool entered = false;
  double t_first = 0.0;
  /// State at the last visited cell (at the first cell when none was).
  VoxelGrid::Dda dda;
  std::vector<std::uint32_t> cells;  // visited cells, walk order
  ObjectMailbox mailbox;

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
  /// `trail` is non-null and records, it receives the walk (see
  /// CellTrail); a non-null trail also lends the query its mailbox.
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
