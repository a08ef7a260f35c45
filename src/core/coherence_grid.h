// CoherenceGrid: the pixel ↔ voxel mark store at the heart of the paper's
// frame-coherence algorithm (Figure 3).
//
// "As rays are fired during the rendering process, the frame coherence
//  algorithm tracks their paths and marks all of the voxels that they pass
//  through. ... If a particular voxel experiences some sort of change in the
//  next frame, all of the pixels whose rays pass through that voxel must be
//  updated."
//
// Storage is pixel-major: each tracked pixel owns a slice of the voxel cells
// its rays visited (one u32 per cell, deduplicated), and the slices of every
// kBandRows-row band of the region live in one arena. Recomputing a pixel
// truncates its slice and re-marks it in place, so no stale entry is ever
// stored. A slice that outgrows its slot moves to the end of its band's
// arena; maybe_compact() reclaims the slots left behind. Detection scans
// the slices in pixel order against a dirty-cell bitset. Memory is
// proportional to the tracked pixel region — the property that makes frame
// division cheaper per worker than sequence division (Section 3).
//
// Concurrency: marking threads each use their own lane (a per-cell dedup
// stamp array and the lane's open pixel). Lanes that mark pixels of
// different bands write disjoint memory, so render threads that own whole
// bands mark without locks, and each band's arena ends up the same as in a
// sequential render.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "src/geom/voxel_grid.h"
#include "src/image/framebuffer.h"
#include "src/image/image_diff.h"

namespace now {

struct CoherenceGridStats {
  std::int64_t live_marks = 0;
  /// Arena entries in use: live marks plus slots left behind by slices
  /// that outgrew them and the unused tails of shrunk slots.
  std::int64_t total_marks = 0;
  std::int64_t compactions = 0;
  /// Arena entries *allocated* (vector capacities). Compaction and reset
  /// keep capacity, so this is the high-water mark the allocator sees.
  std::int64_t reserved_marks = 0;
  /// Allocated at construction: pixel slots, lane stamps, dirty bitset.
  std::int64_t fixed_bytes = 0;
  /// Allocated footprint, not live-entry count: the paper's "memory
  /// proportional to image area" claim is about the allocation.
  std::int64_t bytes() const {
    return fixed_bytes +
           reserved_marks * static_cast<std::int64_t>(sizeof(std::uint32_t));
  }
};

class CoherenceGrid {
  struct Slot;
  struct Band;

 public:
  /// Region rows per arena band: the unit a render thread owns.
  static constexpr int kBandRows = 4;

  /// Track pixels of `region` (a subarea of the full image) against `grid`,
  /// for up to `lanes` concurrently marking threads.
  CoherenceGrid(const VoxelGrid& grid, const PixelRect& region, int lanes = 1);

  const VoxelGrid& grid() const { return grid_; }
  const PixelRect& region() const { return region_; }

  /// Add the cell to the slice of pixel (x, y) — full-image coordinates,
  /// in the region — unless the pixel holds it. Marks of one pixel may be
  /// interleaved with other pixels' on the same lane; after another lane
  /// restarts the pixel, mark it only after begin_pixel on this lane.
  void mark(int cell, int x, int y, int lane = 0);

  /// The pixel is about to be recomputed: drop its marks and open it on
  /// `lane` for the new ones.
  void begin_pixel(int x, int y, int lane = 0);

  /// mark() for a run of cells of one pixel, with the pixel lookup done
  /// once: marker(x, y, lane).mark(cell) is mark(cell, x, y, lane). Valid
  /// until the lane marks another pixel.
  class PixelMarker {
   public:
    void mark(std::uint32_t cell);

   private:
    friend class CoherenceGrid;
    PixelMarker(CoherenceGrid* grid, std::uint32_t pixel, int lane);
    std::uint32_t* stamp_;
    std::uint32_t serial_;
    Slot* slot_;
    Band* band_;
  };
  PixelMarker marker(int x, int y, int lane = 0);

  /// Forget everything (used when a full re-render invalidates all state).
  void reset();

  /// Set in `out` (mask in full-image coordinates) every pixel holding a
  /// mark in one of the given voxel cells. When `pixels` is non-null it
  /// additionally receives the region-local index of every pixel newly set
  /// in `out`, in ascending order; callers that iterate only the dirty
  /// pixels avoid rescanning the whole region.
  void collect_pixels(const std::vector<std::uint32_t>& cells, PixelMask* out,
                      std::vector<std::uint32_t>* pixels = nullptr);

  /// Reclaim, in place, the arena space of every band whose entries not
  /// holding a live mark reach `stale_fraction` of its entries in use.
  /// Returns true if any band was compacted.
  bool maybe_compact(double stale_fraction = 0.5);

  /// The live cells of pixel (x, y), in marking order.
  std::span<const std::uint32_t> pixel_cells(int x, int y) const;

  CoherenceGridStats stats() const;

 private:
  static constexpr std::uint32_t kNoPixel = ~std::uint32_t{0};

  /// A pixel's `len` cells at arena[off, off + len), in a slot of `cap`.
  struct Slot {
    std::uint32_t off = 0;
    std::uint32_t len = 0;
    std::uint32_t cap = 0;
  };
  // Cache-line aligned: neighbours are written by different threads.
  struct alignas(64) Band {
    std::vector<std::uint32_t> arena;
    std::int64_t live = 0;
  };
  struct alignas(64) Lane {
    std::vector<std::uint32_t> stamp;  // per cell: serial of its last mark
    std::uint32_t serial = 0;          // bumped whenever a pixel opens
    std::uint32_t pixel = kNoPixel;    // open pixel, region-local
    std::uint32_t band = 0;            // band of the open pixel
  };

  std::uint32_t local_index(int x, int y) const {
    return static_cast<std::uint32_t>((y - region_.y0) * region_.width +
                                      (x - region_.x0));
  }
  void open_pixel(Lane& lane, std::uint32_t pixel);
  static void append(Slot& slot, Band& band, std::uint32_t cell);
  void compact_band(std::size_t b);

  VoxelGrid grid_;
  PixelRect region_;
  std::uint32_t band_pixels_;  // pixels per band
  std::vector<Slot> slots_;    // per region-local pixel
  std::vector<Band> bands_;
  std::vector<Lane> lanes_;
  std::vector<std::uint64_t> dirty_;  // cell bitset, all zero between calls
  std::int64_t compactions_ = 0;
  std::int64_t fixed_bytes_ = 0;
};

inline CoherenceGrid::PixelMarker::PixelMarker(CoherenceGrid* grid,
                                               std::uint32_t pixel, int lane) {
  Lane& l = grid->lanes_[static_cast<std::size_t>(lane)];
  if (pixel != l.pixel) grid->open_pixel(l, pixel);
  stamp_ = l.stamp.data();
  serial_ = l.serial;
  slot_ = &grid->slots_[pixel];
  band_ = &grid->bands_[l.band];
}

inline CoherenceGrid::PixelMarker CoherenceGrid::marker(int x, int y,
                                                        int lane) {
  assert(region_.contains(x, y));
  return PixelMarker(this, local_index(x, y), lane);
}

inline void CoherenceGrid::PixelMarker::mark(std::uint32_t cell) {
  std::uint32_t& stamp = stamp_[cell];
  if (stamp == serial_) return;
  stamp = serial_;
  append(*slot_, *band_, cell);
}

inline void CoherenceGrid::mark(int cell, int x, int y, int lane) {
  marker(x, y, lane).mark(static_cast<std::uint32_t>(cell));
}

inline void CoherenceGrid::append(Slot& slot, Band& band, std::uint32_t cell) {
  ++band.live;
  if (slot.len < slot.cap) {
    band.arena[slot.off + slot.len++] = cell;
    return;
  }
  if (slot.off + slot.cap != band.arena.size()) {
    // Outgrew a slot that is not at the arena's end: move the slice there
    // and leave the old slot for maybe_compact().
    const std::uint32_t off = static_cast<std::uint32_t>(band.arena.size());
    band.arena.resize(off + slot.len);
    std::copy_n(band.arena.begin() + slot.off, slot.len,
                band.arena.begin() + off);
    slot.off = off;
    slot.cap = slot.len;
  }
  band.arena.push_back(cell);
  ++slot.cap;
  ++slot.len;
}

}  // namespace now
