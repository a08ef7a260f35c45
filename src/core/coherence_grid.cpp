#include "src/core/coherence_grid.h"

#include <cstring>

namespace now {

CoherenceGrid::CoherenceGrid(const VoxelGrid& grid, const PixelRect& region,
                             int lanes)
    : grid_(grid),
      region_(region),
      band_pixels_(static_cast<std::uint32_t>(kBandRows * region.width)),
      slots_(static_cast<std::size_t>(region.area())),
      bands_(static_cast<std::size_t>((region.height + kBandRows - 1) /
                                      kBandRows)),
      lanes_(static_cast<std::size_t>(lanes)),
      dirty_(static_cast<std::size_t>((grid.cell_count() + 63) / 64), 0) {
  assert(lanes >= 1);
  for (Lane& lane : lanes_) {
    lane.stamp.assign(static_cast<std::size_t>(grid.cell_count()), 0);
  }
  fixed_bytes_ = static_cast<std::int64_t>(
      slots_.size() * sizeof(Slot) + bands_.size() * sizeof(Band) +
      lanes_.size() * (sizeof(Lane) + lanes_[0].stamp.size() *
                                          sizeof(std::uint32_t)) +
      dirty_.size() * sizeof(std::uint64_t));
}

void CoherenceGrid::open_pixel(Lane& lane, std::uint32_t pixel) {
  lane.pixel = pixel;
  lane.band = pixel / band_pixels_;
  if (++lane.serial == 0) {  // serial wrapped: old stamps could collide
    std::fill(lane.stamp.begin(), lane.stamp.end(), 0);
    lane.serial = 1;
  }
  // Reopened with marks already held: stamp them so they are not added
  // twice.
  const Slot& slot = slots_[pixel];
  const std::uint32_t* cells = bands_[lane.band].arena.data() + slot.off;
  for (std::uint32_t i = 0; i < slot.len; ++i) {
    lane.stamp[cells[i]] = lane.serial;
  }
}

void CoherenceGrid::begin_pixel(int x, int y, int lane) {
  assert(region_.contains(x, y));
  const std::uint32_t pixel = local_index(x, y);
  Slot& slot = slots_[pixel];
  bands_[pixel / band_pixels_].live -= slot.len;
  slot.len = 0;
  open_pixel(lanes_[static_cast<std::size_t>(lane)], pixel);
}

void CoherenceGrid::reset() {
  std::fill(slots_.begin(), slots_.end(), Slot{});
  for (Band& band : bands_) {
    band.arena.clear();
    band.live = 0;
  }
  for (Lane& lane : lanes_) lane.pixel = kNoPixel;
}

void CoherenceGrid::collect_pixels(const std::vector<std::uint32_t>& cells,
                                   PixelMask* out,
                                   std::vector<std::uint32_t>* pixels) {
  if (cells.empty()) return;
  std::uint64_t* const dirty = dirty_.data();
  for (const std::uint32_t c : cells) {
    dirty[c / 64] |= std::uint64_t{1} << (c % 64);
  }
  const auto is_dirty = [dirty](std::uint32_t c) {
    return ((dirty[c / 64] >> (c % 64)) & 1) != 0;
  };
  std::uint32_t pixel = 0;
  for (int row = 0; row < region_.height; ++row) {
    const std::uint32_t* arena =
        bands_[static_cast<std::size_t>(row / kBandRows)].arena.data();
    const int y = region_.y0 + row;
    for (int x = region_.x0; x < region_.x0 + region_.width; ++x, ++pixel) {
      const Slot& slot = slots_[pixel];
      const std::uint32_t* first = arena + slot.off;
      if (std::any_of(first, first + slot.len, is_dirty) && !out->at(x, y)) {
        out->set(x, y, true);
        if (pixels != nullptr) pixels->push_back(pixel);
      }
    }
  }
  for (const std::uint32_t c : cells) dirty[c / 64] = 0;
}

void CoherenceGrid::compact_band(std::size_t b) {
  // Slide the slices down in arena order: each lands at or below where it
  // was, so the band's buffer is reused in place.
  std::vector<Slot*> order;
  const std::size_t end_pixel = std::min(slots_.size(), (b + 1) * band_pixels_);
  for (std::size_t p = b * band_pixels_; p < end_pixel; ++p) {
    order.push_back(&slots_[p]);
  }
  std::sort(order.begin(), order.end(),
            [](const Slot* a, const Slot* c) { return a->off < c->off; });
  std::vector<std::uint32_t>& arena = bands_[b].arena;
  std::uint32_t end = 0;
  for (Slot* slot : order) {
    std::memmove(arena.data() + end, arena.data() + slot->off,
                 slot->len * sizeof(std::uint32_t));
    slot->off = end;
    slot->cap = slot->len;
    end += slot->len;
  }
  arena.resize(end);
}

bool CoherenceGrid::maybe_compact(double stale_fraction) {
  bool ran = false;
  for (std::size_t b = 0; b < bands_.size(); ++b) {
    const auto used = static_cast<double>(bands_[b].arena.size());
    const double stale = used - static_cast<double>(bands_[b].live);
    if (stale > 0 && stale >= stale_fraction * used) {
      compact_band(b);
      ran = true;
    }
  }
  if (ran) ++compactions_;
  return ran;
}

std::span<const std::uint32_t> CoherenceGrid::pixel_cells(int x,
                                                          int y) const {
  const std::uint32_t pixel = local_index(x, y);
  const Slot& slot = slots_[pixel];
  return {bands_[pixel / band_pixels_].arena.data() + slot.off, slot.len};
}

CoherenceGridStats CoherenceGrid::stats() const {
  CoherenceGridStats s;
  for (const Band& band : bands_) {
    s.live_marks += band.live;
    s.total_marks += static_cast<std::int64_t>(band.arena.size());
    s.reserved_marks += static_cast<std::int64_t>(band.arena.capacity());
  }
  s.compactions = compactions_;
  s.fixed_bytes = fixed_bytes_;
  return s;
}

}  // namespace now
