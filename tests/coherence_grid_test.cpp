#include "src/core/coherence_grid.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "src/math/rng.h"

namespace now {
namespace {

VoxelGrid small_grid() {
  return VoxelGrid({{0, 0, 0}, {4, 4, 4}}, 4, 4, 4);
}

std::vector<std::uint32_t> cells_of(const CoherenceGrid& grid, int x, int y) {
  const auto cells = grid.pixel_cells(x, y);
  return {cells.begin(), cells.end()};
}

TEST(CoherenceGrid, MarkAndCollect) {
  CoherenceGrid grid(small_grid(), {0, 0, 8, 8});
  grid.mark(0, 1, 2);
  grid.mark(0, 3, 4);
  grid.mark(5, 1, 2);
  PixelMask mask(8, 8);
  grid.collect_pixels({0}, &mask);
  EXPECT_EQ(mask.count(), 2);
  EXPECT_TRUE(mask.at(1, 2));
  EXPECT_TRUE(mask.at(3, 4));
  mask = PixelMask(8, 8);
  grid.collect_pixels({5}, &mask);
  EXPECT_EQ(mask.count(), 1);
  mask = PixelMask(8, 8);
  grid.collect_pixels({7}, &mask);
  EXPECT_EQ(mask.count(), 0);
}

TEST(CoherenceGrid, BeginPixelRetiresMarks) {
  CoherenceGrid grid(small_grid(), {0, 0, 8, 8});
  grid.mark(0, 1, 1);
  grid.mark(3, 1, 1);
  grid.begin_pixel(1, 1);  // recompute: old paths invalid
  PixelMask mask(8, 8);
  grid.collect_pixels({0, 3}, &mask);
  EXPECT_EQ(mask.count(), 0);
  // New marks after the restart are live, including a cell the pixel held
  // before it was truncated.
  grid.mark(2, 1, 1);
  grid.mark(0, 1, 1);
  EXPECT_EQ(cells_of(grid, 1, 1), (std::vector<std::uint32_t>{2, 0}));
  grid.collect_pixels({2}, &mask);
  EXPECT_EQ(mask.count(), 1);
}

TEST(CoherenceGrid, OtherPixelsUnaffectedByRetirement) {
  CoherenceGrid grid(small_grid(), {0, 0, 8, 8});
  grid.mark(0, 1, 1);
  grid.mark(0, 2, 2);
  grid.begin_pixel(1, 1);
  PixelMask mask(8, 8);
  grid.collect_pixels({0}, &mask);
  EXPECT_EQ(mask.count(), 1);
  EXPECT_TRUE(mask.at(2, 2));
}

TEST(CoherenceGrid, RegionLocalPixels) {
  // Region offset from the image origin: marks use full-image coordinates.
  CoherenceGrid grid(small_grid(), {4, 6, 3, 2});
  grid.mark(1, 5, 7);
  PixelMask mask(8, 8);
  std::vector<std::uint32_t> pixels;
  grid.collect_pixels({1}, &mask, &pixels);
  EXPECT_TRUE(mask.at(5, 7));
  EXPECT_EQ(mask.count(), 1);
  // Region-local (1, 1) in a 3-wide region.
  EXPECT_EQ(pixels, (std::vector<std::uint32_t>{4}));
}

TEST(CoherenceGrid, DuplicateConsecutiveMarksCollapse) {
  CoherenceGrid grid(small_grid(), {0, 0, 8, 8});
  grid.mark(0, 1, 1);
  grid.mark(0, 1, 1);
  grid.mark(4, 1, 1);
  grid.mark(0, 1, 1);  // not consecutive, still a duplicate
  EXPECT_EQ(grid.stats().live_marks, 2);
  EXPECT_EQ(cells_of(grid, 1, 1), (std::vector<std::uint32_t>{0, 4}));
}

TEST(CoherenceGrid, InterleavedPixelsKeepTheirOwnSlices) {
  // A pixel marked again after another pixel's marks extends its slice
  // without duplicating what it already holds, even once the slice has to
  // move because the other pixel now sits behind it in the arena.
  CoherenceGrid grid(small_grid(), {0, 0, 8, 8});
  grid.mark(0, 1, 1);
  grid.mark(1, 1, 1);
  grid.mark(0, 2, 1);
  grid.mark(1, 1, 1);
  grid.mark(6, 1, 1);
  grid.mark(0, 2, 1);
  EXPECT_EQ(cells_of(grid, 1, 1), (std::vector<std::uint32_t>{0, 1, 6}));
  EXPECT_EQ(cells_of(grid, 2, 1), (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(grid.stats().live_marks, 4);
  EXPECT_EQ(grid.stats().total_marks, 6);  // the moved slice left 2 behind
}

TEST(CoherenceGrid, StatsTrackLiveAndTotal) {
  CoherenceGrid grid(small_grid(), {0, 0, 8, 8});
  grid.mark(0, 1, 1);
  grid.mark(1, 1, 1);
  grid.mark(2, 2, 2);
  EXPECT_EQ(grid.stats().live_marks, 3);
  EXPECT_EQ(grid.stats().total_marks, 3);
  grid.begin_pixel(1, 1);
  EXPECT_EQ(grid.stats().live_marks, 1);
  // The truncated pixel re-marks inside its own slot: nothing new is used.
  grid.mark(3, 1, 1);
  grid.mark(0, 1, 1);
  EXPECT_EQ(grid.stats().live_marks, 3);
  EXPECT_EQ(grid.stats().total_marks, 3);
  EXPECT_GT(grid.stats().bytes(), 0);
  EXPECT_GE(grid.stats().reserved_marks, grid.stats().total_marks);
}

TEST(CoherenceGrid, CollectLeavesMarksInPlace) {
  CoherenceGrid grid(small_grid(), {0, 0, 8, 8});
  grid.mark(0, 5, 6);
  grid.mark(0, 1, 1);
  grid.mark(3, 2, 2);
  const CoherenceGridStats before = grid.stats();
  for (int pass = 0; pass < 2; ++pass) {
    PixelMask mask(8, 8);
    std::vector<std::uint32_t> pixels;
    grid.collect_pixels({3, 0}, &mask, &pixels);
    // Pixel order, whatever order the cells were listed or marked in.
    EXPECT_EQ(pixels, (std::vector<std::uint32_t>{9, 18, 53}));
  }
  EXPECT_EQ(grid.stats().live_marks, before.live_marks);
  EXPECT_EQ(grid.stats().total_marks, before.total_marks);
}

TEST(CoherenceGrid, CollectSkipsPixelsAlreadyInTheMask) {
  CoherenceGrid grid(small_grid(), {0, 0, 8, 8});
  grid.mark(0, 1, 1);
  grid.mark(0, 2, 1);
  PixelMask mask(8, 8);
  mask.set(1, 1, true);
  std::vector<std::uint32_t> pixels;
  grid.collect_pixels({0}, &mask, &pixels);
  EXPECT_EQ(pixels, (std::vector<std::uint32_t>{10}));
  EXPECT_EQ(mask.count(), 2);
  grid.collect_pixels({}, &mask, &pixels);  // no dirty cells: nothing to do
  EXPECT_EQ(pixels.size(), 1u);
}

TEST(CoherenceGrid, MaybeCompactRemovesStaleMarks) {
  CoherenceGrid grid(small_grid(), {0, 0, 8, 8});
  for (int x = 0; x < 8; ++x) grid.mark(x, x, 0);
  // Every pixel of the band outgrows its one-entry slot, so each moves to
  // the arena's end and leaves its old slot behind.
  for (int x = 0; x < 8; ++x) {
    grid.begin_pixel(x, 0);
    grid.mark(x, x, 0);
    grid.mark(x + 8, x, 0);
  }
  EXPECT_EQ(grid.stats().live_marks, 16);
  EXPECT_EQ(grid.stats().total_marks, 24);
  EXPECT_FALSE(grid.maybe_compact(0.95));  // threshold not reached
  const std::int64_t reserved = grid.stats().reserved_marks;
  EXPECT_TRUE(grid.maybe_compact(0.25));
  EXPECT_EQ(grid.stats().total_marks, grid.stats().live_marks);
  EXPECT_EQ(grid.stats().reserved_marks, reserved);  // compacted in place
  EXPECT_EQ(grid.stats().compactions, 1);
  EXPECT_FALSE(grid.maybe_compact(0.25));  // nothing left to reclaim
  for (int x = 0; x < 8; ++x) {
    EXPECT_EQ(cells_of(grid, x, 0),
              (std::vector<std::uint32_t>{static_cast<std::uint32_t>(x),
                                          static_cast<std::uint32_t>(x + 8)}));
  }
}

TEST(CoherenceGrid, ResetClearsEverything) {
  CoherenceGrid grid(small_grid(), {0, 0, 8, 8});
  grid.mark(0, 1, 1);
  grid.begin_pixel(1, 1);
  grid.mark(0, 1, 1);
  grid.reset();
  EXPECT_EQ(grid.stats().total_marks, 0);
  EXPECT_EQ(grid.stats().live_marks, 0);
  PixelMask mask(8, 8);
  grid.collect_pixels({0}, &mask);
  EXPECT_EQ(mask.count(), 0);
  // Fresh marks after reset work normally, including for the pixel that
  // was open when the store was reset.
  grid.mark(0, 3, 3);
  grid.mark(0, 1, 1);
  grid.collect_pixels({0}, &mask);
  EXPECT_EQ(mask.count(), 2);
}

TEST(CoherenceGrid, RecomputeTwiceKeepsNewestMarks) {
  // A pixel recomputed twice: only the newest generation of marks counts.
  CoherenceGrid grid(small_grid(), {0, 0, 8, 8});
  grid.mark(0, 1, 1);   // generation 0
  grid.begin_pixel(1, 1);
  grid.mark(1, 1, 1);   // generation 1
  grid.begin_pixel(1, 1);
  grid.mark(2, 1, 1);   // generation 2
  PixelMask mask(8, 8);
  grid.collect_pixels({0, 1}, &mask);
  EXPECT_EQ(mask.count(), 0);
  grid.collect_pixels({2}, &mask);
  EXPECT_EQ(mask.count(), 1);
}

TEST(CoherenceGrid, LanesMarkTheirOwnBands) {
  // Two lanes marking pixels of different bands, interleaved as two render
  // threads would, end with the same slices and arena use as one lane
  // marking the bands one after the other.
  const PixelRect region{0, 0, 4, 8};  // bands: rows 0-3 and 4-7
  CoherenceGrid parallel(small_grid(), region, 2);
  CoherenceGrid sequential(small_grid(), region);
  for (int i = 0; i < 16; ++i) {
    const int x = i % 4;
    const int y = i / 4;
    parallel.begin_pixel(x, y, 0);
    parallel.begin_pixel(x, y + 4, 1);
    for (int c = 0; c <= i % 5; ++c) {
      parallel.mark(i + c, x, y, 0);
      parallel.mark(2 * i + c, x, y + 4, 1);
    }
  }
  for (int i = 0; i < 32; ++i) {
    const int band = i / 16;
    const int k = i % 16;
    sequential.begin_pixel(k % 4, k / 4 + 4 * band);
    for (int c = 0; c <= k % 5; ++c) {
      sequential.mark((band + 1) * k + c, k % 4, k / 4 + 4 * band);
    }
  }
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 4; ++x) {
      EXPECT_EQ(cells_of(parallel, x, y), cells_of(sequential, x, y));
    }
  }
  EXPECT_EQ(parallel.stats().live_marks, sequential.stats().live_marks);
  EXPECT_EQ(parallel.stats().total_marks, sequential.stats().total_marks);
  EXPECT_EQ(parallel.stats().reserved_marks,
            sequential.stats().reserved_marks);
}

// -------------------------------------------------------------------------
// Model test: random operation sequences against a naive per-pixel
// std::set<cell> reference.

class CoherenceGridModel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CoherenceGridModel, CollectMatchesNaiveReference) {
  Rng rng(GetParam());
  // Heights that are not a multiple of the band, an off-origin region and a
  // grid small enough that pixels share cells constantly.
  const PixelRect region{static_cast<int>(rng.next_below(3)),
                         static_cast<int>(rng.next_below(3)),
                         1 + static_cast<int>(rng.next_below(6)),
                         1 + static_cast<int>(rng.next_below(11))};
  const VoxelGrid voxels({{0, 0, 0}, {1, 1, 1}}, 5, 3, 2);
  const int cell_count = static_cast<int>(voxels.cell_count());
  const int lanes = 1 + static_cast<int>(rng.next_below(3));
  CoherenceGrid grid(voxels, region, lanes);
  std::vector<std::set<std::uint32_t>> model(
      static_cast<std::size_t>(region.area()));
  const int width = region.x0 + region.width;
  const int height = region.y0 + region.height;
  // Each band is marked through one lane, as a render thread owns its bands.
  const auto lane_of = [&](int p) {
    return (p / region.width / CoherenceGrid::kBandRows) % lanes;
  };
  const auto mark = [&](int p) {
    const int cell = static_cast<int>(rng.next_below(cell_count));
    grid.mark(cell, region.x0 + p % region.width, region.y0 + p / region.width,
              lane_of(p));
    model[static_cast<std::size_t>(p)].insert(static_cast<std::uint32_t>(cell));
  };

  int open = 0;
  for (int step = 0; step < 3000; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const std::uint64_t op = rng.next_below(100);
    if (op < 45) {
      // Mostly the open pixel, sometimes a jump to another one (the jump
      // leaves a pixel marked in non-contiguous runs).
      if (rng.next_below(4) == 0) {
        open = static_cast<int>(rng.next_below(region.area()));
      }
      mark(open);
    } else if (op < 75) {
      // Recompute a pixel: its new slice may be shorter or longer than the
      // slot it had.
      open = static_cast<int>(rng.next_below(region.area()));
      grid.begin_pixel(region.x0 + open % region.width,
                       region.y0 + open / region.width, lane_of(open));
      model[static_cast<std::size_t>(open)].clear();
      const int marks = static_cast<int>(rng.next_below(12));
      for (int i = 0; i < marks; ++i) mark(open);
    } else if (op < 90) {
      std::vector<std::uint32_t> cells;
      const int n = static_cast<int>(rng.next_below(4));
      for (int i = 0; i < n; ++i) {
        cells.push_back(static_cast<std::uint32_t>(rng.next_below(cell_count)));
      }
      PixelMask mask(width, height);
      PixelMask want(width, height);
      std::vector<std::uint32_t> want_pixels;
      for (int p = 0; p < region.area(); ++p) {
        const int x = region.x0 + p % region.width;
        const int y = region.y0 + p / region.width;
        if (rng.next_below(8) == 0) {  // already set by the caller
          mask.set(x, y, true);
          want.set(x, y, true);
          continue;
        }
        const auto& held = model[static_cast<std::size_t>(p)];
        if (std::any_of(cells.begin(), cells.end(),
                        [&](std::uint32_t c) { return held.count(c) > 0; })) {
          want.set(x, y, true);
          want_pixels.push_back(static_cast<std::uint32_t>(p));
        }
      }
      std::vector<std::uint32_t> pixels;
      grid.collect_pixels(cells, &mask, &pixels);
      ASSERT_TRUE(mask == want);
      ASSERT_EQ(pixels, want_pixels);
    } else if (op < 98) {
      const double fractions[] = {0.0, 0.25, 0.5, 0.95};
      const std::int64_t reserved = grid.stats().reserved_marks;
      grid.maybe_compact(fractions[rng.next_below(4)]);
      ASSERT_EQ(grid.stats().reserved_marks, reserved);
    } else {
      grid.reset();
      for (auto& cells : model) cells.clear();
    }

    std::int64_t live = 0;
    for (int p = 0; p < region.area(); ++p) {
      const auto& held = model[static_cast<std::size_t>(p)];
      const auto slice = grid.pixel_cells(region.x0 + p % region.width,
                                          region.y0 + p / region.width);
      ASSERT_EQ(slice.size(), held.size()) << "pixel " << p;
      ASSERT_EQ(std::set<std::uint32_t>(slice.begin(), slice.end()), held)
          << "pixel " << p;
      live += static_cast<std::int64_t>(held.size());
    }
    const CoherenceGridStats stats = grid.stats();
    ASSERT_EQ(stats.live_marks, live);
    ASSERT_GE(stats.total_marks, stats.live_marks);
    ASSERT_GE(stats.reserved_marks, stats.total_marks);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoherenceGridModel,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace now
