// Data partitioning schemes (Section 3 of the paper).
//
//   Sequence division — each worker receives a consecutive subsequence of
//     whole frames ("each processor would be assigned 30 240x320 frames").
//     In the paper frame coherence applies within each subsequence, and
//     adaptive re-splitting keeps all processors busy at the cost of extra
//     full first-frames. Here every region is the whole frame, so a worker
//     that has rendered before continues its held coherence state into any
//     subsequence it is given (see RenderWorker).
//
//   Frame division — each frame is divided into subareas assigned to a
//     worker for the entire animation ("80x80 pixel subareas were assigned
//     to processors to compute for the entire 45 frames"). Memory per worker
//     is proportional to the subarea; coherence persists across the whole
//     animation for each subarea.
//
//   Hybrid — subarea × subsequence chunks ("each processor computes pixels
//     in a subarea of a frame for a subsequence of the entire animation").
//     With chunk length 1 this degenerates to per-frame demand-driven blocks,
//     the configuration the paper uses for distributed rendering *without*
//     coherence (columns 4-5 of Table 1).
#pragma once

#include <string>
#include <vector>

#include "src/par/protocol.h"

namespace now {

enum class PartitionScheme {
  kSequenceDivision,
  kFrameDivision,
  kHybrid,
};

const char* to_string(PartitionScheme scheme);

struct PartitionConfig {
  PartitionScheme scheme = PartitionScheme::kFrameDivision;
  /// Subarea edge for frame division / hybrid (the paper uses 80×80).
  int block_size = 80;
  /// Frame-chunk length for hybrid (1 = per-frame demand-driven blocks).
  int hybrid_frames = 8;
  /// Master may steal the unrendered half of a loaded worker's task when
  /// another worker idles.
  bool adaptive = true;
  /// Minimum remaining frames before a task is worth splitting.
  int min_split_frames = 4;
  /// Frames at which a new shot begins (camera cuts). Sequence-division
  /// tasks never span a cut; the master fills this from the scene.
  std::vector<int> sequence_cuts;
};

/// Cover a width×height image with block_size×block_size tiles (edge tiles
/// clipped). Tiles are row-major.
std::vector<PixelRect> tile_rects(int width, int height, int block_size);

/// Split [0, frames) into `parts` contiguous ranges differing by ≤1 frame.
std::vector<std::pair<int, int>> split_frames(int frames, int parts);

/// Split [0, frames) into ~`parts` contiguous ranges that never cross a cut
/// (each cut frame starts a new shot; the coherence algorithm cannot carry
/// state across a camera move). Each shot receives range counts
/// proportional to its length, at least one each.
std::vector<std::pair<int, int>> split_frames_at_cuts(
    int frames, int parts, const std::vector<int>& cut_frames);

/// Initial task list for a scheme over a width×height×frames animation with
/// `workers` workers. Tasks exactly tile image-area × frames (no overlap, no
/// gap); task ids are their indices.
std::vector<RenderTask> make_initial_tasks(const PartitionConfig& config,
                                           int width, int height, int frames,
                                           int workers);

}  // namespace now
