// CoherentRenderer: the complete frame-coherence rendering loop of Figure 3.
//
//   parse the user input parameters
//   initialize frame coherence data structures
//   for each frame of the animation
//     for each pixel that needs to be computed
//       for each voxel that a ray associated with this pixel intersects
//         add the pixel to the voxel's pixel list
//     find the voxels in which change occurs in the next frame
//     mark those pixels on the pixel list of the changed voxels for
//     recomputation in the next frame
//
// The renderer owns a persistent CoherenceGrid spanning the whole animation
// extent and renders frames of a pixel region in any order. The first frame,
// and any frame whose camera or lights differ from the last rendered one's,
// is a full render; every other frame recomputes only the predicted-dirty
// pixels. The last frame need not be the one before: a pixel whose marked
// voxels no moving object occupies at either frame has the same ray tree at
// both, whatever happened in between, so a forward jump, a backward jump or
// a repeated frame continues too (a repeat recomputes nothing). Output is
// guaranteed byte-identical to a from-scratch render.
//
// One lattice serves the whole shot, as in the paper: the coherence grid's
// voxels are also the ray accelerator's cells, with coherence on or off.
// The tracer's own 3D-DDA walk marks each ray (see RayRecorder), and
// between consecutive frames the accelerator moves only the objects that
// moved instead of being rebuilt. A restart or an all-dirty frame builds
// it fresh, on the same lattice.
//
// Granularity is per pixel. Setting `block_size > 0` switches to the
// Jevans-1992 baseline the paper contrasts against: "if one pixel in the
// block needs to be updated, all pixels in the block are re-computed."
//
// Every frame shades through one band loop, at every thread count: the
// pixels to recompute (the whole region, or the ascending dirty-pixel list)
// are cut into the coherence grid's fixed row bands, and a thread pool
// shades the bands with one Tracer and one RayRecorder per pool lane, each
// marking through its own grid lane. Ray stats and marks are integer sums
// over the lanes, so the framebuffer, the grid's marks and every
// FrameRenderResult counter are byte-identical for every `threads` value.
// Only the wall-clock `chunks` timings differ; they are recorded only when
// the pool has more than one thread.
#pragma once

#include <memory>
#include <optional>

#include "src/core/change_detector.h"
#include "src/core/coherence_grid.h"
#include "src/core/ray_recorder.h"
#include "src/core/thread_pool.h"
#include "src/obs/metrics.h"
#include "src/scene/animated_scene.h"
#include "src/trace/render.h"
#include "src/trace/uniform_grid.h"

namespace now {

struct CoherenceOptions {
  TraceOptions trace;

  /// Use frame coherence at all (false = full render every frame).
  bool enabled = true;

  /// Mark shadow-ray paths (must stay true while shadows are on; exposed for
  /// the shadow-coherence ablation with shadows disabled).
  bool record_shadow_rays = true;

  /// Jevans-style block granularity; 0 = the paper's per-pixel granularity.
  int block_size = 0;

  /// Render threads inside this renderer: 0 = one per hardware thread, 1 =
  /// sequential. Output is bit-deterministic for every value (render_farm
  /// forces 1 under the sim backend so virtual-time traces stay
  /// reproducible).
  int threads = 0;

  /// Lattice resolution heuristic inputs (see VoxelGrid::heuristic). The
  /// lattice holds the coherence marks and the accelerator's cells.
  double grid_density = 3.0;
  int grid_max_axis = 64;

  /// Explicit lattice override (resolution-sweep benchmarks); it moves the
  /// tracer's cells along with the coherence voxels.
  std::optional<VoxelGrid> grid_override;

  /// Optional metrics sink: per-frame coherence counters (coherence.*) are
  /// published here. Null = no instrumentation, zero overhead.
  MetricsRegistry* metrics = nullptr;
};

/// Wall-clock timing of one parallel render chunk (a row band of the
/// region). Timing metadata only: inherently nondeterministic, excluded from
/// the threads-vs-sequential byte-identity guarantee.
struct ChunkTiming {
  int chunk = 0;    // index in fixed row-band order
  int thread = 0;   // pool worker that rendered it
  int y0 = 0;       // first image row of the band
  int rows = 0;
  double start_seconds = 0.0;  // offset from the frame's render start
  double seconds = 0.0;        // time spent shading the band
};

struct FrameRenderResult {
  TraceStats stats;
  std::int64_t pixels_recomputed = 0;
  std::int64_t pixels_total = 0;
  std::int64_t dirty_voxels = 0;
  /// Coherence bookkeeping volume: voxels visited by the DDA marker this
  /// frame (0 when coherence is disabled). Drives the overhead cost model.
  std::int64_t voxels_marked = 0;
  bool full_render = false;
  /// Pixels recomputed this frame (full-image coordinates; only pixels of
  /// the renderer's region can be set). Drives sparse network returns and
  /// the Figure 2 predicted-difference images.
  PixelMask recomputed;
  /// Per-chunk wall timings of the band loop (empty when the pool has one
  /// thread). See ChunkTiming.
  std::vector<ChunkTiming> chunks;
};

/// Voxel-grid extent covering the scene's geometry across every frame, so
/// moving objects never escape the coherence grid.
Aabb animation_extent(const AnimatedScene& scene);

class CoherentRenderer {
 public:
  /// Renders pixels of `region` (full-image coordinates) of `scene`.
  CoherentRenderer(const AnimatedScene& scene, const PixelRect& region,
                   const CoherenceOptions& options = {});

  /// Render `frame` into `fb` (full image size). `fb` must hold this
  /// region's pixels of the last frame rendered: a frame with the last
  /// frame's camera and lights reuses coherence, in any order; anything else
  /// triggers a full render of the region.
  FrameRenderResult render_frame(int frame, Framebuffer* fb);

  /// The mark store; only valid when coherence is enabled.
  const CoherenceGrid& coherence_grid() const { return *grid_; }
  const PixelRect& region() const { return region_; }
  /// Mark-store statistics; all zero when coherence is disabled, because
  /// then no store is built.
  CoherenceGridStats coherence_stats() const {
    return grid_ != nullptr ? grid_->stats() : CoherenceGridStats{};
  }
  /// The shot lattice the accelerator and the marks share.
  const VoxelGrid& lattice() const { return lattice_; }
  /// The accelerator over the last rendered frame (valid after a frame).
  const UniformGridAccelerator& accelerator() const { return *accel_; }
  /// Resolved render-thread count (>= 1).
  int thread_count() const { return pool_.thread_count(); }

  /// Predicted-dirty mask for the transition last_frame → next_frame
  /// without rendering (used by the Figure 2 accuracy benchmark). The two
  /// frames must share camera and lights.
  PixelMask predict_dirty(int next_frame) const;

 private:
  /// A frame rendered now continues from last_frame_: coherence is on, a
  /// frame was rendered, and camera and lights are the same at both.
  bool continues_from_last(int frame) const;

  /// The dirty-pixel step of the transition last_frame_ → a frame whose
  /// world is `next`: set every pixel to recompute in `mask` and count the
  /// dirty voxels. Returns true when every voxel is dirty (the whole region
  /// is set); otherwise `pixels`, when non-null, lists the set pixels as
  /// ascending region-local indices, block-expanded in block mode.
  bool find_dirty_pixels(const World& next, const std::vector<int>& changed,
                         DirtyScratch* scratch, PixelMask* mask,
                         std::vector<std::uint32_t>* pixels,
                         std::int64_t* dirty_voxels) const;
  void expand_to_blocks(PixelMask* mask,
                        std::vector<std::uint32_t>* pixels) const;
  void mark_region(PixelMask* mask) const;

  /// The band loop: shade `pixels` (ascending region-local indices; null =
  /// every region pixel) on the thread pool, re-marking each one, and sum
  /// the lanes' stats and marks into `result`. Each lane's tracer and
  /// recorder share one cache-line-aligned ShadeLane, so the per-ray counters
  /// of neighbouring lanes never share a line.
  void shade_pixels(const std::vector<std::uint32_t>* pixels, Framebuffer* fb,
                    FrameRenderResult* result);

  const AnimatedScene& scene_;
  PixelRect region_;
  CoherenceOptions options_;
  /// The shot's one lattice: coherence marks and the accelerator both use
  /// it, with coherence on or off.
  VoxelGrid lattice_;

  // Null when coherence is disabled.
  std::unique_ptr<CoherenceGrid> grid_;

  // Per-frame scratch reused across the incremental hot loop: the change
  // detector's voxel-dedup bitset and the dirty-pixel list from
  // collect_pixels (ascending = row-major shading order).
  DirtyScratch dirty_scratch_;
  std::vector<std::uint32_t> dirty_pixels_;

  ThreadPool pool_;

  // Cached instruments (null when options_.metrics is null): the registry
  // lookup by name happens once at construction, not per frame.
  Counter* metric_full_renders_ = nullptr;
  Counter* metric_incremental_renders_ = nullptr;
  Counter* metric_pixels_recomputed_ = nullptr;
  Counter* metric_voxels_marked_ = nullptr;
  Counter* metric_dirty_voxels_ = nullptr;

  int last_frame_ = -1;
  World world_;  // world of last_frame_
  /// Over world_ on lattice_; built on a restart, updated in place when a
  /// frame continues from the last.
  std::unique_ptr<UniformGridAccelerator> accel_;
};

}  // namespace now
