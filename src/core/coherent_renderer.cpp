#include "src/core/coherent_renderer.h"

#include <algorithm>
#include <cassert>
#include <chrono>

namespace now {

namespace {

double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

Aabb animation_extent(const AnimatedScene& scene) {
  Aabb extent;
  for (int frame = 0; frame < scene.frame_count(); ++frame) {
    extent.absorb(scene.world_at(frame).bounded_extent());
  }
  return extent;
}

CoherentRenderer::CoherentRenderer(const AnimatedScene& scene,
                                   const PixelRect& region,
                                   const CoherenceOptions& options)
    : scene_(scene),
      region_(region),
      options_(options),
      lattice_(options_.grid_override.has_value()
                   ? *options_.grid_override
                   : VoxelGrid::heuristic(animation_extent(scene),
                                          scene.object_count(),
                                          options_.grid_density,
                                          options_.grid_max_axis)),
      pool_(resolve_thread_count(options.threads)) {
  if (options_.enabled) {
    grid_ = std::make_unique<CoherenceGrid>(lattice_, region,
                                            pool_.thread_count());
  }
  if (options_.metrics != nullptr) {
    metric_full_renders_ = &options_.metrics->counter("coherence.full_renders");
    metric_incremental_renders_ =
        &options_.metrics->counter("coherence.incremental_renders");
    metric_pixels_recomputed_ =
        &options_.metrics->counter("coherence.pixels_recomputed");
    metric_voxels_marked_ =
        &options_.metrics->counter("coherence.voxels_marked");
    metric_dirty_voxels_ = &options_.metrics->counter("coherence.dirty_voxels");
  }
}

FrameRenderResult CoherentRenderer::render_frame(int frame, Framebuffer* fb) {
  assert(fb->width() >= region_.x0 + region_.width &&
         fb->height() >= region_.y0 + region_.height);
  const bool continues_sequence = continues_from_last(frame);

  FrameRenderResult result;
  result.full_render = !continues_sequence;
  result.pixels_total = region_.area();
  result.recomputed = PixelMask(fb->width(), fb->height());

  // 1. What to shade: the pixels whose rays crossed a voxel that changes
  // between the last frame and this one, or every region pixel (a null list)
  // on a restart or an all-dirty frame.
  World next = scene_.world_at(frame);
  std::vector<int> changed;
  const std::vector<std::uint32_t>* pixels = nullptr;
  if (continues_sequence) {
    changed = scene_.changed_objects(last_frame_, frame);
    dirty_pixels_.clear();
    if (!find_dirty_pixels(next, changed, &dirty_scratch_, &result.recomputed,
                           &dirty_pixels_, &result.dirty_voxels)) {
      pixels = &dirty_pixels_;
    }
  } else {
    mark_region(&result.recomputed);
  }

  // 2. Advance to the new frame's geometry. The accelerator references
  // world_: with the lattice fixed for the shot, only the moved objects
  // change cells. A frame that re-renders everything drops every mark at
  // once and takes a fresh build.
  world_ = std::move(next);
  if (pixels == nullptr) {
    if (grid_ != nullptr) grid_->reset();
    accel_ = std::make_unique<UniformGridAccelerator>(world_, lattice_);
  } else {
    accel_->update(changed);
  }

  // 3. Recompute those pixels, re-marking each one.
  shade_pixels(pixels, fb, &result);
  if (grid_ != nullptr) grid_->maybe_compact();

  last_frame_ = frame;
  if (options_.metrics != nullptr) {
    (result.full_render ? metric_full_renders_ : metric_incremental_renders_)
        ->inc();
    metric_pixels_recomputed_->inc(
        static_cast<std::uint64_t>(result.pixels_recomputed));
    metric_voxels_marked_->inc(
        static_cast<std::uint64_t>(result.voxels_marked));
    metric_dirty_voxels_->inc(static_cast<std::uint64_t>(result.dirty_voxels));
  }
  return result;
}

bool CoherentRenderer::continues_from_last(int frame) const {
  // A camera or light move invalidates everything the grid knows: restart
  // with a full render (lights are outside the voxel change model). Which
  // frames lie between the two does not matter: the change detector compares
  // the two worlds directly.
  return options_.enabled && last_frame_ >= 0 &&
         !scene_.camera_changed(last_frame_, frame) &&
         !scene_.lights_changed(last_frame_, frame);
}

namespace {

/// One pool lane's shading state. Aligned to a cache line, so the per-ray
/// counters one lane bumps (tracer stats, trail, recorder stats) never share
/// a line with a neighbouring lane's.
struct alignas(64) ShadeLane {
  ShadeLane(const World& world, const Accelerator& accel,
            const TraceOptions& trace, CoherenceGrid* grid,
            bool record_shadow_rays, int lane)
      : tracer(world, accel, trace),
        recorder(grid, record_shadow_rays, lane) {}

  Tracer tracer;
  RayRecorder recorder;
};

}  // namespace

void CoherentRenderer::shade_pixels(const std::vector<std::uint32_t>* pixels,
                                    Framebuffer* fb,
                                    FrameRenderResult* result) {
  // One chunk per mark-store band, so each chunk's marks land in an arena
  // no other thread writes. The bands are a function of the region alone,
  // never of the thread count, so every band's arena is too.
  constexpr int kChunkRows = CoherenceGrid::kBandRows;
  const int chunk_count = (region_.height + kChunkRows - 1) / kChunkRows;
  const int lanes = pool_.thread_count();
  const auto width = static_cast<std::uint32_t>(region_.width);

  // One tracer and recorder per pool lane; the recorder marks through the
  // grid lane of the same index. Reserved up front: each tracer points at
  // its lane's recorder.
  std::vector<ShadeLane> shade_lanes;
  shade_lanes.reserve(static_cast<std::size_t>(lanes));
  for (int lane = 0; lane < lanes; ++lane) {
    ShadeLane& l = shade_lanes.emplace_back(world_, *accel_, options_.trace,
                                            grid_.get(),
                                            options_.record_shadow_rays, lane);
    if (grid_ != nullptr) l.tracer.set_listener(&l.recorder);
  }
  // Chunk timings only above one thread: they would make a one-thread
  // frame's result nondeterministic, and their clock reads cost more than
  // a static frame's empty bands.
  const bool timed = lanes > 1;
  if (timed) result->chunks.resize(static_cast<std::size_t>(chunk_count));

  using Clock = std::chrono::steady_clock;
  const Clock::time_point frame_start =
      timed ? Clock::now() : Clock::time_point{};
  pool_.parallel_for(chunk_count, [&](int c, int lane) {
    const Clock::time_point chunk_start = timed ? Clock::now() : frame_start;
    Tracer& tracer = shade_lanes[static_cast<std::size_t>(lane)].tracer;
    const auto shade = [&](int x, int y) {
      if (grid_ != nullptr) grid_->begin_pixel(x, y, lane);
      fb->set(x, y, tracer.shade_pixel(x, y, fb->width(), fb->height()));
    };
    const int row0 = c * kChunkRows;
    const int rows = std::min(kChunkRows, region_.height - row0);
    if (pixels == nullptr) {
      for (int y = region_.y0 + row0; y < region_.y0 + row0 + rows; ++y) {
        for (int x = region_.x0; x < region_.x0 + region_.width; ++x) {
          shade(x, y);
        }
      }
    } else {
      // The list is ascending region-local, i.e. row-major: the band's
      // pixels are one contiguous run of it.
      const std::uint32_t first = static_cast<std::uint32_t>(row0) * width;
      const std::uint32_t end_pixel =
          first + static_cast<std::uint32_t>(rows) * width;
      auto it = std::lower_bound(pixels->begin(), pixels->end(), first);
      const auto end = std::lower_bound(it, pixels->end(), end_pixel);
      for (; it != end; ++it) {
        shade(region_.x0 + static_cast<int>(*it % width),
              region_.y0 + static_cast<int>(*it / width));
      }
    }
    if (timed) {
      result->chunks[static_cast<std::size_t>(c)] = {
          c,
          lane,
          region_.y0 + row0,
          rows,
          seconds_between(frame_start, chunk_start),
          seconds_between(chunk_start, Clock::now())};
    }
  });

  // The marks are already in the grid; every stat counter is an integer,
  // so the sums over the lanes do not depend on which lane shaded a band.
  for (const ShadeLane& l : shade_lanes) {
    result->stats += l.tracer.stats();
    result->voxels_marked +=
        static_cast<std::int64_t>(l.recorder.stats().voxels_visited);
  }
  result->pixels_recomputed = pixels == nullptr
                                  ? region_.area()
                                  : static_cast<std::int64_t>(pixels->size());
}

bool CoherentRenderer::find_dirty_pixels(const World& next,
                                         const std::vector<int>& changed,
                                         DirtyScratch* scratch,
                                         PixelMask* mask,
                                         std::vector<std::uint32_t>* pixels,
                                         std::int64_t* dirty_voxels) const {
  // Which voxels change between the last frame and the next one?
  const DirtyVoxels dirty =
      find_dirty_voxels(grid_->grid(), world_, next, changed, scratch);
  if (dirty.all_dirty) {
    mark_region(mask);
    *dirty_voxels = grid_->grid().cell_count();
    return true;
  }
  // Which pixels had rays through those voxels?
  grid_->collect_pixels(dirty.cells, mask, pixels);
  *dirty_voxels = static_cast<std::int64_t>(dirty.cells.size());
  if (options_.block_size > 0) expand_to_blocks(mask, pixels);
  return false;
}

void CoherentRenderer::mark_region(PixelMask* mask) const {
  for (int y = region_.y0; y < region_.y0 + region_.height; ++y) {
    for (int x = region_.x0; x < region_.x0 + region_.width; ++x) {
      mask->set(x, y, true);
    }
  }
}

void CoherentRenderer::expand_to_blocks(
    PixelMask* mask, std::vector<std::uint32_t>* pixels) const {
  const int bs = options_.block_size;
  const int bx = (region_.width + bs - 1) / bs;
  const int by = (region_.height + bs - 1) / bs;
  std::vector<std::uint8_t> block_dirty(static_cast<std::size_t>(bx) * by, 0);
  for (int y = region_.y0; y < region_.y0 + region_.height; ++y) {
    for (int x = region_.x0; x < region_.x0 + region_.width; ++x) {
      if (mask->at(x, y)) {
        const int b = ((y - region_.y0) / bs) * bx + (x - region_.x0) / bs;
        block_dirty[b] = 1;
      }
    }
  }
  if (pixels != nullptr) pixels->clear();
  std::uint32_t p = 0;
  for (int y = region_.y0; y < region_.y0 + region_.height; ++y) {
    for (int x = region_.x0; x < region_.x0 + region_.width; ++x, ++p) {
      const int b = ((y - region_.y0) / bs) * bx + (x - region_.x0) / bs;
      if (!block_dirty[b]) continue;
      mask->set(x, y, true);
      if (pixels != nullptr) pixels->push_back(p);
    }
  }
}

PixelMask CoherentRenderer::predict_dirty(int next_frame) const {
  assert(continues_from_last(next_frame));
  PixelMask mask(scene_.width(), scene_.height());
  DirtyScratch scratch;
  std::int64_t dirty_voxels = 0;
  find_dirty_pixels(scene_.world_at(next_frame),
                    scene_.changed_objects(last_frame_, next_frame), &scratch,
                    &mask, /*pixels=*/nullptr, &dirty_voxels);
  return mask;
}

}  // namespace now
