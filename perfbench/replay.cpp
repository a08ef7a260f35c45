#include "replay.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>

#include "src/ckpt/journal.h"
#include "src/ckpt/recovery.h"
#include "src/core/coherent_renderer.h"
#include "src/image/image_io.h"
#include "src/image/pixel_codec.h"
#include "src/par/partition.h"
#include "src/par/protocol.h"
#include "src/shard/frame_sink.h"
#include "src/shard/ownership.h"

namespace nowbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One task as a worker receives it: a region over a run of scene frames,
/// delivered under global frame numbers (service mode concatenates shots).
struct ReplayTask {
  std::int32_t task_id = 0;
  now::PixelRect region;
  int first_frame = 0;  // scene frame
  int frame_count = 0;
  int global_first = 0;
};

/// Tasks in layout order; `scene_frame_of` maps each global frame to the
/// scene frame it shows.
std::vector<ReplayTask> layout_tasks(const WorkloadInputs& in,
                                     std::vector<int>* scene_frame_of) {
  const now::AnimatedScene& scene = in.scene;
  std::vector<ReplayTask> tasks;
  const auto add = [&](int scene_first, int count) {
    const int base = static_cast<int>(scene_frame_of->size());
    for (const now::RenderTask& t : now::make_initial_tasks(
             in.config.partition, scene.width(), scene.height(), count,
             in.config.workers)) {
      tasks.push_back({static_cast<std::int32_t>(tasks.size()), t.region,
                       scene_first + t.first_frame, t.frame_count,
                       base + t.first_frame});
    }
    for (int f = 0; f < count; ++f) scene_frame_of->push_back(scene_first + f);
  };
  if (!in.config.service.enabled) {
    add(0, scene.frame_count());
  } else {
    for (const now::ClientScript& client : in.config.service.clients) {
      for (const now::ClientAction& a : client.actions) {
        add(a.submit.first_frame, a.submit.frame_count);
      }
    }
  }
  return tasks;
}

/// Captures every ray segment the tracer reports, grouped by pixel, so the
/// marking layer can be replayed and timed apart from tracing.
class SegmentLog final : public now::RayListener {
 public:
  void clear() {
    pixels_.clear();
    segments_.clear();
  }
  void begin_pixel(int x, int y) { pixels_.push_back({x, y, segments_.size()}); }
  void on_segment(int px, int py, const now::Ray& ray, double t_end,
                  now::RayKind kind) override {
    segments_.push_back({px, py, ray, t_end, kind});
  }

  /// Feeds the segments to `recorder` in recording order. With `retire`
  /// (incremental frames) each pixel's stale marks are retired first, as
  /// the renderer does before re-shading a pixel.
  void replay(now::RayRecorder* recorder, now::CoherenceGrid* grid,
              bool retire) const {
    for (std::size_t i = 0; i < pixels_.size(); ++i) {
      const Pixel& p = pixels_[i];
      const std::size_t end =
          i + 1 < pixels_.size() ? pixels_[i + 1].first : segments_.size();
      if (retire) grid->begin_pixel(p.x, p.y);
      for (std::size_t s = p.first; s < end; ++s) {
        const Segment& seg = segments_[s];
        recorder->on_segment(seg.px, seg.py, seg.ray, seg.t_end, seg.kind);
      }
    }
  }

 private:
  struct Pixel {
    int x;
    int y;
    std::size_t first;  // index of the pixel's first segment
  };
  struct Segment {
    int px;
    int py;
    now::Ray ray;
    double t_end;
    now::RayKind kind;
  };
  std::vector<Pixel> pixels_;
  std::vector<Segment> segments_;
};

/// Worker-side state of one task (what RenderWorker + CoherentRenderer hold).
struct TaskState {
  std::unique_ptr<now::CoherenceGrid> grid;
  std::unique_ptr<now::RayRecorder> recorder;
  now::DirtyScratch scratch;
  now::World world;
  std::unique_ptr<now::UniformGridAccelerator> accel;
  int last_frame = -1;
  now::Framebuffer fb;
  std::vector<now::Rgb8> prev_region;
};

struct WorkerFrame {
  bool full = false;
  std::int64_t pixels = 0;
  std::uint64_t rays = 0;
  std::int64_t voxels = 0;
  std::int64_t dirty_voxels = 0;
  double mark_seconds = 0.0;
  std::string wire;
};

class Replay {
 public:
  Replay(const WorkloadInputs& in, const std::vector<std::uint32_t>& reference,
         const ReplayOptions& options, SpanRecorder* spans)
      : in_(in),
        scene_(in.scene),
        cfg_(in.config),
        reference_(reference),
        options_(options),
        spans_(spans),
        width_(in.scene.width()),
        height_(in.scene.height()) {
    coherence_ = cfg_.coherence;
    coherence_.threads = 1;
    coherence_.metrics = nullptr;
    map_.shard_count = cfg_.shards;
    map_.worker_count = cfg_.workers;
    map_.frame_count = scene_.frame_count();
  }

  ReplayTotals run() {
    const auto start = Clock::now();
    const std::vector<ReplayTask> tasks = layout_tasks(in_, &scene_frame_of_);
    frames_.assign(scene_frame_of_.size(), now::Framebuffer(width_, height_));
    missing_.assign(scene_frame_of_.size(),
                    static_cast<std::int64_t>(width_) * height_);
    if (!cfg_.journal_path.empty()) open_sinks();
    for (const ReplayTask& task : tasks) run_task(task);
    totals_.wall_seconds = seconds_since(start);
    return totals_;
  }

 private:
  void open_sinks() {
    std::filesystem::remove_all(options_.work_dir);
    std::filesystem::create_directories(options_.work_dir);
    const std::string journal = options_.work_dir + "/render.journal";
    for (int i = 0; i < cfg_.shards; ++i) {
      now::FrameSinkConfig sc;
      sc.journal_path =
          map_.sharded() ? now::shard_journal_path(journal, i) : journal;
      sc.journal_fsync = cfg_.journal_fsync;
      sc.header.width = width_;
      sc.header.height = height_;
      sc.header.frame_count = scene_.frame_count();
      sc.header.shard_count = cfg_.shards;
      sc.header.shard_index = i;
      sinks_.push_back(std::make_unique<now::FrameSink>(sc));
    }
  }

  void run_task(const ReplayTask& task) {
    TaskState st;
    now::Aabb extent;
    {
      SpanScope s(spans_, "scene.extent", "scene", Side::kWorker,
                  task.task_id, task.global_first);
      extent = now::animation_extent(scene_);
    }
    {
      SpanScope s(spans_, "core.task_init", "core", Side::kWorker,
                  task.task_id, task.global_first);
      const now::VoxelGrid voxels =
          coherence_.grid_override.has_value()
              ? *coherence_.grid_override
              : now::VoxelGrid::heuristic(extent, scene_.object_count(),
                                          coherence_.grid_density,
                                          coherence_.grid_max_axis);
      st.grid = std::make_unique<now::CoherenceGrid>(voxels, task.region);
      st.recorder = std::make_unique<now::RayRecorder>(
          st.grid.get(), coherence_.record_shadow_rays);
      st.fb = now::Framebuffer(width_, height_);
    }
    std::unique_ptr<now::CoherentRenderer> renderer;
    now::Framebuffer renderer_fb;
    if (options_.fidelity) {
      renderer = std::make_unique<now::CoherentRenderer>(scene_, task.region,
                                                         coherence_);
      renderer_fb = now::Framebuffer(width_, height_);
    }
    for (int i = 0; i < task.frame_count; ++i) {
      const int frame = task.first_frame + i;
      const int global = task.global_first + i;
      const WorkerFrame out = [&] {
        SpanScope root(spans_, "worker.region_frame", "bench", Side::kWorker,
                       task.task_id, global);
        return render_region_frame(task, frame, global, &st);
      }();
      if (renderer != nullptr) {
        check_fidelity(task, frame, out, st, renderer.get(), &renderer_fb);
      }
      SpanScope root(spans_, "master.region_frame", "bench", Side::kMaster,
                     task.task_id, global);
      commit(task, global, out.wire);
    }
  }

  WorkerFrame render_region_frame(const ReplayTask& task, int frame,
                                  int global, TaskState* st) {
    const now::PixelRect& r = task.region;
    const int id = task.task_id;
    WorkerFrame out;
    const bool continues = coherence_.enabled && st->last_frame >= 0 &&
                           frame == st->last_frame + 1 &&
                           !scene_.camera_changed(st->last_frame, frame) &&
                           !scene_.lights_changed(st->last_frame, frame);
    // The recompute mask is bookkeeping render_frame also pays for: on a
    // restart it is charged to core.mark.reset, otherwise to core.detect.
    now::PixelMask recomputed;
    pixels_.clear();  // region-local indices to shade, ascending
    const auto all_region = [&] {
      pixels_.clear();
      for (int y = r.y0; y < r.y0 + r.height; ++y) {
        for (int x = r.x0; x < r.x0 + r.width; ++x) {
          recomputed.set(x, y, true);
          pixels_.push_back(static_cast<std::uint32_t>(
              (y - r.y0) * r.width + (x - r.x0)));
        }
      }
    };
    if (!continues) {
      out.full = true;
      {
        SpanScope s(spans_, "core.mark.reset", "core", Side::kWorker, id,
                    global);
        st->grid->reset();
        recomputed = now::PixelMask(width_, height_);
        all_region();
      }
      {
        SpanScope s(spans_, "scene.world_at", "scene", Side::kWorker, id,
                    global);
        st->world = scene_.world_at(frame);
      }
    } else {
      now::World next;
      {
        SpanScope s(spans_, "scene.world_at", "scene", Side::kWorker, id,
                    global);
        next = scene_.world_at(frame);
      }
      {
        SpanScope s(spans_, "core.detect", "core", Side::kWorker, id, global);
        recomputed = now::PixelMask(width_, height_);
        const std::vector<int> changed =
            scene_.changed_objects(st->last_frame, frame);
        const now::DirtyVoxels dirty = now::find_dirty_voxels(
            st->grid->grid(), st->world, next, changed, &st->scratch);
        if (dirty.all_dirty) {
          st->grid->reset();
          all_region();
          out.dirty_voxels = st->grid->grid().cell_count();
        } else {
          st->grid->collect_pixels(dirty.cells, &recomputed, &pixels_);
          std::sort(pixels_.begin(), pixels_.end());
          out.dirty_voxels = static_cast<std::int64_t>(dirty.cells.size());
        }
      }
      st->world = std::move(next);
    }
    {
      SpanScope s(spans_, "scene.accel_build", "scene", Side::kWorker, id,
                  global);
      st->accel = std::make_unique<now::UniformGridAccelerator>(st->world);
    }
    ++totals_.world_builds;

    const auto pixel_xy = [&](std::uint32_t p, int* x, int* y) {
      *x = r.x0 + static_cast<int>(p) % r.width;
      *y = r.y0 + static_cast<int>(p) / r.width;
    };
    if (coherence_.enabled) {
      SpanScope s(spans_, "bench.record", "bench", Side::kWorker, id, global);
      log_.clear();
      now::Tracer recorder(st->world, *st->accel, coherence_.trace);
      recorder.set_listener(&log_);
      for (const std::uint32_t p : pixels_) {
        int x = 0;
        int y = 0;
        pixel_xy(p, &x, &y);
        log_.begin_pixel(x, y);
        (void)recorder.shade_pixel(x, y, width_, height_);
      }
    }
    now::FrameResult result;
    {
      SpanScope s(spans_, "trace.shade", "trace", Side::kWorker, id, global);
      now::Tracer tracer(st->world, *st->accel, coherence_.trace);
      for (const std::uint32_t p : pixels_) {
        int x = 0;
        int y = 0;
        pixel_xy(p, &x, &y);
        st->fb.set(x, y, tracer.shade_pixel(x, y, width_, height_));
      }
      out.rays = tracer.stats().total_rays();
      result.shadow_rays = tracer.stats().shadow_rays;
    }
    out.pixels = static_cast<std::int64_t>(pixels_.size());
    if (coherence_.enabled) {
      const std::uint64_t before = st->recorder->stats().voxels_visited;
      SpanScope s(spans_, "core.mark", "core", Side::kWorker, id, global);
      log_.replay(st->recorder.get(), st->grid.get(), /*retire=*/continues);
      if (continues) st->grid->maybe_compact();
      out.mark_seconds = s.end();
      out.voxels = static_cast<std::int64_t>(
          st->recorder->stats().voxels_visited - before);
    }
    st->last_frame = frame;

    {
      // RenderWorker's return path: dense key frames where coherence
      // restarted or a shard boundary starts, otherwise a sparse delta of
      // the pixels whose value actually changed.
      SpanScope s(spans_, "image.payload", "image", Side::kWorker, id, global);
      const bool dense = out.full || !cfg_.sparse_returns ||
                         map_.key_frame_boundary(global);
      const bool track_delta =
          cfg_.frame_codec == now::FrameCodec::kDelta && cfg_.sparse_returns;
      if (dense || !track_delta) {
        result.payload = dense
                             ? now::make_dense_payload(st->fb, r)
                             : now::make_sparse_payload(st->fb, r, recomputed);
        if (track_delta) st->prev_region = st->fb.extract(r);
      } else {
        now::PixelMask changed(width_, height_);
        int idx = 0;
        for (int y = r.y0; y < r.y0 + r.height; ++y) {
          for (int x = r.x0; x < r.x0 + r.width; ++x, ++idx) {
            if (!recomputed.at(x, y)) continue;
            const now::Rgb8 c = st->fb.at(x, y);
            if (c != st->prev_region[static_cast<std::size_t>(idx)]) {
              changed.set(x, y, true);
              st->prev_region[static_cast<std::size_t>(idx)] = c;
            }
          }
        }
        result.payload = now::make_sparse_payload(st->fb, r, changed);
      }
    }
    result.task_id = id;
    result.frame = global;
    result.rays = out.rays;
    result.pixels_recomputed = out.pixels;
    result.full_render = out.full ? 1 : 0;
    {
      SpanScope s(spans_, "par.encode", "par", Side::kWorker, id, global);
      out.wire = now::encode_frame_result(result, cfg_.frame_codec);
    }

    totals_.full_frames += out.full ? 1 : 0;
    totals_.region_pixels += r.area();
    totals_.pixels_recomputed += out.pixels;
    totals_.rays += out.rays;
    totals_.voxels_marked += out.voxels;
    totals_.dirty_voxels += out.dirty_voxels;
    if (out.full) {
      totals_.full_rays += out.rays;
      totals_.full_voxels_marked += out.voxels;
      totals_.full_region_pixels += r.area();
    }
    return out;
  }

  void check_fidelity(const ReplayTask& task, int frame, const WorkerFrame& out,
                      const TaskState& st, now::CoherentRenderer* renderer,
                      now::Framebuffer* fb) {
    const auto t0 = Clock::now();
    const now::FrameRenderResult rr = renderer->render_frame(frame, fb);
    const double dt = seconds_since(t0);
    totals_.render_frame_seconds += dt;
    if (rr.full_render) {
      totals_.full_render_frame_seconds += dt;
      totals_.full_mark_seconds += out.mark_seconds;
    }
    const bool same = rr.full_render == out.full &&
                      rr.stats.total_rays() == out.rays &&
                      rr.pixels_recomputed == out.pixels &&
                      rr.voxels_marked == out.voxels &&
                      rr.dirty_voxels == out.dirty_voxels &&
                      fb->extract(task.region) == st.fb.extract(task.region);
    if (!same) ++totals_.fidelity_mismatches;
  }

  void commit(const ReplayTask& task, int global, const std::string& wire) {
    const int id = task.task_id;
    now::FrameResult got;
    bool decoded = false;
    {
      SpanScope s(spans_, "par.decode", "par", Side::kMaster, id, global);
      decoded = now::decode_frame_result(&got, wire);
    }
    const std::size_t g = static_cast<std::size_t>(global);
    if (!decoded) {
      ++totals_.fidelity_mismatches;
      return;
    }
    now::Framebuffer& fb = frames_[g];
    {
      SpanScope s(spans_, "image.apply", "image", Side::kMaster, id, global);
      if (!got.payload.dense) {
        fb.blit(task.region, frames_[g - 1].extract(task.region));
      }
      now::apply_payload(&fb, got.payload);
    }
    now::FrameSink* sink = nullptr;
    if (!sinks_.empty()) {
      sink = sinks_[static_cast<std::size_t>(
                        map_.sharded() ? map_.shard_of(global) : 0)]
                 .get();
      {
        SpanScope s(spans_, "ckpt.commit", "ckpt", Side::kMaster, id, global);
        sink->commit_region(id, task.region, global, fb);
      }
      const auto t0 = Clock::now();
      (void)now::digest_rect(fb, task.region);
      totals_.digest_probe_seconds += seconds_since(t0);
    }
    missing_[g] -= task.region.area();
    if (missing_[g] != 0) return;
    bool written = true;
    if (sink != nullptr) {
      {
        SpanScope s(spans_, "image.tga_write", "image", Side::kMaster, id,
                    global);
        written = now::write_tga_atomic(
            fb, now::frame_file_path(options_.work_dir, cfg_.output_prefix,
                                     global));
      }
      SpanScope s(spans_, "shard.complete", "shard", Side::kMaster, id,
                  global);
      sink->complete_frame(global, fb);
    }
    ++totals_.frames_checked;
    const int scene_frame = scene_frame_of_[g];
    if (!written ||
        now::digest_frame(fb) !=
            reference_[static_cast<std::size_t>(scene_frame)]) {
      ++totals_.frames_failed;
    }
  }

  const WorkloadInputs& in_;
  const now::AnimatedScene& scene_;
  const now::FarmConfig& cfg_;
  const std::vector<std::uint32_t>& reference_;
  const ReplayOptions& options_;
  SpanRecorder* spans_;
  const int width_;
  const int height_;
  now::CoherenceOptions coherence_;
  now::ShardMap map_;

  std::vector<int> scene_frame_of_;
  std::vector<now::Framebuffer> frames_;  // master/shard side, global frames
  std::vector<std::int64_t> missing_;     // pixels not yet committed
  std::vector<std::unique_ptr<now::FrameSink>> sinks_;  // one per shard
  std::vector<std::uint32_t> pixels_;
  SegmentLog log_;
  ReplayTotals totals_;
};

}  // namespace

ReplayTotals run_replay(const WorkloadInputs& in,
                        const std::vector<std::uint32_t>& reference,
                        const ReplayOptions& options, SpanRecorder* spans) {
  return Replay(in, reference, options, spans).run();
}

}  // namespace nowbench
