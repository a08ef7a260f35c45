// Google-benchmark microbenchmarks for the hot inner loops: primitive
// intersection, segment-box distance and the accelerator build, DDA grid
// traversal, tracing with fused coherence marking, coherence
// marking/collection, the pixel codec, the wire format and the durable
// frame path (CRC-32, pixel digests, targa encoding).
//
// Shares the bench-suite flag contract: --metrics-out FILE maps onto
// google-benchmark's JSON reporter, --quick trims the per-benchmark
// measurement time for CI smoke runs.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <string>
#include <vector>

#include "src/ckpt/journal.h"
#include "src/core/change_detector.h"
#include "src/core/coherent_renderer.h"
#include "src/core/ray_recorder.h"
#include "src/geom/cylinder.h"
#include "src/geom/overlap.h"
#include "src/geom/sphere.h"
#include "src/geom/voxel_grid.h"
#include "src/image/image_io.h"
#include "src/image/pixel_codec.h"
#include "src/math/rng.h"
#include "src/net/crc32.h"
#include "src/par/protocol.h"
#include "src/scene/builtin_scenes.h"
#include "src/trace/render.h"
#include "src/trace/uniform_grid.h"

namespace now {
namespace {

void BM_SphereIntersect(benchmark::State& state) {
  const Sphere sphere({0, 0, 0}, 1.0);
  Rng rng(1);
  std::vector<Ray> rays;
  for (int i = 0; i < 1024; ++i) {
    rays.push_back({rng.point_in_box({-3, -3, -3}, {3, 3, 3}),
                    rng.unit_vector()});
  }
  std::size_t i = 0;
  for (auto _ : state) {
    Hit hit;
    benchmark::DoNotOptimize(
        sphere.intersect(rays[i++ & 1023], 1e-9, 1e9, &hit));
  }
}
BENCHMARK(BM_SphereIntersect);

void BM_CylinderIntersect(benchmark::State& state) {
  const Cylinder cyl({0, 0, 0}, {0, 2, 0}, 0.5);
  Rng rng(2);
  std::vector<Ray> rays;
  for (int i = 0; i < 1024; ++i) {
    rays.push_back({rng.point_in_box({-3, -3, -3}, {3, 3, 3}),
                    rng.unit_vector()});
  }
  std::size_t i = 0;
  for (auto _ : state) {
    Hit hit;
    benchmark::DoNotOptimize(cyl.intersect(rays[i++ & 1023], 1e-9, 1e9, &hit));
  }
}
BENCHMARK(BM_CylinderIntersect);

void BM_GridWalk(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const VoxelGrid grid({{-2, -2, -2}, {2, 2, 2}}, n, n, n);
  Rng rng(3);
  std::vector<Ray> rays;
  for (int i = 0; i < 256; ++i) {
    rays.push_back({rng.point_in_box({-4, -4, -4}, {4, 4, 4}),
                    rng.unit_vector()});
  }
  std::size_t i = 0;
  std::int64_t cells = 0;
  for (auto _ : state) {
    grid.walk(rays[i++ & 255], 0.0, kRayInfinity,
              [&](int, int, int, double, double) {
                ++cells;
                return true;
              });
  }
  benchmark::DoNotOptimize(cells);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GridWalk)->Arg(8)->Arg(32)->Arg(128);

void BM_SegmentBoxDistance(benchmark::State& state) {
  Rng rng(8);
  std::vector<Vec3> points;
  std::vector<Aabb> boxes;
  for (int i = 0; i < 256; ++i) {
    points.push_back(rng.point_in_box({-2, -2, -2}, {2, 2, 2}));
    const Vec3 lo = rng.point_in_box({-2, -2, -2}, {1, 1, 1});
    boxes.push_back({lo, lo + rng.point_in_box({0.1, 0.1, 0.1}, {1, 1, 1})});
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(segment_box_distance(
        points[i & 255], points[(i + 1) & 255], boxes[(i * 7) & 255]));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SegmentBoxDistance);

// The per-frame accelerator rebuild over Newton frame 0's world: every
// bounded primitive rasterized into the grid through overlaps_box.
void BM_UniformGridBuild(benchmark::State& state) {
  CradleParams params;
  params.frames = 1;
  const World world = newton_cradle_scene(params).world_at(0);
  for (auto _ : state) {
    const UniformGridAccelerator accel(world);
    benchmark::DoNotOptimize(accel.total_cell_entries());
  }
}
BENCHMARK(BM_UniformGridBuild)->Unit(benchmark::kMicrosecond);

void BM_AccelClosestHit(benchmark::State& state) {
  const AnimatedScene scene = orbit_scene(20, 1);
  const World world = scene.world_at(0);
  const UniformGridAccelerator accel(world);
  Rng rng(4);
  std::vector<Ray> rays;
  for (int i = 0; i < 1024; ++i) {
    rays.push_back({rng.point_in_box({-4, 0, -4}, {4, 4, 4}),
                    rng.unit_vector()});
  }
  std::size_t i = 0;
  for (auto _ : state) {
    Hit hit;
    benchmark::DoNotOptimize(
        accel.closest_hit(rays[i++ & 1023], 1e-9, kRayInfinity, &hit));
  }
}
BENCHMARK(BM_AccelClosestHit);

/// Frame 0 of one paper-style 80x80 Newton tile (the farm's 320x240 frame
/// division), recorded once: every ray segment the tracer reported, in
/// shading order, plus the frame 0 -> 1 dirty voxels of the tile's
/// coherence grid.
struct NewtonTile {
  struct Segment {
    int px;
    int py;
    Ray ray;
    double t_end;
    RayKind kind;
  };
  class Log final : public RayListener {
   public:
    explicit Log(std::vector<Segment>* out) : out_(out) {}
    void on_segment(int px, int py, const Ray& ray, double t_end,
                    RayKind kind) override {
      out_->push_back({px, py, ray, t_end, kind});
    }

   private:
    std::vector<Segment>* out_;
  };

  NewtonTile() {
    // The whole 45-frame animation, so the coherence grid spans the same
    // extent (and has the same cells) as a farm render's.
    const AnimatedScene scene = newton_cradle_scene();
    const CoherenceOptions defaults;
    voxels = VoxelGrid::heuristic(animation_extent(scene),
                                  scene.object_count(), defaults.grid_density,
                                  defaults.grid_max_axis);
    const World world = scene.world_at(0);
    const UniformGridAccelerator accel(world);
    Tracer tracer(world, accel);
    Log log(&segments);
    tracer.set_listener(&log);
    Framebuffer fb(scene.width(), scene.height());
    render_region(&tracer, &fb, region);
    dirty = find_dirty_voxels(voxels, world, scene.world_at(1),
                              scene.changed_objects(0, 1))
                .cells;
  }

  /// Replays the recorded segments through `recorder`; returns the voxels
  /// visited.
  std::uint64_t replay(RayRecorder* recorder) const {
    for (const Segment& s : segments) {
      recorder->on_segment(s.px, s.py, s.ray, s.t_end, s.kind);
    }
    return recorder->stats().voxels_visited;
  }

  PixelRect region{160, 80, 80, 80};
  VoxelGrid voxels{Aabb{{0, 0, 0}, {1, 1, 1}}, 1, 1, 1};
  std::vector<Segment> segments;
  std::vector<std::uint32_t> dirty;
};

const NewtonTile& newton_tile() {
  static const NewtonTile tile;
  return tile;
}

// Marking as a task's first frame pays for it: the tile's frame-0 segments
// DDA-walked into a fresh store. Items are visited voxels, so the per-item
// time is the ns per mark perfbench reports as core.ns_per_mark.
void BM_CoherenceMark(benchmark::State& state) {
  const NewtonTile& tile = newton_tile();
  std::uint64_t visited = 0;
  for (auto _ : state) {
    CoherenceGrid grid(tile.voxels, tile.region);
    RayRecorder recorder(&grid);
    visited += tile.replay(&recorder);
    benchmark::DoNotOptimize(grid.stats().live_marks);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(visited));
}
BENCHMARK(BM_CoherenceMark)->Unit(benchmark::kMicrosecond);

// The DDA walk of the same segments alone, with no store behind it: the
// floor under BM_CoherenceMark, so the difference is the store's share.
void BM_CoherenceWalk(benchmark::State& state) {
  const NewtonTile& tile = newton_tile();
  std::uint64_t visited = 0;
  for (auto _ : state) {
    for (const NewtonTile::Segment& s : tile.segments) {
      tile.voxels.walk(s.ray, 0.0, mark_limit(s.t_end),
                       [&](int ix, int iy, int iz, double, double) {
                         benchmark::DoNotOptimize(
                             tile.voxels.cell_index(ix, iy, iz));
                         ++visited;
                         return true;
                       });
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(visited));
  state.counters["voxels_per_segment"] =
      static_cast<double>(visited) /
      static_cast<double>(state.iterations() * tile.segments.size());
}
BENCHMARK(BM_CoherenceWalk)->Unit(benchmark::kMicrosecond);

/// Marks each segment by walking it a second time on the coherence
/// lattice (RayRecorder::on_segment): the separate walk that fused marking
/// replaced.
class WalkAgain final : public RayListener {
 public:
  explicit WalkAgain(RayRecorder* recorder) : recorder_(recorder) {}
  void on_segment(int px, int py, const Ray& ray, double t_end,
                  RayKind kind) override {
    recorder_->on_segment(px, py, ray, t_end, kind);
  }

 private:
  RayRecorder* recorder_;
};

// One full 320x240 Newton frame on the shot lattice, as a task's first
// frame renders it: traced alone (mode 0), traced and marked by walking
// every segment again (mode 1), and traced with marking fused into the
// tracer's walk (mode 2). Time is reported per marked cell for all three,
// so mode 1 - mode 0 and mode 2 - mode 0 are marking's ns per cell.
void BM_TraceMark(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  const AnimatedScene scene = newton_cradle_scene();
  const CoherenceOptions defaults;
  const VoxelGrid lattice = VoxelGrid::heuristic(
      animation_extent(scene), scene.object_count(), defaults.grid_density,
      defaults.grid_max_axis);
  const World world = scene.world_at(0);
  const UniformGridAccelerator accel(world, lattice);
  const PixelRect full{0, 0, scene.width(), scene.height()};
  CoherenceGrid grid(lattice, full);
  RayRecorder recorder(&grid);
  WalkAgain walk_again(&recorder);
  Framebuffer fb(scene.width(), scene.height());
  std::uint64_t marks_per_frame = 0;
  {
    Tracer tracer(world, accel);
    tracer.set_listener(&recorder);
    render_region(&tracer, &fb, full);
    marks_per_frame = recorder.stats().voxels_visited;
  }
  for (auto _ : state) {
    grid.reset();
    Tracer tracer(world, accel);
    if (mode == 1) tracer.set_listener(&walk_again);
    if (mode == 2) tracer.set_listener(&recorder);
    benchmark::DoNotOptimize(render_region(&tracer, &fb, full));
  }
  state.counters["per_mark"] = benchmark::Counter(
      static_cast<double>(marks_per_frame),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
  state.counters["marks"] = static_cast<double>(marks_per_frame);
}
BENCHMARK(BM_TraceMark)
    ->ArgName("mode")
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

// Change detection's lookup: the tile's frame-0 marks against its frame
// 0 -> 1 dirty voxels, as an incremental frame collects them.
void BM_CoherenceCollect(benchmark::State& state) {
  const NewtonTile& tile = newton_tile();
  CoherenceGrid grid(tile.voxels, tile.region);
  RayRecorder recorder(&grid);
  tile.replay(&recorder);
  PixelMask mask(320, 240);
  std::vector<std::uint32_t> pixels;
  for (auto _ : state) {
    // Clear only what the last pass set, so the mask costs no full sweep.
    for (const std::uint32_t p : pixels) {
      mask.set(tile.region.x0 + static_cast<int>(p) % tile.region.width,
               tile.region.y0 + static_cast<int>(p) / tile.region.width,
               false);
    }
    pixels.clear();
    grid.collect_pixels(tile.dirty, &mask, &pixels);
    benchmark::DoNotOptimize(pixels.size());
  }
  state.counters["dirty_voxels"] = static_cast<double>(tile.dirty.size());
  state.counters["pixels"] = static_cast<double>(pixels.size());
}
BENCHMARK(BM_CoherenceCollect)->Unit(benchmark::kMicrosecond);

void BM_PixelCodecSparse(benchmark::State& state) {
  Framebuffer fb(320, 240);
  Rng rng(7);
  PixelMask updated(320, 240);
  for (int i = 0; i < 5000; ++i) {
    updated.set(static_cast<int>(rng.next_below(320)),
                static_cast<int>(rng.next_below(240)), true);
  }
  const PixelRect rect{0, 0, 320, 240};
  for (auto _ : state) {
    const PixelPayload payload = make_sparse_payload(fb, rect, updated);
    const std::string bytes = encode_payload(payload);
    PixelPayload decoded;
    decode_payload(&decoded, bytes);
    benchmark::DoNotOptimize(decoded.carried_pixels());
  }
}
BENCHMARK(BM_PixelCodecSparse);

void BM_FrameResultRoundTrip(benchmark::State& state) {
  Framebuffer fb(80, 80);
  FrameResult result;
  result.payload = make_dense_payload(fb, {0, 0, 80, 80});
  for (auto _ : state) {
    FrameResult out;
    decode_frame_result(&out, encode_frame_result(result));
    benchmark::DoNotOptimize(out.frame);
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) * 80 * 80 * 3);
}
BENCHMARK(BM_FrameResultRoundTrip);

// -- durable frame path -------------------------------------------------------

Framebuffer noise_frame(int w, int h) {
  Framebuffer fb(w, h);
  Rng rng(3);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      fb.set(x, y, Rgb8{static_cast<std::uint8_t>(rng.next_below(256)),
                        static_cast<std::uint8_t>(rng.next_below(256)),
                        static_cast<std::uint8_t>(rng.next_below(256))});
    }
  }
  return fb;
}

void BM_Crc32(benchmark::State& state) {
  std::vector<std::uint8_t> buf(std::size_t{1} << 20);
  Rng rng(5);
  for (std::uint8_t& b : buf) {
    b = static_cast<std::uint8_t>(rng.next_below(256));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32(buf.data(), buf.size()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_Crc32)->Unit(benchmark::kMicrosecond);

// One 640x480 frame digested tile by tile in 160x160 rects, as a shard
// journals its region commits.
void BM_DigestRect(benchmark::State& state) {
  const Framebuffer fb = noise_frame(640, 480);
  for (auto _ : state) {
    std::uint32_t acc = 0;
    for (int y = 0; y < fb.height(); y += 160) {
      for (int x = 0; x < fb.width(); x += 160) {
        acc ^= digest_rect(fb, PixelRect{x, y, 160, 160});
      }
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          fb.pixel_count() * 3);
}
BENCHMARK(BM_DigestRect)->Unit(benchmark::kMicrosecond);

void BM_EncodeTga(benchmark::State& state) {
  const Framebuffer fb = noise_frame(640, 480);
  for (auto _ : state) {
    const std::string bytes = encode_tga(fb);
    benchmark::DoNotOptimize(bytes.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          fb.pixel_count() * 3);
}
BENCHMARK(BM_EncodeTga)->Unit(benchmark::kMicrosecond);

void BM_RenderNewtonFrame(benchmark::State& state) {
  CradleParams params;
  params.frames = 1;
  const AnimatedScene scene = newton_cradle_scene(params);
  const World world = scene.world_at(0);
  const UniformGridAccelerator accel(world);
  const int w = static_cast<int>(state.range(0));
  const int h = w * 3 / 4;
  for (auto _ : state) {
    Tracer tracer(world, accel);
    Framebuffer fb(w, h);
    render_frame(&tracer, &fb);
    benchmark::DoNotOptimize(fb.at(0, 0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * w * h);
}
BENCHMARK(BM_RenderNewtonFrame)->Arg(80)->Arg(160)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace now

int main(int argc, char** argv) {
  std::vector<std::string> args;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--metrics-out" && i + 1 < argc) {
      args.push_back(std::string("--benchmark_out=") + argv[++i]);
      args.push_back("--benchmark_out_format=json");
    } else if (arg == "--quick") {
      args.push_back("--benchmark_min_time=0.05");
    } else {
      args.push_back(arg);
    }
  }
  std::vector<char*> cargv;
  for (std::string& s : args) cargv.push_back(s.data());
  int cargc = static_cast<int>(cargv.size());
  benchmark::Initialize(&cargc, cargv.data());
  if (benchmark::ReportUnrecognizedArguments(cargc, cargv.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
