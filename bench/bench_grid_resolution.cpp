// Uniform-subdivision resolution ablation (Glassner 1984 grids underpin
// both the ray accelerator and the coherence grid).
//
// Sweep the shot lattice: coarse voxels over-invalidate (one dirty voxel
// drags many pixels), fine voxels cost more marking time and memory. The
// renderer traces on the lattice it marks, so this sweep moves the tracer's
// cells too. Sweep a stand-alone accelerator grid separately: pure
// wall-clock effect, identical images.
#include <chrono>
#include <cstdio>
#include <cstring>

#include "bench/bench_util.h"
#include "src/par/serial.h"
#include "src/trace/uniform_grid.h"

namespace now {
namespace {

int run(bool quick) {
  CradleParams params;
  params.frames = quick ? 8 : 20;
  params.width = quick ? 160 : 320;
  params.height = quick ? 120 : 240;
  const AnimatedScene scene = newton_cradle_scene(params);

  std::printf("lattice resolution sweep (coherence + tracer) — Newton, %d "
              "frames\n\n",
              scene.frame_count());
  std::printf("%10s %14s %14s %14s %10s %12s\n", "grid", "rays",
              "voxel marks", "recomputed", "total", "marks MB");
  bench::print_rule(80);

  const Aabb extent = animation_extent(scene);
  for (const int n : {4, 8, 16, 32, 64}) {
    CoherenceOptions options;
    options.grid_override = VoxelGrid(extent.padded(0.01), n, n, n);
    const PixelRect full{0, 0, scene.width(), scene.height()};
    CoherentRenderer renderer(scene, full, options);
    Framebuffer fb(scene.width(), scene.height());
    SerialResult r;
    const CostModel cost;
    for (int f = 0; f < scene.frame_count(); ++f) {
      const FrameRenderResult fr = renderer.render_frame(f, &fb);
      r.stats += fr.stats;
      r.pixels_recomputed += fr.pixels_recomputed;
      r.voxels_marked += fr.voxels_marked;
      r.virtual_seconds +=
          cost.frame_compute_seconds(fr) + cost.master_frame_write_seconds;
    }
    char label[32];
    std::snprintf(label, sizeof(label), "%d^3", n);
    std::printf("%10s %14s %14s %14s %10s %12.2f\n", label,
                bench::with_commas(r.stats.total_rays()).c_str(),
                bench::with_commas(
                    static_cast<std::uint64_t>(r.voxels_marked)).c_str(),
                bench::with_commas(
                    static_cast<std::uint64_t>(r.pixels_recomputed)).c_str(),
                bench::hms(r.virtual_seconds).c_str(),
                static_cast<double>(
                    renderer.coherence_grid().stats().bytes()) / 1e6);
  }
  std::printf("\ncoarse grids over-invalidate (more rays recomputed); fine "
              "grids pay marking\ntime and memory — the classic spatial-"
              "subdivision trade-off\n");

  // Accelerator-grid sweep: wall clock only, identical output.
  std::printf("\naccelerator-grid resolution (single frame, wall clock)\n");
  std::printf("%10s %14s %12s\n", "grid", "wall ms", "cell entries");
  bench::print_rule(42);
  const World world = scene.world_at(0);
  for (const int n : {1, 4, 8, 16, 32, 64}) {
    const VoxelGrid vg(world.bounded_extent().padded(0.01), n, n, n);
    const UniformGridAccelerator accel(world, vg);
    Tracer tracer(world, accel);
    Framebuffer fb(scene.width(), scene.height());
    const auto t0 = std::chrono::steady_clock::now();
    render_frame(&tracer, &fb);
    const auto t1 = std::chrono::steady_clock::now();
    char label[32];
    std::snprintf(label, sizeof(label), "%d^3", n);
    std::printf("%10s %14.1f %12lld\n", label,
                1e3 * std::chrono::duration<double>(t1 - t0).count(),
                static_cast<long long>(accel.total_cell_entries()));
  }
  return 0;
}

}  // namespace
}  // namespace now

int main(int argc, char** argv) {
  const now::bench::BenchOptions opts =
      now::bench::parse_bench_options(argc, argv);
  const int rc = now::run(opts.quick);
  return rc != 0 ? rc : now::bench::finish_bench(opts);
}
