// Section 2 comparison vs Jevans (1992): "Jevans' algorithm computes
// coherence for blocks of pixels (that is, if one pixel in the block needs
// to be updated, all pixels in the block are re-computed). Our algorithm,
// in contrast, computes coherence on a much finer level of granularity of
// individual pixels."
//
// Runs the coherent renderer with block granularities from per-pixel
// (block = 0, the paper's algorithm) up through Jevans-style blocks, and
// reports pixels recomputed, rays traced and serial virtual time. Output
// is identical in every mode, only the work differs: the bench exits 1 if
// any block size renders a frame that differs from the per-pixel run.
#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/par/serial.h"

namespace now {
namespace {

int run(bool quick) {
  CradleParams params;
  params.frames = quick ? 10 : 45;
  params.width = quick ? 160 : 320;
  params.height = quick ? 120 : 240;
  const AnimatedScene scene = newton_cradle_scene(params);
  const std::int64_t total_pixel_frames =
      std::int64_t{scene.width()} * scene.height() * scene.frame_count();

  std::printf("per-pixel coherence (paper) vs block coherence (Jevans 1992)\n");
  std::printf("Newton, %d frames at %dx%d, serial on the reference machine\n\n",
              scene.frame_count(), scene.width(), scene.height());
  std::printf("%12s %16s %10s %16s %10s %10s\n", "granularity",
              "pixels recomp.", "fraction", "rays", "total", "vs pixel");
  bench::print_rule(80);

  double pixel_time = 0.0;
  std::vector<Framebuffer> pixel_frames;
  int mismatches = 0;
  for (const int block : {0, 2, 4, 8, 16, 32, 64}) {
    CoherenceOptions options;
    options.block_size = block;
    SerialResult r = render_serial(scene, options);
    if (block == 0) {
      pixel_time = r.virtual_seconds;
      pixel_frames = std::move(r.frames);
    } else if (r.frames != pixel_frames) {
      std::fprintf(stderr, "block %d: frames differ from the per-pixel run\n",
                   block);
      ++mismatches;
    }
    char label[32];
    if (block == 0) {
      std::snprintf(label, sizeof(label), "per-pixel");
    } else {
      std::snprintf(label, sizeof(label), "%dx%d", block, block);
    }
    std::printf("%12s %16s %9.2f%% %16s %10s %9.2fx\n", label,
                bench::with_commas(
                    static_cast<std::uint64_t>(r.pixels_recomputed)).c_str(),
                100.0 * static_cast<double>(r.pixels_recomputed) /
                    static_cast<double>(total_pixel_frames),
                bench::with_commas(r.stats.total_rays()).c_str(),
                bench::hms(r.virtual_seconds).c_str(),
                r.virtual_seconds / pixel_time);
  }
  std::printf("\nper-pixel granularity recomputes the least; block modes "
              "inflate every dirty\nregion to block boundaries (the paper's "
              "stated advantage over Jevans)\n");
  return mismatches == 0 ? 0 : 1;
}

}  // namespace
}  // namespace now

int main(int argc, char** argv) {
  const now::bench::BenchOptions opts =
      now::bench::parse_bench_options(argc, argv);
  const int rc = now::run(opts.quick);
  return rc != 0 ? rc : now::bench::finish_bench(opts);
}
