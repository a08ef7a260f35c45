// Section 3 memory claim: frame division "has the advantage of requiring
// less memory of each of the processors to execute the frame coherence
// program since memory requirements are directly proportional to the size
// of the image area. ... This scheme becomes most effective when each frame
// has large dimensions or contains objects with complex characteristics
// since these cases have high memory requirements."
//
// Measures the per-worker high-water mark of coherence mark storage under
// sequence division (full-frame tracking) vs frame division at several
// block sizes. Exits non-zero unless the peak strictly falls from sequence
// division through each smaller frame-division block.
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench/bench_util.h"
#include "src/par/render_farm.h"

namespace now {
namespace {

std::int64_t peak_worker_bytes(const FarmResult& r) {
  std::int64_t peak = 0;
  for (const WorkerReport& w : r.workers) {
    peak = std::max(peak, w.peak_mark_bytes);
  }
  return peak;
}

int run(bool quick) {
  CradleParams params;
  params.frames = quick ? 10 : 30;
  params.width = quick ? 160 : 320;
  params.height = quick ? 120 : 240;
  const AnimatedScene scene = newton_cradle_scene(params);

  std::printf("per-worker coherence memory — Newton, %d frames at %dx%d, "
              "3 workers\n\n",
              scene.frame_count(), scene.width(), scene.height());
  std::printf("%-34s %14s %16s %10s\n", "partitioning",
              "tracked px", "peak marks MB", "total");
  bench::print_rule(80);

  std::vector<std::int64_t> peaks;
  const auto run_config = [&](const char* label, PartitionScheme scheme,
                              int block, std::int64_t tracked_pixels) {
    FarmConfig config;
    config.backend = FarmBackend::kSim;
    config.worker_speeds = bench::paper_cluster_speeds();
    config.partition.scheme = scheme;
    if (block > 0) config.partition.block_size = block;
    const FarmResult r = render_farm(scene, config);
    peaks.push_back(peak_worker_bytes(r));
    std::printf("%-34s %14s %16.2f %10s\n", label,
                bench::with_commas(
                    static_cast<std::uint64_t>(tracked_pixels)).c_str(),
                static_cast<double>(peaks.back()) / 1e6,
                bench::hms(r.elapsed_seconds).c_str());
  };

  const std::int64_t full = std::int64_t{scene.width()} * scene.height();
  run_config("sequence division (whole frames)",
             PartitionScheme::kSequenceDivision, 0, full);
  const int big = quick ? 80 : 160;
  char label[64];
  std::snprintf(label, sizeof(label), "frame division, %dx%d blocks", big, big);
  run_config(label, PartitionScheme::kFrameDivision, big,
             std::int64_t{big} * big);
  const int mid = quick ? 40 : 80;
  std::snprintf(label, sizeof(label), "frame division, %dx%d blocks (paper)",
                mid, mid);
  run_config(label, PartitionScheme::kFrameDivision, mid,
             std::int64_t{mid} * mid);
  const int small = quick ? 20 : 40;
  std::snprintf(label, sizeof(label), "frame division, %dx%d blocks", small,
                small);
  run_config(label, PartitionScheme::kFrameDivision, small,
             std::int64_t{small} * small);

  std::printf("\npeak mark storage tracks the subarea each worker is "
              "responsible for — the\npaper's motivation for frame division "
              "on memory-constrained workstations\n");
  for (std::size_t i = 1; i < peaks.size(); ++i) {
    if (peaks[i] >= peaks[i - 1]) {
      std::printf("FAIL: peak mark bytes %lld at row %zu do not fall below "
                  "%lld at row %zu\n",
                  static_cast<long long>(peaks[i]), i + 1,
                  static_cast<long long>(peaks[i - 1]), i);
      return 1;
    }
  }
  std::printf("gate: peak mark bytes strictly fall with the tracked area\n");
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
