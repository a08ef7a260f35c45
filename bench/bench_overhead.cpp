// Section 4 overhead measurement: "The measurements for the first frame
// rendering are provided to show the overhead associated with the
// algorithm. Here, overhead constitutes a reasonable 12% of the total
// generation time."
//
// Renders the first Newton frame with and without coherence bookkeeping and
// breaks the cost model's virtual time into its components; also reports
// the real (wall-clock) bookkeeping overhead of the implementation.
#include <chrono>
#include <cstdio>
#include <cstring>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "bench/bench_util.h"
#include "src/par/cost_model.h"
#include "src/par/render_farm.h"

namespace now {
namespace {

int run(bool quick) {
  CradleParams params;
  params.frames = 2;
  params.width = quick ? 160 : 320;
  params.height = quick ? 120 : 240;
  const AnimatedScene scene = newton_cradle_scene(params);
  const PixelRect full{0, 0, scene.width(), scene.height()};
  const CostModel cost;
  // Every wall-clock reading below keeps the fastest of this many
  // interleaved runs per side.
  constexpr int kRunsPerSide = 5;

  const auto render_first = [&](bool coherence, MetricsRegistry* metrics,
                                FrameRenderResult* out) {
    CoherenceOptions options;
    options.enabled = coherence;
    options.metrics = metrics;
    CoherentRenderer renderer(scene, full, options);
    Framebuffer fb(scene.width(), scene.height());
    const auto t0 = std::chrono::steady_clock::now();
    *out = renderer.render_frame(0, &fb);
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
  };

  // Observability acceptance: rendering against a *disabled* registry must
  // be indistinguishable from rendering with no registry at all (<2%).
  MetricsRegistry disabled(false);
  struct Side {
    bool coherence;
    MetricsRegistry* metrics;
    FrameRenderResult result;
    double wall;
  };
  constexpr double kUnset = std::numeric_limits<double>::infinity();
  Side sides[] = {{true, nullptr, {}, kUnset},      // with coherence
                  {false, nullptr, {}, kUnset},     // without
                  {true, &disabled, {}, kUnset}};   // disabled registry
  // One first frame renders in tens of milliseconds, so a single reading
  // swings widely with machine load. The sides run in mirrored rounds
  // (A B C, C B A, ...) so drift hits each alike, and each keeps its fastest.
  for (int round = 0; round < kRunsPerSide; ++round) {
    for (int k = 0; k < 3; ++k) {
      Side& side = sides[round % 2 == 0 ? k : 2 - k];
      side.wall = std::min(
          side.wall, render_first(side.coherence, side.metrics, &side.result));
    }
  }
  const FrameRenderResult& with_fc = sides[0].result;
  const FrameRenderResult& without_fc = sides[1].result;
  const double wall_fc = sides[0].wall;
  const double wall_plain = sides[1].wall;
  const double wall_obs_off = sides[2].wall;

  const double ray_cost =
      static_cast<double>(with_fc.stats.total_rays()) * cost.seconds_per_ray;
  const double mark_cost =
      static_cast<double>(with_fc.voxels_marked) * cost.seconds_per_voxel_mark;
  const double pixel_cost =
      static_cast<double>(with_fc.pixels_total) * cost.seconds_per_pixel_touch;
  const double total =
      cost.frame_compute_seconds(with_fc) + cost.master_frame_write_seconds;

  std::printf("first-frame coherence overhead — Newton at %dx%d\n\n",
              scene.width(), scene.height());
  std::printf("rays traced:           %s (same with and without coherence)\n",
              bench::with_commas(with_fc.stats.total_rays()).c_str());
  std::printf("voxels marked by DDA:  %s\n",
              bench::with_commas(
                  static_cast<std::uint64_t>(with_fc.voxels_marked)).c_str());
  std::printf("\nvirtual-time breakdown (reference machine):\n");
  std::printf("  ray tracing       %8s  (%5.1f%%)\n",
              bench::hms(ray_cost).c_str(), 100.0 * ray_cost / total);
  std::printf("  coherence marking %8s  (%5.1f%%)  <- the paper's ~12%%\n",
              bench::hms(mark_cost).c_str(), 100.0 * mark_cost / total);
  std::printf("  pixel bookkeeping %8s  (%5.1f%%)\n",
              bench::hms(pixel_cost).c_str(), 100.0 * pixel_cost / total);
  std::printf("  frame setup+write %8s\n",
              bench::hms(cost.seconds_per_frame_setup +
                         cost.master_frame_write_seconds).c_str());
  std::printf("  total first frame %8s (without coherence: %8s)\n",
              bench::hms(total).c_str(),
              bench::hms(cost.frame_compute_seconds(without_fc) +
                         cost.master_frame_write_seconds).c_str());

  std::printf("\nactual wall clock on this machine (fastest of %d, "
              "interleaved):\n",
              kRunsPerSide);
  std::printf("  with coherence    %7.3f s\n", wall_fc);
  std::printf("  without           %7.3f s\n", wall_plain);
  std::printf("  real overhead     %6.1f%%\n",
              100.0 * (wall_fc - wall_plain) / wall_fc);
  const double obs_pct = 100.0 * (wall_obs_off - wall_fc) / wall_fc;
  std::printf("  disabled metrics  %7.3f s  (%+.1f%% vs no registry)\n",
              wall_obs_off, obs_pct);
  std::printf("\npaper reference: 12%% of first-frame generation time\n");

  MetricsRegistry& reg = bench::bench_registry();
  reg.counter("overhead.rays").inc(with_fc.stats.total_rays());
  reg.counter("overhead.voxels_marked")
      .inc(static_cast<std::uint64_t>(with_fc.voxels_marked));
  reg.gauge("overhead.wall_with_coherence_seconds").set(wall_fc);
  reg.gauge("overhead.wall_without_coherence_seconds").set(wall_plain);
  reg.gauge("overhead.wall_disabled_registry_seconds").set(wall_obs_off);
  reg.gauge("overhead.coherence_pct")
      .set(100.0 * (wall_fc - wall_plain) / wall_fc);
  reg.gauge("overhead.disabled_registry_pct").set(obs_pct);
  reg.gauge("overhead.virtual_mark_pct").set(100.0 * mark_cost / total);

  // -- live telemetry plane: on vs off on the Table-1 scene -----------------
  // The tentpole's standing constraint is that the sampler, the status
  // endpoint and the flight recorder stay observably cheap when armed. Run
  // the paper's Newton farm on real threads both ways and gate the delta.
  // One farm finishes in a fraction of a second, and on a shared machine
  // the load drifts by ±10 % from one second to the next. So each pair of
  // samples renders the farm back to back, on and off alternating farm by
  // farm in ABBA order, until each side has rendered for at least
  // kSampleSeconds; drift within the pair then hits both sides alike. The
  // gate reads the median over the pairs of the on/off ratio.
  CradleParams farm_params;
  farm_params.frames = quick ? 12 : 45;
  farm_params.width = params.width;
  farm_params.height = params.height;
  const AnimatedScene farm_scene = newton_cradle_scene(farm_params);

  FarmConfig base;
  base.backend = FarmBackend::kThreads;
  base.workers = 3;
  base.partition.scheme = PartitionScheme::kFrameDivision;

  FarmConfig telemetry = base;
  telemetry.obs.sample_interval_seconds = 0.1;
  telemetry.obs.status_port = 0;  // ephemeral: live /metrics + /status
  telemetry.obs.flight_recorder = true;
  telemetry.obs.flight_dir = "";  // ring only; no implicit flush

  const double kSampleSeconds = quick ? 0.25 : 2.0;
  const int kPairs = quick ? 4 : 6;
  // Calibrate the farms per sample on a warm-up run of the plain farm.
  const double one_farm = render_farm(farm_scene, base).elapsed_seconds;
  const int farms_per_sample = std::max(
      1, static_cast<int>(std::ceil(kSampleSeconds / std::max(one_farm, 1e-3))));
  std::vector<double> ratios;
  double wall_off = 0.0;
  double wall_on = 0.0;
  for (int pair = 0; pair < kPairs; ++pair) {
    double off = 0.0;
    double on = 0.0;
    for (int k = 0; k < 2 * farms_per_sample; ++k) {
      // off, on, on, off, ...: neither side always runs first.
      const bool is_on = k % 4 == 1 || k % 4 == 2;
      const double wall =
          render_farm(farm_scene, is_on ? telemetry : base).elapsed_seconds;
      (is_on ? on : off) += wall;
    }
    wall_off += off;
    wall_on += on;
    ratios.push_back(on / off);
  }
  std::sort(ratios.begin(), ratios.end());
  const double median_ratio =
      kPairs % 2 == 1 ? ratios[kPairs / 2]
                      : 0.5 * (ratios[kPairs / 2 - 1] + ratios[kPairs / 2]);
  const double telemetry_pct = 100.0 * (median_ratio - 1.0);
  wall_off /= kPairs;
  wall_on /= kPairs;

  std::printf("\nlive telemetry plane — Newton farm (%d frames, threads; "
              "%d farms per side per pair, %d pairs):\n",
              farm_scene.frame_count(), farms_per_sample, kPairs);
  std::printf("  telemetry off     %7.3f s per sample (mean)\n", wall_off);
  std::printf("  telemetry on      %7.3f s per sample (mean; sampler + "
              "/status + recorder)\n",
              wall_on);
  std::printf("  on/off per pair  ");
  for (const double r : ratios) std::printf(" %.3f", r);
  std::printf("  (sorted)\n");
  // The 3% gate is defined on the full Table-1 scene; the short quick
  // samples get headroom for scheduler noise so CI doesn't flake.
  const double gate_pct = quick ? 10.0 : 3.0;
  std::printf("  plane overhead    %+6.1f%%  (median pair; gate: < %.0f%%)\n",
              telemetry_pct, gate_pct);

  reg.gauge("overhead.telemetry_off_seconds").set(wall_off);
  reg.gauge("overhead.telemetry_on_seconds").set(wall_on);
  reg.gauge("overhead.telemetry_pct").set(telemetry_pct);
  if (telemetry_pct >= gate_pct) {
    std::fprintf(stderr,
                 "FAIL: telemetry plane costs %.1f%% wall clock (gate %.0f%%)\n",
                 telemetry_pct, gate_pct);
    return 1;
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
