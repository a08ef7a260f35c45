// Table 1 reproduction: performance results for the Newton sequence.
//
// Paper configuration (Section 4): 45 frames, 76,800 pixels per frame,
// 24-bit targa, image quality high, max ray depth 5; one 200 MHz SGI
// Indigo2 (the serial machine) plus two 100 MHz SGIs, PVM 3.1, shared
// 10 Mb/s Ethernet. Distributed runs place the master on the fast machine.
//
// Columns (numbers in parentheses match the paper's Table 1):
//   (1) single processor, no frame coherence
//   (2) single processor + frame coherence        (3) = speedup vs (1)
//   (4) distributed, no coherence, demand-driven 80×80 blocks
//                                                 (5) = speedup vs (1)
//   (6) distributed + coherence, sequence division (adaptive)
//                                                 (7) = speedup vs (1)
//   (8) distributed + coherence, frame division (80×80 subareas)
//                                                 (9) = speedup vs (1)
//
// Expected shape (paper): (3) ≈ 3 with rays cut ≈5×, (5) ≈ 2 (the cluster
// has twice the fast machine's power), (7) ≈ 5, (9) ≈ 7 — coherence and
// distribution multiply, and frame division beats sequence division because
// sequence division restarts coherence at every subsequence boundary.
//
// All five configurations must produce byte-identical frames; the harness
// verifies this before printing.
#include <cstdio>
#include <cstring>

#include "bench/bench_util.h"
#include "src/par/render_farm.h"

namespace now {
namespace {

struct Column {
  std::string label;
  std::uint64_t rays = 0;
  double first_frame = -1.0;  // serial runs only
  double total = 0.0;
  const std::vector<Framebuffer>* frames = nullptr;
};

void print_table(const std::vector<Column>& cols) {
  const double base = cols[0].total;
  std::printf("%-22s", "");
  for (const auto& c : cols) std::printf("%22s", c.label.c_str());
  std::printf("\n");
  bench::print_rule(22 + 22 * static_cast<int>(cols.size()));

  std::printf("%-22s", "# rays");
  for (const auto& c : cols)
    std::printf("%22s", bench::with_commas(c.rays).c_str());
  std::printf("\n");

  std::printf("%-22s", "first frame");
  for (const auto& c : cols) {
    std::printf("%22s",
                c.first_frame < 0 ? "-" : bench::hms(c.first_frame).c_str());
  }
  std::printf("\n");

  std::printf("%-22s", "average frame");
  for (const auto& c : cols)
    std::printf("%22s", bench::hms(c.total / 45.0).c_str());
  std::printf("\n");

  std::printf("%-22s", "total");
  for (const auto& c : cols) std::printf("%22s", bench::hms(c.total).c_str());
  std::printf("\n");

  std::printf("%-22s", "speedup vs (1)");
  for (const auto& c : cols)
    std::printf("%22s", bench::speedup(base, c.total).c_str());
  std::printf("\n");
}

int run(bool quick) {
  CradleParams params;
  params.frames = 45;
  params.width = quick ? 160 : 320;
  params.height = quick ? 120 : 240;
  const AnimatedScene scene = newton_cradle_scene(params);
  const CostModel cost;

  std::printf("Table 1 — Newton sequence, %d frames at %dx%d, depth 5\n",
              scene.frame_count(), scene.width(), scene.height());
  std::printf("cluster: speeds {1.0, 0.5, 0.5} (200 MHz + 2x100 MHz), "
              "10 Mb/s shared Ethernet\n\n");

  // (1) single processor, no coherence.
  CoherenceOptions nofc;
  nofc.enabled = false;
  const SerialResult serial_plain = render_serial(scene, nofc, cost);

  // (2) single processor with coherence.
  const SerialResult serial_fc = render_serial(scene, {}, cost);

  const auto farm = [&](PartitionScheme scheme, bool coherence,
                        int hybrid_frames) {
    FarmConfig config;
    config.backend = FarmBackend::kSim;
    config.worker_speeds = bench::paper_cluster_speeds();
    config.cost = cost;
    config.coherence.enabled = coherence;
    config.partition.scheme = scheme;
    config.partition.block_size = 80;
    // hybrid_frames only means something to the hybrid scheme; the others
    // pass 0 and keep the (valid) default.
    if (scheme == PartitionScheme::kHybrid) {
      config.partition.hybrid_frames = hybrid_frames;
    }
    config.partition.adaptive = true;
    return render_farm(scene, config);
  };

  // (4) distributed without coherence: demand-driven per-frame 80×80 blocks.
  const FarmResult dist_plain = farm(PartitionScheme::kHybrid, false, 1);
  // (6) distributed + coherence, sequence division.
  const FarmResult dist_seq = farm(PartitionScheme::kSequenceDivision, true, 0);
  // (8) distributed + coherence, frame division.
  const FarmResult dist_frame = farm(PartitionScheme::kFrameDivision, true, 0);

  // Correctness gate: every configuration renders the same animation.
  const std::vector<const std::vector<Framebuffer>*> all = {
      &serial_plain.frames, &serial_fc.frames, &dist_plain.frames,
      &dist_seq.frames, &dist_frame.frames};
  for (std::size_t i = 1; i < all.size(); ++i) {
    for (int f = 0; f < scene.frame_count(); ++f) {
      if (!((*all[i])[f] == (*all[0])[f])) {
        std::fprintf(stderr,
                     "FATAL: configuration %zu frame %d differs from serial\n",
                     i, f);
        return 1;
      }
    }
  }
  std::printf("[verified: all five configurations produce byte-identical "
              "frames]\n\n");

  std::vector<Column> cols;
  cols.push_back({"(1) 1 proc", serial_plain.stats.total_rays(),
                  serial_plain.first_frame_seconds,
                  serial_plain.virtual_seconds, &serial_plain.frames});
  cols.push_back({"(2) 1 proc +FC", serial_fc.stats.total_rays(),
                  serial_fc.first_frame_seconds, serial_fc.virtual_seconds,
                  &serial_fc.frames});
  cols.push_back({"(4) distrib", dist_plain.master.rays_total, -1.0,
                  dist_plain.elapsed_seconds, &dist_plain.frames});
  cols.push_back({"(6) +FC seq div", dist_seq.master.rays_total, -1.0,
                  dist_seq.elapsed_seconds, &dist_seq.frames});
  cols.push_back({"(8) +FC frame div", dist_frame.master.rays_total, -1.0,
                  dist_frame.elapsed_seconds, &dist_frame.frames});
  print_table(cols);

  std::printf("\nsupporting detail\n");
  bench::print_rule(60);
  std::printf("ray reduction from coherence (serial): %.2fx\n",
              static_cast<double>(serial_plain.stats.total_rays()) /
                  static_cast<double>(serial_fc.stats.total_rays()));
  std::printf("first-frame coherence overhead: %.1f%%\n",
              100.0 * (serial_fc.first_frame_seconds -
                       serial_plain.first_frame_seconds) /
                  serial_fc.first_frame_seconds);
  const auto detail = [&](const char* name, const FarmResult& r) {
    std::printf(
        "%-18s splits=%-3lld full-renders=%-4lld messages=%-6lld "
        "MB=%-8.2f eth-contention=%s\n",
        name, static_cast<long long>(r.master.adaptive_splits),
        static_cast<long long>(r.master.full_renders),
        static_cast<long long>(r.runtime.messages),
        static_cast<double>(r.runtime.bytes) / 1e6,
        bench::hms(r.metrics.gauge("sim.ethernet_contention_seconds"))
            .c_str());
  };
  detail("(4) distrib", dist_plain);
  detail("(6) seq div", dist_seq);
  detail("(8) frame div", dist_frame);
  bench::record_farm_metrics("distrib.", dist_plain.metrics);
  bench::record_farm_metrics("seqdiv.", dist_seq.metrics);
  bench::record_farm_metrics("framediv.", dist_frame.metrics);

  std::printf("\npaper reference: rays 21,970,900 -> ~4.4M (/5); total "
              "2:55:51 -> x3 (FC), x2 (distrib), x5 (seq), x7 (frame)\n");
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
