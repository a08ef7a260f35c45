// Crash-recovery pricing: what does the render journal cost while nothing
// goes wrong, and what does a resume buy after a crash?
//
// The journal is pure frame-owner I/O — one record per committed region,
// group-committed by one fsync per completed frame (and per checkpoint) —
// so its price is wall-clock, not virtual-cluster time. This bench
// measures (a) the wall overhead of journaling the paper's Newton workload
// with fsync on and off, and (b) resume cost: wall time to restore a
// finished run from disk versus re-rendering, and the render work saved
// when resuming from a half-complete journal.
#include <sys/stat.h>

#include <chrono>
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "src/ckpt/journal.h"
#include "src/par/render_farm.h"

namespace now {
namespace {

double wall_seconds(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

FarmConfig base_config(const std::string& dir) {
  FarmConfig config;
  config.backend = FarmBackend::kSim;
  config.worker_speeds = bench::paper_cluster_speeds();
  config.partition.scheme = PartitionScheme::kSequenceDivision;
  config.partition.adaptive = true;
  config.output_dir = dir;
  config.output_prefix = "bench";
  return config;
}

int run(bool quick) {
  CradleParams params;
  params.frames = quick ? 12 : 45;
  params.width = quick ? 160 : 320;
  params.height = quick ? 120 : 240;
  const AnimatedScene scene = newton_cradle_scene(params);

  const std::string dir = "bench_recovery_out";
  ::mkdir(dir.c_str(), 0755);

  std::printf("journal + resume cost — Newton, %d frames at %dx%d, workers "
              "{1,.5,.5}\n\n",
              scene.frame_count(), scene.width(), scene.height());

  // -- journal overhead on the fault-free path ------------------------------
  struct Mode {
    const char* label;
    bool journal;
    bool fsync;
  };
  const Mode modes[] = {{"no journal", false, false},
                        {"journal, no fsync", true, false},
                        {"journal, fsync", true, true}};
  double clean_wall = 0.0;
  std::printf("%-20s %10s %10s %9s %12s %12s\n", "mode", "wall", "overhead",
              "records", "bytes", "checkpoints");
  bench::print_rule(80);
  for (const Mode& mode : modes) {
    FarmConfig config = base_config(dir);
    if (mode.journal) {
      config.journal_path = dir + "/render.journal";
      config.journal_fsync = mode.fsync;
    }
    const auto t0 = std::chrono::steady_clock::now();
    const FarmResult r = render_farm(scene, config);
    const double wall = wall_seconds(t0);
    if (!mode.journal) clean_wall = wall;
    const double overhead =
        clean_wall > 0.0 ? 100.0 * (wall - clean_wall) / clean_wall : 0.0;
    std::printf("%-20s %9.3fs %9.1f%% %9lld %12lld %12lld\n", mode.label,
                wall, overhead,
                static_cast<long long>(r.master.journal_records),
                static_cast<long long>(r.master.journal_bytes),
                static_cast<long long>(r.master.journal_checkpoints));
    const std::string prefix =
        std::string("journal.") + (mode.journal ? (mode.fsync ? "fsync" : "nofsync") : "off") + ".";
    bench::record_farm_metrics(prefix, r.metrics);
    bench::bench_registry().gauge(prefix + "wall_seconds").set(wall);
  }

  // -- resume cost ----------------------------------------------------------
  // The journal on disk is now complete. A full resume restores every frame
  // without rendering a single pixel; a half-truncated journal restores the
  // prefix and re-renders the rest.
  const std::string journal = dir + "/render.journal";
  std::printf("\n%-24s %10s %10s %10s %10s\n", "resume from", "wall",
              "restored", "demoted", "rendered");
  bench::print_rule(70);

  const JournalReplay replay = replay_journal(journal);
  const struct {
    const char* label;
    std::size_t keep;  // journal bytes to keep, 0 = whole file
  } cuts[] = {{"complete journal", 0},
              {"half the journal",
               replay.ok ? replay.record_offsets[replay.record_offsets.size() / 2]
                         : 0}};
  for (const auto& cut : cuts) {
    if (cut.keep != 0) {
      // Truncate in place: the previous resume left the journal complete
      // again, so re-read and slice it for the next round.
      std::string bytes;
      {
        std::ifstream f(journal, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(f),
                     std::istreambuf_iterator<char>());
      }
      std::ofstream f(journal, std::ios::binary | std::ios::trunc);
      f.write(bytes.data(), static_cast<std::streamsize>(cut.keep));
    }
    FarmConfig config = base_config(dir);
    config.journal_path = journal;
    config.journal_fsync = false;
    config.resume = true;
    const auto t0 = std::chrono::steady_clock::now();
    const FarmResult r = render_farm(scene, config);
    const double wall = wall_seconds(t0);
    std::int64_t rendered = 0;
    for (const WorkerReport& w : r.workers) rendered += w.frames_rendered;
    std::printf("%-24s %9.3fs %10d %10d %10lld\n", cut.label, wall,
                r.resume.frames_restored, r.resume.frames_demoted,
                static_cast<long long>(rendered));
    const std::string prefix = cut.keep == 0 ? "resume.full." : "resume.half.";
    bench::bench_registry().gauge(prefix + "wall_seconds").set(wall);
    bench::bench_registry()
        .counter(prefix + "frames_restored")
        .inc(static_cast<std::uint64_t>(r.resume.frames_restored));
  }
  std::printf("\nfull restore skips every ray; the half resume pays only for "
              "the un-journaled suffix\n(plus one dense restart frame per "
              "reclaimed range).\n");
  return 0;
}

}  // namespace
}  // namespace now

int main(int argc, char** argv) {
  const now::bench::BenchOptions opts = now::bench::parse_bench_options(argc, argv);
  const int rc = now::run(opts.quick);
  if (rc != 0) return rc;
  return now::bench::finish_bench(opts);
}
