// Wire cost of frame delivery: raw vs delta codec across dirty fractions.
//
// The paper's cluster shares one 10 Mb/s Ethernet, so every byte a worker
// ships back to the master is contended medium time. Frame coherence means
// most of an incremental frame's pixels are bytes the master already has;
// the delta codec (value-diffed sparse payloads + RLE/byte-delta
// compression, dense key frames where coherence restarts) makes the wire
// cost proportional to *change*. This bench sweeps scenes from near-static
// to a mid-sequence camera cut, prices both codecs in wire bytes and
// simulated Ethernet time, and then holds the hard gate: final frames must
// be byte-identical to a serial render on every backend and codec, across a
// resume, and under fault injection. Exit code is non-zero if any
// identity check (or the headline compression ratio) fails.
#include <sys/stat.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/ckpt/journal.h"
#include "src/geom/plane.h"
#include "src/geom/sphere.h"
#include "src/par/render_farm.h"

namespace now {
namespace {

/// The delta codec's home turf: a gray still-life where one small sphere
/// drifts at a fraction of a pixel per frame. The voxel-granular change
/// predictor conservatively recomputes the sphere's whole footprint and
/// shadow every frame, but almost none of those pixels change value — raw
/// sparse returns ship the full footprint, delta ships the thin crescent
/// that actually moved. The gray palette keeps shading gradients byte-delta
/// compressible, so even the dense key frames shrink.
AnimatedScene low_motion_scene(int frames, int width, int height) {
  AnimatedScene scene;
  scene.set_frames(frames, 15.0);
  scene.set_resolution(width, height);
  scene.set_background(Color{0.06, 0.06, 0.06});

  Material floor_m = Material::textured(std::make_shared<CheckerTexture>(
      Color{0.55, 0.55, 0.55}, Color{0.25, 0.25, 0.25}, 2.5));
  const int floor_mat = scene.add_material(floor_m);
  scene.add_object("floor", std::make_unique<Plane>(Vec3{0, 1, 0}, 0.0),
                   floor_mat);

  const int prop = scene.add_material(Material::matte(Color::gray(0.7)));
  scene.add_object("prop0", std::make_unique<Sphere>(Vec3{-1.2, 0.5, -0.6}, 0.5),
                   prop);
  scene.add_object("prop1", std::make_unique<Sphere>(Vec3{1.3, 0.35, 0.4}, 0.35),
                   prop);

  const int mover = scene.add_material(Material::matte(Color::gray(0.45)));
  scene.add_object("drift", std::make_unique<Sphere>(Vec3{1.1, 0.9, 0.0}, 0.42),
                   mover,
                   std::make_unique<OrbitAnimator>(Vec3{0, 0.9, 0},
                                                   Vec3{0, 1, 0}, 60.0));

  scene.add_light(Light::point({3, 5, 3}, Color::white(), 0.9));
  // A near-horizon view: the flat background fills the upper half of the
  // frame, so dense key frames are long constant runs for the compressor.
  scene.set_camera(Camera{{0, 1.4, 7.0},
                          {0, 1.3, 0},
                          {0, 1, 0},
                          42.0,
                          static_cast<double>(width) / height});
  return scene;
}

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (ok) return;
  ++g_failures;
  std::fprintf(stderr, "FAIL: %s\n", what.c_str());
}

std::vector<Framebuffer> reference_frames(const AnimatedScene& scene) {
  std::vector<Framebuffer> out;
  for (int f = 0; f < scene.frame_count(); ++f) {
    out.push_back(render_world(scene.world_at(f), scene.width(),
                               scene.height(), TraceOptions{}));
  }
  return out;
}

bool frames_equal(const std::vector<Framebuffer>& got,
                  const std::vector<Framebuffer>& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t f = 0; f < got.size(); ++f) {
    if (!(got[f] == want[f])) return false;
  }
  return true;
}

FarmConfig comms_config(FarmBackend backend, FrameCodec codec) {
  FarmConfig config;
  config.backend = backend;
  config.workers = 3;
  config.frame_codec = codec;
  // One render thread per worker: the wall-clock backends already run one
  // OS thread per rank, and identical shading order keeps runs comparable.
  if (backend != FarmBackend::kSim) config.coherence.threads = 1;
  return config;
}

double wall_seconds(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// -- Part 1: dirty-fraction sweep (sim, virtual Ethernet) -------------------

void sweep(const AnimatedScene& scene, const std::string& label,
           bool gate_5x) {
  const FarmResult raw =
      render_farm(scene, comms_config(FarmBackend::kSim, FrameCodec::kRaw));
  const FarmResult delta =
      render_farm(scene, comms_config(FarmBackend::kSim, FrameCodec::kDelta));
  check(frames_equal(raw.frames, delta.frames),
        label + ": delta frames differ from raw frames");

  const std::uint64_t raw_wire = raw.metrics.counter("net.frame_bytes_wire");
  const std::uint64_t delta_wire =
      delta.metrics.counter("net.frame_bytes_wire");
  const double ratio =
      delta_wire > 0 ? static_cast<double>(raw_wire) / delta_wire : 0.0;
  const double total_pixels =
      static_cast<double>(scene.frame_count()) * scene.width() *
      scene.height();
  const double dirty_pct =
      100.0 * delta.metrics.counter("coherence.pixels_recomputed") /
      total_pixels;

  std::printf("%-14s %7.1f%% %14s %14s %8.2fx %6llu %6llu %10.2f %10.2f\n",
              label.c_str(), dirty_pct,
              bench::with_commas(raw_wire).c_str(),
              bench::with_commas(delta_wire).c_str(), ratio,
              static_cast<unsigned long long>(
                  delta.metrics.counter("net.key_frames")),
              static_cast<unsigned long long>(
                  delta.metrics.counter("net.delta_frames")),
              raw.metrics.gauge("sim.ethernet_busy_seconds"),
              delta.metrics.gauge("sim.ethernet_busy_seconds"));

  const std::string prefix = "comms." + label + ".";
  bench::record_farm_metrics(prefix + "raw.", raw.metrics);
  bench::record_farm_metrics(prefix + "delta.", delta.metrics);
  bench::bench_registry().gauge(prefix + "wire_reduction").set(ratio);
  if (gate_5x) {
    check(ratio >= 5.0, label + ": wire reduction " + std::to_string(ratio) +
                            "x is below the 5x gate");
  }
}

// -- Part 2: backend identity + wall clock ----------------------------------

void backend_matrix(const AnimatedScene& scene,
                    const std::vector<Framebuffer>& ref) {
  std::printf("\n%-10s %-8s %12s   identical\n", "backend", "codec", "wall");
  bench::print_rule(45);
  for (const FarmBackend backend :
       {FarmBackend::kSim, FarmBackend::kThreads, FarmBackend::kTcp}) {
    for (const FrameCodec codec : {FrameCodec::kRaw, FrameCodec::kDelta}) {
      const auto t0 = std::chrono::steady_clock::now();
      const FarmResult r = render_farm(scene, comms_config(backend, codec));
      const double wall = wall_seconds(t0);
      const bool same = frames_equal(r.frames, ref);
      const std::string label =
          std::string(to_string(backend)) + "/" + to_string(codec);
      check(same, label + ": frames differ from the serial reference");
      std::printf("%-10s %-8s %11.3fs   %s\n", to_string(backend),
                  to_string(codec), wall, same ? "yes" : "NO");
      bench::bench_registry()
          .gauge("identity." + label + ".wall_seconds")
          .set(wall);
    }
  }
}

// -- Part 3: identity under fault injection ---------------------------------

void fault_runs(const AnimatedScene& scene,
                const std::vector<Framebuffer>& ref) {
  for (const FrameCodec codec : {FrameCodec::kRaw, FrameCodec::kDelta}) {
    FarmConfig config = comms_config(FarmBackend::kSim, codec);
    config.fault.enabled = true;
    config.fault.lease_base_seconds = 120.0;
    config.fault.lease_per_frame_seconds = 30.0;
    config.fault.ping_grace_seconds = 30.0;
    // Drop one frame result (breaks the sender's delta chain mid-task),
    // duplicate another, and kill a worker two frames into its task so the
    // reclaimed remainder must restart from a dense key frame.
    config.fault_plan.events.push_back(
        FaultPlan::drop_nth(2, 2, kTagFrameResult));
    config.fault_plan.events.push_back(
        FaultPlan::duplicate_nth(3, 3, kTagFrameResult));
    config.fault_plan.events.push_back(FaultPlan::crash_after_frames(1, 2));
    const FarmResult r = render_farm(scene, config);
    const bool same = frames_equal(r.frames, ref);
    check(same, std::string("faults/") + to_string(codec) +
                    ": frames differ from the serial reference");
    check(r.metrics.counter("net.frame_decode_failures") == 0,
          std::string("faults/") + to_string(codec) + ": decode failures");
    std::printf("faults     %-8s drop+dup+death        identical: %s\n",
                to_string(codec), same ? "yes" : "NO");
  }
}

// -- Part 4: identity across a crash + resume -------------------------------

void resume_run(const AnimatedScene& scene,
                const std::vector<Framebuffer>& ref) {
  const std::string dir = "bench_comms_out";
  ::mkdir(dir.c_str(), 0755);
  const std::string journal = dir + "/render.journal";

  FarmConfig config = comms_config(FarmBackend::kSim, FrameCodec::kDelta);
  // Sequence division: whole frames complete (and restore) per journal
  // record, so the halfway cut below leaves real work to skip.
  config.partition.scheme = PartitionScheme::kSequenceDivision;
  config.partition.adaptive = true;
  config.output_dir = dir;
  config.journal_path = journal;
  config.journal_fsync = false;
  render_farm(scene, config);

  // Cut the journal at its halfway record boundary — what a crash leaves —
  // then resume. The restored prefix comes from disk; the re-rendered
  // suffix starts from dense key frames; the result must still match.
  const JournalReplay replay = replay_journal(journal);
  if (replay.ok && replay.record_offsets.size() > 2) {
    std::string bytes;
    {
      std::ifstream f(journal, std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(f),
                   std::istreambuf_iterator<char>());
    }
    std::ofstream f(journal, std::ios::binary | std::ios::trunc);
    const std::size_t keep =
        replay.record_offsets[replay.record_offsets.size() / 2];
    f.write(bytes.data(), static_cast<std::streamsize>(keep));
  }
  config.resume = true;
  const FarmResult r = render_farm(scene, config);
  const bool same = frames_equal(r.frames, ref);
  check(r.resume.resumed, "resume: run did not actually resume");
  check(r.resume.frames_restored > 0, "resume: nothing was restored");
  check(same, "resume: frames differ from the serial reference");
  std::printf("resume     delta    restored %-2d frames    identical: %s\n",
              r.resume.frames_restored, same ? "yes" : "NO");
  bench::bench_registry()
      .counter("resume.frames_restored")
      .inc(static_cast<std::uint64_t>(r.resume.frames_restored));
}

int run(bool quick) {
  const int frames = quick ? 10 : 40;
  const int width = quick ? 96 : 192;
  const int height = quick ? 72 : 144;

  // The sweep spans the dirty-fraction axis: a fully static scene, the
  // near-static drift scene (the regime delta transport exists for), a busy
  // eight-sphere orbit, and a camera cut that forces a coherence restart
  // and a dense key frame mid-sequence.
  const AnimatedScene still = orbit_scene(0, frames, width, height);
  const AnimatedScene low = low_motion_scene(frames, width, height);
  const AnimatedScene busy = orbit_scene(8, frames, width, height);
  const AnimatedScene cut = two_shot_scene(frames, frames / 2);

  std::printf("frame transport — raw vs delta codec, %d frames, 3 workers\n\n",
              frames);
  std::printf("%-14s %8s %14s %14s %9s %6s %6s %10s %10s\n", "scene",
              "dirty", "raw wire", "delta wire", "reduce", "key", "delta",
              "eth raw", "eth delta");
  bench::print_rule(100);
  sweep(still, "static", /*gate_5x=*/false);
  sweep(low, "low-motion", /*gate_5x=*/true);
  sweep(busy, "busy", /*gate_5x=*/false);
  sweep(cut, "camera-cut", /*gate_5x=*/false);

  // Identity gates all run on the low-motion scene: the smallest payloads,
  // the longest delta chains, the least forgiving case for a codec bug.
  const std::vector<Framebuffer> ref = reference_frames(low);
  backend_matrix(low, ref);
  std::printf("\n");
  fault_runs(low, ref);
  resume_run(low, ref);

  std::printf("\n'dirty' is the fraction of pixels recomputed; 'eth' is "
              "virtual seconds the shared\nEthernet was busy. Every row must "
              "be byte-identical to a serial render.\n");
  if (g_failures > 0) {
    std::fprintf(stderr, "\n%d check(s) failed\n", g_failures);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace now

int main(int argc, char** argv) {
  const now::bench::BenchOptions opts =
      now::bench::parse_bench_options(argc, argv);
  // Write the metrics snapshot even when a gate fails: the numbers are what
  // you need to diagnose the failure.
  const int rc = now::run(opts.quick);
  const int finish_rc = now::bench::finish_bench(opts);
  return rc != 0 ? rc : finish_rc;
}
