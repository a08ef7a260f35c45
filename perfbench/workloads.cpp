#include "workloads.h"

#include <utility>

#include "src/scene/builtin_scenes.h"

namespace nowbench {
namespace {

/// splitmix64 over the seed: the seed's only consumer, so one seed yields
/// the same inputs on every platform.
class SeedStream {
 public:
  explicit SeedStream(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform in [lo, hi].
  int range(int lo, int hi) {
    return lo + static_cast<int>(next() %
                                 static_cast<std::uint64_t>(hi - lo + 1));
  }

 private:
  std::uint64_t state_;
};

// The paper's Newton animation: 45 frames, end marble released at 45°. The
// seed moves the release angle inside ±1.5°, which changes which pixels
// each frame recomputes without changing how much work a frame is.
constexpr int kFrames = 45;
constexpr double kReleaseAngle = 45.0;
constexpr double kReleaseBand = 1.5;
// The static hold is three times as long. On the TCP backend some calls
// take about 0.25 s longer, in stretches of calls (0.25 s is the TCP
// runtime's socket receive timeout); a longer call keeps that fixed cost a
// small share of the call, as in a real render, instead of a third of it.
constexpr int kHeldFrames = 3 * kFrames;

struct TenantDef {
  const char* name;
  double weight;
  int quota;
};
// Two tenants 2:1 with quota 2 each: with 3 workers both are always
// runnable, so the stride scheduler and the quota gate decide every grant.
constexpr TenantDef kTenants[] = {{"studio", 2.0, 2}, {"indie", 1.0, 2}};
constexpr int kShotsPerTenant = 10;
constexpr int kShotMinFrames = 3;
constexpr int kShotMaxFrames = 6;

/// The paper's Table 1 farm: 3 workers, 80×80 frame division, coherence on,
/// delta codec, frames kept in memory. One render thread per worker keeps
/// the busy ranks within a 4-core machine.
now::FarmConfig paper_farm() {
  now::FarmConfig c;
  c.backend = now::FarmBackend::kThreads;
  c.workers = 3;
  c.partition.scheme = now::PartitionScheme::kFrameDivision;
  c.partition.block_size = 80;
  c.coherence.threads = 1;
  c.frame_codec = now::FrameCodec::kDelta;
  return c;
}

now::AnimatedScene cradle(int width, int height, double angle, int frames) {
  now::CradleParams p;
  p.frames = frames;
  p.width = width;
  p.height = height;
  p.amplitude_degrees = angle;
  return now::newton_cradle_scene(p);
}

/// A closed batch: the tenant submits every shot at t = 0, in seed-shuffled
/// order, and waits for all of them. Adds the shots' frames to `*frames`.
/// Shots may overlap in scene frames; each renders its own copy.
now::ClientScript tenant_script(const TenantDef& tenant, int scene_frames,
                                SeedStream* rng, int* frames) {
  now::ClientScript script;
  for (int i = 0; i < kShotsPerTenant; ++i) {
    now::ClientAction a;
    a.at_seconds = 0.0;
    a.kind = now::ClientActionKind::kSubmit;
    a.submit.tenant = tenant.name;
    a.submit.weight = tenant.weight;
    a.submit.quota = tenant.quota;
    // Lengths cycle through a fixed set so every seed renders the same
    // number of frames and tasks; the seed picks where each shot starts.
    a.submit.frame_count =
        kShotMinFrames + i % (kShotMaxFrames - kShotMinFrames + 1);
    a.submit.first_frame = rng->range(0, scene_frames - a.submit.frame_count);
    *frames += a.submit.frame_count;
    script.actions.push_back(a);
  }
  for (int i = kShotsPerTenant - 1; i > 0; --i) {
    std::swap(script.actions[static_cast<std::size_t>(i)],
              script.actions[static_cast<std::size_t>(rng->range(0, i))]);
  }
  for (int i = 0; i < kShotsPerTenant; ++i) {
    script.actions[static_cast<std::size_t>(i)].submit.client_ref = i;
  }
  return script;
}

}  // namespace

const std::vector<WorkloadSpec>& workload_specs() {
  // Busy ranks: 3 workers + the assembling master; for the durable hold,
  // 2 workers + 2 shards (its thin scheduler only routes digests).
  static const std::vector<WorkloadSpec> specs = {
      {"paper_newton", 4, false},
      {"newton_no_coherence", 4, false},
      {"held_shot_durable", 4, true},
      {"tenant_shots", 4, false},
  };
  return specs;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& spec : workload_specs()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

WorkloadInputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed,
                           const std::string& output_dir) {
  SeedStream rng(seed);
  const std::string name = spec.name;
  WorkloadInputs in;
  in.config = paper_farm();
  if (name == "held_shot_durable") {
    // A static hold: nothing moves, so after each task's first frame the
    // workers trace nothing and the time goes to per-frame fixed costs,
    // the worker→shard mesh, journaling and frame files. The seed has
    // nothing to vary here.
    in.scene = cradle(640, 480, 0.0, kHeldFrames);
    in.config.backend = now::FarmBackend::kTcp;
    in.config.workers = 2;
    in.config.shards = 2;
    in.config.output_dir = output_dir;
    in.config.journal_path = output_dir + "/render.journal";
    in.config.journal_fsync = true;
    // 160×160 tiles: 12 region-frames (journal commits) per frame instead
    // of 48, so per-region fixed costs weigh less against the frame work.
    in.config.partition.block_size = 160;
  } else {
    in.release_angle_degrees =
        kReleaseAngle + kReleaseBand * (2.0 * rng.uniform() - 1.0);
    in.scene = cradle(320, 240, in.release_angle_degrees, kFrames);
    if (name == "newton_no_coherence") in.config.coherence.enabled = false;
  }
  in.frames_expected = in.scene.frame_count();
  if (name == "tenant_shots") {
    in.config.service.enabled = true;
    in.frames_expected = 0;
    for (const TenantDef& tenant : kTenants) {
      in.config.service.clients.push_back(tenant_script(
          tenant, in.scene.frame_count(), &rng, &in.frames_expected));
    }
  }
  return in;
}

}  // namespace nowbench
