// Multi-tenant render service: job-queue protocol codecs, admission and
// rejection, weighted-fair scheduling, quotas, cancel, preemption, and the
// standing gates — sim determinism and per-shot byte-identity against a
// serial reference render.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>

#include "src/ckpt/recovery.h"
#include "src/image/image_io.h"
#include "src/par/jobqueue.h"
#include "src/par/partition.h"
#include "src/par/render_farm.h"
#include "src/par/serial.h"
#include "src/scene/builtin_scenes.h"

namespace now {
namespace {

// ---------------------------------------------------------------- codecs --

TEST(JobQueueCodec, RoundTripsEveryMessage) {
  ShotSubmit sub;
  sub.client_ref = 7;
  sub.tenant = "acme.films";
  sub.weight = 2.5;
  sub.quota = 3;
  sub.scene_id = 1;
  sub.first_frame = 4;
  sub.frame_count = 12;
  sub.label = "shot-042";
  ShotSubmit sub2;
  ASSERT_TRUE(decode_shot_submit(&sub2, encode_shot_submit(sub)));
  EXPECT_EQ(sub, sub2);

  ShotAccept acc;
  acc.client_ref = 7;
  acc.shot_id = 3;
  acc.base_frame = 24;
  ShotAccept acc2;
  ASSERT_TRUE(decode_shot_accept(&acc2, encode_shot_accept(acc)));
  EXPECT_EQ(acc, acc2);
  EXPECT_TRUE(acc2.accepted());

  ShotAccept rej;
  rej.client_ref = 8;
  rej.shot_id = -1;
  rej.error = "frame range outside scene";
  ShotAccept rej2;
  ASSERT_TRUE(decode_shot_accept(&rej2, encode_shot_accept(rej)));
  EXPECT_EQ(rej, rej2);
  EXPECT_FALSE(rej2.accepted());

  ShotStatusRequest req;
  req.shot_id = 3;
  ShotStatusRequest req2;
  ASSERT_TRUE(
      decode_shot_status_request(&req2, encode_shot_status_request(req)));
  EXPECT_EQ(req, req2);

  ShotStatusReply reply;
  reply.shot_id = 3;
  reply.known = 1;
  reply.phase = ShotPhase::kCancelled;
  reply.frames_done = 5;
  reply.frame_count = 12;
  ShotStatusReply reply2;
  ASSERT_TRUE(
      decode_shot_status_reply(&reply2, encode_shot_status_reply(reply)));
  EXPECT_EQ(reply, reply2);

  ShotCancel cancel;
  cancel.shot_id = 3;
  ShotCancel cancel2;
  ASSERT_TRUE(decode_shot_cancel(&cancel2, encode_shot_cancel(cancel)));
  EXPECT_EQ(cancel, cancel2);

  ShotUpdate update;
  update.shot_id = 3;
  update.phase = ShotPhase::kDone;
  update.frames_done = 12;
  ShotUpdate update2;
  ASSERT_TRUE(decode_shot_update(&update2, encode_shot_update(update)));
  EXPECT_EQ(update, update2);
}

TEST(JobQueueCodec, RejectsMalformedPayloads) {
  ShotSubmit sub;
  sub.tenant = "t";
  sub.frame_count = 1;
  const std::string good = encode_shot_submit(sub);

  ShotSubmit out;
  EXPECT_FALSE(decode_shot_submit(&out, ""));  // empty

  std::string bad_version = good;
  bad_version[0] = static_cast<char>(kJobQueueVersion + 1);
  EXPECT_FALSE(decode_shot_submit(&out, bad_version));

  EXPECT_FALSE(  // truncated body
      decode_shot_submit(&out, good.substr(0, good.size() - 1)));

  EXPECT_FALSE(decode_shot_submit(&out, good + "x"));  // trailing bytes

  ShotAccept acc_out;
  EXPECT_FALSE(decode_shot_accept(&acc_out, good));  // wrong message shape

  // An out-of-range phase byte must be refused, not cast blindly.
  WireWriter w;
  w.u8(kJobQueueVersion);
  w.i32(3);       // shot_id
  w.u8(7);        // phase: no such ShotPhase
  w.i32(1);       // frames_done
  ShotUpdate update_out;
  EXPECT_FALSE(decode_shot_update(&update_out, w.take()));

  WireWriter w2;
  w2.u8(kJobQueueVersion);
  w2.i32(3);      // shot_id
  w2.u8(1);       // known
  w2.u8(200);     // phase: out of range
  w2.i32(1);      // frames_done
  w2.i32(4);      // frame_count
  ShotStatusReply reply_out;
  EXPECT_FALSE(decode_shot_status_reply(&reply_out, w2.take()));
}

TEST(JobQueueCodec, RenderTaskCarriesSceneMapping) {
  RenderTask task;
  task.task_id = 42;
  task.region = PixelRect{0, 0, 48, 36};
  task.first_frame = 10;
  task.frame_count = 4;
  task.trace_ctx = 99;
  task.scene_id = 2;
  task.frame_delta = -6;
  RenderTask task2;
  ASSERT_TRUE(decode_task(&task2, encode_task(task)));
  EXPECT_EQ(task, task2);
}

// --------------------------------------------------------------- helpers --

ClientAction submit_at(double t, const std::string& tenant, double weight,
                       int quota, int first, int count, int scene_id = 0,
                       const std::string& label = "") {
  ClientAction a;
  a.at_seconds = t;
  a.kind = ClientActionKind::kSubmit;
  a.submit.tenant = tenant;
  a.submit.weight = weight;
  a.submit.quota = quota;
  a.submit.scene_id = scene_id;
  a.submit.first_frame = first;
  a.submit.frame_count = count;
  a.submit.label = label;
  return a;
}

ClientAction cancel_at(double t, int submit_index) {
  ClientAction a;
  a.at_seconds = t;
  a.kind = ClientActionKind::kCancel;
  a.submit_index = submit_index;
  return a;
}

ClientAction status_at(double t, int submit_index) {
  ClientAction a;
  a.at_seconds = t;
  a.kind = ClientActionKind::kStatus;
  a.submit_index = submit_index;
  return a;
}

FarmConfig service_config(int workers) {
  FarmConfig config;
  config.backend = FarmBackend::kSim;
  config.worker_speeds.assign(static_cast<std::size_t>(workers), 1.0);
  config.partition.scheme = PartitionScheme::kFrameDivision;
  config.partition.block_size = 16;
  config.service.enabled = true;
  return config;
}

std::vector<Framebuffer> reference_range(const AnimatedScene& scene,
                                         int first, int count,
                                         const TraceOptions& trace) {
  std::vector<Framebuffer> out;
  for (int f = first; f < first + count; ++f) {
    out.push_back(
        render_world(scene.world_at(f), scene.width(), scene.height(), trace));
  }
  return out;
}

void expect_shot_matches(const FarmResult::ShotResult& shot,
                         const AnimatedScene& scene,
                         const TraceOptions& trace, const std::string& label) {
  const auto ref = reference_range(scene, shot.summary.scene_first_frame,
                                   shot.summary.frame_count, trace);
  ASSERT_EQ(shot.frames.size(), ref.size()) << label;
  for (std::size_t f = 0; f < ref.size(); ++f) {
    ASSERT_EQ(shot.frames[f], ref[f])
        << label << " shot " << shot.summary.shot_id << " frame " << f;
  }
}

const TenantSummary& tenant_named(const FarmResult& result,
                                  const std::string& name) {
  for (const TenantSummary& t : result.tenants) {
    if (t.name == name) return t;
  }
  ADD_FAILURE() << "no tenant named " << name;
  static const TenantSummary kEmpty{};
  return kEmpty;
}

std::string unique_dir(const std::string& stem) {
  static int counter = 0;
  std::string dir = ::testing::TempDir();
  if (!dir.empty() && dir.back() == '/') dir.pop_back();
  dir += "/" + stem + "_" +
         std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
         "_" + std::to_string(counter++);
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

int tenant_index(const FarmResult& result, const std::string& name) {
  for (int t = 0; t < static_cast<int>(result.tenants.size()); ++t) {
    if (result.tenants[t].name == name) return t;
  }
  return -1;
}

// ------------------------------------------------------------ end-to-end --

TEST(Service, SingleShotMatchesReference) {
  const AnimatedScene scene = orbit_scene(3, 8, 48, 36);
  FarmConfig config = service_config(2);
  ClientScript script;
  script.actions.push_back(submit_at(0.0, "solo", 1.0, 0, 2, 5));
  config.service.clients.push_back(script);

  const FarmResult result = render_farm(scene, config);
  ASSERT_EQ(result.shots.size(), 1u);
  EXPECT_EQ(result.shots[0].summary.phase, ShotPhase::kDone);
  EXPECT_EQ(result.shots[0].summary.frames_done, 5);
  EXPECT_EQ(result.master.shots_submitted, 1);
  EXPECT_EQ(result.master.shots_completed, 1);
  ASSERT_EQ(result.clients.size(), 1u);
  ASSERT_EQ(result.clients[0].shot_ids.size(), 1u);
  EXPECT_EQ(result.clients[0].shot_ids[0], 0);
  expect_shot_matches(result.shots[0], scene, config.coherence.trace,
                      "single");
  // The submitting client hears the terminal phase without polling.
  ASSERT_FALSE(result.clients[0].updates.empty());
  EXPECT_EQ(result.clients[0].updates.back().phase, ShotPhase::kDone);
}

TEST(Service, WritesEachShotsFramesUnderItsOwnNames) {
  // With output_dir set, each shot's frames land as
  // <prefix>-<tenant>-shot<id>[-<label>]_<scene-local frame>.tga — never
  // under the classic global-frame names — and each file holds exactly the
  // shot's in-memory frame.
  const AnimatedScene scene = orbit_scene(3, 8, 48, 36);
  const std::string dir = unique_dir("service_tga");
  FarmConfig config = service_config(2);
  config.output_dir = dir;
  config.output_prefix = "svc";
  ClientScript first, second;
  first.actions.push_back(submit_at(0.0, "acme", 2.0, 0, 1, 3));
  second.actions.push_back(submit_at(0.0, "indie", 1.0, 0, 4, 2, 0, "take2"));
  config.service.clients.push_back(first);
  config.service.clients.push_back(second);

  const FarmResult result = render_farm(scene, config);
  ASSERT_EQ(result.shots.size(), 2u);
  int files = 0;
  for (const FarmResult::ShotResult& shot : result.shots) {
    const ShotSummary& s = shot.summary;
    ASSERT_EQ(s.phase, ShotPhase::kDone) << s.tenant;
    ASSERT_EQ(static_cast<int>(shot.frames.size()), s.frame_count);
    std::string stem = dir + "/svc-" + s.tenant + "-shot" +
                       std::to_string(s.shot_id);
    if (!s.label.empty()) stem += "-" + s.label;
    for (int f = 0; f < s.frame_count; ++f) {
      char suffix[32];
      std::snprintf(suffix, sizeof(suffix), "_%04d.tga",
                    s.scene_first_frame + f);
      const std::string path = stem + suffix;
      Framebuffer disk;
      ASSERT_TRUE(read_tga(&disk, path)) << path;
      EXPECT_EQ(disk, shot.frames[static_cast<std::size_t>(f)]) << path;
      ++files;
    }
  }
  EXPECT_EQ(files, 5);
  Framebuffer unused;
  for (int f = 0; f < 5; ++f) {
    EXPECT_FALSE(read_tga(&unused, frame_file_path(dir, "svc", f)));
  }
  expect_shot_matches(result.shots[0], scene, config.coherence.trace, "acme");
  expect_shot_matches(result.shots[1], scene, config.coherence.trace, "indie");
}

TEST(Service, TwoTenantsWeighted2to1) {
  const AnimatedScene scene = orbit_scene(3, 8, 48, 36);
  FarmConfig config = service_config(2);
  ClientScript heavy, light;
  for (int i = 0; i < 6; ++i) {
    heavy.actions.push_back(submit_at(0.0, "heavy", 2.0, 0, 0, 4));
    light.actions.push_back(submit_at(0.0, "light", 1.0, 0, 0, 4));
  }
  config.service.clients.push_back(heavy);
  config.service.clients.push_back(light);

  const FarmResult result = render_farm(scene, config);
  ASSERT_EQ(result.shots.size(), 12u);
  for (const auto& shot : result.shots) {
    EXPECT_EQ(shot.summary.phase, ShotPhase::kDone);
    expect_shot_matches(shot, scene, config.coherence.trace, "weighted");
  }

  // Fairness gate: over the contended window — the prefix of the grant log
  // where both tenants still have work — the heavy tenant's pixel-frame
  // units must track its 2:1 weight. End-of-run totals are equal by
  // construction (every shot completes), so the window is what the
  // scheduler actually controls.
  const int heavy_id = tenant_index(result, "heavy");
  const int light_id = tenant_index(result, "light");
  ASSERT_GE(heavy_id, 0);
  ASSERT_GE(light_id, 0);
  int last_heavy = -1;
  int last_light = -1;
  for (int i = 0; i < static_cast<int>(result.assignment_log.size()); ++i) {
    if (result.assignment_log[i].tenant == heavy_id) last_heavy = i;
    if (result.assignment_log[i].tenant == light_id) last_light = i;
  }
  const int window_end = std::min(last_heavy, last_light);
  ASSERT_GE(window_end, 6) << "contended window too small to gate";
  double heavy_units = 0.0;
  double light_units = 0.0;
  for (int i = 0; i <= window_end; ++i) {
    const ServiceAssignment& grant = result.assignment_log[i];
    if (grant.tenant == heavy_id) heavy_units += grant.units;
    if (grant.tenant == light_id) light_units += grant.units;
  }
  ASSERT_GT(light_units, 0.0);
  const double ratio = heavy_units / light_units;
  EXPECT_GE(ratio, 1.4) << "heavy tenant under-served: " << ratio;
  EXPECT_LE(ratio, 3.0) << "heavy tenant over-served: " << ratio;
}

TEST(Service, QuotaCapsInflight) {
  const AnimatedScene scene = orbit_scene(3, 8, 48, 36);
  FarmConfig config = service_config(3);
  ClientScript capped, greedy;
  for (int i = 0; i < 4; ++i) {
    capped.actions.push_back(submit_at(0.0, "capped", 4.0, 1, 0, 4));
  }
  greedy.actions.push_back(submit_at(0.0, "greedy", 1.0, 0, 0, 8));
  config.service.clients.push_back(capped);
  config.service.clients.push_back(greedy);

  const FarmResult result = render_farm(scene, config);
  for (const auto& shot : result.shots) {
    EXPECT_EQ(shot.summary.phase, ShotPhase::kDone);
  }
  // Even with 4 shots queued and the highest weight, the capped tenant
  // never holds more than its quota of workers.
  EXPECT_LE(tenant_named(result, "capped").peak_inflight, 1);
  EXPECT_GE(tenant_named(result, "greedy").peak_inflight, 1);
}

TEST(Service, CancelMidFlightLeavesOtherShotIdentical) {
  const AnimatedScene scene = orbit_scene(3, 8, 48, 36);

  // Pass 1: no cancel — measures when the run ends so pass 2 can aim its
  // cancel at the middle of the flight. The sim makes this exact.
  FarmConfig config = service_config(2);
  ClientScript keeper, canceller;
  keeper.actions.push_back(submit_at(0.0, "keeper", 1.0, 0, 0, 6));
  canceller.actions.push_back(submit_at(0.0, "victim", 1.0, 0, 0, 6));
  config.service.clients.push_back(keeper);
  config.service.clients.push_back(canceller);
  const FarmResult full = render_farm(scene, config);
  ASSERT_EQ(full.shots.size(), 2u);
  const double mid = full.elapsed_seconds * 0.5;
  ASSERT_GT(mid, 0.0);

  config.service.clients[1].actions.push_back(cancel_at(mid, 0));
  const FarmResult result = render_farm(scene, config);

  ASSERT_EQ(result.shots.size(), 2u);
  const auto& kept = result.shots[0].summary.tenant == "keeper"
                         ? result.shots[0]
                         : result.shots[1];
  const auto& cancelled = result.shots[0].summary.tenant == "victim"
                              ? result.shots[0]
                              : result.shots[1];
  EXPECT_EQ(result.master.shots_cancelled, 1);
  EXPECT_EQ(cancelled.summary.phase, ShotPhase::kCancelled);
  EXPECT_LT(cancelled.summary.frames_done, cancelled.summary.frame_count);
  // The standing gate: the surviving shot's frames are byte-identical to a
  // solo serial render, cancel or no cancel.
  EXPECT_EQ(kept.summary.phase, ShotPhase::kDone);
  expect_shot_matches(kept, scene, config.coherence.trace, "kept");
  // The cancelling client heard the terminal phase.
  ASSERT_FALSE(result.clients[1].updates.empty());
  EXPECT_EQ(result.clients[1].updates.back().phase, ShotPhase::kCancelled);
  // A cancel ends the run earlier than rendering everything would have.
  EXPECT_LT(result.elapsed_seconds, full.elapsed_seconds);
}

TEST(Service, RejectsInvalidSubmits) {
  const AnimatedScene scene = orbit_scene(3, 8, 48, 36);
  FarmConfig config = service_config(2);
  ClientScript script;
  script.actions.push_back(submit_at(0.0, "", 1.0, 0, 0, 4));     // no tenant
  script.actions.push_back(submit_at(0.0, "t", -1.0, 0, 0, 4));   // weight
  script.actions.push_back(submit_at(0.0, "t", 1.0, 0, 0, 99));   // range
  script.actions.push_back(submit_at(0.0, "t", 1.0, 0, 0, 4, 5));  // scene_id
  ClientAction malformed;
  malformed.at_seconds = 0.0;
  malformed.kind = ClientActionKind::kMalformed;
  malformed.raw = "not a ShotSubmit";
  script.actions.push_back(malformed);
  script.actions.push_back(submit_at(0.0, "t", 1.0, 0, 2, 3));    // good
  config.service.clients.push_back(script);

  const FarmResult result = render_farm(scene, config);
  EXPECT_EQ(result.master.shots_rejected, 5);
  EXPECT_EQ(result.master.shots_submitted, 1);
  ASSERT_EQ(result.clients.size(), 1u);
  const ClientReport& report = result.clients[0];
  ASSERT_EQ(report.shot_ids.size(), 6u);
  EXPECT_EQ(report.rejects, 5);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(report.shot_ids[i], -1) << "submit " << i;
    EXPECT_FALSE(report.errors[i].empty()) << "submit " << i;
  }
  EXPECT_GE(report.shot_ids[5], 0);
  EXPECT_TRUE(report.errors[5].empty());
  ASSERT_EQ(result.shots.size(), 1u);
  EXPECT_EQ(result.shots[0].summary.phase, ShotPhase::kDone);
  expect_shot_matches(result.shots[0], scene, config.coherence.trace,
                      "survivor");
}

TEST(Service, StatusRepliesTrackProgress) {
  const AnimatedScene scene = orbit_scene(3, 8, 48, 36);
  FarmConfig config = service_config(2);
  ClientScript script;
  script.actions.push_back(submit_at(0.0, "poller", 1.0, 0, 0, 6));
  script.actions.push_back(status_at(0.0, 0));     // parks until the accept
  script.actions.push_back(status_at(1000.0, 0));  // long after completion
  script.actions.push_back(status_at(1000.0, 99));  // no such submit: dropped
  config.service.clients.push_back(script);

  const FarmResult result = render_farm(scene, config);
  ASSERT_EQ(result.clients.size(), 1u);
  const ClientReport& report = result.clients[0];
  ASSERT_EQ(report.statuses.size(), 2u);
  for (const ShotStatusReply& reply : report.statuses) {
    EXPECT_EQ(reply.shot_id, report.shot_ids[0]);
    EXPECT_EQ(reply.known, 1);
    EXPECT_EQ(reply.frame_count, 6);
  }
  // The late poll sees the terminal phase with every frame done.
  EXPECT_EQ(report.statuses.back().phase, ShotPhase::kDone);
  EXPECT_EQ(report.statuses.back().frames_done, 6);
}

TEST(Service, PreemptsSpeculativeCloneUnderLoad) {
  const AnimatedScene scene = orbit_scene(3, 6, 48, 36);

  // Heterogeneous workers + end-game speculation: once the fast worker runs
  // out of queued tasks it clones a straggler's task. A tenant submitting
  // into that state finds every worker busy — the scheduler must preempt
  // the clone (duplicate work) rather than stall admitted work.
  FarmConfig solo;
  solo.backend = FarmBackend::kSim;
  solo.worker_speeds = {1.0, 1.0, 0.2};
  // Sequence division with adaptive stealing off: the shot splits into
  // exactly three static two-frame tasks, one per worker.
  solo.partition.scheme = PartitionScheme::kSequenceDivision;
  solo.partition.adaptive = false;
  solo.speculation = true;
  solo.service.enabled = true;
  solo.obs.trace = true;
  ClientScript first;
  first.actions.push_back(submit_at(0.0, "early", 1.0, 0, 0, 6));
  solo.service.clients.push_back(first);
  const FarmResult alone = render_farm(scene, solo);
  ASSERT_EQ(alone.shots.size(), 1u);
  ASSERT_EQ(alone.shots[0].summary.phase, ShotPhase::kDone);
  ASSERT_GE(alone.faults.speculations_launched, 1)
      << "scenario must reach end-game speculation";

  // The clone is in flight from the speculation launch until the shot
  // completes. The sim is deterministic, so the solo trace gives the exact
  // window; the midpoint is safely inside it. (Deriving the window from
  // elapsed_seconds would overshoot: the straggler's written-off compute
  // charge inflates the max rank clock past the actual finish.)
  double spec_at = -1.0;
  double done_at = -1.0;
  for (const TraceEvent& e : alone.trace_events) {
    const std::string name = e.name;
    if (spec_at < 0.0 && name == "task.speculate") spec_at = e.ts_seconds;
    if (done_at < 0.0 && name == "shot.done") done_at = e.ts_seconds;
  }
  ASSERT_GT(spec_at, 0.0);
  ASSERT_GT(done_at, spec_at);

  FarmConfig config = solo;
  ClientScript late;
  // Demand more tasks than the idle spare can absorb, so the backlog can
  // only drain by taking the clone's worker back.
  late.actions.push_back(
      submit_at((spec_at + done_at) / 2.0, "late", 1.0, 0, 0, 6));
  config.service.clients.push_back(late);
  const FarmResult result = render_farm(scene, config);

  ASSERT_EQ(result.shots.size(), 2u);
  for (const auto& shot : result.shots) {
    EXPECT_EQ(shot.summary.phase, ShotPhase::kDone);
    expect_shot_matches(shot, scene, config.coherence.trace, "preempt");
  }
  EXPECT_GE(result.master.preemptions, 1)
      << "late submit should preempt the speculative clone"
      << " (solo elapsed " << alone.elapsed_seconds << ", solo specs "
      << alone.faults.speculations_launched << ", combined specs "
      << result.faults.speculations_launched << ", combined elapsed "
      << result.elapsed_seconds << ", grants " << result.assignment_log.size()
      << ")";
}

TEST(Service, MultiSceneShots) {
  const AnimatedScene primary = orbit_scene(3, 8, 48, 36);
  const AnimatedScene extra = orbit_scene(5, 6, 48, 36);
  FarmConfig config = service_config(2);
  config.service.extra_scenes.push_back(&extra);
  ClientScript script;
  script.actions.push_back(submit_at(0.0, "t", 1.0, 0, 1, 4, 0, "prime"));
  script.actions.push_back(submit_at(0.0, "t", 1.0, 0, 2, 3, 1, "extra"));
  config.service.clients.push_back(script);

  const FarmResult result = render_farm(primary, config);
  ASSERT_EQ(result.shots.size(), 2u);
  for (const auto& shot : result.shots) {
    EXPECT_EQ(shot.summary.phase, ShotPhase::kDone);
    const AnimatedScene& scene = shot.summary.scene_id == 0 ? primary : extra;
    expect_shot_matches(shot, scene, config.coherence.trace,
                        shot.summary.label);
  }
}

/// One task.assign decision: which task, which frames, and the region the
/// task id names in the partition.
struct Assignment {
  std::int64_t task = -1;
  std::int64_t first_frame = 0;
  std::int64_t frames = 0;
  PixelRect region;
  bool operator==(const Assignment& o) const {
    return task == o.task && first_frame == o.first_frame &&
           frames == o.frames && region.x0 == o.region.x0 &&
           region.y0 == o.region.y0 && region.width == o.region.width &&
           region.height == o.region.height;
  }
};

std::int64_t trace_arg(const TraceEvent& e, const std::string& key) {
  for (const TraceEvent::Arg& a : e.args) {
    if (key == a.key) return a.value;
  }
  ADD_FAILURE() << e.name << " has no arg " << key;
  return -1;
}

/// The ordered task.assign instants of a traced run. The instant carries no
/// region, so each task's region is looked up in `partition` by task id and
/// checked against the pixel count the workers actually rendered for it.
std::vector<Assignment> assignments(const FarmResult& result,
                                    const std::vector<RenderTask>& partition) {
  std::map<std::int64_t, std::int64_t> rendered_area;  // task → pixels
  std::map<int, std::int64_t> open_task;               // rank → task
  for (const TraceEvent& e : result.trace_events) {
    if (std::string(e.name) != "frame.render") continue;
    if (e.phase == TraceEvent::Phase::kBegin) {
      open_task[e.rank] = trace_arg(e, "task");
    } else if (e.phase == TraceEvent::Phase::kEnd) {
      rendered_area[open_task[e.rank]] = trace_arg(e, "pixels_total");
    }
  }
  std::vector<Assignment> out;
  for (const TraceEvent& e : result.trace_events) {
    if (std::string(e.name) != "task.assign") continue;
    Assignment a;
    a.task = trace_arg(e, "task");
    a.first_frame = trace_arg(e, "first_frame");
    a.frames = trace_arg(e, "frames");
    if (a.task < 0 || a.task >= static_cast<std::int64_t>(partition.size())) {
      ADD_FAILURE() << "task " << a.task << " is not an initial task";
      continue;
    }
    a.region = partition[a.task].region;
    EXPECT_EQ(rendered_area[a.task], a.region.area()) << "task " << a.task;
    out.push_back(a);
  }
  return out;
}

TEST(Service, ClassicRunEqualsOneShotService) {
  // A classic run is the one-built-in-shot case of the scheduler, so a
  // service run whose one client submits the whole animation as one shot
  // (weight 1, no quota) must assign the same tasks in the same order and
  // render the same bytes. Adaptive splits are off so grant timing cannot
  // reorder work.
  const AnimatedScene scene = orbit_scene(3, 8, 48, 36);
  for (const PartitionScheme scheme :
       {PartitionScheme::kSequenceDivision, PartitionScheme::kFrameDivision,
        PartitionScheme::kHybrid}) {
    const std::string label = to_string(scheme);
    FarmConfig classic = service_config(3);
    classic.service.enabled = false;
    classic.partition.scheme = scheme;
    classic.partition.adaptive = false;
    classic.partition.hybrid_frames = 3;
    classic.obs.trace = true;
    FarmConfig service = classic;
    service.service.enabled = true;
    ClientScript script;
    script.actions.push_back(
        submit_at(0.0, "solo", 1.0, 0, 0, scene.frame_count()));
    service.service.clients.push_back(script);

    const FarmResult c = render_farm(scene, classic);
    const FarmResult s = render_farm(scene, service);
    ASSERT_EQ(s.shots.size(), 1u) << label;
    EXPECT_EQ(s.shots[0].summary.phase, ShotPhase::kDone) << label;
    EXPECT_TRUE(c.shots.empty()) << label;  // the built-in shot is no shot
    ASSERT_EQ(c.frames.size(), s.shots[0].frames.size()) << label;
    for (std::size_t f = 0; f < c.frames.size(); ++f) {
      EXPECT_EQ(c.frames[f], s.shots[0].frames[f]) << label << " frame " << f;
    }

    // The partition the task ids index, camera cuts included.
    PartitionConfig partition = classic.partition;
    if (scheme == PartitionScheme::kSequenceDivision) {
      for (const AnimatedScene::Shot& cut : scene.split_shots()) {
        if (cut.first_frame > 0) {
          partition.sequence_cuts.push_back(cut.first_frame);
        }
      }
    }
    const std::vector<RenderTask> tasks =
        make_initial_tasks(partition, scene.width(), scene.height(),
                           scene.frame_count(), 3);
    const std::vector<Assignment> ca = assignments(c, tasks);
    const std::vector<Assignment> sa = assignments(s, tasks);
    EXPECT_EQ(ca.size(), tasks.size()) << label;
    ASSERT_EQ(ca.size(), sa.size()) << label;
    for (std::size_t i = 0; i < ca.size(); ++i) {
      EXPECT_TRUE(ca[i] == sa[i])
          << label << " assignment " << i << ": classic task " << ca[i].task
          << " frames " << ca[i].first_frame << "+" << ca[i].frames
          << ", service task " << sa[i].task << " frames "
          << sa[i].first_frame << "+" << sa[i].frames;
    }
  }
}

TEST(Service, SimRunsAreDeterministic) {
  const AnimatedScene scene = orbit_scene(3, 8, 48, 36);
  FarmConfig config = service_config(2);
  ClientScript a, b;
  for (int i = 0; i < 3; ++i) {
    a.actions.push_back(submit_at(0.0, "a", 2.0, 0, 0, 4));
    b.actions.push_back(submit_at(0.0, "b", 1.0, 1, 0, 4));
  }
  config.service.clients.push_back(a);
  config.service.clients.push_back(b);

  const FarmResult x = render_farm(scene, config);
  const FarmResult y = render_farm(scene, config);
  EXPECT_EQ(x.elapsed_seconds, y.elapsed_seconds);
  EXPECT_EQ(x.runtime.messages, y.runtime.messages);
  ASSERT_EQ(x.assignment_log.size(), y.assignment_log.size());
  for (std::size_t i = 0; i < x.assignment_log.size(); ++i) {
    EXPECT_EQ(x.assignment_log[i].tenant, y.assignment_log[i].tenant);
    EXPECT_EQ(x.assignment_log[i].shot_id, y.assignment_log[i].shot_id);
    EXPECT_EQ(x.assignment_log[i].units, y.assignment_log[i].units);
  }
  ASSERT_EQ(x.shots.size(), y.shots.size());
  for (std::size_t s = 0; s < x.shots.size(); ++s) {
    ASSERT_EQ(x.shots[s].frames.size(), y.shots[s].frames.size());
    for (std::size_t f = 0; f < x.shots[s].frames.size(); ++f) {
      ASSERT_EQ(x.shots[s].frames[f], y.shots[s].frames[f])
          << "shot " << s << " frame " << f;
    }
  }
}

TEST(Service, TcpSmoke) {
  const AnimatedScene scene = orbit_scene(3, 4, 48, 36);
  FarmConfig config;
  config.backend = FarmBackend::kTcp;
  config.workers = 2;
  config.partition.scheme = PartitionScheme::kFrameDivision;
  config.service.enabled = true;
  ClientScript a, b;
  a.actions.push_back(submit_at(0.0, "a", 2.0, 0, 0, 2));
  b.actions.push_back(submit_at(0.0, "b", 1.0, 0, 2, 2));
  config.service.clients.push_back(a);
  config.service.clients.push_back(b);

  const FarmResult result = render_farm(scene, config);
  ASSERT_EQ(result.shots.size(), 2u);
  for (const auto& shot : result.shots) {
    EXPECT_EQ(shot.summary.phase, ShotPhase::kDone);
    expect_shot_matches(shot, scene, config.coherence.trace, "tcp");
  }
}

TEST(Service, ValidatesConfig) {
  const AnimatedScene scene = orbit_scene(3, 4, 48, 36);
  FarmConfig base = service_config(2);
  ClientScript script;
  script.actions.push_back(submit_at(0.0, "t", 1.0, 0, 0, 2));
  base.service.clients.push_back(script);
  ASSERT_NO_THROW(validate_farm_config(scene, base));

  FarmConfig no_clients = base;
  no_clients.service.clients.clear();
  EXPECT_THROW(validate_farm_config(scene, no_clients),
               std::invalid_argument);

  FarmConfig sharded = base;
  sharded.shards = 2;
  EXPECT_THROW(validate_farm_config(scene, sharded), std::invalid_argument);

  FarmConfig journaled = base;
  journaled.output_dir = ".";
  journaled.journal_path = "svc.journal";
  EXPECT_THROW(validate_farm_config(scene, journaled),
               std::invalid_argument);

  FarmConfig bad_scene = base;
  const AnimatedScene wrong_dims = orbit_scene(3, 4, 64, 48);
  bad_scene.service.extra_scenes.push_back(&wrong_dims);
  EXPECT_THROW(validate_farm_config(scene, bad_scene),
               std::invalid_argument);

  FarmConfig bad_time = base;
  bad_time.service.clients[0].actions[0].at_seconds = -1.0;
  EXPECT_THROW(validate_farm_config(scene, bad_time), std::invalid_argument);
}

}  // namespace
}  // namespace now
