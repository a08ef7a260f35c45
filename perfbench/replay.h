// Traced replay: one farm run's work, single-threaded, through each layer's
// public functions, with a bench-side span around every call.
//
// The replay lays out the initial tasks with make_initial_tasks (per shot in
// service mode) and walks each task's region-frames in the order a worker
// renders them and a master or shard commits them:
//
//   worker:  scene.world_at, core.detect (changed objects, dirty voxels,
//            dirty pixels), scene.accel_build, trace.shade (no listener),
//            core.mark (the frame's recorded ray segments fed through a
//            RayRecorder into the task's CoherenceGrid, with begin_pixel
//            retirement), image.payload, par.encode
//   master:  par.decode, image.apply, ckpt.commit, image.tga_write and
//            shard.complete when a frame's last region lands
//
// Ray segments for core.mark are captured in a separate, untraced-layer
// shading pass (span "bench.record"), so trace.shade and core.mark each time
// only their own layer. A fidelity pass also renders every region-frame with
// CoherentRenderer::render_frame and checks the replay against it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "spans.h"
#include "workloads.h"

namespace nowbench {

struct ReplayOptions {
  /// Compare every region-frame against CoherentRenderer::render_frame and
  /// time render_frame.
  bool fidelity = false;
  /// Scratch directory for the durable workload's journal and frames
  /// (recreated by the replay).
  std::string work_dir;
};

struct ReplayTotals {
  double wall_seconds = 0.0;  // the whole pass
  std::int64_t world_builds = 0;  // one per region-frame
  std::int64_t full_frames = 0;
  std::int64_t region_pixels = 0;
  std::int64_t pixels_recomputed = 0;
  std::uint64_t rays = 0;
  std::int64_t voxels_marked = 0;
  std::int64_t dirty_voxels = 0;
  // The same counts over full renders only (coherence restarts).
  std::uint64_t full_rays = 0;
  std::int64_t full_voxels_marked = 0;
  std::int64_t full_region_pixels = 0;
  /// digest_rect timed on its own after each journaled commit; the same
  /// digest also runs inside ckpt.commit, so this is a probe, not a span.
  double digest_probe_seconds = 0.0;
  // Fidelity pass only.
  double render_frame_seconds = 0.0;
  double full_render_frame_seconds = 0.0;  // render_frame on full renders
  double full_mark_seconds = 0.0;          // core.mark on full renders
  std::int64_t fidelity_mismatches = 0;
  // Assembled frames checked against the reference digests.
  std::int64_t frames_checked = 0;
  std::int64_t frames_failed = 0;
};

ReplayTotals run_replay(const WorkloadInputs& in,
                        const std::vector<std::uint32_t>& reference,
                        const ReplayOptions& options, SpanRecorder* spans);

}  // namespace nowbench
