// RenderWorker: the slave process of the paper's master/slave PVM program.
//
// A worker holds the coherence state of one region: the CoherentRenderer of
// its last task and the framebuffer holding that region's last frame. A task
// for the same region of the same scene continues from that state, whatever
// frame it starts at (a steal, a reassignment, the next shot of the scene):
// its first frame recomputes only the pixels whose rays cross voxels that
// changed since the held frame. Any other task drops the held state and
// builds a fresh renderer, whose first frame is a full render. This departs
// from the paper, whose slaves restart coherence with every subsequence. The
// worker renders a task one frame per kTagContinue self-message, so master
// control traffic (shrink requests) interleaves between frames.
//
// The first frame of every task goes back as a dense key frame, warm or not:
// its receiver holds no predecessor of this task's. Later incremental frames
// are sparse run-length payloads carrying only the recomputed pixels; full
// renders go back dense. Every backend encodes and sends each result on the
// actor thread before the next frame renders, as the paper's slaves do.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "src/core/coherent_renderer.h"
#include "src/net/runtime.h"
#include "src/obs/event_trace.h"
#include "src/obs/metrics.h"
#include "src/par/cost_model.h"
#include "src/par/protocol.h"
#include "src/shard/ownership.h"
#include "src/scene/animated_scene.h"

namespace now {

struct WorkerConfig {
  CoherenceOptions coherence;
  CostModel cost;
  /// Send only recomputed pixels on incremental frames (saves Ethernet).
  bool sparse_returns = true;
  /// Wire codec for frame results. kDelta additionally value-diffs
  /// recomputed pixels against the previous frame (the coherence mask is
  /// conservative: a recomputed pixel often lands on the same color) and
  /// compresses the payload; the master reconstructs against its committed
  /// predecessor, so final frames are byte-identical either way.
  FrameCodec frame_codec = FrameCodec::kRaw;
  /// Per-frame render spans (cat "frame") on this worker's timeline; the
  /// utilization report derives busy time from them. Null disables.
  EventTracer* tracer = nullptr;
  /// Sink for worker.frame_seconds / net.frame_result_bytes histograms and
  /// the net.frame_bytes_raw / net.frame_bytes_wire / net.key_frames /
  /// net.delta_frames counters.
  MetricsRegistry* metrics = nullptr;
  /// Frame ownership map: results go to owner_rank(frame), and the frame
  /// right after an ownership boundary is promoted to a dense key frame so
  /// no sparse chain ever crosses shards (the receiving shard has no
  /// predecessor pixels to decode against). Default: single master, no
  /// promotion.
  ShardMap shards;
  /// Multi-tenant service mode: scenes addressable by RenderTask::scene_id
  /// beyond the primary one (id 0 = the scene the worker was built with,
  /// ids 1.. = these, in order). All must share the primary's dimensions.
  /// Pointees must outlive the worker. Empty for classic runs.
  std::vector<const AnimatedScene*> extra_scenes;
};

struct WorkerReport {
  int tasks_completed = 0;
  /// Tasks whose remaining range was shrunk to nothing: the end was reached
  /// by a shrink, not by rendering a final frame. Not "completed" — the
  /// stolen remainder is finished (and counted) by whoever received it.
  int tasks_shrunk_away = 0;
  int frames_rendered = 0;
  std::uint64_t rays = 0;
  std::int64_t pixels_recomputed = 0;
  double compute_seconds = 0.0;  // reference-machine seconds charged
  /// High-water mark of coherence-grid mark storage on this worker. The
  /// paper's frame-division memory claim ("memory requirements are directly
  /// proportional to the size of the image area") is measured with this.
  std::int64_t peak_mark_bytes = 0;
};

class RenderWorker final : public Actor {
 public:
  RenderWorker(const AnimatedScene& scene, const WorkerConfig& config);

  void on_start(Context& ctx) override;
  void on_message(Context& ctx, const Message& msg) override;

  const WorkerReport& report() const { return report_; }

 private:
  /// The task names a known scene, a non-empty region inside that scene's
  /// image, and frames (plus frame_delta) inside the scene.
  bool task_fits(const RenderTask& task) const;
  void start_task(Context& ctx, const RenderTask& task);
  void render_next_frame(Context& ctx);
  void handle_shrink(Context& ctx, const ShrinkRequest& req);
  void send_frame(Context& ctx, const FrameResult& result);

  const AnimatedScene& scene_;
  /// Scene table: entry 0 is scene_, the rest are config_.extra_scenes.
  std::vector<const AnimatedScene*> scenes_;
  WorkerConfig config_;

  std::optional<RenderTask> task_;
  /// The held coherence state: kept across tasks, dropped by kTagRejoin.
  /// fb_ holds the region's pixels of the renderer's last frame.
  std::unique_ptr<CoherentRenderer> renderer_;
  std::int32_t renderer_scene_id_ = -1;
  Framebuffer fb_;
  /// Previous frame's region pixels (row-major), kept only under kDelta:
  /// the baseline the value-diff shrinks the sparse mask against.
  std::vector<Rgb8> prev_region_;
  std::int32_t next_frame_ = 0;
  std::int32_t end_frame_ = 0;

  // Cached instruments: one pointer chase per frame, no name lookups.
  Histogram* frame_seconds_hist_ = nullptr;
  Histogram* chunk_seconds_hist_ = nullptr;
  Counter* bytes_raw_ = nullptr;
  Counter* bytes_wire_ = nullptr;
  Counter* key_frames_ = nullptr;
  Counter* delta_frames_ = nullptr;
  Histogram* result_bytes_ = nullptr;

  WorkerReport report_;
};

}  // namespace now
