#include "src/par/worker.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace now {

RenderWorker::RenderWorker(const AnimatedScene& scene,
                           const WorkerConfig& config)
    : scene_(scene), config_(config) {
  scenes_.push_back(&scene_);
  for (const AnimatedScene* extra : config_.extra_scenes) {
    assert(extra != nullptr);
    scenes_.push_back(extra);
  }
  if (config_.tracer != nullptr && !config_.tracer->enabled()) {
    config_.tracer = nullptr;
  }
  MetricsRegistry& metrics = MetricsRegistry::of(config_.metrics);
  frame_seconds_hist_ = &metrics.histogram(
      "worker.frame_seconds", Histogram::default_seconds_bounds());
  chunk_seconds_hist_ = &metrics.histogram(
      "worker.chunk_seconds", Histogram::default_seconds_bounds());
  bytes_raw_ = &metrics.counter("net.frame_bytes_raw");
  bytes_wire_ = &metrics.counter("net.frame_bytes_wire");
  key_frames_ = &metrics.counter("net.key_frames");
  delta_frames_ = &metrics.counter("net.delta_frames");
  result_bytes_ = &metrics.histogram("net.frame_result_bytes",
                                     Histogram::default_bytes_bounds());
}

void RenderWorker::on_start(Context& ctx) { ctx.send(0, kTagHello, {}); }

void RenderWorker::on_message(Context& ctx, const Message& msg) {
  switch (msg.tag) {
    case kTagTask: {
      RenderTask task;
      if (!decode_task(&task, msg.payload)) {
        count_malformed_message(MetricsRegistry::of(config_.metrics), msg.tag);
        break;
      }
      // A task naming an unknown scene, a region outside that scene's image
      // or frames outside the scene is dropped: rendering it would write
      // past the framebuffer, and a NACK would only bring it back verbatim.
      if (!task_fits(task)) break;
      // A duplicated assignment of the current task is dropped, not
      // asserted: under fault injection the master's message can
      // legitimately arrive twice. A *different* task while busy means the
      // master's view of us is stale (e.g. a revived worker it had written
      // off) — NACK it so the task is requeued immediately instead of
      // sitting on a dead assignment until its lease expires.
      if (!task_.has_value()) {
        start_task(ctx, task);
      } else if (task_->task_id != task.task_id) {
        TaskNack nack;
        nack.task_id = task.task_id;
        ctx.send(0, kTagTaskNack, encode_task_nack(nack));
      }
      break;
    }
    case kTagContinue:
      if (task_.has_value()) render_next_frame(ctx);
      break;
    case kTagShrink: {
      ShrinkRequest req;
      if (decode_shrink(&req, msg.payload)) {
        handle_shrink(ctx, req);
      } else {
        count_malformed_message(MetricsRegistry::of(config_.metrics), msg.tag);
      }
      break;
    }
    case kTagPing:
      ctx.send(0, kTagPong, {});
      break;
    case kTagStop:
      break;  // the runtime winds down after the master's stop()
    case kTagRejoin:
      // The runtime restarted this rank's process (elastic membership): all
      // in-memory state — current task, held coherence state, framebuffer,
      // and the previous frame — died with it. Announce ourselves like a
      // fresh worker; the next task's first frame is a full render.
      task_.reset();
      renderer_.reset();
      prev_region_.clear();
      ctx.send(0, kTagHello, {});
      break;
    default:
      count_malformed_message(MetricsRegistry::of(config_.metrics), msg.tag);
      break;
  }
}

bool RenderWorker::task_fits(const RenderTask& task) const {
  if (task.scene_id < 0 ||
      task.scene_id >= static_cast<std::int32_t>(scenes_.size())) {
    return false;
  }
  const AnimatedScene& scene =
      *scenes_[static_cast<std::size_t>(task.scene_id)];
  const PixelRect& r = task.region;
  const std::int64_t first = std::int64_t{task.first_frame} + task.frame_delta;
  return r.width > 0 && r.height > 0 && r.x0 >= 0 && r.y0 >= 0 &&
         std::int64_t{r.x0} + r.width <= scene.width() &&
         std::int64_t{r.y0} + r.height <= scene.height() &&
         task.first_frame >= 0 && task.frame_count >= 0 &&
         std::int64_t{task.first_frame} + task.frame_count <=
             std::numeric_limits<std::int32_t>::max() &&
         first >= 0 && first + task.frame_count <= scene.frame_count();
}

void RenderWorker::start_task(Context& ctx, const RenderTask& task) {
  assert(!task_.has_value() && "worker already busy");
  task_ = task;
  next_frame_ = task.first_frame;
  end_frame_ = task.end_frame();
  // Warm start: the held renderer covers this task's scene and region, so
  // its first frame continues from the last frame rendered here (a full
  // render only across a camera cut or a light change). Otherwise the held
  // state is dropped before the new renderer is built, so a worker never
  // holds two. Either way the first frame goes back dense (render_next_frame):
  // reassigned, speculative and post-resume tasks never reference a
  // predecessor the receiver did not get from this task.
  const bool warm = renderer_ != nullptr &&
                    renderer_scene_id_ == task.scene_id &&
                    renderer_->region() == task.region;
  if (!warm) {
    renderer_.reset();
    const AnimatedScene& scene =
        *scenes_[static_cast<std::size_t>(task.scene_id)];
    renderer_ = std::make_unique<CoherentRenderer>(scene, task.region,
                                                   config_.coherence);
    renderer_scene_id_ = task.scene_id;
    fb_ = Framebuffer(scene.width(), scene.height());
  }
  prev_region_.clear();
  ctx.send(ctx.rank(), kTagContinue, {});
}

void RenderWorker::render_next_frame(Context& ctx) {
  assert(task_.has_value());
  if (next_frame_ >= end_frame_) {
    // Shrunk to nothing before we got here: the task's end was reached by a
    // shrink, not by rendering, so it is not a completed task — count it
    // separately (and still ask for more work).
    task_.reset();
    ++report_.tasks_shrunk_away;
    ctx.send(0, kTagRequest, {});
    return;
  }

  // The render span covers the real computation plus the charged virtual
  // time: in the sim the clock only moves at charge(), in the wall-clock
  // runtimes the render itself moves now().
  const double span_start = ctx.now();
  if (config_.tracer != nullptr) {
    config_.tracer->begin(ctx.rank(), "frame", "frame.render", span_start,
                          {{"frame", next_frame_},
                           {"task", task_->task_id}});
  }

  // Multi-tenant tasks address frames in the scheduler's concatenated global
  // space; the renderer wants the owning scene's own frame number. Classic
  // tasks carry delta 0 and the two coincide.
  const FrameRenderResult r =
      renderer_->render_frame(next_frame_ + task_->frame_delta, &fb_);
  const double cost = config_.cost.frame_compute_seconds(r);
  ctx.charge(cost);

  if (config_.tracer != nullptr) {
    config_.tracer->end(
        ctx.rank(), "frame", "frame.render", ctx.now(),
        {{"frame", next_frame_},
         {"pixels_recomputed", r.pixels_recomputed},
         {"pixels_total", static_cast<std::int64_t>(task_->region.area())},
         {"full", r.full_render ? 1 : 0},
         {"rays", static_cast<std::int64_t>(r.stats.total_rays())}});
  }
  frame_seconds_hist_->observe(cost);
  if (config_.tracer != nullptr && task_->trace_ctx != 0) {
    // Step 1 of the frame's flow chain: render finished on this rank.
    config_.tracer->flow_step(
        ctx.rank(), trace_flow_id(task_->trace_ctx, next_frame_), ctx.now(),
        {{"task", task_->task_id}, {"frame", next_frame_}, {"step", 1}});
  }

  // Intra-node parallelism instrumentation: one complete (X) span and one
  // histogram sample per render chunk. r.chunks is wall-clock data and is
  // empty when the renderer runs one thread.
  for (const ChunkTiming& chunk : r.chunks) {
    chunk_seconds_hist_->observe(chunk.seconds);
    if (config_.tracer != nullptr) {
      config_.tracer->complete(ctx.rank(), "frame", "frame.render.chunk",
                               span_start + chunk.start_seconds, chunk.seconds,
                               {{"frame", next_frame_},
                                {"chunk", chunk.chunk},
                                {"thread", chunk.thread},
                                {"y0", chunk.y0},
                                {"rows", chunk.rows}});
    }
  }

  FrameResult out;
  out.task_id = task_->task_id;
  out.frame = next_frame_;
  out.trace_ctx = task_->trace_ctx;
  out.rays = r.stats.total_rays();
  out.shadow_rays = r.stats.shadow_rays;
  out.pixels_recomputed = r.pixels_recomputed;
  out.full_render = r.full_render ? 1 : 0;
  out.compute_seconds = cost;
  // Elapsed on this machine's clock: the sim's charge() already applied the
  // worker's speed factor and any slowdown window, so a slow machine reports
  // honestly slow frames here while compute_seconds stays machine-neutral.
  out.render_seconds = ctx.now() - span_start;
  const PixelRect& region = task_->region;
  // A task's first frame is a key frame even when it continues held
  // coherence state: the receiver has no predecessor from this task.
  // Ownership boundaries force one too: the next shard holds no predecessor
  // pixels for this region, so a sparse chain must never cross.
  const bool dense_return = next_frame_ == task_->first_frame ||
                            r.full_render || !config_.sparse_returns ||
                            config_.shards.key_frame_boundary(next_frame_);
  const bool track_delta =
      config_.frame_codec == FrameCodec::kDelta && config_.sparse_returns;
  if (dense_return || !track_delta) {
    out.payload = dense_return
                      ? make_dense_payload(fb_, region)
                      : make_sparse_payload(fb_, region, r.recomputed);
    if (track_delta) prev_region_ = fb_.extract(region);
  } else {
    // The coherence mask is conservative: it marks every pixel that *might*
    // have changed, and many recomputed pixels land on the same color.
    // Diffing against the previous frame keeps only real changes on the
    // wire; the master rebuilds from its committed predecessor, so the
    // final image is byte-identical to the raw path.
    assert(static_cast<int>(prev_region_.size()) == region.area());
    PixelMask changed(fb_.width(), fb_.height());
    int idx = 0;
    for (int y = region.y0; y < region.y0 + region.height; ++y) {
      for (int x = region.x0; x < region.x0 + region.width; ++x, ++idx) {
        if (!r.recomputed.at(x, y)) continue;
        const Rgb8 c = fb_.at(x, y);
        if (c != prev_region_[idx]) {
          changed.set(x, y, true);
          prev_region_[idx] = c;
        }
      }
    }
    out.payload = make_sparse_payload(fb_, region, changed);
  }
  send_frame(ctx, out);

  ++report_.frames_rendered;
  report_.peak_mark_bytes = std::max(
      report_.peak_mark_bytes, renderer_->coherence_stats().bytes());
  report_.rays += r.stats.total_rays();
  report_.pixels_recomputed += r.pixels_recomputed;
  report_.compute_seconds += cost;

  ++next_frame_;
  if (next_frame_ >= end_frame_) {
    task_.reset();
    ++report_.tasks_completed;
    ctx.send(0, kTagRequest, {});
  } else {
    ctx.send(ctx.rank(), kTagContinue, {});
  }
}

void RenderWorker::handle_shrink(Context& ctx, const ShrinkRequest& req) {
  ShrinkAck ack;
  ack.task_id = req.task_id;
  if (!task_.has_value() || task_->task_id != req.task_id) {
    // The task already completed (the ack crossed our final kTagRequest):
    // nothing left to steal.
    ack.honored_end_frame = -1;
  } else {
    // Honor the split as far as possible: we cannot give back frames that
    // are already rendered (next_frame_ and below).
    const std::int32_t honored =
        std::max(req.new_end_frame, next_frame_);
    end_frame_ = std::min(end_frame_, honored);
    ack.honored_end_frame = end_frame_;
  }
  ctx.send(0, kTagShrinkAck, encode_shrink_ack(ack));
}

void RenderWorker::send_frame(Context& ctx, const FrameResult& result) {
  const double start = ctx.now();
  std::string encoded = encode_frame_result(result, config_.frame_codec);
  // "Raw" is what this frame would have cost on the wire without the codec:
  // the exact uncompressed payload encoding. The wire counter is what it
  // actually cost; the ratio is the codec's whole value proposition.
  bytes_raw_->inc(static_cast<std::uint64_t>(encoded_size(result.payload)));
  bytes_wire_->inc(static_cast<std::uint64_t>(encoded.size()));
  (result.key_frame() ? key_frames_ : delta_frames_)->inc();
  result_bytes_->observe(static_cast<double>(encoded.size()));
  if (config_.tracer != nullptr) {
    config_.tracer->complete(
        ctx.rank(), "net", "net.send_pipeline", start, ctx.now() - start,
        {{"frame", result.frame},
         {"task", result.task_id},
         {"key", result.key_frame() ? 1 : 0},
         {"bytes", static_cast<std::int64_t>(encoded.size())}});
    if (result.trace_ctx != 0) {
      // Step 2 of the frame's flow chain: result encoded and on the wire.
      config_.tracer->flow_step(
          ctx.rank(), trace_flow_id(result.trace_ctx, result.frame),
          ctx.now(),
          {{"task", result.task_id}, {"frame", result.frame}, {"step", 2}});
    }
  }
  ctx.send(config_.shards.owner_rank(result.frame), kTagFrameResult,
           std::move(encoded));
}

}  // namespace now
