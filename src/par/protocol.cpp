#include "src/par/protocol.h"

namespace now {
namespace {

void put_rect(WireWriter* w, const PixelRect& rect) {
  w->i32(rect.x0);
  w->i32(rect.y0);
  w->i32(rect.width);
  w->i32(rect.height);
}

bool get_rect(WireReader* r, PixelRect* rect) {
  return r->i32(&rect->x0) && r->i32(&rect->y0) && r->i32(&rect->width) &&
         r->i32(&rect->height);
}

}  // namespace

std::string encode_task(const RenderTask& task) {
  WireWriter w;
  w.i32(task.task_id);
  put_rect(&w, task.region);
  w.i32(task.first_frame);
  w.i32(task.frame_count);
  w.u64(task.trace_ctx);
  w.i32(task.scene_id);
  w.i32(task.frame_delta);
  return w.take();
}

bool decode_task(RenderTask* task, const std::string& payload) {
  WireReader r(payload);
  return r.i32(&task->task_id) && get_rect(&r, &task->region) &&
         r.i32(&task->first_frame) && r.i32(&task->frame_count) &&
         r.u64(&task->trace_ctx) && r.i32(&task->scene_id) &&
         r.i32(&task->frame_delta) && r.done();
}

std::string encode_shrink(const ShrinkRequest& req) {
  WireWriter w;
  w.i32(req.task_id);
  w.i32(req.new_end_frame);
  return w.take();
}

bool decode_shrink(ShrinkRequest* req, const std::string& payload) {
  WireReader r(payload);
  return r.i32(&req->task_id) && r.i32(&req->new_end_frame) && r.done();
}

std::string encode_shrink_ack(const ShrinkAck& ack) {
  WireWriter w;
  w.i32(ack.task_id);
  w.i32(ack.honored_end_frame);
  return w.take();
}

bool decode_shrink_ack(ShrinkAck* ack, const std::string& payload) {
  WireReader r(payload);
  return r.i32(&ack->task_id) && r.i32(&ack->honored_end_frame) && r.done();
}

std::string encode_lease_check(const LeaseCheck& check) {
  WireWriter w;
  w.i32(check.worker);
  w.i32(check.task_id);
  w.u8(check.phase);
  return w.take();
}

bool decode_lease_check(LeaseCheck* check, const std::string& payload) {
  WireReader r(payload);
  return r.i32(&check->worker) && r.i32(&check->task_id) &&
         r.u8(&check->phase) && r.done();
}

std::string encode_task_nack(const TaskNack& nack) {
  WireWriter w;
  w.i32(nack.task_id);
  return w.take();
}

bool decode_task_nack(TaskNack* nack, const std::string& payload) {
  WireReader r(payload);
  return r.i32(&nack->task_id) && r.done();
}

std::string encode_frame_result(const FrameResult& result, FrameCodec codec) {
  WireWriter w;
  w.u8(kFrameResultVersion);
  w.i32(result.task_id);
  w.i32(result.frame);
  w.u64(result.trace_ctx);
  w.u64(result.rays);
  w.u64(result.shadow_rays);
  w.i64(result.pixels_recomputed);
  w.u8(result.full_render);
  w.f64(result.compute_seconds);
  w.f64(result.render_seconds);
  w.str(encode_frame_payload(
      encode_payload(result.payload),
      result.payload.dense ? kFrameKindKey : kFrameKindDelta, codec));
  return w.take();
}

bool decode_frame_result(FrameResult* result, const std::string& payload) {
  WireReader r(payload);
  std::uint8_t version = 0;
  std::string envelope;
  if (!(r.u8(&version) && version == kFrameResultVersion &&
        r.i32(&result->task_id) && r.i32(&result->frame) &&
        r.u64(&result->trace_ctx) && r.u64(&result->rays) &&
        r.u64(&result->shadow_rays) &&
        r.i64(&result->pixels_recomputed) && r.u8(&result->full_render) &&
        r.f64(&result->compute_seconds) && r.f64(&result->render_seconds) &&
        r.str(&envelope) && r.done())) {
    return false;
  }
  std::string pixels;
  std::uint8_t kind = kFrameKindKey;
  if (!decode_frame_payload(&pixels, &kind, envelope)) return false;
  if (!decode_payload(&result->payload, pixels)) return false;
  // The envelope kind and the payload layout are redundant on purpose: a
  // disagreement means the bytes were tampered with or mis-assembled.
  return (kind == kFrameKindKey) == result->payload.dense;
}

void count_malformed_message(MetricsRegistry& metrics, int tag) {
  metrics.counter("net.malformed_messages").inc();
  metrics.counter("net.malformed_messages.tag" + std::to_string(tag)).inc();
}

}  // namespace now
