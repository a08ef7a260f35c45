// Wire protocol between the render master and its workers.
//
// Star topology, PVM-style: workers announce themselves, the master assigns
// RenderTasks (a pixel region × a frame range), workers stream back one
// FrameResult per rendered frame, and the master adaptively re-splits the
// task of a loaded worker when another goes idle (Section 3: "each sequence
// can be adaptively subdivided such that a faster processor can receive
// more work once it completes its sequence").
//
// The shrink handshake is two-phase because the victim may have rendered
// past the proposed split point by the time the message arrives: the master
// proposes a new end frame, the victim acknowledges with the end it can
// actually honor, and only then does the master hand the stolen range to the
// idle worker. Frames are never rendered twice and never lost.
#pragma once

#include <cstdint>
#include <string>

#include "src/image/pixel_codec.h"
#include "src/net/codec.h"
#include "src/net/message.h"
#include "src/obs/metrics.h"
#include "src/trace/tracer.h"

namespace now {

enum MsgTag : int {
  kTagHello = 1,        // worker → master: ready for work
  kTagTask = 2,         // master → worker: RenderTask
  kTagShrink = 3,       // master → worker: task_id, proposed new end frame
  kTagShrinkAck = 4,    // worker → master: task_id, honored end frame (or -1)
  kTagFrameResult = 5,  // worker → master: pixels + stats for one frame
  kTagRequest = 6,      // worker → master: task finished, want more
  kTagStop = 7,         // master → worker: shut down
  kTagContinue = 8,     // worker → itself: render the next frame
  kTagPing = 9,         // master → worker: liveness probe
  kTagPong = 10,        // worker → master: liveness answer
  kTagLeaseCheck = 11,  // master → itself (timer): evaluate a worker's lease
  kTagRejoin = 12,      // runtime → worker: your process restarted; re-Hello
  kTagTaskNack = 13,    // worker → master: busy with another task, requeue
  kTagCommitDigest = 14,  // shard → scheduler: CommitDigest for one result
  kTagSampleTick = 15,  // master → itself (timer): take a telemetry sample
  kTagShardCheck = 16,  // master → itself (timer): evaluate a shard's lease
  kTagShardReset = 17,  // master → shard: rebuild from your journal, re-Hello
  // -- multi-tenant job queue (src/par/jobqueue.h) ----------------------
  kTagShotSubmit = 18,  // client → master: admit a shot (ShotSubmit)
  kTagShotAccept = 19,  // master → client: admission verdict (ShotAccept)
  kTagShotStatus = 20,  // client → master: poll a shot (ShotStatusRequest)
  kTagShotStatusReply = 21,  // master → client: ShotStatusReply
  kTagShotCancel = 22,  // client → master: cancel a shot (ShotCancel)
  kTagShotUpdate = 23,  // master → client: terminal phase change (ShotUpdate)
  kTagClientDone = 24,  // client → master: no further requests coming
  kTagClientTick = 25,  // client → itself (timer): run the next script action
};

struct RenderTask {
  std::int32_t task_id = -1;
  PixelRect region;
  std::int32_t first_frame = 0;
  std::int32_t frame_count = 0;
  /// Trace context minted by the scheduler at assignment (nonzero) and
  /// echoed in every FrameResult/CommitDigest the task produces, tying the
  /// frame's whole life into one cross-rank flow chain. Always on the wire
  /// — telemetry settings never change message bytes.
  std::uint64_t trace_ctx = 0;
  /// Multi-tenant service mode: which scene of the farm's scene table this
  /// task renders (0 = the primary scene) and the offset mapping the task's
  /// global frame numbers into that scene's own frames
  /// (scene_frame = global_frame + frame_delta). Classic runs leave both 0,
  /// which reproduces the old single-animation behavior exactly.
  std::int32_t scene_id = 0;
  std::int32_t frame_delta = 0;

  std::int32_t end_frame() const { return first_frame + frame_count; }
  bool operator==(const RenderTask&) const = default;
};

std::string encode_task(const RenderTask& task);
bool decode_task(RenderTask* task, const std::string& payload);

struct ShrinkRequest {
  std::int32_t task_id = -1;
  std::int32_t new_end_frame = 0;
};

std::string encode_shrink(const ShrinkRequest& req);
bool decode_shrink(ShrinkRequest* req, const std::string& payload);

struct ShrinkAck {
  std::int32_t task_id = -1;
  /// End frame the worker will actually stop at; -1 when the task was
  /// already complete (nothing left to steal).
  std::int32_t honored_end_frame = -1;
};

std::string encode_shrink_ack(const ShrinkAck& ack);
bool decode_shrink_ack(ShrinkAck* ack, const std::string& payload);

/// Deferred self-message the master schedules (Context::send_after) when it
/// assigns a task: fires at the lease deadline and names the worker and the
/// assignment it covers, so checks for superseded assignments are dropped.
/// Shard liveness leases (kTagShardCheck) reuse the same encoding with
/// `worker` holding the shard index and task_id unused (-1).
struct LeaseCheck {
  std::int32_t worker = -1;
  std::int32_t task_id = -1;
  /// 0 = first expiry (silent worker gets pinged), 1 = post-ping grace
  /// expired (declare the worker dead).
  std::uint8_t phase = 0;
};

std::string encode_lease_check(const LeaseCheck& check);
bool decode_lease_check(LeaseCheck* check, const std::string& payload);

/// Worker refuses an assignment because it is already busy with a different
/// task (a stale-state dispatch, e.g. right after a lease-expiry
/// reassignment raced with the worker's revival). The master requeues the
/// task immediately instead of waiting out the lease.
struct TaskNack {
  std::int32_t task_id = -1;
};

std::string encode_task_nack(const TaskNack& nack);
bool decode_task_nack(TaskNack* nack, const std::string& payload);

/// Version tag leading every encoded FrameResult. Bumped in PR 5 when the
/// pixel payload moved into the compressed key/delta frame envelope
/// (src/net/codec.h), and again in PR 7 when the trace context and the
/// worker's observed render time joined the header; a decoder refuses any
/// other version rather than misinterpreting bytes.
inline constexpr std::uint8_t kFrameResultVersion = 4;

struct FrameResult {
  std::int32_t task_id = -1;
  std::int32_t frame = 0;
  std::uint64_t trace_ctx = 0;  // echoed from the RenderTask
  PixelPayload payload;
  // accounting (summed into farm-level statistics by the master)
  std::uint64_t rays = 0;
  std::uint64_t shadow_rays = 0;
  std::int64_t pixels_recomputed = 0;
  std::uint8_t full_render = 0;
  double compute_seconds = 0.0;  // reference-machine cost the worker charged
  /// Seconds the frame actually took on the worker's own clock — virtual
  /// (speed- and slowdown-scaled) under sim, wall time elsewhere. This is
  /// what the scheduler's straggler detector observes: compute_seconds is
  /// machine-independent by construction and would never show slowness.
  double render_seconds = 0.0;

  /// A dense payload is a self-contained key frame; a sparse payload is a
  /// delta frame the master decodes against the task's committed
  /// predecessor. The wire kind tag must agree with the payload layout —
  /// decode_frame_result rejects a mismatch as corruption.
  bool key_frame() const { return payload.dense; }
};

/// `codec` controls the envelope body: kRaw stores the payload bytes
/// verbatim, kDelta compresses them. Decoding is transparent to the choice.
std::string encode_frame_result(const FrameResult& result,
                                FrameCodec codec = FrameCodec::kRaw);
/// Validates the version byte, the envelope CRC (computed over the decoded
/// payload bytes), the payload structure, and key/delta-vs-layout
/// consistency. False means the message must be treated as lost in transit.
bool decode_frame_result(FrameResult* result, const std::string& payload);

/// A message from another rank that its receiver cannot use — a payload that
/// does not decode, or a tag the receiver does not handle — is dropped and
/// counted, never asserted on: no peer's bytes may abort a rank. Counts
/// net.malformed_messages and net.malformed_messages.tag<N> (registered on
/// first use, so a clean run's metrics carry neither).
void count_malformed_message(MetricsRegistry& metrics, int tag);

}  // namespace now
