#include "src/shard/assembler.h"

#include <cassert>

#include "src/image/pixel_codec.h"
#include "src/par/protocol.h"

namespace now {

FrameAssembler::FrameAssembler(int first_frame, int end_frame, int width,
                               int height, FrameSink* sink, int endpoint_rank,
                               MetricsRegistry* metrics)
    : first_(first_frame), width_(width), height_(height), sink_(sink) {
  const auto owned = static_cast<std::size_t>(end_frame - first_frame);
  frames_.assign(owned, Framebuffer(width, height));
  area_missing_.assign(owned, std::int64_t{width} * height);
  committed_rects_.assign(owned, {});
  if (metrics != nullptr) {
    const std::string prefix = "endpoint." + std::to_string(endpoint_rank) + ".";
    decode_failures_ = &metrics->counter("net.frame_decode_failures");
    ep_decode_failures_ = &metrics->counter(prefix + "frame_decode_failures");
    ep_frame_bytes_ = &metrics->counter(prefix + "frame_bytes");
  }
}

int FrameAssembler::restore(
    const std::vector<std::optional<Framebuffer>>& frames,
    const std::vector<std::vector<RegionCommitRecord>>& commits) {
  int restored = 0;
  for (int f = first_; f < end_frame(); ++f) {
    if (f >= static_cast<int>(frames.size()) || !frames[f].has_value()) {
      continue;
    }
    const int local = f - first_;
    frames_[local] = *frames[f];
    area_missing_[local] = 0;
    if (f < static_cast<int>(commits.size())) {
      for (const RegionCommitRecord& c : commits[f]) {
        committed_rects_[local].insert(rect_key(c.rect));
      }
    }
    ++restored;
  }
  report_.frames_restored += restored;
  return restored;
}

void FrameAssembler::extend(int frames) {
  const std::size_t owned = frames_.size() + static_cast<std::size_t>(frames);
  frames_.resize(owned, Framebuffer(width_, height_));
  area_missing_.resize(owned, std::int64_t{width_} * height_);
  committed_rects_.resize(owned);
}

void FrameAssembler::reject_task(std::int32_t task_id) {
  chains_[task_id].broken = true;
}

void FrameAssembler::release_gates() {
  std::vector<std::set<std::uint64_t>>().swap(committed_rects_);
  std::map<std::int32_t, Chain>().swap(chains_);
}

void FrameAssembler::reset(FrameSink* sink) {
  const std::size_t owned = frames_.size();
  frames_.assign(owned, Framebuffer(width_, height_));
  area_missing_.assign(owned, std::int64_t{width_} * height_);
  committed_rects_.assign(owned, {});
  chains_.clear();
  sink_ = sink;
}

void FrameAssembler::count_decode_failure() {
  ++report_.decode_failures;
  if (decode_failures_ != nullptr) decode_failures_->inc();
  if (ep_decode_failures_ != nullptr) ep_decode_failures_->inc();
}

FrameAssembler::Commit FrameAssembler::reject(Chain& chain, CommitDigest d) {
  chain.broken = true;
  ++report_.chain_rejects;
  d.kind = CommitKind::kChainReject;
  return {d, false};
}

FrameAssembler::Commit FrameAssembler::commit(int source,
                                              const std::string& payload) {
  report_.frame_bytes += static_cast<std::int64_t>(payload.size());
  if (ep_frame_bytes_ != nullptr) {
    ep_frame_bytes_->inc(static_cast<std::int64_t>(payload.size()));
  }

  CommitDigest d;
  d.worker = source;
  FrameResult result;
  if (!decode_frame_result(&result, payload) || result.frame < first_ ||
      result.frame >= end_frame()) {
    // The envelope failed CRC/structure validation (or names a frame this
    // owner does not hold). Nothing ties it to a task, so the digest only
    // reports the sender; the worker's next valid result or its lease
    // surfaces the gap.
    count_decode_failure();
    d.kind = CommitKind::kDecodeFail;
    return {d, false};
  }
  ++report_.frame_results;
  d.task_id = result.task_id;
  d.frame = result.frame;
  d.trace_ctx = result.trace_ctx;
  d.rect = result.payload.rect;
  d.full_render = result.full_render;
  d.rays = result.rays;
  d.shadow_rays = result.shadow_rays;
  d.pixels_recomputed = result.pixels_recomputed;
  d.compute_seconds = result.compute_seconds;
  d.render_seconds = result.render_seconds;

  const int frame = result.frame;
  const PixelRect& region = result.payload.rect;
  Chain& chain = chains_[result.task_id];
  if (chain.broken) return reject(chain, d);
  if (!chain.started) {
    if (!result.payload.dense) {
      // The task's first result here is sparse. Its dense key frame was
      // lost in transit — a broken chain, like any other gap. At the first
      // owned frame, though, the predecessor belongs to no chain this owner
      // could ever see (workers always promote there), so the payload can
      // only be corruption that slipped past the CRC.
      if (frame == first_) count_decode_failure();
      return reject(chain, d);
    }
    chain.started = true;
    chain.next = frame;
  }
  if (frame < chain.next) {
    // Duplicated delivery behind the chain: already applied, just ack.
    ++report_.stale_results;
    d.kind = CommitKind::kStale;
    return {d, false};
  }
  if (frame > chain.next) {
    // A result vanished in transit; the sparse chain is broken from the gap
    // onward.
    return reject(chain, d);
  }

  // Idempotent-commit gate: a (region, frame) already committed — by a
  // speculation partner or an overlapping reclaim — advances the chain but
  // is applied nowhere. Both copies render identical pixels (the coherence
  // guarantee), so skipping the apply keeps this sender's later sparse
  // results valid against frames_[frame - 1].
  const int local = frame - first_;
  const bool fresh = committed_rects_[local].insert(rect_key(region)).second;
  chain.next = frame + 1;
  if (!fresh) {
    ++report_.duplicates;
    d.kind = CommitKind::kDuplicate;
    return {d, false};
  }

  // Sparse results carry only recomputed pixels; the rest of the region is
  // unchanged from the previous frame, which this chain already committed.
  if (!result.payload.dense) {
    assert(local > 0);
    frames_[local].blit(region, frames_[local - 1].extract(region));
  }
  apply_payload(&frames_[local], result.payload);
  // The sink's journal digest runs over *decoded* pixels, never wire bytes,
  // so raw and delta transports produce identical journal records.
  sink_->commit_region(result.task_id, region, frame, frames_[local]);
  ++report_.frames_committed;

  d.kind = CommitKind::kFresh;
  Commit out{d, false};
  area_missing_[local] -= region.area();
  assert(area_missing_[local] >= 0);
  if (area_missing_[local] == 0) {
    // Write-ahead order lives in the sink: the TGA is atomically in place
    // before the record that declares the frame durable.
    ++report_.frames_completed;
    sink_->complete_frame(frame, frames_[local]);
    out.frame_completed = true;
  }
  return out;
}

}  // namespace now
