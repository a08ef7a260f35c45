#include "src/shard/frame_sink.h"

#include "src/ckpt/recovery.h"
#include "src/image/image_io.h"

namespace now {

FrameSink::FrameSink(const FrameSinkConfig& config) : config_(config) {
  if (!config_.journal_path.empty()) {
    JournalOptions jopts;
    jopts.fsync = config_.journal_fsync;
    if (config_.resume && config_.resume_valid_bytes > 0) {
      journal_ = JournalWriter::resume(config_.journal_path,
                                       config_.resume_valid_bytes, jopts);
    } else {
      journal_ =
          JournalWriter::create(config_.journal_path, config_.header, jopts);
    }
  }
  if (config_.metrics != nullptr) {
    const std::string prefix =
        "endpoint." + std::to_string(config_.endpoint_rank) + ".";
    frames_committed_ =
        &config_.metrics->counter(prefix + "frames_committed");
    frames_completed_ =
        &config_.metrics->counter(prefix + "frames_completed");
    write_failures_ = &config_.metrics->counter("frames.write_failures");
  }
}

void FrameSink::commit_region(std::int32_t task_id, const PixelRect& rect,
                              std::int32_t frame, const Framebuffer& fb) {
  if (frames_committed_ != nullptr) frames_committed_->inc();
  if (journal_ == nullptr) return;
  RegionCommitRecord rc;
  rc.task_id = task_id;
  rc.rect = rect;
  rc.frame = frame;
  rc.digest = digest_rect(fb, rect);
  journal_->region_commit(rc);
}

void FrameSink::complete_frame(std::int32_t frame, const Framebuffer& fb) {
  if (frames_completed_ != nullptr) frames_completed_->inc();
  if (!config_.output_dir.empty() &&
      !write_tga_atomic(fb, config_.frame_path
                                ? config_.frame_path(frame)
                                : frame_file_path(config_.output_dir,
                                                  config_.output_prefix,
                                                  frame))) {
    // The frame never reached disk, so the journal must not declare it
    // durable: a resume re-renders it.
    ++write_failure_count_;
    if (write_failures_ != nullptr) write_failures_->inc();
    return;
  }
  if (journal_ != nullptr) {
    FrameCompleteRecord fc;
    fc.frame = frame;
    fc.digest = digest_frame(fb);
    journal_->frame_complete(fc);
  }
}

void FrameSink::checkpoint(const CheckpointRecord& rec) {
  if (journal_ != nullptr) journal_->checkpoint(rec);
}

}  // namespace now
