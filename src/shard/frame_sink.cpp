#include "src/shard/frame_sink.h"

#include "src/ckpt/recovery.h"
#include "src/image/image_io.h"

namespace now {

FrameSink::FrameSink(const FrameSinkConfig& config) : config_(config) {
  MetricsRegistry& metrics = MetricsRegistry::of(config_.metrics);
  const std::string endpoint =
      "endpoint." + std::to_string(config_.endpoint_rank) + ".";
  frames_committed_ = &metrics.counter(endpoint + "frames_committed");
  frames_completed_ = &metrics.counter(endpoint + "frames_completed");
  write_failures_ = &metrics.counter("frames.write_failures");
  // A shard's own segment also counts under shard.<i>.*; the scheduler's
  // checkpoint-only journal (index -1) and the single segment of an
  // unsharded run do not.
  MetricsRegistry& segment = MetricsRegistry::of(
      config_.header.shard_count > 1 && config_.header.shard_index >= 0
          ? config_.metrics
          : nullptr);
  const std::string shard =
      "shard." + std::to_string(config_.header.shard_index) + ".";
  segment_records_ = &segment.counter(shard + "journal_records");
  segment_bytes_ = &segment.counter(shard + "journal_bytes");
  if (config_.journal_path.empty()) return;
  JournalOptions jopts;
  jopts.fsync = config_.journal_fsync;
  if (config_.resume && config_.resume_valid_bytes > 0) {
    journal_ = JournalWriter::resume(config_.journal_path,
                                     config_.resume_valid_bytes, jopts);
  } else {
    journal_ =
        JournalWriter::create(config_.journal_path, config_.header, jopts);
  }
  if (journal_ == nullptr) {
    metrics.gauge("ckpt.journal_ok").set(0.0);
    return;
  }
  journal_syncs_ = &metrics.counter("journal.syncs");
  journal_records_ = &metrics.counter("ckpt.journal_records");
  journal_bytes_ = &metrics.counter("ckpt.journal_bytes");
  journal_checkpoints_ = &metrics.counter("ckpt.journal_checkpoints");
  count_journal();  // the header's
}

void FrameSink::count_journal() {
  const std::int64_t records = journal_->records_appended();
  const std::int64_t bytes = journal_->bytes_appended();
  journal_records_->inc(records - records_counted_);
  segment_records_->inc(records - records_counted_);
  journal_bytes_->inc(bytes - bytes_counted_);
  segment_bytes_->inc(bytes - bytes_counted_);
  journal_syncs_->inc(journal_->syncs() - syncs_counted_);
  records_counted_ = records;
  bytes_counted_ = bytes;
  syncs_counted_ = journal_->syncs();
  if (!journal_->good()) {
    MetricsRegistry::of(config_.metrics).gauge("ckpt.journal_ok").set(0.0);
  }
}

void FrameSink::commit_region(std::int32_t task_id, const PixelRect& rect,
                              std::int32_t frame, const Framebuffer& fb) {
  frames_committed_->inc();
  if (journal_ == nullptr) return;
  RegionCommitRecord rc;
  rc.task_id = task_id;
  rc.rect = rect;
  rc.frame = frame;
  rc.digest = digest_rect(fb, rect);
  journal_->region_commit(rc);
  count_journal();
}

void FrameSink::complete_frame(std::int32_t frame, const Framebuffer& fb) {
  frames_completed_->inc();
  if (!config_.output_dir.empty() &&
      !write_tga_atomic(fb, config_.frame_path
                                ? config_.frame_path(frame)
                                : frame_file_path(config_.output_dir,
                                                  config_.output_prefix,
                                                  frame))) {
    // The frame never reached disk, so the journal must not declare it
    // durable: a resume re-renders it.
    write_failures_->inc();
    return;
  }
  if (journal_ != nullptr) {
    FrameCompleteRecord fc;
    fc.frame = frame;
    fc.digest = digest_frame(fb);
    journal_->frame_complete(fc);
    count_journal();
  }
}

void FrameSink::checkpoint(const CheckpointRecord& rec) {
  if (journal_ == nullptr) return;
  journal_->checkpoint(rec);
  journal_checkpoints_->inc();
  count_journal();
}

}  // namespace now
