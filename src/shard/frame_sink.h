// FrameSink: the one owner of durable frame IO — journal appends and
// atomic TGA writes. Every FrameAssembler writes through one (at shards == 1
// the master's, shared with its checkpoints; otherwise its shard's own
// segment), and a sharded scheduler keeps a checkpoint-only one.
//
// Keeping the IO here holds the crash-consistency contract in one place:
// a region commit appends a CRC-framed record whose digest runs over the
// *decoded* pixels (journals are codec-invariant), and a frame completion
// renames the TGA into place *before* appending the record that declares it
// durable (write-ahead: a resume never trusts a frame that is not wholly on
// disk). The journal group-commits: the frame-complete record's fsync also
// makes the frame's region commits durable, so a frame costs one journal
// fsync (counted in journal.syncs).
//
// Each sink also labels its IO by receiving endpoint
// (endpoint.<rank>.frames_committed / frames_completed), so a sharded run's
// per-shard imbalance is visible in --report.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "src/ckpt/journal.h"
#include "src/image/framebuffer.h"
#include "src/obs/metrics.h"

namespace now {

struct FrameSinkConfig {
  /// Directory for per-frame targa output ("" disables file writing).
  std::string output_dir;
  std::string output_prefix = "frame";
  /// Optional naming override: maps a frame index to the full file path of
  /// its targa. The multi-tenant service namespaces output per shot with
  /// this (<prefix>-<tenant>-shot<id>_<local>.tga); unset keeps the classic
  /// frame_file_path(dir, prefix, frame) layout every resume path expects.
  std::function<std::string(std::int32_t)> frame_path;
  /// Journal (segment) path ("" disables journaling).
  std::string journal_path;
  bool journal_fsync = true;
  /// Identity written in the header record of a fresh journal.
  JournalHeader header;
  /// Resume: append to the journal's valid prefix instead of truncating the
  /// file to a fresh header. resume_valid_bytes == 0 means the previous run
  /// left no valid prefix (e.g. a shard segment that never got written) and
  /// the sink creates a fresh journal instead.
  bool resume = false;
  std::size_t resume_valid_bytes = 0;
  /// Sink for endpoint.<rank>.* counters. Null disables.
  MetricsRegistry* metrics = nullptr;
  /// Rank label for per-endpoint accounting.
  int endpoint_rank = 0;
};

class FrameSink {
 public:
  explicit FrameSink(const FrameSinkConfig& config);

  /// Append one accepted region-frame commit; the digest is computed over
  /// the committed pixels of `fb` inside `rect`.
  void commit_region(std::int32_t task_id, const PixelRect& rect,
                     std::int32_t frame, const Framebuffer& fb);

  /// Frame fully assembled: atomically write its TGA (when output is
  /// enabled), then append the frame-complete record — in that order. A
  /// failed write counts in write_failures() (and frames.write_failures)
  /// and appends no record.
  void complete_frame(std::int32_t frame, const Framebuffer& fb);

  /// TGA writes that failed so far. Counted here, not only in the registry,
  /// so frame loss stays visible with metrics off.
  std::int64_t write_failures() const { return write_failure_count_; }

  void checkpoint(const CheckpointRecord& rec);

  bool journaling() const { return journal_ != nullptr; }

  // Journal statistics for the owning actor's report.
  std::int64_t journal_records() const {
    return journal_ != nullptr ? journal_->records_appended() : 0;
  }
  std::int64_t journal_bytes() const {
    return journal_ != nullptr ? journal_->bytes_appended() : 0;
  }
  std::int64_t journal_checkpoints() const {
    return journal_ != nullptr ? journal_->checkpoints_written() : 0;
  }
  /// False after any journal I/O failure, including a failed open: the
  /// owner keeps rendering (the journal degrades to best-effort) and the
  /// failure surfaces in ckpt.* metrics.
  bool journal_ok() const {
    if (!config_.journal_path.empty() && journal_ == nullptr) return false;
    return journal_ == nullptr || journal_->good();
  }

 private:
  /// Credit journal.syncs with the syncs the journal made since last call.
  void count_syncs();

  FrameSinkConfig config_;
  std::unique_ptr<JournalWriter> journal_;
  Counter* frames_committed_ = nullptr;  // endpoint.<rank>.frames_committed
  Counter* frames_completed_ = nullptr;  // endpoint.<rank>.frames_completed
  Counter* write_failures_ = nullptr;    // frames.write_failures
  Counter* journal_syncs_ = nullptr;     // journal.syncs (journaling only)
  std::int64_t write_failure_count_ = 0;
  std::int64_t syncs_counted_ = 0;
};

}  // namespace now
