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
// Each sink also counts its IO into the run's registry as it happens: per
// receiving endpoint (endpoint.<rank>.frames_committed / frames_completed),
// failed TGA writes (frames.write_failures), and what the journal appended
// (ckpt.journal_*, merged over every segment, plus shard.<i>.journal_* for
// a shard's own segment).
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
  /// Sink for the counters above. Null disables.
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
  /// failed write counts in frames.write_failures and appends no record.
  void complete_frame(std::int32_t frame, const Framebuffer& fb);

  void checkpoint(const CheckpointRecord& rec);

  bool journaling() const { return journal_ != nullptr; }

  /// False after any journal I/O failure, including a failed open: the
  /// owner keeps rendering (the journal degrades to best-effort) and the
  /// failure also drops the run's ckpt.journal_ok gauge to 0.
  bool journal_ok() const {
    if (!config_.journal_path.empty() && journal_ == nullptr) return false;
    return journal_ == nullptr || journal_->good();
  }

 private:
  /// Credit the registry with what the journal appended and synced since
  /// the last call.
  void count_journal();

  FrameSinkConfig config_;
  std::unique_ptr<JournalWriter> journal_;
  Counter* frames_committed_ = nullptr;  // endpoint.<rank>.frames_committed
  Counter* frames_completed_ = nullptr;  // endpoint.<rank>.frames_completed
  Counter* write_failures_ = nullptr;    // frames.write_failures
  // Journal ledger. The shard segment series are registered by every
  // shard's sink; the rest only while journaling.
  Counter* journal_syncs_ = nullptr;        // journal.syncs
  Counter* journal_records_ = nullptr;      // ckpt.journal_records
  Counter* journal_bytes_ = nullptr;        // ckpt.journal_bytes
  Counter* journal_checkpoints_ = nullptr;  // ckpt.journal_checkpoints
  Counter* segment_records_ = nullptr;      // shard.<i>.journal_records
  Counter* segment_bytes_ = nullptr;        // shard.<i>.journal_bytes
  // Journal totals already credited.
  std::int64_t syncs_counted_ = 0;
  std::int64_t records_counted_ = 0;
  std::int64_t bytes_counted_ = 0;
};

}  // namespace now
