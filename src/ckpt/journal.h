// Crash-consistent render journal: the master's durable record of progress.
//
// The journal is an append-only file of CRC-framed records. The master
// appends one kRegionCommit per accepted region-frame result (task id,
// region, frame, pixel digest), one kFrameComplete after a frame's targa
// file has been atomically renamed into place (write-ahead: the pixels are
// durable before the record that declares them durable), and periodic
// kCheckpoint records compacting the scheduler state (completed-frame
// bitmap, pending task queue, per-worker task views).
//
// Group commit: by default the writer fsyncs each record that makes a
// promise — the header, every kFrameComplete (its targa is already durable)
// and every kCheckpoint — and that sync also makes every record written
// before it durable. A kRegionCommit is written but not synced on its own:
// it names pixels of an incomplete frame that live only in memory, so a
// power loss that drops it loses nothing the record could have restored.
// The frame's coverage then falls short on resume, and the restore renders
// it again wholesale. That costs one fsync per frame (plus checkpoints) in
// place of one per record.
//
// After a crash the file is a valid prefix of records plus at most one torn
// tail: everything up to the last synced record, and any part of what
// followed it. replay_journal() stops at the first record whose frame or CRC
// is invalid and reports the length of the valid prefix; a writer resuming
// an interrupted run truncates the file back to that prefix before
// appending, so a journal never accumulates garbage between valid records.
//
// Record framing (all integers little-endian via WireWriter):
//   [u32 magic 'NWJL'][u8 type][u32 payload_len][payload]
//   [u32 crc32(type ++ payload_len ++ payload)]
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/image/framebuffer.h"

namespace now {

enum class JournalRecordType : std::uint8_t {
  kHeader = 1,         // run identity: journal version + animation dimensions
  kRegionCommit = 2,   // one accepted region-frame result
  kFrameComplete = 3,  // frame fully assembled and durable on disk
  kCheckpoint = 4,     // compacted scheduler state
};

struct JournalHeader {
  std::uint32_t version = 2;
  std::int32_t width = 0;
  std::int32_t height = 0;
  std::int32_t frame_count = 0;
  /// v2: sharded-journal identity. A sharded run (--shards N) writes one
  /// scheduler journal (shard_index -1, checkpoints only) plus one segment
  /// per shard (region commits + frame completes for its owned range); a
  /// single-master run writes exactly the v1 layout with count 1 / index 0.
  /// Version-1 journals decode with the defaults below, so pre-shard runs
  /// stay resumable.
  std::int32_t shard_count = 1;
  std::int32_t shard_index = 0;
};

/// Journal-segment path of shard `shard` for a run journaling at `base` —
/// the single naming scheme shared by the writer and the resume loader.
std::string shard_journal_path(const std::string& base, int shard);

struct RegionCommitRecord {
  std::int32_t task_id = -1;
  PixelRect rect;
  std::int32_t frame = 0;
  std::uint32_t digest = 0;  // crc32 of the region's committed RGB bytes
};

struct FrameCompleteRecord {
  std::int32_t frame = 0;
  std::uint32_t digest = 0;  // crc32 of the full frame's RGB bytes
};

/// Compacted scheduler state. Tasks are described structurally (no
/// dependency on the wire protocol): a pixel region × a frame range.
struct CheckpointRecord {
  struct Task {
    std::int32_t task_id = -1;
    PixelRect rect;
    std::int32_t first_frame = 0;
    std::int32_t frame_count = 0;
  };
  /// In-flight view: what the master believes a worker is rendering.
  struct WorkerView {
    std::int32_t worker = -1;
    std::int32_t task_id = -1;
    PixelRect rect;
    std::int32_t next_expected = 0;
    std::int32_t end_frame = 0;
  };
  /// Per-worker straggler statistics (EWMA render time, deviation band,
  /// sample count, flagged level) so a restarted scheduler ranks
  /// speculation victims with the dead run's knowledge instead of cold.
  struct StragglerStat {
    std::int32_t worker = -1;
    double ewma = 0.0;
    double dev = 0.0;
    std::int32_t n = 0;
    bool flagged = false;
  };

  std::vector<bool> completed;  // one bit per frame
  std::vector<Task> pending;
  std::vector<WorkerView> in_flight;

  // -- v2 trailer (scheduler checkpoint/restart). Absent in records written
  // before scheduler restart existed; decode leaves the defaults, which a
  // restoring scheduler treats as "no extra state".
  std::int32_t next_task_id = -1;
  std::vector<StragglerStat> stragglers;
};

/// CRC-32 of a framebuffer region's RGB bytes in row-major order — the
/// digest stored in commit records and verified on resume.
std::uint32_t digest_rect(const Framebuffer& fb, const PixelRect& rect);
inline std::uint32_t digest_frame(const Framebuffer& fb) {
  return digest_rect(fb, fb.full_rect());
}

struct JournalOptions {
  /// fsync after each header, frame-complete and checkpoint record (group
  /// commit; region commits ride along with the next one). Crash
  /// consistency requires it; false means no fsync at all, for tests that
  /// only exercise replay logic.
  bool fsync = true;
};

/// Appends records to a journal file. Not thread-safe (the master is the
/// only writer and runs one handler at a time on every backend).
class JournalWriter {
 public:
  ~JournalWriter();
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Start a fresh journal: truncate `path` and write the header record.
  /// Returns null on I/O failure.
  static std::unique_ptr<JournalWriter> create(const std::string& path,
                                               const JournalHeader& header,
                                               const JournalOptions& options);

  /// Continue an interrupted journal: truncate `path` back to `valid_bytes`
  /// (the replay's valid prefix, discarding any torn tail) and append from
  /// there. Returns null on I/O failure.
  static std::unique_ptr<JournalWriter> resume(const std::string& path,
                                               std::size_t valid_bytes,
                                               const JournalOptions& options);

  void region_commit(const RegionCommitRecord& rec);
  void frame_complete(const FrameCompleteRecord& rec);
  void checkpoint(const CheckpointRecord& rec);

  /// False after any failed write; the master keeps rendering (the journal
  /// degrades to best-effort) and the failure surfaces in ckpt.* metrics.
  bool good() const { return good_; }

  std::int64_t records_appended() const { return records_; }
  std::int64_t bytes_appended() const { return bytes_; }
  std::int64_t checkpoints_written() const { return checkpoints_; }
  /// fsync calls made so far (0 with JournalOptions::fsync off).
  std::int64_t syncs() const { return syncs_; }

 private:
  JournalWriter(int fd, JournalOptions options)
      : fd_(fd), options_(options) {}

  void append(JournalRecordType type, const std::string& payload);

  int fd_ = -1;
  JournalOptions options_;
  bool good_ = true;
  std::int64_t records_ = 0;
  std::int64_t bytes_ = 0;
  std::int64_t checkpoints_ = 0;
  std::int64_t syncs_ = 0;
};

/// Everything replay_journal() recovers from a journal file.
struct JournalReplay {
  /// Header record present and well-formed. When false, `error` says why
  /// and nothing else is meaningful.
  bool ok = false;
  std::string error;

  JournalHeader header;
  /// Folded completion state: checkpoint bitmaps ∪ kFrameComplete records.
  std::vector<bool> frame_complete;
  /// Digest per completed frame (from its kFrameComplete record).
  std::map<std::int32_t, std::uint32_t> frame_digest;
  /// All region commits, in append order.
  std::vector<RegionCommitRecord> commits;
  std::optional<CheckpointRecord> last_checkpoint;

  std::int64_t records = 0;  // valid records consumed (header included)
  /// Byte length of the valid record prefix; a resuming writer truncates
  /// the file to this length before appending.
  std::size_t valid_bytes = 0;
  /// File ended with a torn or corrupt record (the crash tail); everything
  /// after valid_bytes was ignored.
  bool truncated_tail = false;
  /// File offset just past each valid record, in order — lets tests slice
  /// the journal at every record boundary.
  std::vector<std::size_t> record_offsets;
};

/// Read and fold a journal file. Never throws: a missing file or corrupt
/// header comes back with ok == false.
JournalReplay replay_journal(const std::string& path);

}  // namespace now
