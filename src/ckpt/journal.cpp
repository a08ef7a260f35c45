#include "src/ckpt/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include "src/net/crc32.h"
#include "src/net/message.h"

namespace now {
namespace {

constexpr std::uint32_t kJournalMagic = 0x4C4A574Eu;  // "NWJL" little-endian
constexpr std::size_t kFrameOverhead = 4 + 1 + 4 + 4;  // magic+type+len+crc

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

std::string encode_header(const JournalHeader& h) {
  WireWriter w;
  w.u32(h.version);
  w.i32(h.width);
  w.i32(h.height);
  w.i32(h.frame_count);
  if (h.version >= 2) {
    w.i32(h.shard_count);
    w.i32(h.shard_index);
  }
  return w.take();
}

bool decode_header(JournalHeader* h, const std::string& payload) {
  WireReader r(payload);
  if (!(r.u32(&h->version) && r.i32(&h->width) && r.i32(&h->height) &&
        r.i32(&h->frame_count))) {
    return false;
  }
  if (h->version == 1) {
    // Pre-shard journal: single master, single implicit segment.
    h->shard_count = 1;
    h->shard_index = 0;
    return r.done();
  }
  if (h->version != 2) return false;
  return r.i32(&h->shard_count) && r.i32(&h->shard_index) && r.done();
}

std::string encode_region_commit(const RegionCommitRecord& rec) {
  WireWriter w;
  w.i32(rec.task_id);
  put_rect(&w, rec.rect);
  w.i32(rec.frame);
  w.u32(rec.digest);
  return w.take();
}

bool decode_region_commit(RegionCommitRecord* rec, const std::string& payload) {
  WireReader r(payload);
  return r.i32(&rec->task_id) && get_rect(&r, &rec->rect) &&
         r.i32(&rec->frame) && r.u32(&rec->digest) && r.done();
}

std::string encode_frame_complete(const FrameCompleteRecord& rec) {
  WireWriter w;
  w.i32(rec.frame);
  w.u32(rec.digest);
  return w.take();
}

bool decode_frame_complete(FrameCompleteRecord* rec,
                           const std::string& payload) {
  WireReader r(payload);
  return r.i32(&rec->frame) && r.u32(&rec->digest) && r.done();
}

std::string encode_checkpoint(const CheckpointRecord& rec) {
  WireWriter w;
  w.u32(static_cast<std::uint32_t>(rec.completed.size()));
  // Completed bitmap, packed 8 frames per byte.
  std::uint8_t byte = 0;
  for (std::size_t f = 0; f < rec.completed.size(); ++f) {
    if (rec.completed[f]) byte |= static_cast<std::uint8_t>(1u << (f % 8));
    if (f % 8 == 7 || f + 1 == rec.completed.size()) {
      w.u8(byte);
      byte = 0;
    }
  }
  w.u32(static_cast<std::uint32_t>(rec.pending.size()));
  for (const CheckpointRecord::Task& t : rec.pending) {
    w.i32(t.task_id);
    put_rect(&w, t.rect);
    w.i32(t.first_frame);
    w.i32(t.frame_count);
  }
  w.u32(static_cast<std::uint32_t>(rec.in_flight.size()));
  for (const CheckpointRecord::WorkerView& v : rec.in_flight) {
    w.i32(v.worker);
    w.i32(v.task_id);
    put_rect(&w, v.rect);
    w.i32(v.next_expected);
    w.i32(v.end_frame);
  }
  // v2 trailer: scheduler-restart state. Old readers never existed for this
  // format (decode tolerates its absence instead).
  w.i32(rec.next_task_id);
  w.u32(static_cast<std::uint32_t>(rec.stragglers.size()));
  for (const CheckpointRecord::StragglerStat& s : rec.stragglers) {
    w.i32(s.worker);
    w.f64(s.ewma);
    w.f64(s.dev);
    w.i32(s.n);
    w.u8(s.flagged ? 1 : 0);
  }
  return w.take();
}

bool decode_checkpoint(CheckpointRecord* rec, const std::string& payload) {
  WireReader r(payload);
  std::uint32_t frames = 0;
  if (!r.u32(&frames) || frames > (1u << 24)) return false;
  rec->completed.assign(frames, false);
  std::uint8_t byte = 0;
  for (std::uint32_t f = 0; f < frames; ++f) {
    if (f % 8 == 0 && !r.u8(&byte)) return false;
    rec->completed[f] = (byte >> (f % 8)) & 1u;
  }
  std::uint32_t pending = 0;
  if (!r.u32(&pending) || pending > (1u << 24)) return false;
  rec->pending.assign(pending, {});
  for (CheckpointRecord::Task& t : rec->pending) {
    if (!(r.i32(&t.task_id) && get_rect(&r, &t.rect) && r.i32(&t.first_frame) &&
          r.i32(&t.frame_count))) {
      return false;
    }
  }
  std::uint32_t views = 0;
  if (!r.u32(&views) || views > (1u << 24)) return false;
  rec->in_flight.assign(views, {});
  for (CheckpointRecord::WorkerView& v : rec->in_flight) {
    if (!(r.i32(&v.worker) && r.i32(&v.task_id) && get_rect(&r, &v.rect) &&
          r.i32(&v.next_expected) && r.i32(&v.end_frame))) {
      return false;
    }
  }
  if (r.done()) return true;  // pre-restart checkpoint: no trailer
  std::uint32_t stragglers = 0;
  if (!r.i32(&rec->next_task_id) || !r.u32(&stragglers) ||
      stragglers > (1u << 20)) {
    return false;
  }
  rec->stragglers.assign(stragglers, {});
  for (CheckpointRecord::StragglerStat& s : rec->stragglers) {
    std::uint8_t flagged = 0;
    if (!(r.i32(&s.worker) && r.f64(&s.ewma) && r.f64(&s.dev) && r.i32(&s.n) &&
          r.u8(&flagged))) {
      return false;
    }
    s.flagged = flagged != 0;
  }
  return r.done();
}

std::string frame_record(JournalRecordType type, const std::string& payload) {
  WireWriter w;
  w.u32(kJournalMagic);
  w.u8(static_cast<std::uint8_t>(type));
  w.u32(static_cast<std::uint32_t>(payload.size()));
  std::string out = w.take();
  out += payload;
  // CRC covers type + length + payload (the magic is a fixed sentinel).
  const std::uint32_t crc = crc32(out.data() + 4, out.size() - 4);
  WireWriter tail;
  tail.u32(crc);
  out += tail.take();
  return out;
}

}  // namespace

std::string shard_journal_path(const std::string& base, int shard) {
  return base + ".shard" + std::to_string(shard);
}

std::uint32_t digest_rect(const Framebuffer& fb, const PixelRect& rect) {
  // Rows are CRC'd in place: a framebuffer row is packed r,g,b bytes, the
  // exact byte stream the digest is defined over.
  static_assert(sizeof(Rgb8) == 3, "Rgb8 must be three packed bytes");
  std::uint32_t crc = 0;
  const std::size_t row_bytes = static_cast<std::size_t>(rect.width) * 3;
  for (int y = rect.y0; y < rect.y0 + rect.height; ++y) {
    crc = crc32(fb.pixels().data() + fb.index(rect.x0, y), row_bytes, crc);
  }
  return crc;
}

JournalWriter::~JournalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

std::unique_ptr<JournalWriter> JournalWriter::create(
    const std::string& path, const JournalHeader& header,
    const JournalOptions& options) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return nullptr;
  std::unique_ptr<JournalWriter> w(new JournalWriter(fd, options));
  w->append(JournalRecordType::kHeader, encode_header(header));
  if (!w->good()) return nullptr;
  return w;
}

std::unique_ptr<JournalWriter> JournalWriter::resume(
    const std::string& path, std::size_t valid_bytes,
    const JournalOptions& options) {
  const int fd = ::open(path.c_str(), O_WRONLY, 0644);
  if (fd < 0) return nullptr;
  // Discard the crash's torn tail so the file stays a clean record sequence.
  if (::ftruncate(fd, static_cast<off_t>(valid_bytes)) != 0 ||
      ::lseek(fd, 0, SEEK_END) < 0) {
    ::close(fd);
    return nullptr;
  }
  return std::unique_ptr<JournalWriter>(new JournalWriter(fd, options));
}

void JournalWriter::append(JournalRecordType type, const std::string& payload) {
  if (!good_) return;
  const std::string rec = frame_record(type, payload);
  const char* p = rec.data();
  std::size_t left = rec.size();
  while (left > 0) {
    const ssize_t n = ::write(fd_, p, left);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      good_ = false;
      return;
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  // Group commit: only a record that makes a promise is synced. A region
  // commit rides along with the next sync; until then its pixels exist only
  // in memory anyway (see the header comment).
  if (options_.fsync && type != JournalRecordType::kRegionCommit) {
    if (::fsync(fd_) != 0) good_ = false;
    ++syncs_;
  }
  ++records_;
  bytes_ += static_cast<std::int64_t>(rec.size());
}

void JournalWriter::region_commit(const RegionCommitRecord& rec) {
  append(JournalRecordType::kRegionCommit, encode_region_commit(rec));
}

void JournalWriter::frame_complete(const FrameCompleteRecord& rec) {
  append(JournalRecordType::kFrameComplete, encode_frame_complete(rec));
}

void JournalWriter::checkpoint(const CheckpointRecord& rec) {
  append(JournalRecordType::kCheckpoint, encode_checkpoint(rec));
  ++checkpoints_;
}

JournalReplay replay_journal(const std::string& path) {
  JournalReplay out;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    out.error = "cannot open journal: " + path;
    return out;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string bytes = ss.str();

  std::size_t pos = 0;
  bool first = true;
  while (pos < bytes.size()) {
    if (bytes.size() - pos < kFrameOverhead) {
      out.truncated_tail = true;
      break;
    }
    const std::string head_bytes = bytes.substr(pos, 9);
    WireReader head(head_bytes);
    std::uint32_t magic = 0;
    std::uint8_t type = 0;
    std::uint32_t len = 0;
    head.u32(&magic);
    head.u8(&type);
    head.u32(&len);
    if (magic != kJournalMagic || bytes.size() - pos < kFrameOverhead + len) {
      out.truncated_tail = true;
      break;
    }
    const std::uint32_t want_crc =
        crc32(static_cast<const void*>(bytes.data() + pos + 4),
              std::size_t{5} + len);
    const std::string crc_bytes = bytes.substr(pos + 9 + len, 4);
    WireReader tail(crc_bytes);
    std::uint32_t got_crc = 0;
    tail.u32(&got_crc);
    if (want_crc != got_crc) {
      out.truncated_tail = true;
      break;
    }
    const std::string payload = bytes.substr(pos + 9, len);

    bool valid = true;
    switch (static_cast<JournalRecordType>(type)) {
      case JournalRecordType::kHeader: {
        JournalHeader h;
        valid = decode_header(&h, payload);
        if (valid && first) {
          out.header = h;
          out.frame_complete.assign(
              static_cast<std::size_t>(std::max(h.frame_count, 0)), false);
          out.ok = true;
        }
        break;
      }
      case JournalRecordType::kRegionCommit: {
        RegionCommitRecord rec;
        valid = decode_region_commit(&rec, payload);
        if (valid) out.commits.push_back(rec);
        break;
      }
      case JournalRecordType::kFrameComplete: {
        FrameCompleteRecord rec;
        valid = decode_frame_complete(&rec, payload);
        if (valid && rec.frame >= 0 &&
            rec.frame < static_cast<std::int32_t>(out.frame_complete.size())) {
          out.frame_complete[rec.frame] = true;
          out.frame_digest[rec.frame] = rec.digest;
        }
        break;
      }
      case JournalRecordType::kCheckpoint: {
        CheckpointRecord rec;
        valid = decode_checkpoint(&rec, payload);
        if (valid) {
          for (std::size_t f = 0;
               f < rec.completed.size() && f < out.frame_complete.size(); ++f) {
            if (rec.completed[f]) out.frame_complete[f] = true;
          }
          out.last_checkpoint = std::move(rec);
        }
        break;
      }
      default:
        valid = false;
        break;
    }
    if (!valid || (first && static_cast<JournalRecordType>(type) !=
                                JournalRecordType::kHeader)) {
      out.truncated_tail = true;
      break;
    }
    first = false;
    pos += kFrameOverhead + len;
    ++out.records;
    out.valid_bytes = pos;
    out.record_offsets.push_back(pos);
  }
  if (!out.ok && out.error.empty()) {
    out.error = "journal has no valid header record";
  }
  return out;
}

}  // namespace now
