// Crash-consistency building blocks: CRC32, the render journal's record
// framing and replay, torn-tail truncation, resume-append, digest helpers,
// atomic targa writes, and build_recovery's trust-but-verify frame loading.
#include "src/ckpt/journal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "src/ckpt/recovery.h"
#include "src/image/image_io.h"
#include "src/math/rng.h"
#include "src/net/crc32.h"
#include "tests/test_tmp.h"

namespace now {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(f),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary);
  f << bytes;
}

Framebuffer gradient_frame(int w, int h, int seed) {
  Framebuffer fb(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      fb.set(x, y, Rgb8{static_cast<std::uint8_t>((x + seed) & 0xFF),
                        static_cast<std::uint8_t>((y * 3 + seed) & 0xFF),
                        static_cast<std::uint8_t>((x ^ y) & 0xFF)});
    }
  }
  return fb;
}

// -- crc32 ------------------------------------------------------------------

TEST(Crc32, KnownVectorAndIncremental) {
  // The canonical CRC-32 (IEEE 802.3) check value.
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
  // Seeding with a prefix's CRC continues the stream.
  const std::uint32_t head = crc32("12345", 5);
  EXPECT_EQ(crc32("6789", 4, head), 0xCBF43926u);
  // One flipped bit changes the digest.
  EXPECT_NE(crc32("123456788", 9), crc32("123456789", 9));
}

// One table lookup per byte: the textbook reflected CRC-32, kept here as the
// oracle the production routine must match bit for bit.
std::uint32_t crc32_bytewise(const std::uint8_t* p, std::size_t len,
                             std::uint32_t seed = 0) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (std::uint8_t& b : out) {
    b = static_cast<std::uint8_t>(rng.next_below(256));
  }
  return out;
}

TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  // Lengths 0..64 from every start offset 0..7 cover each alignment of a
  // word-at-a-time loop against its head and tail bytes.
  const std::vector<std::uint8_t> buf = random_bytes(64 + 8, 11);
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t len = 0; len <= 64; ++len) {
      const std::uint8_t* p = buf.data() + off;
      ASSERT_EQ(crc32(p, len), crc32_bytewise(p, len))
          << "offset " << off << " length " << len;
      ASSERT_EQ(crc32(p, len, 0x12345678u),
                crc32_bytewise(p, len, 0x12345678u))
          << "seeded, offset " << off << " length " << len;
    }
  }
}

TEST(Crc32, ChainedRandomSplitsOfOneMegabyteMatchReference) {
  const std::vector<std::uint8_t> buf = random_bytes(std::size_t{1} << 20, 7);
  const std::uint32_t want = crc32_bytewise(buf.data(), buf.size());
  EXPECT_EQ(crc32(buf.data(), buf.size()), want);
  Rng rng(2024);
  for (int trial = 0; trial < 8; ++trial) {
    // Chain blocks of random length (0 to ~64 KB), as the journal digests
    // row by row and the wire checksums payload by payload.
    std::uint32_t crc = 0;
    std::size_t pos = 0;
    while (pos < buf.size()) {
      const std::size_t n = std::min<std::size_t>(
          buf.size() - pos, rng.next_below(trial % 2 == 0 ? 64 : 65536));
      crc = crc32(buf.data() + pos, n, crc);
      pos += n;
    }
    EXPECT_EQ(crc, want) << "trial " << trial;
  }
}

// -- journal write / replay -------------------------------------------------

JournalHeader small_header() {
  JournalHeader h;
  h.width = 8;
  h.height = 4;
  h.frame_count = 3;
  return h;
}

RegionCommitRecord sample_commit(int frame) {
  RegionCommitRecord rc;
  rc.task_id = 7;
  rc.rect = PixelRect{0, 0, 8, 4};
  rc.frame = frame;
  rc.digest = 0xDEADBEEFu + static_cast<std::uint32_t>(frame);
  return rc;
}

TEST(Journal, RoundTripAllRecordTypes) {
  const std::string path = test_tmp_path("journal_roundtrip");
  JournalOptions opts;
  opts.fsync = false;
  {
    auto w = JournalWriter::create(path, small_header(), opts);
    ASSERT_NE(w, nullptr);
    w->region_commit(sample_commit(0));
    w->region_commit(sample_commit(1));
    FrameCompleteRecord fc;
    fc.frame = 0;
    fc.digest = 42;
    w->frame_complete(fc);
    CheckpointRecord cp;
    cp.completed = {true, false, false};
    CheckpointRecord::Task t;
    t.task_id = 9;
    t.rect = PixelRect{0, 2, 8, 2};
    t.first_frame = 1;
    t.frame_count = 2;
    cp.pending.push_back(t);
    CheckpointRecord::WorkerView v;
    v.worker = 2;
    v.task_id = 7;
    v.rect = PixelRect{0, 0, 8, 4};
    v.next_expected = 2;
    v.end_frame = 3;
    cp.in_flight.push_back(v);
    w->checkpoint(cp);
    EXPECT_TRUE(w->good());
    EXPECT_EQ(w->records_appended(), 5);  // header + 2 commits + fc + cp
    EXPECT_EQ(w->checkpoints_written(), 1);
  }

  const JournalReplay r = replay_journal(path);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_FALSE(r.truncated_tail);
  EXPECT_EQ(r.records, 5);
  EXPECT_EQ(r.header.width, 8);
  EXPECT_EQ(r.header.height, 4);
  EXPECT_EQ(r.header.frame_count, 3);
  ASSERT_EQ(r.commits.size(), 2u);
  EXPECT_EQ(r.commits[1].frame, 1);
  EXPECT_EQ(r.commits[1].digest, 0xDEADBEEFu + 1);
  EXPECT_EQ(r.commits[0].rect, (PixelRect{0, 0, 8, 4}));
  ASSERT_EQ(r.frame_complete.size(), 3u);
  EXPECT_TRUE(r.frame_complete[0]);
  EXPECT_FALSE(r.frame_complete[1]);
  EXPECT_EQ(r.frame_digest.at(0), 42u);
  ASSERT_TRUE(r.last_checkpoint.has_value());
  EXPECT_EQ(r.last_checkpoint->completed,
            (std::vector<bool>{true, false, false}));
  ASSERT_EQ(r.last_checkpoint->pending.size(), 1u);
  EXPECT_EQ(r.last_checkpoint->pending[0].task_id, 9);
  ASSERT_EQ(r.last_checkpoint->in_flight.size(), 1u);
  EXPECT_EQ(r.last_checkpoint->in_flight[0].next_expected, 2);
  EXPECT_EQ(r.record_offsets.size(), 5u);
  EXPECT_EQ(r.record_offsets.back(), r.valid_bytes);
}

TEST(Journal, CheckpointV2TrailerRoundTripsSchedulerState) {
  const std::string path = test_tmp_path("journal_ckpt_v2");
  JournalOptions opts;
  opts.fsync = false;
  {
    auto w = JournalWriter::create(path, small_header(), opts);
    ASSERT_NE(w, nullptr);
    CheckpointRecord cp;
    cp.completed = {false, false, false};
    cp.next_task_id = 1234;
    CheckpointRecord::StragglerStat s;
    s.worker = 1;
    s.ewma = 0.75;
    s.dev = 0.125;
    s.n = 9;
    s.flagged = true;
    cp.stragglers.push_back(s);
    s.worker = 2;
    s.ewma = 1.5;
    s.flagged = false;
    cp.stragglers.push_back(s);
    w->checkpoint(cp);
    EXPECT_TRUE(w->good());
  }

  const JournalReplay r = replay_journal(path);
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_TRUE(r.last_checkpoint.has_value());
  EXPECT_EQ(r.last_checkpoint->next_task_id, 1234);
  ASSERT_EQ(r.last_checkpoint->stragglers.size(), 2u);
  EXPECT_EQ(r.last_checkpoint->stragglers[0].worker, 1);
  EXPECT_DOUBLE_EQ(r.last_checkpoint->stragglers[0].ewma, 0.75);
  EXPECT_DOUBLE_EQ(r.last_checkpoint->stragglers[0].dev, 0.125);
  EXPECT_EQ(r.last_checkpoint->stragglers[0].n, 9);
  EXPECT_TRUE(r.last_checkpoint->stragglers[0].flagged);
  EXPECT_EQ(r.last_checkpoint->stragglers[1].worker, 2);
  EXPECT_FALSE(r.last_checkpoint->stragglers[1].flagged);
}

TEST(Journal, TornTailIsIgnoredAtEveryTruncationPoint) {
  const std::string path = test_tmp_path("journal_torn");
  JournalOptions opts;
  opts.fsync = false;
  {
    auto w = JournalWriter::create(path, small_header(), opts);
    ASSERT_NE(w, nullptr);
    for (int f = 0; f < 3; ++f) w->region_commit(sample_commit(f));
  }
  const std::string bytes = read_file(path);
  const JournalReplay full = replay_journal(path);
  ASSERT_TRUE(full.ok);
  ASSERT_EQ(full.record_offsets.size(), 4u);

  // Cutting mid-record keeps exactly the records before the cut.
  for (std::size_t len = 0; len <= bytes.size(); ++len) {
    const std::string cut_path = path + ".cut";
    write_file(cut_path, bytes.substr(0, len));
    const JournalReplay r = replay_journal(cut_path);
    std::int64_t expect_records = 0;
    for (const std::size_t off : full.record_offsets) {
      if (off <= len) ++expect_records;
    }
    if (len < full.record_offsets[0]) {
      // Not even a whole header: unusable.
      EXPECT_FALSE(r.ok) << "len=" << len;
    } else {
      ASSERT_TRUE(r.ok) << "len=" << len << ": " << r.error;
      EXPECT_EQ(r.records, expect_records) << "len=" << len;
      EXPECT_EQ(r.truncated_tail,
                len != full.record_offsets[expect_records - 1])
          << "len=" << len;
      EXPECT_EQ(r.valid_bytes, full.record_offsets[expect_records - 1]);
    }
    std::remove(cut_path.c_str());
  }
}

TEST(Journal, CorruptMiddleRecordTruncatesReplayThere) {
  const std::string path = test_tmp_path("journal_corrupt");
  JournalOptions opts;
  opts.fsync = false;
  {
    auto w = JournalWriter::create(path, small_header(), opts);
    for (int f = 0; f < 3; ++f) w->region_commit(sample_commit(f));
  }
  std::string bytes = read_file(path);
  const JournalReplay full = replay_journal(path);
  ASSERT_TRUE(full.ok);
  // Flip one payload byte inside the second commit record.
  bytes[full.record_offsets[1] + 10] ^= 0x01;
  write_file(path, bytes);
  const JournalReplay r = replay_journal(path);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.commits.size(), 1u);
  EXPECT_TRUE(r.truncated_tail);
  EXPECT_EQ(r.valid_bytes, full.record_offsets[1]);
}

TEST(Journal, ResumeTruncatesTornTailAndAppends) {
  const std::string path = test_tmp_path("journal_resume");
  JournalOptions opts;
  opts.fsync = false;
  {
    auto w = JournalWriter::create(path, small_header(), opts);
    w->region_commit(sample_commit(0));
    w->region_commit(sample_commit(1));
  }
  // Simulate a crash mid-append: chop the final record in half.
  const std::string bytes = read_file(path);
  const JournalReplay before = replay_journal(path);
  ASSERT_TRUE(before.ok);
  write_file(path, bytes.substr(0, before.record_offsets[2] - 5));
  const JournalReplay torn = replay_journal(path);
  ASSERT_TRUE(torn.ok);
  ASSERT_TRUE(torn.truncated_tail);
  EXPECT_EQ(torn.commits.size(), 1u);

  {
    auto w = JournalWriter::resume(path, torn.valid_bytes, opts);
    ASSERT_NE(w, nullptr);
    w->region_commit(sample_commit(2));
    EXPECT_TRUE(w->good());
  }
  const JournalReplay after = replay_journal(path);
  ASSERT_TRUE(after.ok) << after.error;
  EXPECT_FALSE(after.truncated_tail);
  ASSERT_EQ(after.commits.size(), 2u);
  EXPECT_EQ(after.commits[0].frame, 0);
  EXPECT_EQ(after.commits[1].frame, 2);  // the torn record stayed dead
}

TEST(Journal, GroupCommitSyncsOnlyRecordsThatMakeAPromise) {
  const std::string path = test_tmp_path("journal_syncs");
  for (const bool fsync : {true, false}) {
    JournalOptions opts;
    opts.fsync = fsync;
    const int on = fsync ? 1 : 0;
    {
      auto w = JournalWriter::create(path, small_header(), opts);
      ASSERT_NE(w, nullptr);
      EXPECT_EQ(w->syncs(), on);  // the header
      w->region_commit(sample_commit(0));
      w->region_commit(sample_commit(0));
      EXPECT_EQ(w->syncs(), on);  // region commits ride along...
      w->frame_complete(FrameCompleteRecord{0, 1});
      EXPECT_EQ(w->syncs(), 2 * on);  // ...with the frame's completion
      w->region_commit(sample_commit(1));
      w->checkpoint(CheckpointRecord{});
      EXPECT_EQ(w->syncs(), 3 * on);
      EXPECT_EQ(w->records_appended(), 6);
      EXPECT_TRUE(w->good());
    }
    // A resumed writer appends without a header and counts from zero.
    const JournalReplay r = replay_journal(path);
    ASSERT_TRUE(r.ok) << r.error;
    auto w = JournalWriter::resume(path, r.valid_bytes, opts);
    ASSERT_NE(w, nullptr);
    w->region_commit(sample_commit(2));
    EXPECT_EQ(w->syncs(), 0);
    w->frame_complete(FrameCompleteRecord{2, 3});
    EXPECT_EQ(w->syncs(), on);
  }
}

TEST(Journal, MissingFileReportsNotOk) {
  const JournalReplay r = replay_journal(test_tmp_path("journal_nonexistent"));
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.error.empty());
}

TEST(Journal, DigestRectCoversExactlyTheRect) {
  const Framebuffer fb = gradient_frame(16, 8, 1);
  Framebuffer outside = fb;
  outside.set(0, 0, Rgb8{255, 255, 255});
  const PixelRect rect{8, 2, 6, 4};
  // Changing a pixel outside the rect leaves its digest alone...
  EXPECT_EQ(digest_rect(fb, rect), digest_rect(outside, rect));
  // ...changing one inside does not.
  Framebuffer inside = fb;
  inside.set(9, 3, Rgb8{255, 255, 255});
  EXPECT_NE(digest_rect(fb, rect), digest_rect(inside, rect));
  EXPECT_EQ(digest_frame(fb), digest_rect(fb, fb.full_rect()));
}

TEST(Journal, DigestRectMatchesCopyTheRowReference) {
  // The digest is defined as chained CRCs of each row's r,g,b bytes; the
  // reference copies every row out before checksumming it.
  const Framebuffer fb = gradient_frame(37, 11, 5);
  const auto reference = [&](const PixelRect& rect) {
    std::uint32_t crc = 0;
    for (int y = rect.y0; y < rect.y0 + rect.height; ++y) {
      std::vector<std::uint8_t> row;
      for (int x = rect.x0; x < rect.x0 + rect.width; ++x) {
        const Rgb8 p = fb.at(x, y);
        row.insert(row.end(), {p.r, p.g, p.b});
      }
      crc = crc32_bytewise(row.data(), row.size(), crc);
    }
    return crc;
  };
  const std::vector<PixelRect> rects = {
      {5, 2, 0, 4},    // width 0
      {5, 2, 1, 4},    // width 1
      {36, 0, 1, 11},  // the last column
      {0, 10, 37, 1},  // the last row
      {3, 1, 20, 7},
      {4, 4, 6, 0},    // height 0
      fb.full_rect(),
  };
  for (const PixelRect& r : rects) {
    EXPECT_EQ(digest_rect(fb, r), reference(r))
        << r.x0 << "," << r.y0 << " " << r.width << "x" << r.height;
  }
  EXPECT_EQ(digest_frame(fb), reference(fb.full_rect()));
}

// -- atomic targa writes ----------------------------------------------------

TEST(AtomicTga, WritesReadableFileAndCleansTemp) {
  const std::string path = test_tmp_path("atomic") + ".tga";
  const Framebuffer fb = gradient_frame(20, 10, 3);
  ASSERT_TRUE(write_tga_atomic(fb, path));
  Framebuffer back;
  ASSERT_TRUE(read_tga(&back, path));
  EXPECT_EQ(back, fb);
  // The rename source must be gone.
  std::ifstream tmp(path + ".tmp", std::ios::binary);
  EXPECT_FALSE(tmp.good());
  // Same bytes as the plain writer: atomicity changes durability, not
  // content.
  EXPECT_EQ(read_file(path), encode_tga(fb));
  // Overwrite in place.
  const Framebuffer fb2 = gradient_frame(20, 10, 9);
  ASSERT_TRUE(write_tga_atomic(fb2, path));
  ASSERT_TRUE(read_tga(&back, path));
  EXPECT_EQ(back, fb2);
}

TEST(AtomicTga, FailsCleanlyOnUnwritableDirectory) {
  const Framebuffer fb = gradient_frame(4, 4, 0);
  EXPECT_FALSE(write_tga_atomic(fb, "/nonexistent_dir_zz/frame.tga"));
}

// -- build_recovery ---------------------------------------------------------

TEST(Recovery, RestoresVerifiedFramesAndDemotesBadOnes) {
  const std::string dir = test_tmp_dir();
  const std::string prefix = "rec";
  const std::string journal = test_tmp_path("recovery_journal");
  const int w = 12, h = 6, frames = 4;
  JournalOptions opts;
  opts.fsync = false;

  std::vector<Framebuffer> fbs;
  for (int f = 0; f < frames; ++f) fbs.push_back(gradient_frame(w, h, f));
  {
    JournalHeader header;
    header.width = w;
    header.height = h;
    header.frame_count = frames;
    auto jw = JournalWriter::create(journal, header, opts);
    ASSERT_NE(jw, nullptr);
    // Frames 0, 1, 2 complete per the journal; frame 3 never finished.
    for (int f = 0; f < 3; ++f) {
      ASSERT_TRUE(
          write_tga_atomic(fbs[f], frame_file_path(dir, prefix, f)));
      FrameCompleteRecord fc;
      fc.frame = f;
      fc.digest = digest_frame(fbs[f]);
      jw->frame_complete(fc);
    }
  }
  // Frame 1's file is altered after the fact; frame 2's file vanishes.
  {
    Framebuffer tampered = fbs[1];
    tampered.set(0, 0, Rgb8{1, 2, 3});
    ASSERT_TRUE(write_tga(tampered, frame_file_path(dir, prefix, 1)));
  }
  std::remove(frame_file_path(dir, prefix, 2).c_str());

  const RecoveryState rec =
      build_recovery(journal, dir, prefix, w, h, frames);
  ASSERT_TRUE(rec.ok) << rec.error;
  EXPECT_EQ(rec.frames_restored, 1);
  EXPECT_EQ(rec.frames_demoted, 2);
  EXPECT_EQ(rec.frames_to_render, 3);
  ASSERT_EQ(rec.frames.size(), static_cast<std::size_t>(frames));
  ASSERT_TRUE(rec.frames[0].has_value());
  EXPECT_EQ(*rec.frames[0], fbs[0]);
  EXPECT_FALSE(rec.frames[1].has_value());
  EXPECT_FALSE(rec.frames[2].has_value());
  EXPECT_FALSE(rec.frames[3].has_value());

  // A journal from a different animation is rejected.
  const RecoveryState mismatch =
      build_recovery(journal, dir, prefix, w + 1, h, frames);
  EXPECT_FALSE(mismatch.ok);

}

}  // namespace
}  // namespace now
