// Crash-consistent resume, end to end: interrupt a journaled run at every
// possible journal state (sliced at each record boundary, plus torn tails),
// resume from what a crash would have left on disk, and demand the final
// animation be byte-identical to an uninterrupted run — the tentpole
// guarantee of the recovery subsystem.
#include "src/par/render_farm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

#include "src/ckpt/journal.h"
#include "src/ckpt/recovery.h"
#include "src/image/image_io.h"
#include "src/scene/builtin_scenes.h"
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

void expect_frames_equal(const std::vector<Framebuffer>& got,
                         const std::vector<Framebuffer>& want,
                         const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t f = 0; f < got.size(); ++f) {
    ASSERT_EQ(got[f], want[f]) << label << " frame " << f;
  }
}

FarmConfig journal_config(const std::string& dir) {
  FarmConfig config;
  config.backend = FarmBackend::kSim;
  config.worker_speeds = {1.0, 0.5, 1.5};  // heterogeneous, deterministic
  config.partition.scheme = PartitionScheme::kSequenceDivision;
  config.partition.adaptive = true;
  config.partition.min_split_frames = 2;
  config.output_dir = dir;
  config.output_prefix = "frame";
  config.journal_path = dir + "/render.journal";
  config.journal_fsync = false;        // replay logic under test, not disks
  config.journal_checkpoint_every = 2; // force checkpoint records into play
  return config;
}

TEST(Resume, CheckpointsRecordProgressPastEveryCommit) {
  // Each checkpoint is written after the committing worker's progress
  // update, so no in-flight view lags its own task's journaled commits: a
  // scheduler resumed from the checkpoint never re-renders a region-frame
  // the journal already holds.
  const AnimatedScene scene = orbit_scene(3, 8, 40, 30);
  const std::string dir = test_tmp_subdir("ckpt_order");
  FarmConfig config = journal_config(dir);
  config.journal_checkpoint_every = 1;
  const FarmResult result = render_farm(scene, config);
  ASSERT_EQ(result.master.frames_completed, scene.frame_count());

  const std::string bytes = read_file(config.journal_path);
  const JournalReplay full = replay_journal(config.journal_path);
  ASSERT_TRUE(full.ok) << full.error;
  // Records are framed as u32 magic, u8 type, u32 length, payload, u32 crc;
  // record i + 1 starts where record i ends.
  int checkpoints = 0;
  int views_checked = 0;
  std::size_t start = 0;
  for (const std::size_t end : full.record_offsets) {
    const auto type = static_cast<JournalRecordType>(bytes[start + 4]);
    if (type == JournalRecordType::kCheckpoint) {
      // Replay exactly the prefix that ends with this checkpoint.
      const std::string prefix_path = dir + "/prefix.journal";
      write_file(prefix_path, bytes.substr(0, end));
      const JournalReplay prefix = replay_journal(prefix_path);
      ASSERT_TRUE(prefix.ok && prefix.last_checkpoint.has_value());
      ++checkpoints;
      for (const CheckpointRecord::WorkerView& v :
           prefix.last_checkpoint->in_flight) {
        int latest = -1;
        for (const RegionCommitRecord& c : prefix.commits) {
          if (c.task_id == v.task_id) latest = std::max(latest, c.frame);
        }
        if (latest < 0) continue;
        ++views_checked;
        EXPECT_GT(v.next_expected, latest)
            << "checkpoint " << checkpoints << " worker " << v.worker
            << " task " << v.task_id;
      }
    }
    start = end;
  }
  EXPECT_GT(checkpoints, 0);
  EXPECT_GT(views_checked, 0);
}

TEST(Resume, FreshRunWritesAVerifiableJournal) {
  const std::string dir = test_tmp_subdir("resume_fresh");
  const AnimatedScene scene = orbit_scene(3, 6, 48, 36);
  const FarmConfig config = journal_config(dir);
  const FarmResult result = render_farm(scene, config);
  ASSERT_EQ(result.master.frames_completed, scene.frame_count());
  EXPECT_TRUE(result.master.journal_ok);
  EXPECT_GT(result.master.journal_records, 0);
  EXPECT_GT(result.master.journal_checkpoints, 0);
  EXPECT_EQ(result.metrics.counter("ckpt.journal_records"),
            static_cast<std::uint64_t>(result.master.journal_records));

  const JournalReplay replay = replay_journal(config.journal_path);
  ASSERT_TRUE(replay.ok) << replay.error;
  EXPECT_FALSE(replay.truncated_tail);
  for (int f = 0; f < scene.frame_count(); ++f) {
    EXPECT_TRUE(replay.frame_complete[f]) << "frame " << f;
    // The frame file on disk is exactly the assembled frame, and its digest
    // matches the journal record.
    EXPECT_EQ(read_file(frame_file_path(dir, "frame", f)),
              encode_tga(result.frames[f]));
    EXPECT_EQ(replay.frame_digest.at(f), digest_frame(result.frames[f]));
  }
}

TEST(Resume, ByteIdenticalFromEveryRecordBoundary) {
  const AnimatedScene scene = orbit_scene(3, 6, 48, 36);
  const std::string base = test_tmp_subdir("resume_base");
  const FarmConfig base_config = journal_config(base);
  const FarmResult clean = render_farm(scene, base_config);
  ASSERT_EQ(clean.master.frames_completed, scene.frame_count());

  const std::string journal_bytes = read_file(base_config.journal_path);
  const JournalReplay replay = replay_journal(base_config.journal_path);
  ASSERT_TRUE(replay.ok) << replay.error;
  ASSERT_GE(replay.record_offsets.size(), 3u);

  // A crash can leave the journal cut at any record boundary (fsync per
  // append) or mid-record (torn tail). The frame files present are a
  // superset of what the journal prefix declares complete — the TGA is
  // renamed into place *before* its record is appended — which copying all
  // of them models conservatively.
  std::vector<std::size_t> cuts(replay.record_offsets);
  for (std::size_t i = 0; i + 1 < replay.record_offsets.size(); i += 3) {
    cuts.push_back(replay.record_offsets[i] + 7);  // torn mid-record
  }
  for (const std::size_t cut : cuts) {
    ASSERT_LE(cut, journal_bytes.size());
    const std::string dir = test_tmp_subdir("resume_cut");
    write_file(dir + "/render.journal", journal_bytes.substr(0, cut));
    for (int f = 0; f < scene.frame_count(); ++f) {
      write_file(frame_file_path(dir, "frame", f),
                 read_file(frame_file_path(base, "frame", f)));
    }

    FarmConfig config = journal_config(dir);
    config.resume = true;
    const FarmResult result = render_farm(scene, config);
    ASSERT_TRUE(result.resume.resumed);
    EXPECT_EQ(result.master.frames_restored,
              static_cast<std::int64_t>(result.resume.frames_restored));
    // Restored frames are skipped, not re-rendered: the two counts partition
    // the animation exactly.
    EXPECT_EQ(result.master.frames_completed + result.resume.frames_restored,
              scene.frame_count())
        << "cut@" << cut;
    expect_frames_equal(result.frames, clean.frames,
                        "cut@" + std::to_string(cut));
    // The files on disk are byte-identical to the uninterrupted run's.
    for (int f = 0; f < scene.frame_count(); ++f) {
      EXPECT_EQ(read_file(frame_file_path(dir, "frame", f)),
                read_file(frame_file_path(base, "frame", f)))
          << "cut@" << cut << " frame " << f;
    }
    // The resumed journal is whole again: replayable, no torn tail, every
    // frame complete.
    const JournalReplay after = replay_journal(config.journal_path);
    ASSERT_TRUE(after.ok) << after.error;
    EXPECT_FALSE(after.truncated_tail);
    for (int f = 0; f < scene.frame_count(); ++f) {
      EXPECT_TRUE(after.frame_complete[f]) << "cut@" << cut;
    }
  }
}

TEST(Resume, FullJournalRestoresEverythingWithoutRendering) {
  const AnimatedScene scene = orbit_scene(3, 6, 48, 36);
  const std::string dir = test_tmp_subdir("resume_full");
  const FarmConfig base_config = journal_config(dir);
  const FarmResult clean = render_farm(scene, base_config);

  FarmConfig config = base_config;
  config.resume = true;
  const FarmResult result = render_farm(scene, config);
  EXPECT_EQ(result.resume.frames_restored, scene.frame_count());
  EXPECT_EQ(result.master.frames_restored,
            static_cast<std::int64_t>(scene.frame_count()));
  std::int64_t rendered = 0;
  for (const WorkerReport& w : result.workers) rendered += w.frames_rendered;
  EXPECT_EQ(rendered, 0) << "a fully-restored run must render nothing";
  expect_frames_equal(result.frames, clean.frames, "full-restore");
}

TEST(Resume, MissingOrTamperedFrameFilesAreReRendered) {
  const AnimatedScene scene = orbit_scene(3, 6, 48, 36);
  const std::string dir = test_tmp_subdir("resume_demote");
  const FarmConfig base_config = journal_config(dir);
  const FarmResult clean = render_farm(scene, base_config);

  // Frame 1 vanishes; frame 2 is silently altered after its record was
  // written. Both must be caught (file check / digest check) and re-rendered
  // to the same bytes.
  std::remove(frame_file_path(dir, "frame", 1).c_str());
  {
    Framebuffer tampered = clean.frames[2];
    tampered.set(0, 0, Rgb8{255, 0, 255});
    ASSERT_TRUE(write_tga(tampered, frame_file_path(dir, "frame", 2)));
  }

  FarmConfig config = base_config;
  config.resume = true;
  const FarmResult result = render_farm(scene, config);
  EXPECT_EQ(result.resume.frames_demoted, 2);
  EXPECT_EQ(result.resume.frames_restored, scene.frame_count() - 2);
  expect_frames_equal(result.frames, clean.frames, "demoted");
  EXPECT_EQ(read_file(frame_file_path(dir, "frame", 1)),
            encode_tga(clean.frames[1]));
  EXPECT_EQ(read_file(frame_file_path(dir, "frame", 2)),
            encode_tga(clean.frames[2]));
}

TEST(Resume, JournalFromADifferentAnimationIsRejected) {
  const AnimatedScene scene = orbit_scene(3, 6, 48, 36);
  const std::string dir = test_tmp_subdir("resume_mismatch");
  render_farm(scene, journal_config(dir));

  const AnimatedScene other = orbit_scene(3, 8, 48, 36);
  FarmConfig config = journal_config(dir);
  config.resume = true;
  EXPECT_THROW(render_farm(other, config), std::invalid_argument);
}

TEST(Resume, ValidationRequiresJournalAndOutputDir) {
  const AnimatedScene scene = orbit_scene(2, 4, 32, 24);
  FarmConfig config;
  config.backend = FarmBackend::kSim;
  config.worker_speeds = {1.0};
  config.resume = true;  // no journal_path
  EXPECT_THROW(validate_farm_config(scene, config), std::invalid_argument);

  FarmConfig no_out;
  no_out.backend = FarmBackend::kSim;
  no_out.worker_speeds = {1.0};
  no_out.journal_path = "/tmp/j";  // journal without output_dir
  EXPECT_THROW(validate_farm_config(scene, no_out), std::invalid_argument);
}

}  // namespace
}  // namespace now
