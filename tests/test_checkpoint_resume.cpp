// Kill-and-resume equivalence for the checkpointed campaigns: a run
// that is stopped at a checkpoint boundary, then resumed from the file,
// must finish with results *bit-identical* to an uninterrupted run — at
// every thread count and every checkpoint cadence. The deterministic
// "kill" is CheckpointSpec::pause_after, which stops the campaign at
// the first segment boundary past N trials and force-writes the
// checkpoint, exactly what a SIGTERM between two segments would leave
// on disk. The rejection half of the suite proves damaged checkpoint
// files (truncated, bit-flipped, wrong version, wrong campaign, wrong
// spec) are refused with a clean SpecError instead of resuming from
// garbage.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "models/wafermap.hpp"
#include "models/yield.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace bisram {
namespace {

/// Forces the engine to `n` threads for the enclosing scope.
class ThreadGuard {
 public:
  explicit ThreadGuard(int n) : prev_(set_campaign_threads(n)) {}
  ~ThreadGuard() { set_campaign_threads(prev_); }

 private:
  int prev_;
};

constexpr int kThreadCounts[] = {1, 2, 8};

/// Two checkpoint cadences: the trials/16 default and a deliberately
/// tiny interval that clamps to one segment per chunk — the densest
/// boundary grid the engine supports.
constexpr std::int64_t kIntervals[] = {0, 1};

sim::RamGeometry small_geo() {
  sim::RamGeometry g;
  g.words = 64;
  g.bpw = 4;
  g.bpc = 4;
  g.spare_rows = 4;
  return g;
}

models::WaferSpec wafer_spec() {
  models::WaferSpec w;
  w.wafer_mm = 150;
  w.die_w_mm = 10;
  w.die_h_mm = 10;
  w.defects_per_cm2 = 1.0;
  w.cluster_alpha = 2.0;
  w.ram_fraction = 0.3;
  w.ram_geo = small_geo();
  return w;
}

std::string scratch_path(const std::string& name) {
  return ::testing::TempDir() + "bisram_" + name + ".ckpt";
}

/// Removes the file on scope exit so reruns start clean.
class FileJanitor {
 public:
  explicit FileJanitor(std::string path) : path_(std::move(path)) {
    std::remove(path_.c_str());
  }
  ~FileJanitor() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

void expect_wafer_equal(const models::WaferCampaignStats& a,
                        const models::WaferCampaignStats& b,
                        const std::string& what) {
  EXPECT_EQ(a.yield_with_bisr, b.yield_with_bisr) << what;
  EXPECT_EQ(a.yield_with_bisr_se, b.yield_with_bisr_se) << what;
  EXPECT_EQ(a.yield_without_bisr, b.yield_without_bisr) << what;
  EXPECT_EQ(a.yield_without_bisr_se, b.yield_without_bisr_se) << what;
  EXPECT_EQ(a.mean_defects_per_die, b.mean_defects_per_die) << what;
  EXPECT_EQ(a.mean_defects_per_die_se, b.mean_defects_per_die_se) << what;
  EXPECT_EQ(a.die_sims, b.die_sims) << what;
}

void expect_yield_equal(const models::BisrYieldMc& a,
                        const models::BisrYieldMc& b,
                        const std::string& what) {
  EXPECT_EQ(a.bist_repaired, b.bist_repaired) << what;
  EXPECT_EQ(a.bist_repaired_se, b.bist_repaired_se) << what;
  EXPECT_EQ(a.strict_good, b.strict_good) << what;
  EXPECT_EQ(a.strict_good_se, b.strict_good_se) << what;
  EXPECT_EQ(a.die_sims, b.die_sims) << what;
}

/// The shared drill: uninterrupted reference, then pause -> resume at
/// every (threads, interval) combination, asserting bitwise equality.
template <typename Run, typename Equal>
void kill_and_resume_drill(Run&& run, Equal&& equal, const char* tag,
                           std::int64_t trials = 20000) {
  ThreadGuard serial(1);
  sim::CampaignSpec base{.trials = trials, .seed = 42};
  const auto reference = run(base);
  ASSERT_EQ(reference.termination, Termination::Completed);
  for (int threads : kThreadCounts) {
    ThreadGuard guard(threads);
    for (std::int64_t interval : kIntervals) {
      FileJanitor file(scratch_path(std::string(tag) + "_t" +
                                    std::to_string(threads) + "_i" +
                                    std::to_string(interval)));
      sim::CampaignSpec first = base;
      first.checkpoint.path = file.path();
      first.checkpoint.interval = interval;
      first.checkpoint.pause_after = base.trials / 3;
      const auto paused = run(first);
      const std::string what = std::string(tag) + ", " +
                               std::to_string(threads) + " threads, interval " +
                               std::to_string(interval);
      ASSERT_EQ(paused.termination, Termination::Cancelled) << what;
      ASSERT_GT(paused.provenance.checkpoints_written, 0) << what;
      ASSERT_LT(paused.provenance.trials_done, base.trials) << what;

      sim::CampaignSpec second = base;
      second.checkpoint.resume = file.path();
      second.checkpoint.interval = interval;
      const auto resumed = run(second);
      ASSERT_EQ(resumed.termination, Termination::Resumed) << what;
      equal(reference.value, resumed.value, what);
    }
  }
}

TEST(KillAndResume, WaferPlainBitIdentical) {
  const models::WaferSpec wafer = wafer_spec();
  kill_and_resume_drill(
      [&](sim::CampaignSpec s) {
        s.sampling.mode = sim::SamplingMode::Plain;
        return models::wafer_yield_campaign(wafer, s);
      },
      expect_wafer_equal, "wafer_plain");
}

TEST(KillAndResume, WaferStratifiedBitIdentical) {
  const models::WaferSpec wafer = wafer_spec();
  kill_and_resume_drill(
      [&](sim::CampaignSpec s) {
        s.sampling.mode = sim::SamplingMode::Stratified;
        return models::wafer_yield_campaign(wafer, s);
      },
      expect_wafer_equal, "wafer_strat");
}

TEST(KillAndResume, YieldPlainBitIdentical) {
  kill_and_resume_drill(
      [&](sim::CampaignSpec s) {
        s.sampling.mode = sim::SamplingMode::Plain;
        return models::bisr_yield_mc_with_bist(small_geo(), 3.0, 2.0, 1.05,
                                               s);
      },
      expect_yield_equal, "yield_plain", /*trials=*/1600);
}

TEST(KillAndResume, YieldStratifiedBitIdentical) {
  kill_and_resume_drill(
      [&](sim::CampaignSpec s) {
        s.sampling.mode = sim::SamplingMode::Stratified;
        return models::bisr_yield_mc_with_bist(small_geo(), 3.0, 2.0, 1.05,
                                               s);
      },
      expect_yield_equal, "yield_strat", /*trials=*/1600);
}

TEST(KillAndResume, TwoConsecutivePausesStillBitIdentical) {
  // Kill, resume, kill again, resume again: the chain of partial files
  // must compose to the uninterrupted answer.
  const models::WaferSpec wafer = wafer_spec();
  sim::CampaignSpec base{.trials = 20000, .seed = 42};
  ThreadGuard guard(2);
  const auto reference = models::wafer_yield_campaign(wafer, base);

  FileJanitor file(scratch_path("two_pauses"));
  sim::CampaignSpec leg = base;
  leg.checkpoint.path = file.path();
  leg.checkpoint.pause_after = 5000;
  const auto first = models::wafer_yield_campaign(wafer, leg);
  ASSERT_EQ(first.termination, Termination::Cancelled);

  leg.checkpoint.resume = file.path();
  leg.checkpoint.pause_after = 6000;  // past the restored point
  const auto second = models::wafer_yield_campaign(wafer, leg);
  ASSERT_EQ(second.termination, Termination::Cancelled);
  ASSERT_GT(second.provenance.trials_done, 0);

  sim::CampaignSpec last = base;
  last.checkpoint.resume = file.path();
  const auto final_run = models::wafer_yield_campaign(wafer, last);
  ASSERT_EQ(final_run.termination, Termination::Resumed);
  expect_wafer_equal(reference.value, final_run.value, "two pauses");
}

TEST(KillAndResume, ResumeAtCheckpointEqualsCompletedFileIsIgnored) {
  // Pausing past the end is a no-op kill: the campaign completes and
  // reports Completed, not Cancelled.
  const models::WaferSpec wafer = wafer_spec();
  FileJanitor file(scratch_path("pause_past_end"));
  sim::CampaignSpec s{.trials = 4000, .seed = 9};
  s.checkpoint.path = file.path();
  s.checkpoint.pause_after = 400000;
  const auto r = models::wafer_yield_campaign(wafer, s);
  EXPECT_EQ(r.termination, Termination::Completed);
}

// --- damaged-file rejection ------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << path;
  return std::string((std::istreambuf_iterator<char>(f)),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Writes a real wafer checkpoint and returns its bytes.
std::string make_checkpoint(const models::WaferSpec& wafer,
                            const std::string& path) {
  sim::CampaignSpec s{.trials = 20000, .seed = 42};
  s.checkpoint.path = path;
  s.checkpoint.pause_after = 5000;
  const auto r = models::wafer_yield_campaign(wafer, s);
  EXPECT_EQ(r.termination, Termination::Cancelled);
  return read_file(path);
}

TEST(CheckpointRejection, DamagedFilesAreRefusedCleanly) {
  const models::WaferSpec wafer = wafer_spec();
  FileJanitor file(scratch_path("damaged"));
  const std::string good = make_checkpoint(wafer, file.path());
  ASSERT_GT(good.size(), 24u);

  sim::CampaignSpec resume{.trials = 20000, .seed = 42};
  resume.checkpoint.resume = file.path();
  auto expect_refused = [&](const std::string& bytes, const char* what) {
    write_file(file.path(), bytes);
    EXPECT_THROW(models::wafer_yield_campaign(wafer, resume), SpecError)
        << what;
  };

  expect_refused(good.substr(0, good.size() / 2), "truncated payload");
  expect_refused(good.substr(0, 6), "shorter than the header");
  expect_refused(std::string(), "empty file");

  std::string flipped = good;
  flipped[flipped.size() / 2] =
      static_cast<char>(flipped[flipped.size() / 2] ^ 0x40);
  expect_refused(flipped, "bit flip in the payload (CRC)");

  std::string bad_magic = good;
  bad_magic[0] = 'X';
  expect_refused(bad_magic, "wrong magic");

  std::string bad_version = good;
  bad_version[8] = static_cast<char>(bad_version[8] ^ 0x7f);
  expect_refused(bad_version, "wrong format version");

  // The intact file still resumes — the damage above was the problem,
  // not the harness.
  write_file(file.path(), good);
  const auto ok = models::wafer_yield_campaign(wafer, resume);
  EXPECT_EQ(ok.termination, Termination::Resumed);
}

TEST(CheckpointRejection, WrongSpecOrCampaignFingerprint) {
  const models::WaferSpec wafer = wafer_spec();
  FileJanitor file(scratch_path("fingerprint"));
  make_checkpoint(wafer, file.path());

  // Different seed: the streams would not line up.
  sim::CampaignSpec wrong_seed{.trials = 20000, .seed = 43};
  wrong_seed.checkpoint.resume = file.path();
  EXPECT_THROW(models::wafer_yield_campaign(wafer, wrong_seed), SpecError);

  // Different trial budget: the segment grid would not line up.
  sim::CampaignSpec wrong_trials{.trials = 30000, .seed = 42};
  wrong_trials.checkpoint.resume = file.path();
  EXPECT_THROW(models::wafer_yield_campaign(wafer, wrong_trials), SpecError);

  // Different wafer geometry: a different experiment entirely.
  models::WaferSpec other = wafer;
  other.defects_per_cm2 = 2.0;
  sim::CampaignSpec same{.trials = 20000, .seed = 42};
  same.checkpoint.resume = file.path();
  EXPECT_THROW(models::wafer_yield_campaign(other, same), SpecError);

  // A wafer checkpoint fed to the BIST yield campaign.
  sim::CampaignSpec cross{.trials = 20000, .seed = 42};
  cross.checkpoint.resume = file.path();
  EXPECT_THROW(
      models::bisr_yield_mc_with_bist(small_geo(), 3.0, 2.0, 1.05, cross),
      SpecError);

  // A plain-mode checkpoint fed to a stratified resume of the same spec.
  sim::CampaignSpec cross_mode{.trials = 20000, .seed = 42};
  cross_mode.sampling.mode = sim::SamplingMode::Stratified;
  cross_mode.checkpoint.resume = file.path();
  EXPECT_THROW(models::wafer_yield_campaign(wafer, cross_mode), SpecError);

  // A missing file is a clean error, not a silent fresh start.
  sim::CampaignSpec missing{.trials = 20000, .seed = 42};
  missing.checkpoint.resume = file.path() + ".nowhere";
  EXPECT_THROW(models::wafer_yield_campaign(wafer, missing), SpecError);
}

}  // namespace
}  // namespace bisram
