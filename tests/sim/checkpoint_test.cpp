#include "sim/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "obs/profiler.h"
#include "sim/experiment.h"
#include "sim/fleet.h"
#include "sim/journal.h"
#include "sim/parallel.h"

namespace nvmsec {
namespace {

namespace fs = std::filesystem;

std::vector<std::uint8_t> sample_payload() {
  std::vector<std::uint8_t> payload;
  for (int i = 0; i < 300; ++i) payload.push_back(static_cast<std::uint8_t>(i * 7));
  return payload;
}

std::string write_raw(const std::string& name, const std::string& bytes) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return path;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST(CheckpointFileTest, RoundTripsPayload) {
  const std::string path = ::testing::TempDir() + "/ckpt_roundtrip.bin";
  const std::vector<std::uint8_t> payload = sample_payload();
  ASSERT_TRUE(save_checkpoint_file(path, payload).ok());
  EXPECT_EQ(load_checkpoint_file(path).take(), payload);
}

TEST(CheckpointFileTest, RoundTripsEmptyPayload) {
  const std::string path = ::testing::TempDir() + "/ckpt_empty.bin";
  ASSERT_TRUE(save_checkpoint_file(path, {}).ok());
  EXPECT_TRUE(load_checkpoint_file(path).take().empty());
}

TEST(CheckpointFileTest, MissingFileIsNotFound) {
  const Result<std::vector<std::uint8_t>> r =
      load_checkpoint_file(::testing::TempDir() + "/ckpt_missing.bin");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(CheckpointFileTest, BadMagicIsCorruption) {
  const std::string path = write_raw("ckpt_magic.bin", "NOTACKPTxxxxxxxxxxxx");
  const Result<std::vector<std::uint8_t>> r = load_checkpoint_file(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  EXPECT_NE(r.status().message().find("bad magic"), std::string::npos);
}

TEST(CheckpointFileTest, WrongVersionIsVersionMismatch) {
  std::string bytes(kCheckpointMagic, sizeof(kCheckpointMagic));
  // One past the current version, little-endian.
  const std::uint32_t wrong = kCheckpointVersion + 1;
  bytes += std::string{static_cast<char>(wrong & 0xff),
                       static_cast<char>((wrong >> 8) & 0xff),
                       static_cast<char>((wrong >> 16) & 0xff),
                       static_cast<char>((wrong >> 24) & 0xff)};
  bytes += std::string(8, '\x00');  // zero payload size
  bytes += std::string(4, '\x00');  // (wrong) CRC
  const std::string path = write_raw("ckpt_version.bin", bytes);
  const Result<std::vector<std::uint8_t>> r = load_checkpoint_file(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kVersionMismatch);
  EXPECT_NE(r.status().message().find("version " + std::to_string(wrong)),
            std::string::npos);
}

TEST(CheckpointFileTest, TruncatedPayloadIsRejected) {
  const std::string path = ::testing::TempDir() + "/ckpt_trunc.bin";
  ASSERT_TRUE(save_checkpoint_file(path, sample_payload()).ok());
  std::string bytes = slurp(path);
  bytes.resize(bytes.size() - 10);
  const std::string cut = write_raw("ckpt_trunc_cut.bin", bytes);
  const Result<std::vector<std::uint8_t>> r = load_checkpoint_file(cut);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  EXPECT_NE(r.status().message().find("truncated"), std::string::npos);
}

TEST(CheckpointFileTest, FlippedPayloadByteIsCrcCorruption) {
  const std::string path = ::testing::TempDir() + "/ckpt_crc.bin";
  ASSERT_TRUE(save_checkpoint_file(path, sample_payload()).ok());
  std::string bytes = slurp(path);
  bytes[25] = static_cast<char>(bytes[25] ^ 0x40);  // inside the payload
  const std::string bad = write_raw("ckpt_crc_bad.bin", bytes);
  const Result<std::vector<std::uint8_t>> r = load_checkpoint_file(bad);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  EXPECT_NE(r.status().message().find("CRC"), std::string::npos);
}

TEST(CheckpointFileTest, HugeDeclaredSizeIsCorruptionNotOverflow) {
  // size + 4 wraps to 2 for this declared size; the loader must still see
  // that 8 payload bytes cannot hold it instead of allocating 2^64 bytes.
  std::string bytes(kCheckpointMagic, sizeof(kCheckpointMagic));
  const std::uint32_t version = kCheckpointVersion;
  for (int i = 0; i < 4; ++i) {
    bytes.push_back(static_cast<char>((version >> (8 * i)) & 0xff));
  }
  bytes += std::string(1, '\xFE') + std::string(7, '\xFF');
  bytes += std::string(8, '\x00');  // payload bytes actually present
  const std::string path = write_raw("ckpt_huge_size.bin", bytes);
  const Result<std::vector<std::uint8_t>> r = load_checkpoint_file(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  EXPECT_NE(r.status().message().find("truncated"), std::string::npos);
}

ExperimentConfig maxwe_config() {
  ExperimentConfig c = scaled_stochastic_config(512, 32, 300.0);
  c.spare_scheme = "maxwe";
  return c;
}

TEST(ConfigFingerprintTest, IgnoresRunCapButTracksTrajectoryFields) {
  ExperimentConfig a = maxwe_config();
  ExperimentConfig b = a;
  // A capped checkpointing run stands in for the uncapped run it resumes
  // into, so the cap must not enter the fingerprint.
  b.max_user_writes = 12345;
  EXPECT_EQ(config_fingerprint(a), config_fingerprint(b));
  b = a;
  b.seed = a.seed + 1;
  EXPECT_NE(config_fingerprint(a), config_fingerprint(b));
  b = a;
  b.attack = "bpa";
  EXPECT_NE(config_fingerprint(a), config_fingerprint(b));
  b = a;
  b.fault.device.stuck_at_lines = 1;
  EXPECT_NE(config_fingerprint(a), config_fingerprint(b));
}

TEST(CheckpointResumeTest, ResumedRunIsBitIdenticalToUninterrupted) {
  const std::string path = ::testing::TempDir() + "/ckpt_resume.bin";
  fs::remove(path);
  const ExperimentConfig clean = maxwe_config();
  const LifetimeResult reference = run_experiment(clean);
  ASSERT_TRUE(reference.failed);

  // Phase 1: run the same config capped, dropping checkpoints on the way.
  ExperimentConfig capped = clean;
  capped.checkpoint_out = path;
  capped.checkpoint_interval = 2000;
  capped.max_user_writes = 5000;
  const LifetimeResult partial = run_experiment(capped);
  ASSERT_FALSE(partial.failed);
  ASSERT_TRUE(fs::exists(path));

  // Phase 2: resume uncapped from the last checkpoint; the trajectory must
  // rejoin the uninterrupted run exactly.
  ExperimentConfig resumed = clean;
  resumed.resume_from = path;
  const LifetimeResult result = run_experiment(resumed);
  EXPECT_DOUBLE_EQ(result.user_writes, reference.user_writes);
  EXPECT_EQ(result.overhead_writes, reference.overhead_writes);
  EXPECT_EQ(result.absorbed_writes, reference.absorbed_writes);
  EXPECT_EQ(result.device_writes, reference.device_writes);
  EXPECT_EQ(result.line_deaths, reference.line_deaths);
  EXPECT_DOUBLE_EQ(result.normalized, reference.normalized);
  EXPECT_EQ(result.failure_reason, reference.failure_reason);
}

TEST(CheckpointResumeTest, ResumeWithFaultsIsStillBitIdentical) {
  const std::string path = ::testing::TempDir() + "/ckpt_resume_fault.bin";
  fs::remove(path);
  ExperimentConfig clean = maxwe_config();
  clean.fault.metadata.flip_interval = 700;
  const LifetimeResult reference = run_experiment(clean);

  ExperimentConfig capped = clean;
  capped.checkpoint_out = path;
  capped.checkpoint_interval = 1500;
  capped.max_user_writes = 4000;
  run_experiment(capped);
  ASSERT_TRUE(fs::exists(path));

  ExperimentConfig resumed = clean;
  resumed.resume_from = path;
  const LifetimeResult result = run_experiment(resumed);
  EXPECT_DOUBLE_EQ(result.user_writes, reference.user_writes);
  EXPECT_EQ(result.line_deaths, reference.line_deaths);
  EXPECT_DOUBLE_EQ(result.normalized, reference.normalized);
}

TEST(CheckpointResumeTest, RefusesCheckpointFromDifferentConfig) {
  const std::string path = ::testing::TempDir() + "/ckpt_foreign.bin";
  fs::remove(path);
  ExperimentConfig writer = maxwe_config();
  writer.checkpoint_out = path;
  writer.checkpoint_interval = 1000;
  writer.max_user_writes = 2500;
  run_experiment(writer);
  ASSERT_TRUE(fs::exists(path));

  ExperimentConfig other = maxwe_config();
  other.seed = writer.seed + 17;
  other.resume_from = path;
  try {
    run_experiment(other);
    FAIL() << "expected a refusal to resume";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("different configuration"),
              std::string::npos);
  }
}

TEST(CheckpointResumeTest, ChecksummedStateSurvivesConfigValidation) {
  ExperimentConfig c = maxwe_config();
  c.checkpoint_out = ::testing::TempDir() + "/ckpt_invalid.bin";
  c.checkpoint_interval = 0;  // interval missing
  EXPECT_THROW(run_experiment(c), std::invalid_argument);
  c.checkpoint_out.clear();
  c.checkpoint_interval = 100;  // path missing
  EXPECT_THROW(run_experiment(c), std::invalid_argument);
  c = maxwe_config();
  c.mode = SimulationMode::kUniformEvent;
  c.checkpoint_out = ::testing::TempDir() + "/ckpt_event.bin";
  c.checkpoint_interval = 100;
  EXPECT_THROW(run_experiment(c), std::invalid_argument);
}

TEST(SweepCheckpointTest, ResumeSkipsRecordedRunsAndMatchesResults) {
  const std::string path = ::testing::TempDir() + "/sweep_ckpt.bin";
  fs::remove(path);
  std::vector<ExperimentConfig> configs;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    ExperimentConfig c = maxwe_config();
    c.seed = seed;
    configs.push_back(c);
  }
  ParallelOptions options;
  options.jobs = 1;
  options.checkpoint_path = path;
  const std::vector<LifetimeResult> first = run_experiments(configs, options);
  ASSERT_TRUE(fs::exists(path));

  // A resumed sweep replays the recorded results without re-running.
  options.resume = true;
  const std::vector<LifetimeResult> second = run_experiments(configs, options);
  ASSERT_EQ(second.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_DOUBLE_EQ(second[i].user_writes, first[i].user_writes);
    EXPECT_EQ(second[i].line_deaths, first[i].line_deaths);
    EXPECT_DOUBLE_EQ(second[i].normalized, first[i].normalized);
    EXPECT_EQ(second[i].failure_reason, first[i].failure_reason);
  }

  // A config change at one index invalidates only that record.
  configs[1].seed = 99;
  const std::vector<LifetimeResult> third = run_experiments(configs, options);
  EXPECT_DOUBLE_EQ(third[0].user_writes, first[0].user_writes);
  EXPECT_NE(third[1].user_writes, first[1].user_writes);
  EXPECT_DOUBLE_EQ(third[2].user_writes, first[2].user_writes);
}

std::vector<ExperimentConfig> seed_sweep(std::uint64_t runs) {
  std::vector<ExperimentConfig> configs;
  for (std::uint64_t seed = 1; seed <= runs; ++seed) {
    ExperimentConfig c = maxwe_config();
    c.seed = seed;
    configs.push_back(c);
  }
  return configs;
}

/// What run_experiments threw, or "" when it did not throw.
std::string sweep_error(const std::vector<ExperimentConfig>& configs,
                        const ParallelOptions& options) {
  try {
    (void)run_experiments(configs, options);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(SweepCheckpointTest, JournalHoldsOneRecordPerRun) {
  const std::string path = ::testing::TempDir() + "/sweep_records.jrnl";
  fs::remove(path);
  const std::vector<ExperimentConfig> configs = seed_sweep(4);
  ParallelOptions options;
  options.jobs = 2;
  options.checkpoint_path = path;
  (void)run_experiments(configs, options);

  // Header plus one record per run, each index exactly once: nothing is
  // rewritten as later runs finish.
  const std::string bytes = slurp(path);
  ASSERT_GE(bytes.size(), 20u);
  EXPECT_EQ(bytes.substr(0, 8), "MXWEJRNL");
  std::uint64_t header_fingerprint = 0;
  for (int i = 0; i < 8; ++i) {
    header_fingerprint |=
        std::uint64_t{static_cast<unsigned char>(bytes[12 + i])} << (8 * i);
  }
  const Result<std::vector<JournalRecord>> records =
      Journal::replay(path, header_fingerprint);
  ASSERT_TRUE(records.ok()) << records.status().to_string();
  std::vector<int> seen(configs.size(), 0);
  std::size_t framed_bytes = 20;
  for (const JournalRecord& rec : records.value()) {
    ASSERT_LT(rec.index, seen.size());
    ++seen[rec.index];
    framed_bytes += 16 + rec.payload.size();
  }
  EXPECT_EQ(seen, std::vector<int>(configs.size(), 1));
  EXPECT_EQ(framed_bytes, bytes.size());
}

TEST(SweepCheckpointTest, TornTailRerunsExactlyTheTornRun) {
  const std::string path = ::testing::TempDir() + "/sweep_torn.jrnl";
  fs::remove(path);
  const std::vector<ExperimentConfig> configs = seed_sweep(3);
  ParallelOptions options;
  options.jobs = 1;
  options.checkpoint_path = path;
  const std::vector<LifetimeResult> first = run_experiments(configs, options);

  // A SIGKILL mid-append leaves the last record (run 2 at jobs 1) torn.
  fs::resize_file(path, fs::file_size(path) - 5);

  Profiler prof;
  options.resume = true;
  options.profiler = &prof;
  const std::vector<LifetimeResult> resumed =
      run_experiments(configs, options);
  EXPECT_EQ(prof.phase(ProfPhase::kExperimentSetup).count, 1u);
  ASSERT_EQ(resumed.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_DOUBLE_EQ(resumed[i].user_writes, first[i].user_writes);
    EXPECT_EQ(resumed[i].line_deaths, first[i].line_deaths);
    EXPECT_EQ(resumed[i].failure_reason, first[i].failure_reason);
  }

  // The healed journal now covers every run: nothing left to re-run.
  Profiler again;
  options.profiler = &again;
  (void)run_experiments(configs, options);
  EXPECT_EQ(again.phase(ProfPhase::kExperimentSetup).count, 0u);
}

TEST(SweepCheckpointTest, LegacyCheckpointFileIsVersionMismatch) {
  const std::string path = ::testing::TempDir() + "/sweep_legacy.ckpt";
  ASSERT_TRUE(save_checkpoint_file(path, sample_payload()).ok());
  ParallelOptions options;
  options.jobs = 1;
  options.checkpoint_path = path;
  options.resume = true;
  const std::string error = sweep_error(seed_sweep(1), options);
  EXPECT_EQ(error.rfind("version mismatch", 0), 0u) << error;
  EXPECT_NE(error.find(path), std::string::npos) << error;
  EXPECT_NE(error.find("MXWECKPT"), std::string::npos) << error;
}

FleetSpec small_fleet() {
  FleetSpec spec;
  spec.devices = 8;
  spec.shard_size = 4;
  spec.base.geometry = DeviceGeometry::scaled(256, 16);
  spec.base.endurance.endurance_at_mean = 100;
  spec.base.spare_scheme = "maxwe";
  return spec;
}

TEST(SweepCheckpointTest, SweepRefusesAFleetJournal) {
  const std::string path = ::testing::TempDir() + "/fleet_for_sweep.jrnl";
  fs::remove(path);
  FleetOptions fleet;
  fleet.checkpoint_path = path;
  (void)run_fleet(small_fleet(), fleet);

  ParallelOptions options;
  options.jobs = 1;
  options.checkpoint_path = path;
  options.resume = true;
  const std::string error = sweep_error(seed_sweep(1), options);
  EXPECT_EQ(error.rfind("failed precondition", 0), 0u) << error;
}

TEST(SweepCheckpointTest, FleetRefusesASweepJournal) {
  const std::string path = ::testing::TempDir() + "/sweep_for_fleet.jrnl";
  fs::remove(path);
  ParallelOptions options;
  options.jobs = 1;
  options.checkpoint_path = path;
  (void)run_experiments(seed_sweep(1), options);

  FleetOptions fleet;
  fleet.checkpoint_path = path;
  fleet.resume = true;
  try {
    (void)run_fleet(small_fleet(), fleet);
    FAIL() << "expected the fleet to refuse a sweep journal";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("failed precondition", 0), 0u)
        << e.what();
  }
}

TEST(SweepCheckpointTest, ResumeWithoutPathIsRejected) {
  ParallelOptions options;
  options.resume = true;
  const std::vector<ExperimentConfig> configs(1, maxwe_config());
  EXPECT_THROW(run_experiments(configs, options), std::invalid_argument);
}

TEST(SweepCheckpointTest, MissingCheckpointFileIsAFreshStart) {
  const std::string path = ::testing::TempDir() + "/sweep_fresh.bin";
  fs::remove(path);
  ParallelOptions options;
  options.jobs = 1;
  options.checkpoint_path = path;
  options.resume = true;  // nothing to resume from: run everything
  const std::vector<ExperimentConfig> configs(1, maxwe_config());
  const std::vector<LifetimeResult> results =
      run_experiments(configs, options);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].failed);
  EXPECT_TRUE(fs::exists(path));
}

}  // namespace
}  // namespace nvmsec
