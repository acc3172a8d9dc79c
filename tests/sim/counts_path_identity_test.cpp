// Pins the stochastic engine's count-vector path to recorded constants.
//
// A zipf run on the counts path resolves every chunk entry through the
// engine's translate∘resolve cache, and each spare rescue in the middle of
// a chunk re-resolves part of the chunk's tail. How the cache is kept
// current may change; what the run computes may not. Each case below pins
// the exact LifetimeResult plus the CRC-32 of the decision event log for
// one configuration that stresses a different way the mapping can move:
// plain rescues under each cacheable spare scheme (PCD also rehomes lazily
// and draws from its own RNG while resolving), a wear leveler that remaps
// between chunks, metadata faults whose scrub rebuilds the tables, a run
// resumed from a mid-run checkpoint, and a zipf draw folded onto a smaller
// address space so one chunk holds the same address more than once.
//
// A mismatch means the counts path no longer reproduces its own history.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>

#include "attack/zipf.h"
#include "core/maxwe.h"
#include "nvm/device.h"
#include "nvm/endurance_map.h"
#include "nvm/endurance_model.h"
#include "obs/event_log.h"
#include "obs/profiler.h"
#include "sim/engine.h"
#include "sim/experiment.h"
#include "util/crc32.h"
#include "util/rng.h"
#include "wearlevel/none.h"

namespace nvmsec {
namespace {

struct Pin {
  std::uint64_t user_writes;
  std::uint64_t device_writes;
  std::uint64_t overhead_writes;
  std::uint64_t absorbed_writes;
  std::uint64_t line_deaths;
  /// CRC-32 of every LifetimeResult field, doubles in hexfloat.
  std::uint32_t result_crc;
  std::uint32_t events_crc;
};

std::uint32_t crc_of(const std::string& bytes) {
  return crc32(bytes.data(), bytes.size());
}

std::uint32_t result_crc(const LifetimeResult& r) {
  std::ostringstream s;
  s << std::hexfloat << r.user_writes << ' ' << r.overhead_writes << ' '
    << r.absorbed_writes << ' ' << r.device_writes << ' ' << r.ideal_lifetime
    << ' ' << r.normalized << ' ' << r.line_deaths << ' ' << r.failed << ' '
    << r.failure_reason << ' ' << r.wear_gini << ' ' << r.windows_observed
    << ' ' << r.anomalous_windows << ' ' << r.alarms_raised << ' '
    << r.windows_in_alarm << ' ' << r.cadence_changes;
  return crc_of(s.str());
}

Pin pin_of(const LifetimeResult& r, const std::string& events) {
  return {static_cast<std::uint64_t>(r.user_writes), r.device_writes,
          r.overhead_writes, r.absorbed_writes, r.line_deaths, result_crc(r),
          crc_of(events)};
}

void expect_pin(const Pin& got, const Pin& want) {
  std::ostringstream literal;
  literal << "got {" << got.user_writes << ", " << got.device_writes << ", "
          << got.overhead_writes << ", " << got.absorbed_writes << ", "
          << got.line_deaths << ", " << std::hex << "0x" << got.result_crc
          << "u, 0x" << got.events_crc << "u}";
  SCOPED_TRACE(literal.str());
  EXPECT_EQ(got.user_writes, want.user_writes);
  EXPECT_EQ(got.device_writes, want.device_writes);
  EXPECT_EQ(got.overhead_writes, want.overhead_writes);
  EXPECT_EQ(got.absorbed_writes, want.absorbed_writes);
  EXPECT_EQ(got.line_deaths, want.line_deaths);
  EXPECT_EQ(got.result_crc, want.result_crc);
  EXPECT_EQ(got.events_crc, want.events_crc);
}

ExperimentConfig zipf_config(const std::string& spare) {
  ExperimentConfig config = scaled_stochastic_config(4096, 64, 2000.0);
  config.attack = "zipf";
  config.spare_scheme = spare;
  config.seed = 7;
  return config;
}

/// Runs `config` with an in-memory event log and a profiler attached; the
/// profiler proves the run really took the counts path.
Pin run_pinned(ExperimentConfig config) {
  std::ostringstream stream;
  EventLog events(stream);
  Profiler prof;
  config.observer.events = &events;
  config.observer.profiler = &prof;
  const LifetimeResult r = run_experiment(config);
  events.finalize();
  EXPECT_TRUE(r.failed);
  EXPECT_GT(prof.counter(ProfCounter::kCountsWrites), 0u);
  EXPECT_GT(prof.counter(ProfCounter::kRescueEvents), 0u);
  return pin_of(r, stream.str());
}

TEST(CountsPathIdentityTest, MaxWe) {
  expect_pin(run_pinned(zipf_config("maxwe")),
             {250539, 236293, 0, 14246, 70, 0xe2dbcb87u, 0x9d7b4fadu});
}

TEST(CountsPathIdentityTest, PhysicalSparing) {
  expect_pin(run_pinned(zipf_config("ps")),
             {1737645, 1737645, 0, 0, 385, 0x92d67f36u, 0x438b01dau});
}

TEST(CountsPathIdentityTest, PcdSharedBackingLazyRehome) {
  expect_pin(run_pinned(zipf_config("pcd")),
             {1823860, 1804103, 0, 19757, 385, 0x87086683u, 0x62a4d927u});
}

TEST(CountsPathIdentityTest, NoSpare) {
  expect_pin(run_pinned(zipf_config("none")),
             {22730, 21709, 0, 1021, 1, 0xb1f611a6u, 0xd0e1bcffu});
}

TEST(CountsPathIdentityTest, MaxWeUnderStartGap) {
  ExperimentConfig config = zipf_config("maxwe");
  config.wear_leveler = "startgap";
  // Long enough between remaps for whole counts chunks to fit.
  config.wl.swap_interval = 1000;
  expect_pin(run_pinned(config),
             {242400, 242624, 242, 18, 70, 0xdab6a163u, 0xeb9a4992u});
}

TEST(CountsPathIdentityTest, MaxWeWithMetadataScrubs) {
  ExperimentConfig config = zipf_config("maxwe");
  config.fault.metadata.flip_interval = 20000;
  expect_pin(run_pinned(config),
             {250094, 241321, 0, 8773, 70, 0x41887295u, 0xb5d8ff7eu});
}

TEST(CountsPathIdentityTest, PcdResumedFromMidRunCheckpoint) {
  // Checkpoint boundaries cap counts chunks, so the uninterrupted
  // reference checkpoints on the same cadence as the interrupted run.
  const auto checkpointed = [](const std::string& name) {
    ExperimentConfig config = zipf_config("pcd");
    config.checkpoint_out = ::testing::TempDir() + "/" + name;
    config.checkpoint_interval = 50000;
    std::filesystem::remove(config.checkpoint_out);
    return config;
  };
  const ExperimentConfig clean = checkpointed("counts_path_identity.ckpt");

  // Phase 1: a capped run that leaves a checkpoint and its event log.
  std::ostringstream first(std::ios::out | std::ios::app);
  {
    EventLog events(first);
    ExperimentConfig capped = clean;
    capped.observer.events = &events;
    capped.max_user_writes = 120000;
    ASSERT_FALSE(run_experiment(capped).failed);
  }
  ASSERT_TRUE(std::filesystem::exists(clean.checkpoint_out));

  // Phase 2: resume into the same log; the engine rewinds it to the
  // checkpoint's offset before continuing.
  std::ostringstream resumed_stream(first.str(),
                                    std::ios::out | std::ios::app);
  EventLog events(resumed_stream, EventLog::kDefaultMaxEvents,
                  /*write_header=*/false);
  events.set_offset(first.str().size());
  events.set_truncator([&resumed_stream](std::uint64_t offset) {
    std::string bytes = resumed_stream.str();
    bytes.resize(offset);
    resumed_stream.str(bytes);
    return Status{};
  });
  ExperimentConfig resumed = clean;
  resumed.observer.events = &events;
  resumed.resume_from = clean.checkpoint_out;
  const LifetimeResult r = run_experiment(resumed);
  events.finalize();
  ASSERT_TRUE(r.failed);
  const Pin got = pin_of(r, resumed_stream.str());
  expect_pin(got,
             {1705997, 1702617, 0, 3380, 385, 0xf7a812eeu, 0x447a7532u});

  // The resumed history is the uninterrupted one.
  const Pin uninterrupted =
      run_pinned(checkpointed("counts_path_identity_ref.ckpt"));
  EXPECT_EQ(got.result_crc, uninterrupted.result_crc);
  EXPECT_EQ(got.events_crc, uninterrupted.events_crc);
}

TEST(CountsPathIdentityTest, ZipfFoldRepeatsAddressesWithinAChunk) {
  // Ranks drawn over four times the user space fold onto it, so distinct
  // ranks land on one address and a chunk lists it more than once.
  const DeviceGeometry geom = DeviceGeometry::scaled(4096, 64);
  EnduranceModelParams params;
  params.endurance_at_mean = 2000.0;
  Rng map_rng(11);
  const auto map = std::make_shared<const EnduranceMap>(
      EnduranceMap::from_model(geom, EnduranceModel(params), map_rng));
  Device device(map);
  auto spare = make_maxwe(map, MaxWeParams{});
  NoWearLeveling wl(spare->working_lines());
  auto attack = make_zipf(0.99, 4 * spare->working_lines(), 11);
  Rng rng(11);
  Engine engine(device, *attack, wl, *spare, rng);
  std::ostringstream stream;
  EventLog events(stream);
  Profiler prof;
  engine.set_observer(Observer{.events = &events, .profiler = &prof});
  const LifetimeResult r = engine.run();
  events.finalize();
  ASSERT_TRUE(r.failed);
  EXPECT_GT(prof.counter(ProfCounter::kCountsWrites), 0u);
  expect_pin(pin_of(r, stream.str()),
             {205774, 204792, 0, 982, 66, 0x60a617a3u, 0x18a22c64u});
}

}  // namespace
}  // namespace nvmsec
