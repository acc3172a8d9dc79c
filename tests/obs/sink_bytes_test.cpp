// Pins the exact bytes every sink receives from each engine. The
// determinism tests compare one run against another (serial vs parallel,
// uninterrupted vs resumed), so a change applied to every run slips past
// them; this test compares against constants instead. One small failing
// run per engine, with metrics, events, snapshots and trace attached to
// in-memory streams; each stream's CRC-32 must match the recorded value.
// The trace carries wall-clock "ts"/"dur" fields, so those are stripped
// before hashing — event names, phases, order and args stay pinned.
//
// A mismatch means an engine's observable output changed. If that change
// is intended, re-record the constants and say why in the commit.
#include <gtest/gtest.h>

#include <cstdint>
#include <regex>
#include <sstream>
#include <string>

#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/snapshot.h"
#include "obs/trace.h"
#include "sim/experiment.h"
#include "util/crc32.h"

namespace nvmsec {
namespace {

struct SinkCrcs {
  std::uint32_t metrics;
  std::uint32_t events;
  std::uint32_t snapshots;
  std::uint32_t trace;
};

std::uint32_t crc_of(const std::string& bytes) {
  return crc32(bytes.data(), bytes.size());
}

/// Run `config` with every sink attached; returns the four stream CRCs and
/// the event log's bytes (for the coverage assertions).
SinkCrcs run_with_sinks(ExperimentConfig config, WriteCount snapshot_interval,
                        std::string* events_out) {
  std::ostringstream event_stream;
  std::ostringstream snapshot_stream;
  std::ostringstream trace_stream;
  MetricsRegistry metrics;
  EventLog events(event_stream);
  SnapshotEmitter snapshots(snapshot_stream, snapshot_interval);
  {
    TraceWriter trace(trace_stream);
    config.observer.metrics = &metrics;
    config.observer.events = &events;
    config.observer.snapshots = &snapshots;
    config.observer.trace = &trace;
    const LifetimeResult result = run_experiment(config);
    EXPECT_TRUE(result.failed);
    events.finalize();
  }
  std::ostringstream metrics_stream;
  metrics.write_json(metrics_stream);
  static const std::regex kClock(R"re(, "(ts|dur)": [0-9]+)re");
  const std::string trace_bytes =
      std::regex_replace(trace_stream.str(), kClock, "");
  *events_out = event_stream.str();
  return {crc_of(metrics_stream.str()), crc_of(*events_out),
          crc_of(snapshot_stream.str()), crc_of(trace_bytes)};
}

void expect_crcs(const SinkCrcs& got, const SinkCrcs& want) {
  EXPECT_EQ(got.metrics, want.metrics)
      << std::hex << "metrics 0x" << got.metrics;
  EXPECT_EQ(got.events, want.events)
      << std::hex << "events 0x" << got.events;
  EXPECT_EQ(got.snapshots, want.snapshots)
      << std::hex << "snapshots 0x" << got.snapshots;
  EXPECT_EQ(got.trace, want.trace) << std::hex << "trace 0x" << got.trace;
}

bool has_event(const std::string& log, const std::string& type) {
  return log.find("\"type\":\"" + type + "\"") != std::string::npos;
}

TEST(SinkBytesTest, EventEngineMaxWe) {
  ExperimentConfig config;
  config.geometry = DeviceGeometry::scaled(2048, 128);
  config.endurance.endurance_at_mean = 1000.0;
  config.mode = SimulationMode::kUniformEvent;
  config.spare_scheme = "maxwe";
  std::string log;
  const SinkCrcs got = run_with_sinks(config, 100000, &log);
  ASSERT_TRUE(has_event(log, "region_wear_out"));
  ASSERT_TRUE(has_event(log, "end_of_life"));
  expect_crcs(got, {0x9ef4bcd9u, 0x6e29d681u, 0xc90aa0a2u, 0xcb9bdc00u});
}

TEST(SinkBytesTest, StochasticEngineWithDetector) {
  ExperimentConfig config = scaled_stochastic_config(1024, 64, 1000.0);
  config.attack = "uaa";
  config.wear_leveler = "startgap";
  config.wl.swap_interval = 32;
  config.spare_scheme = "maxwe";
  config.detect = true;
  config.detector.window_writes = 4096;
  config.adaptive = true;
  std::string log;
  const SinkCrcs got = run_with_sinks(config, 20000, &log);
  ASSERT_TRUE(has_event(log, "detect_window"));
  ASSERT_TRUE(has_event(log, "cadence_change"));
  ASSERT_TRUE(has_event(log, "region_wear_out"));
  ASSERT_TRUE(has_event(log, "end_of_life"));
  expect_crcs(got, {0xd8ff57e5u, 0xcd894a0du, 0x0c588a32u, 0x072e8e93u});
}

TEST(SinkBytesTest, BitEngineFnwEcp) {
  ExperimentConfig config;
  config.geometry = DeviceGeometry::scaled(256, 16);
  config.endurance.endurance_at_mean = 300.0;
  config.mode = SimulationMode::kBitLevel;
  config.codec = "fnw";
  config.ecp_entries = 2;
  config.spare_scheme = "maxwe";
  config.spare_fraction = 0.25;
  config.swr_fraction = 0.5;
  std::string log;
  const SinkCrcs got = run_with_sinks(config, 5000, &log);
  ASSERT_TRUE(has_event(log, "end_of_life"));
  expect_crcs(got, {0xb46f1276u, 0x64f4df7cu, 0x00000000u, 0x038fdbf6u});
}

}  // namespace
}  // namespace nvmsec
