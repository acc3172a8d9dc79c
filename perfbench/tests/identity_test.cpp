// Composed-stack identity: a run composed from the public factories, with
// or without the counting wrappers, must reproduce run_experiment exactly.
// If a wrapper changed the engine's path (a dropped resolve_cacheable(), a
// stale mapping epoch), the traced benchmark would measure a different
// program than the untraced one; these tests fail first.
#include <gtest/gtest.h>

#include <string>

#include "core/maxwe.h"
#include "obs/profiler.h"
#include "sim/experiment.h"
#include "stack.h"

namespace {

using nvmsec::ExperimentConfig;
using nvmsec::LifetimeResult;

void expect_same(const LifetimeResult& a, const LifetimeResult& b) {
  EXPECT_EQ(a.user_writes, b.user_writes);
  EXPECT_EQ(a.overhead_writes, b.overhead_writes);
  EXPECT_EQ(a.absorbed_writes, b.absorbed_writes);
  EXPECT_EQ(a.device_writes, b.device_writes);
  EXPECT_EQ(a.ideal_lifetime, b.ideal_lifetime);
  EXPECT_EQ(a.normalized, b.normalized);
  EXPECT_EQ(a.line_deaths, b.line_deaths);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.failure_reason, b.failure_reason);
  EXPECT_EQ(a.wear_gini, b.wear_gini);
  EXPECT_EQ(a.windows_observed, b.windows_observed);
  EXPECT_EQ(a.anomalous_windows, b.anomalous_windows);
  EXPECT_EQ(a.alarms_raised, b.alarms_raised);
  EXPECT_EQ(a.windows_in_alarm, b.windows_in_alarm);
  EXPECT_EQ(a.cadence_changes, b.cadence_changes);
}

/// Composes `config` (wrapped or not), runs it with a profiler attached,
/// and returns the result; `prof` receives the engine's phase rows.
LifetimeResult composed(const ExperimentConfig& config, bool wrapped,
                        nvmsec::Profiler& prof,
                        perfbench::LayerCounts& counts) {
  perfbench::ComposedRun run =
      perfbench::compose(config, wrapped ? &counts : nullptr);
  nvmsec::Observer observer;
  observer.profiler = &prof;
  return perfbench::run_composed(run, config, observer);
}

void check_identity(const ExperimentConfig& config) {
  const LifetimeResult reference = nvmsec::run_experiment(config);
  nvmsec::Profiler plain_prof;
  nvmsec::Profiler wrapped_prof;
  perfbench::LayerCounts counts;
  const LifetimeResult plain = composed(config, false, plain_prof, counts);
  const LifetimeResult wrapped = composed(config, true, wrapped_prof, counts);
  expect_same(plain, reference);
  expect_same(wrapped, reference);
  // Same path through the engine, not just the same answer: the resolve
  // cache saw identical traffic with and without the wrappers.
  for (nvmsec::ProfCounter c :
       {nvmsec::ProfCounter::kResolveCacheHit,
        nvmsec::ProfCounter::kResolveCacheMiss,
        nvmsec::ProfCounter::kResolveCacheFlush,
        nvmsec::ProfCounter::kCountsWrites, nvmsec::ProfCounter::kBatchWrites,
        nvmsec::ProfCounter::kPerWriteFallback}) {
    EXPECT_EQ(wrapped_prof.counter(c), plain_prof.counter(c))
        << nvmsec::prof_counter_name(c);
  }
}

TEST(ComposedIdentity, EventEngineUaaSweep) {
  for (double fraction : {0.01, 0.10, 0.30}) {
    ExperimentConfig c;
    c.geometry = nvmsec::DeviceGeometry::scaled(8192, 256);
    c.seed = 7;
    c.attack = "uaa";
    c.spare_scheme = "maxwe";
    c.spare_fraction = fraction;
    check_identity(c);
  }
}

TEST(ComposedIdentity, StochasticZipfCountsPath) {
  ExperimentConfig c;
  c.geometry = nvmsec::DeviceGeometry::scaled(4096, 256);
  c.endurance.endurance_at_mean = 30000;
  c.mode = nvmsec::SimulationMode::kStochastic;
  c.seed = 11;
  c.attack = "zipf";
  c.spare_scheme = "maxwe";
  check_identity(c);
}

TEST(ComposedIdentity, BpaUnderEveryPaperWearLeveler) {
  for (const std::string& wl : nvmsec::paper_wear_levelers()) {
    ExperimentConfig c = nvmsec::scaled_stochastic_config(512, 32, 2000);
    c.seed = 5;
    c.attack = "bpa";
    c.wear_leveler = wl;
    c.spare_scheme = "maxwe";
    SCOPED_TRACE(wl);
    check_identity(c);
  }
}

TEST(CountingSpare, ForwardsCacheabilityAndTracksTheInnerEpoch) {
  const auto map = std::make_shared<nvmsec::EnduranceMap>(
      nvmsec::EnduranceMap::uniform(nvmsec::DeviceGeometry::scaled(256, 16),
                                    100));
  auto inner = nvmsec::make_maxwe(map, nvmsec::MaxWeParams{});
  const nvmsec::SpareScheme* raw = inner.get();
  perfbench::LayerCounts counts;
  perfbench::CountingSpare spare(std::move(inner), counts);
  EXPECT_EQ(spare.resolve_cacheable(), raw->resolve_cacheable());
  EXPECT_TRUE(spare.resolve_cacheable());
  for (std::uint64_t idx = 0; idx < 8; ++idx) {
    (void)spare.resolve(idx);
    ASSERT_TRUE(spare.on_wear_out(idx));
    EXPECT_EQ(spare.mapping_epoch(), raw->mapping_epoch());
  }
  EXPECT_GT(raw->mapping_epoch(), 0u);
  EXPECT_EQ(counts.resolve_calls, 8u);
  EXPECT_EQ(counts.rescues, 8u);
  spare.reset();
  EXPECT_EQ(spare.mapping_epoch(), raw->mapping_epoch());
}

TEST(Compose, RefusesConfigsItDoesNotMirror) {
  ExperimentConfig c;
  c.spare_scheme = "ps";
  EXPECT_THROW((void)perfbench::compose(c, nullptr), std::invalid_argument);
  c.spare_scheme = "maxwe";
  c.attack = "hotspot";
  c.mode = nvmsec::SimulationMode::kStochastic;
  EXPECT_THROW((void)perfbench::compose(c, nullptr), std::invalid_argument);
}

}  // namespace
