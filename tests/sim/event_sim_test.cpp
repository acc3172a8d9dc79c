#include "sim/event_sim.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>

#include "core/maxwe.h"
#include "spare/spare_scheme.h"
#include "util/arena.h"

namespace nvmsec {
namespace {

std::shared_ptr<const EnduranceMap> ramp_map(std::uint64_t regions,
                                             std::uint64_t lines_per_region,
                                             double step = 10.0) {
  std::vector<Endurance> es;
  for (std::uint64_t r = 0; r < regions; ++r) {
    es.push_back(step * static_cast<double>(r + 1));
  }
  return std::make_shared<EnduranceMap>(
      DeviceGeometry::scaled(regions * lines_per_region, regions), es);
}

TEST(EventSimTest, NullMapRejected) {
  auto map = ramp_map(4, 4);
  auto spare = make_no_spare(map);
  EXPECT_THROW(UniformEventSimulator(nullptr, *spare), std::invalid_argument);
}

TEST(EventSimTest, UnprotectedLifetimeIsWeakestLineTimesLines) {
  // LUAA = N * EL (Eq. 4): the device dies when the weakest line has taken
  // EL writes, i.e. after EL rounds of N writes each.
  auto map = ramp_map(8, 8);  // EL = 10, N = 64
  auto spare = make_no_spare(map);
  UniformEventSimulator sim(map, *spare);
  const LifetimeResult r = sim.run();
  EXPECT_TRUE(r.failed);
  EXPECT_DOUBLE_EQ(r.user_writes, 64.0 * 10.0);
  EXPECT_EQ(r.line_deaths, 1u);
}

TEST(EventSimTest, UnprotectedNormalizedMatchesEquation5) {
  // For a (region-granular) linear ramp the normalized lifetime approaches
  // 2*EL/(EH+EL).
  auto map = ramp_map(64, 4, 5.0);  // EL=5, EH=320
  auto spare = make_no_spare(map);
  UniformEventSimulator sim(map, *spare);
  const LifetimeResult r = sim.run();
  EXPECT_NEAR(r.normalized, 2.0 * 5.0 / (320.0 + 5.0), 0.002);
}

TEST(EventSimTest, PsWorstMatchesEquation8) {
  // PS-worst on a line-granular linear ramp: lifetime = (N-S) * e_(S+1).
  auto map = ramp_map(64, 1, 10.0);  // 64 lines, e_i = 10*i
  Rng rng(1);
  const std::uint64_t spare_lines = 8;
  auto spare = make_ps_worst(map, spare_lines, rng);
  UniformEventSimulator sim(map, *spare);
  const LifetimeResult r = sim.run();
  // Spares are the 8 strongest lines; the weakest 8 working lines die and
  // are replaced by strong spares. The 9th weakest line (endurance 90)
  // kills the device at round 90; user space is 56 lines.
  EXPECT_TRUE(r.failed);
  EXPECT_DOUBLE_EQ(r.user_writes, 56.0 * 90.0);
}

TEST(EventSimTest, PcdDegradesThenFails) {
  auto map = ramp_map(16, 4, 10.0);
  Rng rng(2);
  auto spare = make_pcd(map, /*budget=*/8, rng);
  UniformEventSimulator sim(map, *spare);
  const LifetimeResult r = sim.run();
  EXPECT_TRUE(r.failed);
  // 8 deaths tolerated; the 9th kills. Deaths are endurance-ordered, and
  // region 0 (4 lines at e=10) dies first, then region 1, then region 2's
  // first line. Lifetime must exceed the unprotected N*EL.
  EXPECT_GT(r.user_writes, 64.0 * 10.0);
  EXPECT_GE(r.line_deaths, 9u);
}

TEST(EventSimTest, MaxWeMatchesChainArithmetic) {
  // 8 regions x 2 lines, endurance 10..80 by region. spare_fraction=0.25
  // gives 2 spare regions, swr_fraction=0.5 splits them: SWR={region 0},
  // RWR={region 1}, ASR={region 2}. Working space = regions {1,3..7} = 12
  // lines. Hand-computed timeline (rounds = user writes / 12):
  //   * region 1 lines (e=20) die at round 20, redirect to their region-0
  //     partners (e=10): chains die at round 30, taking both ASR lines
  //     (region 2, e=30), which extend them to round 60;
  //   * region 3 lines (e=40) die at round 40 with the ASR pool empty ->
  //     device failure at round 40 exactly.
  auto map = ramp_map(8, 2, 10.0);
  MaxWeParams params;
  params.spare_fraction = 0.25;
  params.swr_fraction = 0.5;
  auto spare = make_maxwe(map, params);
  UniformEventSimulator sim(map, *spare);
  const LifetimeResult r = sim.run();
  EXPECT_TRUE(r.failed);
  EXPECT_DOUBLE_EQ(r.user_writes, 12.0 * 40.0);
  // Ideal = 2 * (10+...+80) = 720 -> normalized = 480/720.
  EXPECT_NEAR(r.normalized, 480.0 / 720.0, 1e-12);
}

TEST(EventSimTest, PcdSharedLoadDynamicsAreExact) {
  // Two lines with endurance 10 and 30, PCD budget 1. At round 10 line 0
  // dies (death #1, within budget) and its address re-homes onto line 1 —
  // the only survivor — which then takes 2 writes per round. Line 1 has
  // 20 writes left at round 10, so it dies at round 10 + 20/2 = 20, and
  // that second death breaks the budget: failure at exactly round 20 with
  // 2 addresses * 20 rounds = 40 user writes.
  auto map = std::make_shared<EnduranceMap>(
      DeviceGeometry::scaled(2, 2), std::vector<Endurance>{10, 30});
  Rng rng(5);
  auto spare = make_pcd(map, /*budget=*/1, rng);
  UniformEventSimulator sim(map, *spare);
  const LifetimeResult r = sim.run();
  EXPECT_TRUE(r.failed);
  EXPECT_DOUBLE_EQ(r.user_writes, 40.0);
  EXPECT_EQ(r.line_deaths, 2u);
}

TEST(EventSimTest, UniformEnduranceHarvestsEverything) {
  // No variation: even unprotected, the device delivers N*E writes = the
  // ideal lifetime exactly (every line dies simultaneously).
  auto map = std::make_shared<EnduranceMap>(
      DeviceGeometry::scaled(64, 8), std::vector<Endurance>(8, 25.0));
  auto spare = make_no_spare(map);
  UniformEventSimulator sim(map, *spare);
  const LifetimeResult r = sim.run();
  EXPECT_DOUBLE_EQ(r.normalized, 1.0);
}

TEST(EventSimTest, FullPaperScaleRunsFast) {
  // The point of the event engine: the 1 GB / 4.2M-line configuration.
  Rng rng(3);
  const EnduranceModel model;
  auto map = std::make_shared<EnduranceMap>(
      EnduranceMap::from_model(DeviceGeometry::paper_1gb(), model, rng));
  auto spare = make_maxwe(map, MaxWeParams{});
  UniformEventSimulator sim(map, *spare);
  const LifetimeResult r = sim.run();
  EXPECT_TRUE(r.failed);
  EXPECT_GT(r.normalized, 0.10);
  EXPECT_LT(r.normalized, 0.60);
  EXPECT_GT(r.line_deaths, 100000u);
}


TEST(EventSimTest, UniformWeightsReproduceDefaultBitForBit) {
  // An explicit all-equal weight vector must normalize to 1.0 per index and
  // reproduce the unweighted arithmetic exactly, not just approximately.
  // The shared weight is a power of two so the normalization (u / sum) is
  // itself exact in floating point — the bit-for-bit claim is about the
  // simulator's arithmetic, not about fp rounding in the caller's weights.
  auto map = ramp_map(64, 4, 5.0);
  auto spare_a = make_no_spare(map);
  UniformEventSimulator plain(map, *spare_a);
  const LifetimeResult a = plain.run();

  auto spare_b = make_no_spare(map);
  UniformEventSimulator weighted(map, *spare_b);
  weighted.set_index_rates(
      std::vector<double>(spare_b->working_lines(), 2.0));
  const LifetimeResult b = weighted.run();

  EXPECT_DOUBLE_EQ(a.user_writes, b.user_writes);
  EXPECT_EQ(a.line_deaths, b.line_deaths);
  EXPECT_DOUBLE_EQ(a.normalized, b.normalized);
  EXPECT_DOUBLE_EQ(a.wear_gini, b.wear_gini);
}

TEST(EventSimTest, SetIndexRatesValidation) {
  auto map = ramp_map(4, 4);
  auto spare = make_no_spare(map);
  UniformEventSimulator sim(map, *spare);
  const std::uint64_t u = spare->working_lines();
  EXPECT_THROW(sim.set_index_rates(std::vector<double>(u - 1, 1.0)),
               std::invalid_argument);
  EXPECT_THROW(sim.set_index_rates(std::vector<double>(u, 0.0)),
               std::invalid_argument);
  std::vector<double> negative(u, 1.0);
  negative[0] = -1.0;
  EXPECT_THROW(sim.set_index_rates(std::move(negative)),
               std::invalid_argument);
}

TEST(EventSimTest, HotspotWeightsMatchAnalyticLifetime) {
  // 0/1 weights concentrate all traffic on k indices. Unprotected, the
  // device dies when the weakest loaded line exhausts: each loaded index
  // writes u/k per round (normalization: k hot indices share u writes per
  // round), so failure is at round EL*k/u -> user_writes = u * EL * k / u.
  // Working lines u = 16, k = 4 hot indices on lines 0..3 (endurance 10):
  // each hot line takes 16/4 = 4 writes per round, dying at round 10/4;
  // user_writes = 16 * 2.5 = 40.
  auto map = ramp_map(4, 4);  // regions e = 10,20,30,40; u = 16
  auto spare = make_no_spare(map);
  UniformEventSimulator sim(map, *spare);
  std::vector<double> weights(16, 0.0);
  for (int i = 0; i < 4; ++i) weights[i] = 1.0;
  sim.set_index_rates(std::move(weights));
  const LifetimeResult r = sim.run();
  EXPECT_TRUE(r.failed);
  EXPECT_DOUBLE_EQ(r.user_writes, 40.0);
  EXPECT_EQ(r.line_deaths, 1u);
}

TEST(EventSimTest, SkewedRatesShortenUnprotectedLifetime) {
  // A zipf-shaped rate vector focuses wear: the unprotected lifetime must
  // fall strictly below the uniform one (same map, same spare scheme).
  auto map = ramp_map(16, 8, 10.0);
  auto spare_u = make_no_spare(map);
  UniformEventSimulator uniform_sim(map, *spare_u);
  const LifetimeResult uniform = uniform_sim.run();

  auto spare_z = make_no_spare(map);
  UniformEventSimulator zipf_sim(map, *spare_z);
  const std::uint64_t u = spare_z->working_lines();
  std::vector<double> rates(u);
  for (std::uint64_t i = 0; i < u; ++i) {
    rates[i] = 1.0 / std::pow(static_cast<double>(i + 1), 0.99);
  }
  zipf_sim.set_index_rates(std::move(rates));
  const LifetimeResult skewed = zipf_sim.run();

  EXPECT_TRUE(skewed.failed);
  EXPECT_LT(skewed.user_writes, uniform.user_writes);
  EXPECT_GT(skewed.user_writes, 0.0);
}

// The event engine's per-line working state, on a scaled 1 GB-shaped
// device: 65536 lines in 256 regions, Max-WE with the paper's 10% spares.
constexpr std::uint64_t kArenaLines = 65536;

std::shared_ptr<EnduranceMap> arena_map(std::uint64_t seed, double jitter) {
  Rng rng(seed);
  auto map = std::make_shared<EnduranceMap>(EnduranceMap::from_model(
      DeviceGeometry::scaled(kArenaLines, 256), EnduranceModel{}, rng));
  if (jitter > 0) map->apply_line_jitter(jitter, rng);
  return map;
}

/// One Max-WE run in `arena` (nullptr: a run-local one), under UAA or a
/// zipf-skewed rate vector.
LifetimeResult run_in(const std::shared_ptr<const EnduranceMap>& map,
                      Arena* arena, bool skewed = false) {
  auto spare = make_maxwe(map, MaxWeParams{});
  UniformEventSimulator sim(map, *spare);
  if (arena != nullptr) sim.set_scratch(arena);
  if (skewed) {
    std::vector<double> rates(spare->working_lines());
    for (std::size_t i = 0; i < rates.size(); ++i) {
      rates[i] = 1.0 / std::pow(static_cast<double>(i + 1), 0.99);
    }
    sim.set_index_rates(std::move(rates));
  }
  return sim.run();
}

TEST(EventArenaBudgetTest, PerLineBytesStayUnderBound) {
  // remaining, rate, last_t (8 B each), version and list_head (4 B each),
  // list_next (4 B per working line) and a reserved 16 B heap entry per
  // line: 51.6 B/line measured. A stored budget or a separate utilization
  // array (8 B/line each) would break the bound.
  Arena arena;
  const LifetimeResult r = run_in(arena_map(7, 0.0), &arena);
  ASSERT_TRUE(r.failed);
  const double per_line = static_cast<double>(arena.used()) /
                          static_cast<double>(kArenaLines);
  EXPECT_LE(per_line, 56.0);
}

TEST(EventArenaBudgetTest, DirtyArenaRunMatchesFreshArena) {
  // Arena blocks are not zero-filled, so a run must not depend on what an
  // earlier device left in the recycled bytes. One block big enough for
  // every run keeps the storage the same across them.
  const auto map = arena_map(7, 0.0);
  const LifetimeResult fresh = run_in(map, nullptr);

  Arena arena(8u << 20);
  (void)run_in(arena_map(11, 0.1), &arena);
  (void)run_in(map, &arena, /*skewed=*/true);
  const LifetimeResult dirty = run_in(map, &arena);
  ASSERT_EQ(arena.block_count(), 1u);

  EXPECT_EQ(dirty.user_writes, fresh.user_writes);
  EXPECT_EQ(dirty.ideal_lifetime, fresh.ideal_lifetime);
  EXPECT_EQ(dirty.normalized, fresh.normalized);
  EXPECT_EQ(dirty.line_deaths, fresh.line_deaths);
  EXPECT_EQ(dirty.failed, fresh.failed);
  EXPECT_EQ(dirty.failure_reason, fresh.failure_reason);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(dirty.wear_gini),
            std::bit_cast<std::uint64_t>(fresh.wear_gini));
}

}  // namespace
}  // namespace nvmsec
