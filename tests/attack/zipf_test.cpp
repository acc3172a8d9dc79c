#include "attack/zipf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <latch>
#include <map>
#include <thread>
#include <vector>

#include "sim/experiment.h"

namespace nvmsec {
namespace {

TEST(ZipfTest, ConstructionValidation) {
  EXPECT_THROW(ZipfWorkload(0.99, 0), std::invalid_argument);
  EXPECT_THROW(ZipfWorkload(-0.5, 100), std::invalid_argument);
  EXPECT_NO_THROW(ZipfWorkload(0.0, 100));
}

TEST(ZipfTest, ZeroSkewIsUniform) {
  ZipfWorkload w(0.0, 16);
  Rng rng(1);
  std::map<std::uint64_t, int> counts;
  constexpr int kDraws = 64000;
  for (int i = 0; i < kDraws; ++i) ++counts[w.next(rng, 16).value()];
  for (const auto& [addr, count] : counts) {
    EXPECT_NEAR(count, kDraws / 16.0, 5 * std::sqrt(kDraws / 16.0))
        << "address " << addr;
  }
}

TEST(ZipfTest, SkewConcentratesTraffic) {
  ZipfWorkload w(0.99, 1024);
  Rng rng(2);
  std::map<std::uint64_t, int> counts;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++counts[w.next(rng, 1024).value()];
  std::vector<int> sorted;
  for (const auto& [addr, count] : counts) sorted.push_back(count);
  std::sort(sorted.rbegin(), sorted.rend());
  // Top 16 addresses carry a large share; with s=0.99 over 1024 ranks the
  // top-16 mass is about 40%.
  int top16 = 0;
  for (int i = 0; i < 16 && i < static_cast<int>(sorted.size()); ++i) {
    top16 += sorted[static_cast<std::size_t>(i)];
  }
  EXPECT_GT(top16, kDraws / 4);
}

TEST(ZipfTest, HotAddressesAreScatteredNotSequential) {
  // The rank->address placement is a random permutation, so the hottest
  // addresses should not all be tiny addresses.
  ZipfWorkload w(1.2, 4096);
  Rng rng(3);
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < 50000; ++i) ++counts[w.next(rng, 4096).value()];
  std::uint64_t hottest = 0;
  int best = -1;
  for (const auto& [addr, count] : counts) {
    if (count > best) {
      best = count;
      hottest = addr;
    }
  }
  // With uniform placement the chance the hottest rank lands below 16 is
  // 16/4096; assert it landed somewhere non-trivial for this fixed seed.
  EXPECT_GT(hottest, 16u);
}

TEST(ZipfTest, RespectsShrinkingSpace) {
  ZipfWorkload w(0.99, 1024);
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(w.next(rng, 10).value(), 10u);
  }
}

TEST(ZipfTest, BenignWorkloadBenefitsFromWearLeveling) {
  // The contrast UAA destroys: for a skewed benign workload, a randomizing
  // wear leveler extends lifetime substantially.
  auto lifetime = [](const std::string& wl) {
    ExperimentConfig c = scaled_stochastic_config(1024, 64, 5000);
    c.attack = "zipf";
    c.zipf_skew = 1.1;
    c.wear_leveler = wl;
    c.spare_scheme = "none";
    c.seed = 5;
    return run_experiment(c).normalized;
  };
  const double unleveled = lifetime("none");
  const double leveled = lifetime("tlsr");
  EXPECT_GT(leveled, 3 * unleveled);
}


TEST(ZipfTest, NextCountsMatchesPerDrawDistribution) {
  const std::uint64_t kLines = 128;
  const std::uint64_t kDraws = 200'000;
  ZipfWorkload batched(0.99, kLines);
  ZipfWorkload per_write(0.99, kLines);

  Rng counts_rng(17);
  WriteCountVector out;
  ASSERT_TRUE(batched.next_counts(counts_rng, kLines, kDraws, out));
  EXPECT_EQ(out.total(), kDraws);
  std::vector<double> from_counts(kLines, 0.0);
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_LT(out.addrs[i], kLines);
    from_counts[out.addrs[i]] += static_cast<double>(out.counts[i]);
  }

  Rng rng(71);
  std::vector<double> from_draws(kLines, 0.0);
  for (std::uint64_t i = 0; i < kDraws; ++i) {
    from_draws[per_write.next(rng, kLines).value()] += 1.0;
  }

  // Same address space, same skew: the two histograms agree cell-by-cell
  // within sampling noise (6 sigma of the larger expected count, floored
  // so the cold tail's tiny cells don't produce vacuous bands).
  for (std::uint64_t a = 0; a < kLines; ++a) {
    const double expected = std::max(from_draws[a], 1.0);
    EXPECT_NEAR(from_counts[a], from_draws[a],
                6.0 * std::sqrt(expected) + 6.0)
        << "addr=" << a;
  }
}

TEST(ZipfTest, NextCountsFoldsPlacementThroughSamePermutation) {
  // The hottest address under next() must also be the hottest under
  // next_counts(): both go through the same rank->address placement.
  const std::uint64_t kLines = 64;
  ZipfWorkload w(1.2, kLines);
  Rng rng(3);
  std::map<std::uint64_t, std::uint64_t> per_draw;
  for (int i = 0; i < 50'000; ++i) ++per_draw[w.next(rng, kLines).value()];
  std::uint64_t hottest_draw = 0, best = 0;
  for (const auto& [addr, n] : per_draw) {
    if (n > best) { best = n; hottest_draw = addr; }
  }
  WriteCountVector out;
  Rng counts_rng(4);
  ASSERT_TRUE(w.next_counts(counts_rng, kLines, 50'000, out));
  std::uint64_t hottest_counts = 0;
  WriteCount best_count = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (out.counts[i] > best_count) {
      best_count = out.counts[i];
      hottest_counts = out.addrs[i];
    }
  }
  EXPECT_EQ(hottest_counts, hottest_draw);
}

TEST(ZipfTest, DistCacheSharesInstancesAcrossWorkloads) {
  const std::uint64_t h0 = zipf_dist_cache_hits();
  const auto a = zipf_dist(0.77, 4321);
  const std::uint64_t m_after_first = zipf_dist_cache_misses();
  const auto b = zipf_dist(0.77, 4321);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_GE(zipf_dist_cache_hits(), h0 + 1);
  // A distinct key misses; the first lookup's miss count is unchanged.
  const auto c = zipf_dist(0.78, 4321);
  EXPECT_NE(a.get(), c.get());
  EXPECT_GT(zipf_dist_cache_misses(), m_after_first);

  // Two workloads with equal (skew, lines) share one dist instance, and
  // different placement seeds still produce different address streams.
  ZipfWorkload w1(0.77, 4321, /*placement_seed=*/1);
  ZipfWorkload w2(0.77, 4321, /*placement_seed=*/2);
  Rng r1(5), r2(5);
  bool diverged = false;
  for (int i = 0; i < 50; ++i) {
    diverged |= w1.next(r1, 4321).value() != w2.next(r2, 4321).value();
  }
  EXPECT_TRUE(diverged);
}

TEST(ZipfTest, AddressRatesMatchEmpiricalFrequencies) {
  const std::uint64_t kLines = 64;
  const std::vector<double> rates = zipf_address_rates(0.99, kLines);
  ASSERT_EQ(rates.size(), kLines);
  double total = 0.0;
  for (const double r : rates) {
    EXPECT_GE(r, 0.0);
    total += r;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);

  // Empirical frequencies from the workload itself (same default placement
  // seed) converge on the analytic rates.
  ZipfWorkload w(0.99, kLines);
  Rng rng(21);
  const std::uint64_t kDraws = 400'000;
  std::vector<double> freq(kLines, 0.0);
  for (std::uint64_t i = 0; i < kDraws; ++i) {
    freq[w.next(rng, kLines).value()] += 1.0;
  }
  for (std::uint64_t a = 0; a < kLines; ++a) {
    const double expected = rates[a] * static_cast<double>(kDraws);
    EXPECT_NEAR(freq[a], expected, 6.0 * std::sqrt(expected + 1.0) + 6.0)
        << "addr=" << a;
  }
}

// ZipfDist builds its multinomial splitter on the first counts draw. Several
// fleet workers can make that first draw at once from one shared instance:
// each must get the splitter every other thread gets, and draw exactly what
// a serial draw from the same seed draws.
TEST(ZipfDistTest, ConcurrentFirstCountsDrawsMatchSerial) {
  std::vector<double> weights(3001);
  for (std::size_t k = 0; k < weights.size(); ++k) {
    weights[k] = 1.0 / std::pow(static_cast<double>(k + 1), 0.99);
  }
  constexpr int kThreads = 4;
  constexpr std::uint64_t kWrites = 5000;
  const ZipfDist shared(weights);
  std::vector<WriteCountVector> got(kThreads);
  std::vector<const MultinomialSampler*> seen(kThreads, nullptr);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      const MultinomialSampler& sampler = shared.rank_counts();
      seen[t] = &sampler;
      Rng rng(100 + static_cast<std::uint64_t>(t));
      sampler.draw(rng, kWrites, got[t]);
    });
  }
  for (std::thread& th : threads) th.join();

  const ZipfDist serial(weights);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(seen[t], seen[0]);
    Rng rng(100 + static_cast<std::uint64_t>(t));
    WriteCountVector want;
    serial.rank_counts().draw(rng, kWrites, want);
    EXPECT_EQ(got[t].addrs, want.addrs) << "thread " << t;
    EXPECT_EQ(got[t].counts, want.counts) << "thread " << t;
    EXPECT_EQ(got[t].total(), kWrites);
  }
}

}  // namespace
}  // namespace nvmsec
