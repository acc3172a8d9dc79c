// Exactness contract of the batched-sampling primitives: count vectors
// conserve the draw count exactly, are deterministic for a fixed stream,
// and follow the same law as per-draw sampling (chi-squared against the
// exact probabilities; fixed seeds keep every check deterministic).
#include "util/multinomial.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "util/alias_table.h"
#include "util/rng.h"

namespace nvmsec {
namespace {

std::vector<double> geometric_weights(std::size_t n) {
  std::vector<double> w(n);
  double v = 1.0;
  for (std::size_t i = 0; i < n; ++i) {
    w[i] = v;
    v *= 0.93;
  }
  return w;
}

TEST(BinomialDrawTest, Edges) {
  Rng rng(1);
  EXPECT_EQ(binomial_draw(rng, 0, 0.5), 0u);
  EXPECT_EQ(binomial_draw(rng, 1000, 0.0), 0u);
  EXPECT_EQ(binomial_draw(rng, 1000, -0.3), 0u);
  EXPECT_EQ(binomial_draw(rng, 1000, 1.0), 1000u);
  EXPECT_EQ(binomial_draw(rng, 1000, 1.7), 1000u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_LE(binomial_draw(rng, 1, 0.5), 1u);
  }
}

TEST(BinomialDrawTest, NeverExceedsN) {
  Rng rng(2);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_LE(binomial_draw(rng, 37, 0.9), 37u);
  }
}

// Both regimes (BINV for n*p < 10, BTRS above) must track the exact
// binomial moments. 50k samples put the sample mean within ~5 standard
// errors of n*p for the fixed seeds below.
TEST(BinomialDrawTest, MeanAndVarianceBothRegimes) {
  struct Case {
    std::uint64_t n;
    double p;
  };
  for (const Case c : {Case{200, 0.02}, Case{40, 0.1},      // BINV
                       Case{10'000, 0.3}, Case{500, 0.5}})  // BTRS
  {
    Rng rng(99);
    const int kSamples = 50'000;
    double sum = 0.0, sum_sq = 0.0;
    for (int i = 0; i < kSamples; ++i) {
      const double x = static_cast<double>(binomial_draw(rng, c.n, c.p));
      sum += x;
      sum_sq += x * x;
    }
    const double mean = sum / kSamples;
    const double var = sum_sq / kSamples - mean * mean;
    const double exp_mean = static_cast<double>(c.n) * c.p;
    const double exp_var = exp_mean * (1.0 - c.p);
    const double se = std::sqrt(exp_var / kSamples);
    EXPECT_NEAR(mean, exp_mean, 5.0 * se) << "n=" << c.n << " p=" << c.p;
    EXPECT_NEAR(var, exp_var, 0.1 * exp_var) << "n=" << c.n << " p=" << c.p;
  }
}

TEST(WriteCountVectorTest, AppendTotalClear) {
  WriteCountVector v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.total(), 0u);
  v.append(7, 3);
  v.append(9, 5);
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v.total(), 8u);
  v.clear();
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.total(), 0u);
}

TEST(MultinomialSamplerTest, RejectsBadWeights) {
  EXPECT_THROW(MultinomialSampler(std::span<const double>{}),
               std::invalid_argument);
  const std::vector<double> zeros{0.0, 0.0};
  EXPECT_THROW(MultinomialSampler(std::span<const double>(zeros)),
               std::invalid_argument);
  const std::vector<double> negative{1.0, -0.5};
  EXPECT_THROW(MultinomialSampler(std::span<const double>(negative)),
               std::invalid_argument);
  const std::vector<double> inf{1.0, std::numeric_limits<double>::infinity()};
  EXPECT_THROW(MultinomialSampler(std::span<const double>(inf)),
               std::invalid_argument);
}

TEST(MultinomialSamplerTest, ProbabilitiesSumToOne) {
  for (const std::size_t n : {1u, 2u, 3u, 64u, 1000u}) {
    const std::vector<double> w = geometric_weights(n);
    const MultinomialSampler sampler{std::span<const double>(w)};
    EXPECT_EQ(sampler.size(), n);
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) total += sampler.probability(i);
    EXPECT_NEAR(total, 1.0, 1e-12) << "n=" << n;
  }
}

// The load-bearing exactness property: counts sum to exactly n_draws (no
// rounding, no truncation), entries are in ascending index order, every
// emitted count is >= 1, and zero-weight indices never appear.
TEST(MultinomialSamplerTest, ExactCountConservation) {
  for (const std::size_t n : {1u, 2u, 3u, 64u, 1000u}) {
    std::vector<double> w = geometric_weights(n);
    if (n >= 3) w[n / 2] = 0.0;  // a hole the draw must never hit
    const MultinomialSampler sampler{std::span<const double>(w)};
    Rng rng(7 + n);
    for (const std::uint64_t draws : {std::uint64_t{0}, std::uint64_t{1},
                                      std::uint64_t{1'000'000}}) {
      WriteCountVector out;
      sampler.draw(rng, draws, out);
      EXPECT_EQ(out.total(), draws) << "n=" << n << " draws=" << draws;
      for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_GE(out.counts[i], 1u);
        EXPECT_LT(out.addrs[i], n);
        if (n >= 3) EXPECT_NE(out.addrs[i], n / 2);
        if (i > 0) EXPECT_GT(out.addrs[i], out.addrs[i - 1]);
      }
      if (draws == 0) EXPECT_TRUE(out.empty());
    }
  }
}

TEST(MultinomialSamplerTest, DeterministicForFixedSeed) {
  const std::vector<double> w = geometric_weights(128);
  const MultinomialSampler sampler{std::span<const double>(w)};
  Rng a(42), b(42);
  WriteCountVector out_a, out_b;
  sampler.draw(a, 100'000, out_a);
  sampler.draw(b, 100'000, out_b);
  EXPECT_EQ(out_a.addrs, out_b.addrs);
  EXPECT_EQ(out_a.counts, out_b.counts);
  // And the next draw from the same stream differs (the stream advanced).
  WriteCountVector out_c;
  sampler.draw(a, 100'000, out_c);
  EXPECT_NE(out_a.counts, out_c.counts);
}

TEST(MultinomialSamplerTest, SingleOutcomeTakesEverything) {
  const std::vector<double> w{3.5};
  const MultinomialSampler sampler{std::span<const double>(w)};
  Rng rng(5);
  WriteCountVector out;
  sampler.draw(rng, 12'345, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.addrs[0], 0u);
  EXPECT_EQ(out.counts[0], 12'345u);
}

// One batched draw must follow the same law as the per-draw histogram.
// Chi-squared of the batched counts against the exact cell probabilities,
// and of an alias-table per-draw histogram for reference: both must sit
// below the same (generous) critical value. df = 63; the 99.9th percentile
// of chi2(63) is ~106, and the fixed seeds keep this fully deterministic.
TEST(MultinomialSamplerTest, MatchesPerDrawDistribution) {
  const std::size_t kOutcomes = 64;
  const std::uint64_t kDraws = 1'000'000;
  const std::vector<double> w = geometric_weights(kOutcomes);
  const MultinomialSampler sampler{std::span<const double>(w)};

  std::vector<double> batched(kOutcomes, 0.0);
  {
    Rng rng(123);
    WriteCountVector out;
    sampler.draw(rng, kDraws, out);
    for (std::size_t i = 0; i < out.size(); ++i) {
      batched[out.addrs[i]] = static_cast<double>(out.counts[i]);
    }
  }
  std::vector<double> per_draw(kOutcomes, 0.0);
  {
    Rng rng(321);
    const AliasTable alias(w);
    for (std::uint64_t i = 0; i < kDraws; ++i) {
      per_draw[alias.sample(rng)] += 1.0;
    }
  }

  const auto chi2 = [&](const std::vector<double>& observed) {
    double stat = 0.0;
    for (std::size_t i = 0; i < kOutcomes; ++i) {
      const double expected =
          sampler.probability(i) * static_cast<double>(kDraws);
      const double d = observed[i] - expected;
      stat += d * d / expected;
    }
    return stat;
  };
  EXPECT_LT(chi2(batched), 110.0);
  EXPECT_LT(chi2(per_draw), 110.0);
}

// The walk the split table replaced, kept as the reference it must
// reproduce: the same implicit tree of subtree sums, and
// binomial_draw(rng, n, left / (left + right)) at every split.
void reference_draw(std::span<const double> w, Rng& rng, std::uint64_t n,
                    WriteCountVector& out) {
  const std::size_t cap = std::bit_ceil(w.size());
  std::vector<double> tree(2 * cap, 0.0);
  std::copy(w.begin(), w.end(), tree.begin() + static_cast<long>(cap));
  for (std::size_t j = cap - 1; j >= 1; --j) {
    tree[j] = tree[2 * j] + tree[2 * j + 1];
  }
  struct Pending {
    std::size_t node;
    std::uint64_t count;
  };
  std::vector<Pending> stack{{1, n}};
  while (!stack.empty()) {
    const Pending cur = stack.back();
    stack.pop_back();
    if (cur.count == 0) continue;
    if (cur.node >= cap) {
      out.append(cur.node - cap, cur.count);
      continue;
    }
    const double left = tree[2 * cur.node];
    const double right = tree[2 * cur.node + 1];
    std::uint64_t to_left;
    if (!(right > 0.0)) {
      to_left = cur.count;
    } else if (!(left > 0.0)) {
      to_left = 0;
    } else {
      to_left = binomial_draw(rng, cur.count, left / (left + right));
    }
    stack.push_back({2 * cur.node + 1, cur.count - to_left});
    stack.push_back({2 * cur.node, to_left});
  }
}

std::vector<double> zipf_weights(std::size_t n, double s) {
  std::vector<double> w(n);
  for (std::size_t i = 0; i < n; ++i) {
    w[i] = 1.0 / std::pow(static_cast<double>(i + 1), s);
  }
  return w;
}

// The per-node split table is an optimisation, not a new sampler: every
// draw must consume the same uniforms and emit the same vector as calling
// binomial_draw at every split. Weight shapes cover the zipf supports the
// counts path runs (1843 ranks on a 2048-line device with 10% spares,
// 58982 on a 65536-line one), sizes that are not a power of two, interior
// zeros, a single leaf, and ratios where p rounds to 1 or pp is tiny or
// subnormal. Counts cover n = 1, 2, 3 (BINV's precomputed steps and its
// first general case), every n across the n * pp = 10 switch to BTRS at
// the nodes near p = 0.5, and chunks up to 2.5M.
TEST(MultinomialSamplerTest, SplitTableMatchesPerCallBinomial) {
  struct Case {
    const char* name;
    std::vector<double> w;
    std::vector<std::uint64_t> counts;
  };
  std::vector<std::uint64_t> small_and_boundary;
  for (std::uint64_t n = 1; n <= 48; ++n) small_and_boundary.push_back(n);
  for (const std::uint64_t n : {100u, 1345u, 4096u, 65'536u, 2'500'000u}) {
    small_and_boundary.push_back(n);
  }
  std::vector<double> holes = geometric_weights(1000);
  for (const std::size_t i : {1u, 2u, 3u, 500u, 998u}) holes[i] = 0.0;
  std::fill(holes.begin() + 600, holes.begin() + 700, 0.0);
  const double tiny = std::numeric_limits<double>::denorm_min();
  const std::vector<Case> cases{
      {"zipf1843", zipf_weights(1843, 0.99), small_and_boundary},
      {"zipf58982", zipf_weights(58'982, 0.99), {1, 2, 3, 20, 1345, 2'500'000}},
      {"three", {1.0, 2.0, 3.0}, small_and_boundary},
      {"five", geometric_weights(5), small_and_boundary},
      {"holes", holes, small_and_boundary},
      {"single", {0.25}, {1, 2, 3, 2'500'000}},
      {"extreme",
       {1e300, 1e-300, 1.0, 1e-20, 1e-20, 1.0, tiny, 1.0, 0.5, 1e308, 0.0,
        1e-308, 3.0, 1.0 + 1e-15, 7.0, 7.0 * (1.0 - 1e-16)},
       small_and_boundary},
  };
  for (const Case& c : cases) {
    const MultinomialSampler sampler{std::span<const double>(c.w)};
    Rng table_rng(2024);
    Rng reference_rng(2024);
    for (const std::uint64_t n : c.counts) {
      for (int rep = 0; rep < 3; ++rep) {
        WriteCountVector got;
        WriteCountVector want;
        sampler.draw(table_rng, n, got);
        reference_draw(c.w, reference_rng, n, want);
        ASSERT_EQ(got.addrs, want.addrs) << c.name << " n=" << n;
        ASSERT_EQ(got.counts, want.counts) << c.name << " n=" << n;
        ASSERT_EQ(table_rng.generator().state(),
                  reference_rng.generator().state())
            << c.name << " n=" << n;
      }
    }
  }
}

TEST(MultinomialUniformTest, ExactConservationAndOrder) {
  Rng rng(11);
  for (const std::uint64_t n : {std::uint64_t{1}, std::uint64_t{2},
                                std::uint64_t{1000}}) {
    WriteCountVector out;
    multinomial_uniform(rng, 250'000, n, out);
    EXPECT_EQ(out.total(), 250'000u) << "n=" << n;
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_GE(out.counts[i], 1u);
      EXPECT_LT(out.addrs[i], n);
      if (i > 0) EXPECT_GT(out.addrs[i], out.addrs[i - 1]);
    }
  }
  WriteCountVector out;
  multinomial_uniform(rng, 0, 64, out);
  EXPECT_TRUE(out.empty());
}

TEST(MultinomialUniformTest, Deterministic) {
  Rng a(9), b(9);
  WriteCountVector out_a, out_b;
  multinomial_uniform(a, 100'000, 333, out_a);
  multinomial_uniform(b, 100'000, 333, out_b);
  EXPECT_EQ(out_a.addrs, out_b.addrs);
  EXPECT_EQ(out_a.counts, out_b.counts);
}

TEST(MultinomialUniformTest, UniformChiSquared) {
  const std::uint64_t kOutcomes = 64;
  const std::uint64_t kDraws = 1'000'000;
  Rng rng(77);
  WriteCountVector out;
  multinomial_uniform(rng, kDraws, kOutcomes, out);
  const double expected =
      static_cast<double>(kDraws) / static_cast<double>(kOutcomes);
  std::vector<double> observed(kOutcomes, 0.0);
  for (std::size_t i = 0; i < out.size(); ++i) {
    observed[out.addrs[i]] = static_cast<double>(out.counts[i]);
  }
  double stat = 0.0;
  for (std::uint64_t i = 0; i < kOutcomes; ++i) {
    const double d = observed[i] - expected;
    stat += d * d / expected;
  }
  EXPECT_LT(stat, 110.0);  // chi2(63) 99.9th percentile ~106
}

}  // namespace
}  // namespace nvmsec
