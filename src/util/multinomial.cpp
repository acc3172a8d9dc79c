#include "util/multinomial.h"

#include <bit>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace nvmsec {
namespace {

// Stirling tail: log(k!) - [k*log(k) - k + 0.5*log(2*pi*k)]. Exact table for
// small k, two-term series beyond — the same correction TensorFlow/JAX use in
// their exact BTRS binomial kernels (Hörmann 1993).
double stirling_approx_tail(double k) {
  static constexpr double kTable[] = {
      0.0810614667953272,  0.0413406959554092,  0.0276779256849983,
      0.02079067210376509, 0.0166446911898211,  0.0138761288230707,
      0.0118967099458917,  0.0104112652619720,  0.00925546218271273,
      0.00833056343336287};
  if (k < 10.0) {
    return kTable[static_cast<int>(k)];
  }
  const double kp1sq = (k + 1.0) * (k + 1.0);
  return (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / 1260.0 / kp1sq) / kp1sq) /
         (k + 1.0);
}

// Inversion (BINV): walk the CDF from 0. O(n*p) expected steps — used only
// when n*p < 10, where it beats rejection on constant factors. Takes p's
// n-independent constants s = p/(1-p) and lg = log1p(-p) precomputed, so a
// caller that splits with one p many times computes them once.
std::uint64_t binomial_binv(Rng& rng, std::uint64_t n, double s, double lg) {
  const double a = static_cast<double>(n + 1) * s;
  double r = std::exp(static_cast<double>(n) * lg);  // q^n
  double u = rng.uniform_double();
  std::uint64_t x = 0;
  while (u > r) {
    u -= r;
    ++x;
    if (x > n) {  // floating-point slack at the extreme tail
      return n;
    }
    r *= (a / static_cast<double>(x)) - s;
  }
  return x;
}

// Transformed rejection with squeeze (BTRS, Hörmann 1993): exact binomial
// sampling in O(1) expected RNG draws for n*p >= 10. Requires p <= 0.5
// (callers apply the symmetry reduction first).
std::uint64_t binomial_btrs(Rng& rng, std::uint64_t n, double p) {
  const double nd = static_cast<double>(n);
  const double q = 1.0 - p;
  const double stddev = std::sqrt(nd * p * q);
  const double b = 1.15 + 2.53 * stddev;
  const double a = -0.0873 + 0.0248 * b + 0.01 * p;
  const double c = nd * p + 0.5;
  const double v_r = 0.92 - 4.2 / b;
  const double r = p / q;
  const double alpha = (2.83 + 5.1 / b) * stddev;
  const double m = std::floor((nd + 1.0) * p);
  for (;;) {
    const double u = rng.uniform_double() - 0.5;
    double v = rng.uniform_double();
    const double us = 0.5 - std::abs(u);
    const double kd = std::floor((2.0 * a / us + b) * u + c);
    if (kd < 0.0 || kd > nd) {
      continue;
    }
    // Cheap acceptance region covering ~86% of proposals.
    if (us >= 0.07 && v <= v_r) {
      return static_cast<std::uint64_t>(kd);
    }
    // Full log-acceptance test against the exact binomial pmf.
    v = std::log(v * alpha / (a / (us * us) + b));
    const double upper =
        (m + 0.5) * std::log((m + 1.0) / (r * (nd - m + 1.0))) +
        (nd + 1.0) * std::log((nd - m + 1.0) / (nd - kd + 1.0)) +
        (kd + 0.5) * std::log(r * (nd - kd + 1.0) / (kd + 1.0)) +
        stirling_approx_tail(m) + stirling_approx_tail(nd - m) -
        stirling_approx_tail(kd) - stirling_approx_tail(nd - kd);
    if (v <= upper) {
      return static_cast<std::uint64_t>(kd);
    }
  }
}

}  // namespace

std::uint64_t binomial_draw(Rng& rng, std::uint64_t n, double p) {
  if (n == 0 || !(p > 0.0)) {
    return 0;
  }
  if (p >= 1.0) {
    return n;
  }
  if (p > 0.5) {
    return n - binomial_draw(rng, n, 1.0 - p);
  }
  if (static_cast<double>(n) * p < 10.0) {
    return binomial_binv(rng, n, p / (1.0 - p), std::log1p(-p));
  }
  return binomial_btrs(rng, n, p);
}

WriteCount WriteCountVector::total() const {
  WriteCount sum = 0;
  for (const WriteCount c : counts) {
    sum += c;
  }
  return sum;
}

MultinomialSampler::MultinomialSampler(std::span<const double> weights) {
  if (weights.empty()) {
    throw std::invalid_argument("MultinomialSampler: empty weight vector");
  }
  leaves_ = weights.size();
  cap_ = std::bit_ceil(leaves_);
  // Subtree weight sums, only for the build: node j's children are 2j and
  // 2j+1, leaves (padded with zero weight) at [cap_, 2 * cap_).
  std::vector<double> sums(2 * cap_, 0.0);
  for (std::size_t i = 0; i < leaves_; ++i) {
    const double w = weights[i];
    if (!std::isfinite(w) || w < 0.0) {
      throw std::invalid_argument(
          "MultinomialSampler: weights must be finite and non-negative");
    }
    sums[cap_ + i] = w;
  }
  for (std::size_t j = cap_ - 1; j >= 1; --j) {
    sums[j] = sums[2 * j] + sums[2 * j + 1];
  }
  if (!(sums[1] > 0.0)) {
    throw std::invalid_argument("MultinomialSampler: weight sum must be > 0");
  }
  // Each split's p and what binomial_draw(rng, n, p) derives from it, with
  // binomial_draw's and binomial_binv's own operations. A side with no
  // weight takes everything (p = 1 or 0, answered without a draw).
  splits_.assign(cap_, Split{});
  for (std::size_t j = 1; j < cap_; ++j) {
    const double left = sums[2 * j];
    const double right = sums[2 * j + 1];
    Split& sp = splits_[j];
    if (!(right > 0.0)) {
      sp.p = 1.0;
    } else if (!(left > 0.0)) {
      sp.p = 0.0;
    } else {
      sp.p = left / (left + right);
      const double pp = sp.p > 0.5 ? 1.0 - sp.p : sp.p;
      const double s = pp / (1.0 - pp);
      sp.lg = std::log1p(-pp);
      sp.q1 = std::exp(sp.lg);
      sp.q2 = std::exp(2.0 * sp.lg);
      sp.pq2 = sp.q2 * (3.0 * s - s);
    }
  }
}

std::uint64_t MultinomialSampler::split(Rng& rng, std::uint64_t n,
                                        const Split& sp) {
  // binomial_draw(rng, n, sp.p) branch for branch; n >= 1 here.
  const double p = sp.p;
  if (!(p > 0.0)) {
    return 0;
  }
  if (p >= 1.0) {
    return n;
  }
  const bool flip = p > 0.5;
  const double pp = flip ? 1.0 - p : p;
  std::uint64_t x;  // Binomial(n, pp)
  if (n == 1) {
    // BINV at n = 1: one step of the CDF walk.
    x = rng.uniform_double() > sp.q1 ? 1 : 0;
  } else if (n == 2) {
    // BINV at n = 2: two steps; the walk's r after step one is pq2.
    const double u = rng.uniform_double();
    x = u <= sp.q2 ? 0 : (u - sp.q2 <= sp.pq2 ? 1 : 2);
  } else if (static_cast<double>(n) * pp < 10.0) {
    x = binomial_binv(rng, n, pp / (1.0 - pp), sp.lg);
  } else {
    x = binomial_btrs(rng, n, pp);
  }
  return flip ? n - x : x;
}

void MultinomialSampler::draw(Rng& rng, std::uint64_t n_draws,
                              WriteCountVector& out) const {
  if (n_draws == 0) {
    return;
  }
  struct Pending {
    std::size_t node;
    std::uint64_t count;
  };
  // Explicit stack, right child pushed first so the left subtree resolves
  // first: output entries come out in ascending index order. Depth is
  // bounded by log2(cap_) + 1.
  Pending stack[66];
  std::size_t depth = 0;
  stack[depth++] = {1, n_draws};
  while (depth > 0) {
    const Pending cur = stack[--depth];
    if (cur.count == 0) {
      continue;
    }
    if (cur.node >= cap_) {
      out.append(cur.node - cap_, cur.count);
      continue;
    }
    const std::uint64_t to_left = split(rng, cur.count, splits_[cur.node]);
    stack[depth++] = {2 * cur.node + 1, cur.count - to_left};
    stack[depth++] = {2 * cur.node, to_left};
  }
}

double MultinomialSampler::probability(std::size_t i) const {
  if (i >= leaves_) {
    throw std::out_of_range("MultinomialSampler::probability: index");
  }
  // The product of the split probabilities on the root-to-leaf path.
  double prob = 1.0;
  for (std::size_t node = cap_ + i; node > 1; node /= 2) {
    const double p = splits_[node / 2].p;
    prob *= node % 2 == 0 ? p : 1.0 - p;
  }
  return prob;
}

void multinomial_uniform(Rng& rng, std::uint64_t n_draws,
                         std::uint64_t n_outcomes, WriteCountVector& out) {
  if (n_outcomes == 0) {
    throw std::invalid_argument("multinomial_uniform: zero outcomes");
  }
  if (n_draws == 0) {
    return;
  }
  struct Pending {
    std::uint64_t lo;
    std::uint64_t hi;  // exclusive
    std::uint64_t count;
  };
  Pending stack[130];
  std::size_t depth = 0;
  stack[depth++] = {0, n_outcomes, n_draws};
  while (depth > 0) {
    const Pending cur = stack[--depth];
    if (cur.count == 0) {
      continue;
    }
    if (cur.hi - cur.lo == 1) {
      out.append(cur.lo, cur.count);
      continue;
    }
    const std::uint64_t mid = cur.lo + (cur.hi - cur.lo) / 2;
    const double p_left = static_cast<double>(mid - cur.lo) /
                          static_cast<double>(cur.hi - cur.lo);
    const std::uint64_t to_left = binomial_draw(rng, cur.count, p_left);
    stack[depth++] = {mid, cur.hi, cur.count - to_left};
    stack[depth++] = {cur.lo, mid, to_left};
  }
}

}  // namespace nvmsec
