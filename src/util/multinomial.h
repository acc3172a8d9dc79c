// Exact batched sampling: binomial draws and multinomial count vectors.
//
// The batched stochastic fast path replaces "one RNG draw per address" with
// "one count vector per chunk": instead of sampling k addresses one by one,
// draw how many of the chunk's k writes land on each line in a single pass.
// The count vector is distributed exactly as the per-draw histogram —
// Multinomial(k; p_0..p_{n-1}) — because it is built from exact Binomial
// splits down an implicit binary tree over the weight vector: the root
// splits k between the left and right halves with Binomial(k, w_L/(w_L+w_R)),
// and so on recursively. Subtrees that receive a zero count are pruned, so a
// draw costs O(hit_lines * log n) RNG work instead of O(k).
//
// Everything here is deterministic for a fixed RNG stream: the tree shape is
// a function of the weight vector alone and the traversal order is fixed
// (left subtree first), so two runs with equal seeds produce equal vectors.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.h"
#include "util/types.h"

namespace nvmsec {

/// Exact Binomial(n, p) variate. Inversion (BINV) for small n*p, Hörmann's
/// BTRS transformed-rejection for large n*p — both sample the exact binomial
/// law, not a normal/Poisson approximation, so recursive splits compose into
/// an exact multinomial. p outside [0, 1] is clamped; n up to 2^53 (the
/// double-precision integer range; chunk sizes are far below this).
std::uint64_t binomial_draw(Rng& rng, std::uint64_t n, double p);

/// Structure-of-arrays batch of (address, count) pairs: the unit of work the
/// engine hands to Device::write_counts. Parallel vectors rather than a
/// vector of pairs so the device's bulk-decrement loop streams two flat
/// arrays. Entries may repeat an address (zipf's modulo fold does); counts
/// are always >= 1.
struct WriteCountVector {
  std::vector<std::uint64_t> addrs;
  std::vector<WriteCount> counts;

  void clear() {
    addrs.clear();
    counts.clear();
  }
  void append(std::uint64_t addr, WriteCount count) {
    addrs.push_back(addr);
    counts.push_back(count);
  }
  [[nodiscard]] std::size_t size() const { return addrs.size(); }
  [[nodiscard]] bool empty() const { return addrs.empty(); }
  /// Sum of all counts (the number of writes the vector represents).
  [[nodiscard]] WriteCount total() const;
};

/// Exact multinomial sampler over a fixed non-negative weight vector.
/// Construction is O(n) (a log1p and two exp per internal node); draw() is
/// O(hit * log n) and draws exactly what per-split binomial_draw calls would.
/// Reusable across draws and across threads (draw() is const and touches
/// only the caller's RNG and output).
class MultinomialSampler {
 public:
  /// Weights must be non-empty, finite, non-negative, with a positive sum.
  explicit MultinomialSampler(std::span<const double> weights);

  /// Append one entry per index that received a non-zero count, in
  /// ascending index order, with counts summing to exactly `n_draws`.
  void draw(Rng& rng, std::uint64_t n_draws, WriteCountVector& out) const;

  [[nodiscard]] std::size_t size() const { return leaves_; }

  /// Sampling probability of index i (for tests): the product of the split
  /// probabilities on its root-to-leaf path, which is w_i / sum(w) up to
  /// rounding.
  [[nodiscard]] double probability(std::size_t i) const;

 private:
  /// What binomial_draw(rng, n, p) derives from a node's split probability
  /// that does not depend on n, computed once per internal node instead of
  /// once per split (40 B a node). pp = min(p, 1 - p) is the probability
  /// binomial_draw actually draws with, and s = pp / (1 - pp).
  struct Split {
    double p{0};    ///< w_L / (w_L + w_R); 1 or 0 when one side has no weight
    double lg{0};   ///< log1p(-pp): BINV's log q
    double q1{0};   ///< exp(lg): BINV's P(X = 0) at n = 1
    double q2{0};   ///< exp(2 lg): BINV's P(X = 0) at n = 2
    double pq2{0};  ///< q2 * (3s - s): BINV's P(X = 1) at n = 2
  };

  /// Binomial(n, sp.p) for n >= 1, consuming the same uniforms and
  /// returning the same value as binomial_draw(rng, n, sp.p).
  static std::uint64_t split(Rng& rng, std::uint64_t n, const Split& sp);

  /// Implicit complete binary tree (leaves padded to a power of two with
  /// zero weight): node j's children are 2j and 2j+1, the root is node 1,
  /// splits_[j] describes internal node j < cap_, and leaf i is node
  /// cap_ + i.
  std::vector<Split> splits_;
  std::size_t cap_{0};
  std::size_t leaves_{0};
};

/// Exact Multinomial(n_draws; uniform over n_outcomes) without a weight
/// table: recursive range-halving with Binomial splits. The uniform-random
/// attack uses this so it needs no per-size precomputation.
void multinomial_uniform(Rng& rng, std::uint64_t n_draws,
                         std::uint64_t n_outcomes, WriteCountVector& out);

}  // namespace nvmsec
