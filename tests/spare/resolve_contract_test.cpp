// The resolve_cacheable() contract, checked per scheme: apart from reset,
// rebind, state load and (Max-WE) scrubs, a cacheable scheme changes an
// index's resolve() answer only when that index's backing line has worn
// out. The stochastic engine relies on it to keep its resolve cache across
// spare rescues instead of flushing it.
//
// Each case drives seeded random wear-outs and snapshots resolve() of every
// working index around each on_wear_out() call. Every index whose answer
// changed must have been backed by the line that died, and its new answer
// must be a live line. Resolves run in a shuffled order, and each one is
// checked not to move an index that was already repaired, so PCD's lazy
// rehome inside resolve() is held to the same rule.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "core/maxwe.h"
#include "nvm/endurance_map.h"
#include "nvm/endurance_model.h"
#include "spare/spare_scheme.h"
#include "util/rng.h"

namespace nvmsec {
namespace {

constexpr std::uint64_t kSpareLines = 32;

std::unique_ptr<SpareScheme> make_scheme(
    const std::string& name, std::shared_ptr<const EnduranceMap> map,
    Rng& rng) {
  if (name == "maxwe") {
    // Two SWR/RWR pairs and two regions of additional spares, so random
    // deaths take both the RMT redirect and the LMT allocation.
    return make_maxwe(std::move(map),
                      MaxWeParams{.spare_fraction = 0.25, .swr_fraction = 0.5});
  }
  if (name == "ps") return make_ps(std::move(map), kSpareLines, rng);
  if (name == "ps-worst") {
    return make_ps_worst(std::move(map), kSpareLines, rng);
  }
  if (name == "pcd") return make_pcd(std::move(map), kSpareLines, rng);
  return make_no_spare(std::move(map));
}

std::vector<std::uint64_t> resolve_all(SpareScheme& scheme) {
  std::vector<std::uint64_t> lines(scheme.working_lines());
  for (std::uint64_t i = 0; i < lines.size(); ++i) {
    lines[i] = scheme.resolve(i).value();
  }
  return lines;
}

class SpareResolveContractTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(SpareResolveContractTest, RemapsOnlyIndicesBackedByTheDeadLine) {
  EnduranceModelParams params;
  params.endurance_at_mean = 1000.0;
  Rng map_rng(3);
  const auto map =
      std::make_shared<const EnduranceMap>(EnduranceMap::from_model(
          DeviceGeometry::scaled(256, 16), EnduranceModel(params), map_rng));
  Rng scheme_rng(5);
  const std::unique_ptr<SpareScheme> scheme =
      make_scheme(GetParam(), map, scheme_rng);
  ASSERT_TRUE(scheme->resolve_cacheable());
  const std::uint64_t n = scheme->working_lines();

  Rng rng(7);
  std::set<std::uint64_t> dead_lines;
  std::vector<std::uint64_t> before = resolve_all(*scheme);
  std::uint64_t rescues = 0;
  for (int step = 0; step < 200; ++step) {
    const std::uint64_t idx = rng.uniform_u64(n);
    const std::uint64_t dead = before[idx];
    dead_lines.insert(dead);
    const bool rescued = scheme->on_wear_out(idx);

    // Resolve every index once, in a shuffled order; no call may move an
    // index resolved earlier in this pass.
    std::vector<std::uint64_t> order(n);
    std::iota(order.begin(), order.end(), std::uint64_t{0});
    rng.shuffle(order);
    std::vector<std::uint64_t> after(n);
    for (std::uint64_t k = 0; k < n; ++k) {
      after[order[k]] = scheme->resolve(order[k]).value();
      const std::uint64_t probe = order[rng.uniform_u64(k + 1)];
      ASSERT_EQ(scheme->resolve(probe).value(), after[probe])
          << "resolving index " << order[k] << " moved index " << probe;
    }
    for (std::uint64_t i = 0; i < n; ++i) {
      if (after[i] == before[i]) continue;
      EXPECT_EQ(before[i], dead)
          << "index " << i << " moved off live line " << before[i]
          << " when line " << dead << " died";
      EXPECT_EQ(dead_lines.count(after[i]), 0u)
          << "index " << i << " moved onto dead line " << after[i];
    }
    if (!rescued) break;
    ++rescues;
    before = std::move(after);
  }
  // Every scheme with a spare budget rescued at least once.
  EXPECT_EQ(rescues > 0, std::string(GetParam()) != "none");
}

INSTANTIATE_TEST_SUITE_P(CacheableSchemes, SpareResolveContractTest,
                         ::testing::Values("maxwe", "ps", "ps-worst", "pcd",
                                           "none"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace nvmsec
