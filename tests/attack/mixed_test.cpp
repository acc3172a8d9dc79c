// Tests for the composite phase-schedule attack: spec parsing, exact phase
// boundaries, cyclic wrap with generator state carried across bursts, the
// weakest-contract rule, boundary-capped batched draws, and checkpoint
// state round trips.
#include "attack/mixed.h"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "util/rng.h"
#include "util/serialize.h"

namespace nvmsec {
namespace {

constexpr std::uint64_t kLines = 100;

MixedAttack::Phase phase(std::unique_ptr<Attack> a, std::uint64_t writes) {
  MixedAttack::Phase p;
  p.attack = std::move(a);
  p.writes = writes;
  return p;
}

/// uaa:N then hotspot(1) forever — the canonical benign-then-onset shape,
/// inverted (the deterministic generators make addresses checkable).
std::unique_ptr<MixedAttack> sweep_then_hammer(std::uint64_t sweep_writes) {
  std::vector<MixedAttack::Phase> phases;
  phases.push_back(phase(make_uaa(), sweep_writes));
  phases.push_back(phase(make_hotspot(1), 0));
  return std::make_unique<MixedAttack>(std::move(phases));
}

TEST(ParseMixedPhasesTest, ParsesNamesBudgetsAndSuffixes) {
  const auto phases = parse_mixed_phases("zipf:200k,bpa:3M,uaa:0");
  ASSERT_EQ(phases.size(), 3u);
  EXPECT_EQ(phases[0].attack, "zipf");
  EXPECT_EQ(phases[0].writes, 200'000u);
  EXPECT_EQ(phases[1].attack, "bpa");
  EXPECT_EQ(phases[1].writes, 3'000'000u);
  EXPECT_EQ(phases[2].attack, "uaa");
  EXPECT_EQ(phases[2].writes, 0u);
  EXPECT_EQ(parse_mixed_phases("uaa:18446744073709551615")[0].writes,
            std::numeric_limits<std::uint64_t>::max());
}

TEST(ParseMixedPhasesTest, RejectsMalformedSpecs) {
  EXPECT_THROW(parse_mixed_phases(""), std::invalid_argument);
  EXPECT_THROW(parse_mixed_phases("uaa"), std::invalid_argument);
  EXPECT_THROW(parse_mixed_phases(":5"), std::invalid_argument);
  EXPECT_THROW(parse_mixed_phases("uaa:"), std::invalid_argument);
  EXPECT_THROW(parse_mixed_phases("uaa:12x"), std::invalid_argument);
  EXPECT_THROW(parse_mixed_phases("uaa:k"), std::invalid_argument);
  EXPECT_THROW(parse_mixed_phases("zipf:10,,uaa:0"), std::invalid_argument);
  // An unbounded phase anywhere but last can never be left.
  EXPECT_THROW(parse_mixed_phases("uaa:0,zipf:10"), std::invalid_argument);
  // Budgets past 2^64 - 1 are rejected, not wrapped (to 1 and to a small
  // number respectively).
  EXPECT_THROW(parse_mixed_phases("uaa:18446744073709551617"),
               std::invalid_argument);
  EXPECT_THROW(parse_mixed_phases("zipf:20000000000g"), std::invalid_argument);
}

TEST(MixedAttackTest, ConstructionValidation) {
  EXPECT_THROW(MixedAttack(std::vector<MixedAttack::Phase>{}),
               std::invalid_argument);
  {
    std::vector<MixedAttack::Phase> phases;
    phases.push_back(phase(nullptr, 10));
    EXPECT_THROW(MixedAttack(std::move(phases)), std::invalid_argument);
  }
  {
    std::vector<MixedAttack::Phase> phases;
    phases.push_back(phase(make_uaa(), 0));
    phases.push_back(phase(make_hotspot(1), 10));
    EXPECT_THROW(MixedAttack(std::move(phases)), std::invalid_argument);
  }
}

TEST(MixedAttackTest, SwitchesPhasesAtExactBoundary) {
  auto a = sweep_then_hammer(4);
  Rng rng(1);
  // Exactly 4 sweep writes, then the hammer takes over forever.
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(a->next(rng, kLines).value(), i);
  }
  EXPECT_EQ(a->current_phase(), 0u);  // advance is lazy: on the next draw
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(a->next(rng, kLines).value(), 0u);
  }
  EXPECT_EQ(a->current_phase(), 1u);
}

TEST(MixedAttackTest, CyclicScheduleRetainsGeneratorState) {
  // Both phases bounded => the schedule wraps, and the sweep must RESUME
  // (not restart) on its second burst: 0,1,2, hammer, 3,4,5, hammer, ...
  std::vector<MixedAttack::Phase> phases;
  phases.push_back(phase(make_uaa(), 3));
  phases.push_back(phase(make_hotspot(1), 2));
  MixedAttack a(std::move(phases));
  Rng rng(2);
  std::uint64_t sweep_cursor = 0;
  for (int cycle = 0; cycle < 4; ++cycle) {
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(a.next(rng, kLines).value(), sweep_cursor++ % kLines);
    }
    for (int i = 0; i < 2; ++i) {
      EXPECT_EQ(a.next(rng, kLines).value(), 0u);
    }
  }
}

TEST(MixedAttackTest, ContractIsWeakestOfPhases) {
  {
    std::vector<MixedAttack::Phase> phases;
    phases.push_back(phase(make_uaa(), 10));
    phases.push_back(phase(make_bpa(), 0));
    EXPECT_EQ(MixedAttack(std::move(phases)).batch_contract(),
              BatchContract::kBitIdentical);
  }
  {
    std::vector<MixedAttack::Phase> phases;
    phases.push_back(phase(make_uaa(), 10));
    phases.push_back(phase(make_hotspot(4), 0));
    EXPECT_EQ(MixedAttack(std::move(phases)).batch_contract(),
              BatchContract::kMultisetExact);
  }
  {
    std::vector<MixedAttack::Phase> phases;
    phases.push_back(phase(make_hotspot(4), 10));
    phases.push_back(phase(make_random_uniform(), 0));
    EXPECT_EQ(MixedAttack(std::move(phases)).batch_contract(),
              BatchContract::kDistributionEquivalent);
  }
}

TEST(MixedAttackTest, RunsNeverStraddlePhaseBoundary) {
  auto a = sweep_then_hammer(10);
  Rng rng(3);
  // The sweep would happily emit 64 writes, but the phase has 10 left.
  AttackRun run = a->next_run(rng, kLines, 64);
  EXPECT_EQ(run.start.value(), 0u);
  EXPECT_EQ(run.count, 10u);
  EXPECT_EQ(run.stride, 1u);
  // Next run comes from the hammer phase: stride-0 on line 0.
  run = a->next_run(rng, kLines, 64);
  EXPECT_EQ(run.start.value(), 0u);
  EXPECT_EQ(run.stride * (run.count - 1), 0u);
}

TEST(MixedAttackTest, CountsCapAtPhaseBoundaryAndSweepDeclines) {
  std::vector<MixedAttack::Phase> phases;
  phases.push_back(phase(make_hotspot(4), 10));
  phases.push_back(phase(make_uaa(), 0));
  MixedAttack a(std::move(phases));
  Rng rng(4);
  WriteCountVector out;
  // Asked for 64 but the counts-capable phase has only 10 writes left:
  // the draw is capped, not straddled.
  ASSERT_TRUE(a.next_counts(rng, kLines, 64, out));
  EXPECT_EQ(out.total(), 10u);
  // The sweep phase has no counts form; the caller must fall back to runs.
  out = WriteCountVector{};
  EXPECT_FALSE(a.next_counts(rng, kLines, 64, out));
  const AttackRun run = a.next_run(rng, kLines, 7);
  EXPECT_EQ(run.count, 7u);
  EXPECT_EQ(run.stride, 1u);
}

TEST(MixedAttackTest, StateRoundTripsMidPhase) {
  // Stop mid-sweep in the second cycle, restore into a freshly built
  // schedule, and require the two streams to agree write for write.
  auto build = [] {
    std::vector<MixedAttack::Phase> phases;
    phases.push_back(phase(make_uaa(), 7));
    phases.push_back(phase(make_hotspot(2), 5));
    return std::make_unique<MixedAttack>(std::move(phases));
  };
  auto original = build();
  Rng rng(5);
  for (int i = 0; i < 17; ++i) original->next(rng, kLines);

  StateWriter w;
  original->save_state(w);
  auto restored = build();
  StateReader r(w.buffer());
  ASSERT_TRUE(restored->load_state(r).ok());
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(restored->current_phase(), original->current_phase());

  Rng rng_a(6), rng_b(6);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(original->next(rng_a, kLines), restored->next(rng_b, kLines))
        << "write " << i;
  }
}

TEST(MixedAttackTest, LoadRejectsCorruptPositions) {
  auto a = sweep_then_hammer(10);
  {
    StateWriter w;
    w.u64(5);  // phase index out of range
    w.u64(0);
    StateReader r(w.buffer());
    EXPECT_FALSE(a->load_state(r).ok());
  }
  {
    StateWriter w;
    w.u64(0);
    w.u64(11);  // position past the phase budget
    StateReader r(w.buffer());
    EXPECT_FALSE(a->load_state(r).ok());
  }
}

TEST(MixedAttackTest, ResetRestartsScheduleAndGenerators) {
  auto a = sweep_then_hammer(3);
  Rng rng(7);
  for (int i = 0; i < 10; ++i) a->next(rng, kLines);
  ASSERT_EQ(a->current_phase(), 1u);
  a->reset();
  EXPECT_EQ(a->current_phase(), 0u);
  EXPECT_EQ(a->next(rng, kLines).value(), 0u);  // sweep restarts at line 0
}

TEST(MixedAttackTest, ScheduleIntrospection) {
  auto a = sweep_then_hammer(42);
  EXPECT_EQ(a->phase_count(), 2u);
  EXPECT_EQ(a->phase_name(0), "uaa");
  EXPECT_EQ(a->phase_name(1), "hotspot");
  EXPECT_EQ(a->phase_writes(0), 42u);
  EXPECT_EQ(a->phase_writes(1), 0u);
  EXPECT_EQ(a->name(), "mixed");
}

}  // namespace
}  // namespace nvmsec
