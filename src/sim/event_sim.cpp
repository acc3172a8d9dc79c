#include "sim/event_sim.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <queue>
#include <span>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "obs/metrics.h"
#include "obs/profiler.h"
#include "sim/wear_report.h"
#include "util/arena.h"

namespace nvmsec {

namespace {
constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

/// Min-heap entry: (death time in rounds, line, version at push time).
using HeapEntry = std::tuple<double, std::uint32_t, std::uint32_t>;
}  // namespace

UniformEventSimulator::UniformEventSimulator(
    std::shared_ptr<const EnduranceMap> endurance, SpareScheme& scheme)
    : endurance_(std::move(endurance)), scheme_(scheme) {
  if (!endurance_) {
    throw std::invalid_argument("UniformEventSimulator: null endurance map");
  }
  if (endurance_->geometry().num_lines() > UINT32_MAX) {
    throw std::invalid_argument(
        "UniformEventSimulator: device exceeds 2^32 lines");
  }
  if (scheme_.working_lines() == 0) {
    throw std::invalid_argument("UniformEventSimulator: empty working set");
  }
}

void UniformEventSimulator::set_observer(const Observer& obs) {
  rec_ = RunRecorder(obs);
  scheme_.set_observer(obs);
}

void UniformEventSimulator::set_index_rates(std::vector<double> weights) {
  const std::uint64_t u = scheme_.working_lines();
  if (weights.size() != u) {
    throw std::invalid_argument(
        "UniformEventSimulator::set_index_rates: weight count " +
        std::to_string(weights.size()) + " != working lines " +
        std::to_string(u));
  }
  double total = 0.0;
  for (const double w : weights) {
    if (!std::isfinite(w) || w < 0.0) {
      throw std::invalid_argument(
          "UniformEventSimulator::set_index_rates: weights must be finite "
          "and non-negative");
    }
    total += w;
  }
  if (!(total > 0.0)) {
    throw std::invalid_argument(
        "UniformEventSimulator::set_index_rates: weight sum must be > 0");
  }
  // Normalize so the mean-weight index writes once per round: rates sum to
  // u, and a uniform input becomes exactly 1.0 per index (reproducing the
  // unweighted arithmetic bit-for-bit).
  const double scale = static_cast<double>(u) / total;
  for (double& w : weights) w *= scale;
  index_rates_ = std::move(weights);
}

LifetimeResult UniformEventSimulator::run() {
  const DeviceGeometry& geom = endurance_->geometry();
  const std::uint64_t n = geom.num_lines();
  const std::uint64_t u = scheme_.working_lines();
  const ScopedTimer run_span = rec_.span("event_sim.run");
  Profiler* const prof = rec_.profiler();
  const ScopedProfPhase prof_span(prof, ProfPhase::kEventRun);
  // The run's straight-line stages, timed under event.run; the death loop
  // between heapify and finalize stays event.run self time (plus
  // event.rescue).
  std::optional<ScopedProfPhase> stage(std::in_place, prof,
                                       ProfPhase::kEventSetup);

  // Working state lives in a bump arena: a run-local one by default, the
  // caller's via set_scratch() when many devices run back-to-back.
  Arena local_scratch;
  Arena& arena = scratch_ != nullptr ? *scratch_ : local_scratch;
  arena.reset();

  // Integer budgets identical to Device's, kept as doubles for the
  // continuous-time arithmetic.
  const auto budget = [&](std::uint64_t l) {
    return static_cast<double>(endurance_->write_budget(PhysLineAddr{l}));
  };
  const std::span<double> remaining = arena.make_span<double>(n);
  for (std::uint64_t l = 0; l < n; ++l) remaining[l] = budget(l);

  // Per-index write rate (writes per round): 1.0 everywhere in the uniform
  // default, the normalized weight vector otherwise. A line's wear rate is
  // the sum over the indices it serves — integer-valued doubles in the
  // uniform case, so the weighted code path reproduces the historical
  // uint32 load arithmetic exactly.
  const bool weighted = !index_rates_.empty();
  const auto idx_rate = [&](std::uint32_t idx) {
    return weighted ? index_rates_[idx] : 1.0;
  };

  const std::span<double> rate = arena.make_span<double>(n);
  const std::span<double> last_t = arena.make_span<double>(n);
  const std::span<std::uint32_t> version = arena.make_span<std::uint32_t>(n);
  // Reverse map backing line -> working indices, as intrusive lists.
  const std::span<std::uint32_t> list_head = arena.make_span<std::uint32_t>(n);
  const std::span<std::uint32_t> list_next = arena.make_span<std::uint32_t>(u);
  std::fill(list_head.begin(), list_head.end(), kNone);
  std::fill(list_next.begin(), list_next.end(), kNone);

  for (std::uint64_t idx = 0; idx < u; ++idx) {
    const std::uint64_t b = scheme_.resolve(idx).value();
    list_next[idx] = list_head[b];
    list_head[b] = static_cast<std::uint32_t>(idx);
    rate[b] += idx_rate(static_cast<std::uint32_t>(idx));
  }

  stage.emplace(prof, ProfPhase::kEventHeapify);
  // The death heap's storage comes from the arena too: reserving up front
  // makes the common case (deaths ≈ lines) grow-free, and any overflow
  // growth still bump-allocates instead of hitting the system allocator.
  using HeapVec = std::vector<HeapEntry, ArenaAllocator<HeapEntry>>;
  HeapVec heap_storage{ArenaAllocator<HeapEntry>(&arena)};
  heap_storage.reserve(n + 64);
  for (std::uint64_t l = 0; l < n; ++l) {
    if (rate[l] > 0.0) {
      heap_storage.emplace_back(remaining[l] / rate[l],
                                static_cast<std::uint32_t>(l), version[l]);
    }
  }
  // One O(n) make_heap. The pop order cannot differ from pushing one entry
  // at a time: entries are distinct (time, line, version) tuples under a
  // total order, so each pop's minimum is unique.
  std::priority_queue<HeapEntry, HeapVec, std::greater<>> heap{
      std::greater<>{}, std::move(heap_storage)};

  stage.reset();

  // Accrue wear on `l` up to time `t` under its current rate.
  const auto settle = [&](std::uint64_t l, double t) {
    remaining[l] -= (t - last_t[l]) * rate[l];
    if (remaining[l] < 0) remaining[l] = 0;  // floating-point slack only
    last_t[l] = t;
  };

  LifetimeResult result;
  result.ideal_lifetime = endurance_->ideal_lifetime();

  double t = 0.0;
  std::uint64_t deaths = 0;
  // Every line dies at most once here (dead lines are never re-homed onto),
  // so the recorder's per-region death counts are exact.
  rec_.start(geom);

  while (!heap.empty() && !result.failed) {
    const auto [death_time, line, v] = heap.top();
    heap.pop();
    if (v != version[line] || rate[line] <= 0.0) continue;  // stale entry

    t = death_time;
    remaining[line] = 0;
    last_t[line] = t;
    ++version[line];
    ++deaths;

    // The write clock is the continuous-time equivalent: t rounds of u
    // uniform user writes each.
    const double now = t * static_cast<double>(u);
    rec_.line_died(PhysLineAddr{line}, now);
    rec_.wear_out_instant(PhysLineAddr{line}, t, deaths);
    if (rec_.snapshot_due(now)) {
      rec_.snapshot({.spare = &scheme_, .user_writes = now, .sim_rounds = t},
                    deaths);
    }

    // Re-home every working index the dead line was serving.
    const ScopedProfPhase rescue_span(prof, ProfPhase::kEventRescue);
    if (prof != nullptr) prof->add(ProfCounter::kRescueEvents);
    std::uint32_t idx = list_head[line];
    list_head[line] = kNone;
    rate[line] = 0.0;
    while (idx != kNone) {
      const std::uint32_t next_idx = list_next[idx];
      // A replacement can land on a line whose own wear-out falls at this
      // exact round (ties are common: every line of a region shares its
      // endurance). Such a replacement is worn out by its very next write,
      // so keep replacing until the backing has capacity left.
      std::uint64_t nb = 0;
      bool replaced = false;
      while (true) {
        if (!scheme_.on_wear_out(idx)) break;
        nb = scheme_.resolve(idx).value();
        settle(nb, t);
        if (remaining[nb] > 0) {
          replaced = true;
          break;
        }
      }
      if (!replaced) {
        rec_.end_of_life(result, idx, PhysLineAddr{line}, now, deaths);
        result.failure_reason +=
            " after " + std::to_string(deaths) + " line deaths";
        break;
      }
      list_next[idx] = list_head[nb];
      list_head[nb] = idx;
      rate[nb] += idx_rate(idx);
      ++version[nb];
      if (rate[nb] > 0.0) {
        heap.emplace(t + remaining[nb] / rate[nb],
                     static_cast<std::uint32_t>(nb), version[nb]);
      }
      idx = next_idx;
    }
  }

  stage.emplace(prof, ProfPhase::kEventFinalize);
  if (!result.failed) {
    // Defensive: with the bundled schemes failure always precedes heap
    // exhaustion, but a custom scheme with unbounded spares could get here.
    rec_.end_of_life_all_worn(result, t * static_cast<double>(u), deaths);
  }

  result.user_writes = t * static_cast<double>(u);
  result.line_deaths = deaths;

  // Per-line utilization Gini at end of run, matching analyze_wear()'s
  // definition. Lines still under load accrued wear since their last
  // settle; bring every line up to the failure time first. A settled line's
  // `remaining` is dead, so its utilization overwrites it in place.
  for (std::uint64_t l = 0; l < n; ++l) {
    if (rate[l] > 0.0) settle(l, t);
    const double b = budget(l);
    remaining[l] = (b - remaining[l]) / b;
  }
  result.wear_gini = gini_inplace(remaining);

  rec_.finish(result, {.spare = &scheme_, .sim_rounds = t});
  // The wear-out count a Device would publish, and the continuous clock.
  if (MetricsRegistry* const m = rec_.metrics()) {
    m->counter("device.wear_outs").set(deaths);
    m->gauge("event_sim.rounds").set(t);
  }
  return result;
}

}  // namespace nvmsec
