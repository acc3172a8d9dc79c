// Event-driven lifetime simulator for stationary-rate attacks.
//
// Under UAA every working index receives exactly one write per sweep
// ("round"), so per-line wear rates are piecewise constant between
// wear-outs: a backing line serving `load` working indices wears at `load`
// writes per round. That makes the next wear-out analytically computable —
// no per-write simulation — and lets the paper's full-size configuration
// (1 GB, 4.2M lines) run in milliseconds while staying *exact* at event
// granularity. Time is continuous in rounds; lifetimes are therefore exact
// to within one partial sweep (< N writes, < 0.003% of any reported
// lifetime), which we note in EXPERIMENTS.md.
//
// set_index_rates() generalizes the same machinery to any *stationary*
// per-index write-rate vector (hotspot's working set, zipf's scattered
// skew): a line's wear rate becomes the sum of its indices' rates and the
// event algebra is otherwise unchanged. This is the mean-field equivalence
// class — the count-vector fast path's per-chunk multinomial noise is
// integrated out, so event-mode lifetimes are the expected-trajectory
// limit of the stochastic engine's distribution-equivalent runs.
//
// Wear levelers are deliberately absent: under UAA a bijective remap does
// not change any line's write rate (§5.2.1 observes lifetime under UAA is
// "uncorrelated to the types of wear-leveling schemes"); the stochastic
// engine cross-checks this on scaled configurations in the tests.
#pragma once

#include <memory>
#include <vector>

#include "nvm/endurance_map.h"
#include "obs/run_recorder.h"
#include "sim/lifetime.h"
#include "spare/spare_scheme.h"

namespace nvmsec {

class Arena;

class UniformEventSimulator {
 public:
  /// `scheme` is borrowed and must be freshly reset; the simulator drives
  /// its on_wear_out()/resolve() exactly like the stochastic engine would.
  UniformEventSimulator(std::shared_ptr<const EnduranceMap> endurance,
                        SpareScheme& scheme);

  /// Non-uniform stationary rates: `weights[i]` is working index i's
  /// relative write rate (any non-negative scale; at least one must be
  /// positive, size must equal working_lines()). Internally normalized so
  /// the mean-weight index writes once per round — a uniform weight vector
  /// reproduces the default UAA arithmetic bit-for-bit. Indices with zero
  /// weight never wear their line (but still re-home when it dies from
  /// other indices' writes). Call before run().
  void set_index_rates(std::vector<double> weights);

  /// Run until device failure. Always terminates: every event consumes a
  /// line, and the scheme must eventually report failure.
  LifetimeResult run();

  /// Borrow a scratch arena for run()'s working state (per-line arrays,
  /// index lists, the death heap). run() resets it on entry, so a caller
  /// simulating many devices back-to-back (the fleet runner) pays the
  /// allocations once and bump-allocates thereafter. nullptr (the default)
  /// falls back to a run-local arena. Purely an allocation strategy: the
  /// simulated trajectory is bit-identical either way.
  void set_scratch(Arena* arena) { scratch_ = arena; }

  /// Attach observability sinks (reported through obs/run_recorder.h).
  /// Snapshots are sampled at event granularity, since nothing changes
  /// between events, and carry no WearReport: wear is tracked analytically.
  void set_observer(const Observer& obs);

 private:
  RunRecorder rec_{};
  std::shared_ptr<const EnduranceMap> endurance_;
  SpareScheme& scheme_;
  Arena* scratch_{nullptr};
  /// Normalized per-index rates (writes per round); empty means uniform.
  std::vector<double> index_rates_;
};

}  // namespace nvmsec
