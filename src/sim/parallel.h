// Parallel experiment execution: fan independent runs out across a worker
// pool, return results in input order, guarantee bit-identity with the
// serial path.
//
// Why this is safe: `run_experiment` is self-contained — every run derives
// all randomness from its own `Rng(config.seed)`, owns its attack and wear
// leveler, and takes its endurance map, spare scheme and device from its
// worker's ExperimentWorkspace (recycled storage, bit-identical to fresh
// construction). Runs share nothing, so the only ordering that matters is
// the reduction order of whoever consumes the results — which is why this
// API returns a vector in input order and leaves reductions (RunningStats
// etc.) to the caller's thread.
//
// Observers: a config carrying its *own* sinks is fine at any job count
// (the run is the only writer). The same sink pointer appearing in more
// than one config is a data race waiting to happen; that is rejected with
// a specific error when jobs > 1 instead of corrupting metrics silently.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sim/experiment.h"
#include "sim/multi_bank.h"

namespace nvmsec {

class Profiler;

struct ParallelOptions {
  /// Worker threads doing experiment work. 0 = all hardware threads
  /// (ThreadPool::hardware_workers()). 1 = strictly serial on the calling
  /// thread (no pool). Every worker reuses one ExperimentWorkspace across
  /// its runs, whatever the job count.
  std::size_t jobs{0};

  /// Sweep-level crash safety: append every completed run's (config
  /// fingerprint, result) record to this MXWEJRNL completion journal
  /// (sim/journal.h). Empty disables. Independent of — and composable
  /// with — the per-run engine checkpoints in ExperimentConfig.
  std::string checkpoint_path;
  /// Prefill results from checkpoint_path (when the file exists) and skip
  /// the runs already recorded there. A record whose config fingerprint no
  /// longer matches the config at that index is discarded and re-run.
  bool resume{false};

  /// Aggregate self-profile for the whole sweep; nullptr = no profiling.
  /// Every run records into its own private Profiler and the per-run
  /// instances are merged into this one in input order after the join
  /// (merge is associative and commutative, so the result does not depend
  /// on scheduling); worker utilization for the sweep section is attached
  /// too. Configs must not carry their own observer.profiler when this is
  /// set — the runner overwrites that field.
  Profiler* profiler{nullptr};
};

/// Run every config and return their LifetimeResults in input order.
/// Exceptions from individual runs propagate (smallest failing index
/// wins deterministically). Throws std::invalid_argument when jobs > 1
/// and two configs share an observer sink.
std::vector<LifetimeResult> run_experiments(
    std::span<const ExperimentConfig> configs,
    const ParallelOptions& options = {});

/// Run `banks` independent per-bank experiments (bank b uses seed
/// config.seed + b) across the pool and aggregate them in bank order with
/// aggregate_multi_bank. Identical results at any job count. Throws on
/// banks == 0.
MultiBankResult run_multi_bank(const ExperimentConfig& config,
                               std::uint32_t banks,
                               const ParallelOptions& options);

}  // namespace nvmsec
