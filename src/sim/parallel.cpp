#include "sim/parallel.h"

#include <stdexcept>
#include <unordered_set>

#include "obs/observer.h"
#include "sim/fan_out.h"
#include "util/serialize.h"

namespace nvmsec {

namespace {

// Header fingerprint of every sweep journal: "MXWESWEP", little-endian.
constexpr std::uint64_t kSweepJournalFingerprint = 0x504557534557584Dull;

// jobs > 1 with the same sink object reachable from two runs would let two
// threads write one MetricsRegistry/TraceWriter/SnapshotEmitter
// concurrently; none of them are synchronized (by design — the serial hot
// path pays no locks). Detect sharing up front and fail with advice.
void reject_shared_sinks(std::span<const ExperimentConfig> configs,
                         bool check_profilers) {
  std::unordered_set<const void*> seen;
  const auto check = [&seen](const void* sink, const char* kind) {
    if (sink == nullptr) return;
    if (!seen.insert(sink).second) {
      throw std::invalid_argument(
          std::string("run_experiments: the same ") + kind +
          " sink is attached to more than one run; shared observer sinks "
          "are serial-only — run with jobs = 1, or give each run its own "
          "sinks");
    }
  };
  for (const ExperimentConfig& config : configs) {
    check(config.observer.metrics, "metrics");
    check(config.observer.trace, "trace");
    check(config.observer.snapshots, "snapshot");
    check(config.observer.events, "event-log");
    if (check_profilers) check(config.observer.profiler, "profiler");
  }
}

void save_result(StateWriter& w, const LifetimeResult& r) {
  w.f64(r.user_writes);
  w.u64(r.overhead_writes);
  w.u64(r.absorbed_writes);
  w.u64(r.device_writes);
  w.f64(r.ideal_lifetime);
  w.f64(r.normalized);
  w.u64(r.line_deaths);
  w.boolean(r.failed);
  w.str(r.failure_reason);
  w.f64(r.wear_gini);
  w.u64(r.windows_observed);
  w.u64(r.anomalous_windows);
  w.u64(r.alarms_raised);
  w.u64(r.windows_in_alarm);
  w.u64(r.cadence_changes);
}

Status load_result(StateReader& r, LifetimeResult& out) {
  if (Status st = r.f64(out.user_writes); !st.ok()) return st;
  if (Status st = r.u64(out.overhead_writes); !st.ok()) return st;
  if (Status st = r.u64(out.absorbed_writes); !st.ok()) return st;
  if (Status st = r.u64(out.device_writes); !st.ok()) return st;
  if (Status st = r.f64(out.ideal_lifetime); !st.ok()) return st;
  if (Status st = r.f64(out.normalized); !st.ok()) return st;
  if (Status st = r.u64(out.line_deaths); !st.ok()) return st;
  if (Status st = r.boolean(out.failed); !st.ok()) return st;
  if (Status st = r.str(out.failure_reason); !st.ok()) return st;
  if (Status st = r.f64(out.wear_gini); !st.ok()) return st;
  if (Status st = r.u64(out.windows_observed); !st.ok()) return st;
  if (Status st = r.u64(out.anomalous_windows); !st.ok()) return st;
  if (Status st = r.u64(out.alarms_raised); !st.ok()) return st;
  if (Status st = r.u64(out.windows_in_alarm); !st.ok()) return st;
  return r.u64(out.cadence_changes);
}

}  // namespace

std::vector<LifetimeResult> run_experiments(
    std::span<const ExperimentConfig> configs,
    const ParallelOptions& options) {
  std::vector<LifetimeResult> results(configs.size());
  if (configs.empty()) return results;

  FanOutOptions fan_options;
  fan_options.jobs = options.jobs;
  fan_options.journal_path = options.checkpoint_path;
  fan_options.resume = options.resume;
  fan_options.fingerprint = kSweepJournalFingerprint;
  fan_options.profiler = options.profiler;
  // A record is (config fingerprint, result); one written for a config
  // that has since changed, or for an index past the sweep, is re-run.
  FanOut fan(configs.size(), std::move(fan_options),
             [&](std::uint64_t i, StateReader& r) {
               std::uint64_t fingerprint = 0;
               r.u64(fingerprint).throw_if_error();
               if (i >= configs.size() ||
                   fingerprint != config_fingerprint(configs[i])) {
                 return false;
               }
               load_result(r, results[i]).throw_if_error();
               return true;
             });

  if (fan.workers() > 1) {
    // A profiled sweep gives every run a private profiler, so only the
    // configs' own profilers can be shared.
    reject_shared_sinks(configs, options.profiler == nullptr);
  }
  fan.run(
      [&](std::size_t i, ExperimentWorkspace& ws, Profiler* prof) {
        if (prof != nullptr) {
          ExperimentConfig profiled = configs[i];
          profiled.observer.profiler = prof;
          results[i] = run_experiment(profiled, &ws);
        } else {
          results[i] = run_experiment(configs[i], &ws);
        }
      },
      [&](std::size_t i, StateWriter& w) {
        w.u64(config_fingerprint(configs[i]));
        save_result(w, results[i]);
      });
  return results;
}

MultiBankResult run_multi_bank(const ExperimentConfig& config,
                               std::uint32_t banks,
                               const ParallelOptions& options) {
  if (banks == 0) {
    throw std::invalid_argument("run_multi_bank: banks must be > 0");
  }
  std::vector<ExperimentConfig> bank_configs(banks, config);
  for (std::uint32_t b = 0; b < banks; ++b) {
    bank_configs[b].seed = config.seed + b;
  }
  const std::vector<LifetimeResult> results =
      run_experiments(bank_configs, options);
  std::vector<double> per_bank;
  per_bank.reserve(banks);
  for (const LifetimeResult& r : results) per_bank.push_back(r.normalized);
  return aggregate_multi_bank(std::move(per_bank));
}

}  // namespace nvmsec
