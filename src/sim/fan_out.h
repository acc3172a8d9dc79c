// Shared fan-out for the runners that execute many independent items:
// run_experiments (sim/parallel.h; one item = one config) and run_fleet
// (sim/fleet.h; one item = one shard of devices). It owns what they have in
// common: the completion journal (sim/journal.h: replay on resume, one
// append per finished item under the completion lock), the pending-index
// list, a pool of per-worker ExperimentWorkspaces, per-item private
// Profilers merged in index order, and the serial-versus-ThreadPool branch.
// A caller supplies how to restore, run and serialize one item. Items run
// in any order on any worker, so a caller keeps results by index.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/profiler.h"
#include "sim/journal.h"

namespace nvmsec {

class ExperimentWorkspace;
class StateReader;
class StateWriter;

struct FanOutOptions {
  /// Worker threads. 0 = all hardware threads, 1 = serial.
  std::size_t jobs{1};
  /// Completion journal; empty disables.
  std::string journal_path;
  /// Restore finished items from journal_path and run only the rest.
  bool resume{false};
  /// Journal header fingerprint; a replay under any other is refused.
  std::uint64_t fingerprint{0};
  /// Stop after this many newly run items (0 = run every pending item).
  std::uint64_t max_new_items{0};
  /// Aggregate profile; nullptr = no profiling.
  Profiler* profiler{nullptr};
  /// Span recorded around each journal append on the item's profiler;
  /// ProfPhase::kCount = none.
  ProfPhase journal_phase{ProfPhase::kCount};
};

class FanOut {
 public:
  /// Accept the replayed payload of item `index`; false re-runs the item.
  /// May throw to refuse the journal outright.
  using RestoreFn = std::function<bool(std::uint64_t index, StateReader& r)>;
  /// Run item `index` in the worker's workspace, recording into `prof`
  /// (nullptr = no profiling). Runs on exactly one thread per item.
  using RunFn = std::function<void(std::size_t index, ExperimentWorkspace& ws,
                                   Profiler* prof)>;
  /// Serialize finished item `index` as its journal payload.
  using SaveFn = std::function<void(std::size_t index, StateWriter& w)>;
  /// Called under the completion lock once item `index` has finished (and
  /// been journaled); `wall_ns` covers its run.
  using CompleteFn =
      std::function<void(std::size_t index, std::uint64_t wall_ns)>;

  /// Validate the options, replay the journal (when resuming) through
  /// `restore`, and open it for appending. Throws std::invalid_argument on
  /// resume without a journal path, std::runtime_error on a journal that
  /// cannot be replayed or opened.
  FanOut(std::size_t items, FanOutOptions options, const RestoreFn& restore);

  /// Run every pending item and block until all have finished. Exceptions
  /// from items propagate; the smallest failing index wins.
  void run(const RunFn& run_item, const SaveFn& save,
           const CompleteFn& complete = nullptr);

  /// Item `i` finished: restored from the journal or run by run().
  [[nodiscard]] bool done(std::size_t i) const { return done_[i] != 0; }
  /// Threads run() uses: 1 means the serial path.
  [[nodiscard]] std::size_t workers() const { return workers_; }
  [[nodiscard]] const Journal& journal() const { return journal_; }

 private:
  FanOutOptions options_;
  std::vector<char> done_;
  std::vector<std::size_t> pending_;
  std::size_t workers_{1};
  Journal journal_;
};

}  // namespace nvmsec
