#include "sim/fan_out.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "sim/experiment.h"
#include "util/serialize.h"
#include "util/thread_pool.h"

namespace nvmsec {

FanOut::FanOut(std::size_t items, FanOutOptions options,
               const RestoreFn& restore)
    : options_(std::move(options)), done_(items, 0) {
  if (options_.resume && options_.journal_path.empty()) {
    throw std::invalid_argument(
        "resume needs a checkpoint_path to resume from");
  }
  bool journal_exists = false;
  if (options_.resume) {
    Result<std::vector<JournalRecord>> replayed =
        Journal::replay(options_.journal_path, options_.fingerprint);
    if (replayed.ok()) {
      journal_exists = true;
      // An index may appear twice (a resumed run re-ran it): records are
      // immutable once framed, so the last one simply wins.
      for (const JournalRecord& rec : replayed.value()) {
        StateReader reader(rec.payload);
        const bool accepted = restore(rec.index, reader);
        if (rec.index < done_.size()) done_[rec.index] = accepted ? 1 : 0;
      }
    } else if (replayed.status().code() != StatusCode::kNotFound) {
      replayed.status().throw_if_error();
    }
  }
  if (!options_.journal_path.empty()) {
    // Fresh runs (and resumes that found no file) start a new journal; a
    // replayed journal is extended in place — its torn tail, if any, was
    // truncated during replay.
    journal_.open(options_.journal_path, options_.fingerprint,
                  /*truncate=*/!journal_exists)
        .throw_if_error();
  }

  for (std::size_t i = 0; i < items; ++i) {
    if (done_[i] == 0) pending_.push_back(i);
  }
  if (options_.max_new_items > 0 &&
      pending_.size() > options_.max_new_items) {
    pending_.resize(options_.max_new_items);
  }
  workers_ = std::min<std::size_t>(
      options_.jobs == 0 ? ThreadPool::hardware_workers() : options_.jobs,
      std::max<std::size_t>(pending_.size(), 1));
}

void FanOut::run(const RunFn& run_item, const SaveFn& save,
                 const CompleteFn& complete) {
  // Each item records into its own profiler (an item runs on exactly one
  // thread, so no locks); all of them merge into options_.profiler in index
  // order after the join — merge is associative and commutative, so the
  // result does not depend on scheduling.
  Profiler* const prof = options_.profiler;
  std::vector<Profiler> item_profilers(prof != nullptr ? done_.size() : 0);
  const auto item_prof = [&](std::size_t i) -> Profiler* {
    return prof != nullptr ? &item_profilers[i] : nullptr;
  };

  // A worker checks a workspace out of the pool for one item and returns it
  // on completion, so steady-state execution recycles the previous item's
  // setup state; an item that throws drops its workspace. The one mutex
  // guards the pool, done_, the journal and the completion hook.
  std::mutex mu;
  std::vector<std::unique_ptr<ExperimentWorkspace>> workspaces;
  const auto run_one = [&](std::size_t i) {
    const std::uint64_t start_ns = Profiler::now_ns();
    std::unique_ptr<ExperimentWorkspace> ws;
    {
      const std::lock_guard<std::mutex> lock(mu);
      if (!workspaces.empty()) {
        ws = std::move(workspaces.back());
        workspaces.pop_back();
      }
    }
    if (ws == nullptr) ws = std::make_unique<ExperimentWorkspace>();
    run_item(i, *ws, item_prof(i));
    const std::uint64_t wall_ns = Profiler::now_ns() - start_ns;

    const std::lock_guard<std::mutex> lock(mu);
    workspaces.push_back(std::move(ws));
    done_[i] = 1;
    if (journal_.is_open()) {
      // The append is serialized by the lock; attribute it to the item
      // whose completion triggered it (that profiler is still exclusively
      // this thread's until the merge below).
      const ScopedProfPhase append_span(
          options_.journal_phase != ProfPhase::kCount ? item_prof(i) : nullptr,
          options_.journal_phase);
      StateWriter w;
      save(i, w);
      journal_.append(i, w.buffer()).throw_if_error();
    }
    if (complete) complete(i, wall_ns);
  };

  const std::uint64_t section_start = Profiler::now_ns();
  std::vector<WorkerUtilization> utilization;
  if (workers_ <= 1) {
    for (std::size_t i : pending_) run_one(i);
  } else {
    // The calling thread drives alongside the pool inside
    // parallel_for_each, so workers_ threads in total do item work.
    ThreadPool pool(workers_ - 1);
    pool.parallel_for_each(
        pending_.size(), [&](std::size_t k) { run_one(pending_[k]); },
        prof != nullptr ? &utilization : nullptr);
  }
  if (prof == nullptr) return;
  if (!pending_.empty()) {
    const std::uint64_t section_ns = Profiler::now_ns() - section_start;
    std::vector<ProfWorkerStats> workers;
    if (workers_ <= 1) {
      // One driver (this thread), busy the whole section.
      workers.push_back(ProfWorkerStats{section_ns, pending_.size()});
    }
    for (const WorkerUtilization& u : utilization) {
      workers.push_back(ProfWorkerStats{u.busy_ns, u.tasks});
    }
    prof->set_utilization(workers, section_ns);
  }
  for (const Profiler& p : item_profilers) prof->merge(p);
}

}  // namespace nvmsec
