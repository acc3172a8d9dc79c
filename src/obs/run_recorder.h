// RunRecorder: the one observability fan-out the three lifetime engines
// share. Every engine tells the same story: lines die, regions fill, one
// wear-out cannot be rescued, the run ends. The recorder holds the run's
// Observer and the per-region death counts behind `region_wear_out`, and
// turns those semantic calls into events, trace instants, snapshots, the
// shared `engine.*`/`spare.*` metrics and the matching LifetimeResult
// fields. Engines reach the sinks directly only for their own extras. With
// no sink attached, at(), line_died() and the snapshot cadence checks are
// each one inlined null-pointer branch.
#pragma once

#include <cstdint>
#include <limits>
#include <string_view>
#include <vector>

#include "nvm/geometry.h"
#include "obs/event_log.h"
#include "obs/observer.h"
#include "obs/snapshot.h"
#include "obs/trace.h"

namespace nvmsec {

struct LifetimeResult;

class RunRecorder {
 public:
  /// `failure_instant` names the trace instant end_of_life() emits; empty
  /// for engines that trace none.
  explicit RunRecorder(const Observer& obs = {},
                       std::string_view failure_instant = {})
      : obs_(obs), failure_instant_(failure_instant) {}

  [[nodiscard]] EventLog* events() const { return obs_.events; }
  [[nodiscard]] MetricsRegistry* metrics() const { return obs_.metrics; }
  [[nodiscard]] Profiler* profiler() const { return obs_.profiler; }
  [[nodiscard]] ScopedTimer span(std::string_view name) const {
    return ScopedTimer(obs_.trace, name);
  }

  /// Begin a run. Region death counts start from `device`'s worn-out lines
  /// when given (rebuilt, not checkpointed, so a resumed run agrees with an
  /// uninterrupted one by construction), else from zero.
  void start(const DeviceGeometry& geom, const Device* device = nullptr);

  /// Stamp the event clock: user writes completed so far.
  void at(double user_writes) {
    if (obs_.events != nullptr) obs_.events->set_now(user_writes);
  }

  /// `line` wore out: stamps the clock and emits region_wear_out when its
  /// region's last line goes. Call before the spare scheme reacts, so the
  /// event precedes the scheme's rescue events.
  void line_died(PhysLineAddr line, double user_writes) {
    if (obs_.events != nullptr) count_death(line, user_writes);
  }

  /// The event engine's per-death trace instant (it has no Device to emit
  /// one), carrying the continuous clock.
  void wear_out_instant(PhysLineAddr line, double sim_rounds,
                        std::uint64_t line_deaths) const;

  /// No spare could rescue `working_index` (backed by `line`): marks
  /// `result` failed and emits end_of_life plus the failure instant.
  void end_of_life(LifetimeResult& result, std::uint64_t working_index,
                   PhysLineAddr line, double user_writes,
                   std::uint64_t line_deaths);
  /// Every backed line is worn.
  void end_of_life_all_worn(LifetimeResult& result, double user_writes,
                            std::uint64_t line_deaths);

  [[nodiscard]] bool snapshot_due(double user_writes) const {
    return obs_.snapshots != nullptr && obs_.snapshots->due(user_writes);
  }
  /// Writes the engine may batch before the next snapshot.
  [[nodiscard]] std::uint64_t writes_until_snapshot(double user_writes) const {
    return obs_.snapshots == nullptr
               ? std::numeric_limits<std::uint64_t>::max()
               : obs_.snapshots->writes_until_due(user_writes);
  }
  /// A due snapshot plus the trace's `wear` counter; `ctx.spare` required.
  void snapshot(const SnapshotContext& ctx, std::uint64_t line_deaths);

  /// Close the run: derive `result.normalized` (and the write-cap reason
  /// when the device survived), then emit run_end, the shared metrics and
  /// the final snapshot of `final_state`, whose write totals are taken from
  /// `result`. `final_state.spare` is required; a wear leveler marks a
  /// write-level engine, which also reports overhead and device writes.
  void finish(LifetimeResult& result, SnapshotContext final_state);

 private:
  void count_death(PhysLineAddr line, double user_writes);

  Observer obs_{};
  std::string_view failure_instant_;
  const DeviceGeometry* geom_{nullptr};
  std::vector<std::uint64_t> region_deaths_;
};

}  // namespace nvmsec
