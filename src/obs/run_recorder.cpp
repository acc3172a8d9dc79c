#include "obs/run_recorder.h"

#include <string>

#include "nvm/device.h"
#include "obs/metrics.h"
#include "sim/lifetime.h"
#include "spare/spare_scheme.h"
#include "wearlevel/wear_leveler.h"

namespace nvmsec {

namespace {
double num(std::uint64_t v) { return static_cast<double>(v); }
}  // namespace

void RunRecorder::start(const DeviceGeometry& geom, const Device* device) {
  geom_ = &geom;
  if (obs_.events == nullptr) return;
  region_deaths_.assign(geom.num_regions(), 0);
  for (std::uint64_t l = 0; device != nullptr && l < geom.num_lines(); ++l) {
    if (device->is_worn_out(PhysLineAddr{l})) {
      ++region_deaths_[geom.region_of(PhysLineAddr{l}).value()];
    }
  }
}

void RunRecorder::count_death(PhysLineAddr line, double user_writes) {
  obs_.events->set_now(user_writes);
  const std::uint64_t region = geom_->region_of(line).value();
  if (++region_deaths_[region] == geom_->lines_per_region()) {
    obs_.events->emit("region_wear_out", {{"region", num(region)}});
  }
}

void RunRecorder::wear_out_instant(PhysLineAddr line, double sim_rounds,
                                   std::uint64_t line_deaths) const {
  if (obs_.trace == nullptr) return;
  obs_.trace->instant("wear_out",
                      {{"line", num(line.value())},
                       {"region", num(geom_->region_of(line).value())},
                       {"sim_rounds", sim_rounds},
                       {"worn_out_lines", num(line_deaths)}});
}

void RunRecorder::end_of_life(LifetimeResult& result,
                              std::uint64_t working_index, PhysLineAddr line,
                              double user_writes, std::uint64_t line_deaths) {
  result.failed = true;
  result.failure_reason = "unreplaceable wear-out at working index " +
                          std::to_string(working_index) + " (line " +
                          std::to_string(line.value()) + ")";
  if (obs_.events != nullptr) {
    obs_.events->emit("end_of_life",
                      {{"cause", "unreplaceable_wear_out"},
                       {"working_index", num(working_index)},
                       {"line", num(line.value())},
                       {"region", num(geom_->region_of(line).value())},
                       {"user_writes", user_writes},
                       {"line_deaths", num(line_deaths)}});
  }
  if (obs_.trace != nullptr && !failure_instant_.empty()) {
    obs_.trace->instant(failure_instant_,
                        {{"working_index", num(working_index)},
                         {"line", num(line.value())},
                         {"user_writes", user_writes}});
  }
}

void RunRecorder::end_of_life_all_worn(LifetimeResult& result,
                                       double user_writes,
                                       std::uint64_t line_deaths) {
  result.failed = true;
  result.failure_reason = "all backed lines worn out";
  if (obs_.events != nullptr) {
    obs_.events->emit("end_of_life", {{"cause", "all_backed_lines_worn"},
                                      {"user_writes", user_writes},
                                      {"line_deaths", num(line_deaths)}});
  }
}

void RunRecorder::snapshot(const SnapshotContext& ctx,
                           std::uint64_t line_deaths) {
  obs_.snapshots->snapshot(ctx);
  if (obs_.trace != nullptr) {
    const SpareSchemeStats s = ctx.spare->stats();
    obs_.trace->counter("wear",
                        {{"line_deaths", num(line_deaths)},
                         {"spares_remaining", num(s.spares_remaining)},
                         {"lmt_entries", num(s.lmt_entries)}});
  }
}

void RunRecorder::finish(LifetimeResult& result,
                         SnapshotContext final_state) {
  result.normalized =
      result.ideal_lifetime > 0 ? result.user_writes / result.ideal_lifetime
                                : 0.0;
  if (!result.failed) result.failure_reason = "write cap reached";
  const WearLeveler* const wl = final_state.wear_leveler;
  if (obs_.events != nullptr) {
    obs_.events->set_now(result.user_writes);
    const EventField outcome{
        "outcome", result.failed ? "device_failure" : "write_cap_reached"};
    const EventField writes{"user_writes", result.user_writes};
    const EventField deaths{"line_deaths", num(result.line_deaths)};
    const EventField overhead{"overhead_writes", num(result.overhead_writes)};
    if (wl != nullptr) {
      obs_.events->emit("run_end", {outcome, writes, overhead, deaths});
    } else {
      obs_.events->emit("run_end", {outcome, writes, deaths});
    }
  }
  if (obs_.metrics != nullptr) {
    MetricsRegistry& m = *obs_.metrics;
    m.counter("engine.user_writes")
        .set(static_cast<std::uint64_t>(result.user_writes));
    m.counter("engine.line_deaths").set(result.line_deaths);
    const SpareSchemeStats s = final_state.spare->stats();
    m.counter("spare.replacements").set(s.replacements);
    m.gauge("spare.spares_remaining").set(num(s.spares_remaining));
    m.gauge("spare.lmt_entries").set(num(s.lmt_entries));
    m.gauge("spare.rmt_entries").set(num(s.rmt_entries));
    if (wl != nullptr) {
      m.counter("engine.overhead_writes").set(result.overhead_writes);
      m.counter("engine.device_writes").set(result.device_writes);
      m.counter("wl.migration_writes").set(wl->overhead_writes());
    }
  }
  if (obs_.snapshots != nullptr) {
    final_state.user_writes = result.user_writes;
    final_state.overhead_writes = result.overhead_writes;
    final_state.absorbed_writes = result.absorbed_writes;
    obs_.snapshots->snapshot_now(final_state);
  }
}

}  // namespace nvmsec
