#include "sim/bit_engine.h"

#include <stdexcept>
#include <vector>

#include "obs/profiler.h"

namespace nvmsec {

BitEngine::BitEngine(BitDevice& device, Attack& attack, PayloadModel& payload,
                     WriteCodec& codec, WearLeveler& wear_leveler,
                     SpareScheme& spare_scheme, Rng& rng)
    : device_(device),
      attack_(attack),
      payload_(payload),
      codec_(codec),
      wl_(wear_leveler),
      spare_(spare_scheme),
      rng_(rng) {
  if (wl_.working_lines() != spare_.working_lines()) {
    throw std::invalid_argument(
        "BitEngine: wear leveler and spare scheme disagree on working size");
  }
}

void BitEngine::set_observer(const Observer& obs) {
  // No snapshots: sampling would add a branch to the per-cell hot path.
  rec_ = RunRecorder(
      {obs.metrics, obs.trace, nullptr, obs.events, obs.profiler});
  spare_.set_observer(obs);
}

LifetimeResult BitEngine::run(WriteCount max_user_writes) {
  LifetimeResult result;
  result.ideal_lifetime = device_.reference_lifetime();
  const ScopedProfPhase prof_span(rec_.profiler(), ProfPhase::kBitRun);

  std::vector<WlPhysWrite> batch;
  WriteCount user_writes = 0;
  WriteCount overhead_writes = 0;
  std::uint64_t line_deaths = 0;
  rec_.start(device_.geometry());

  while (!result.failed &&
         (max_user_writes == 0 || user_writes < max_user_writes)) {
    rec_.at(static_cast<double>(user_writes));
    const LogicalLineAddr la = attack_.next(rng_, wl_.logical_lines());
    batch.clear();
    wl_.on_write(la, rng_, batch);

    for (const WlPhysWrite& w : batch) {
      const PhysLineAddr line = spare_.resolve(w.working_index);
      // User writes carry the attack's payload; migrations carry data from
      // elsewhere in memory, modelled as random content.
      const LineData data =
          w.is_overhead ? LineData::random(rng_) : payload_.next(rng_, la);
      const BitWriteOutcome outcome = device_.write(line, data, codec_);
      if (w.is_overhead) {
        ++overhead_writes;
      } else {
        ++user_writes;
      }
      if (outcome == BitWriteOutcome::kWornOut) {
        ++line_deaths;
        rec_.line_died(line, static_cast<double>(user_writes));
        if (!spare_.on_wear_out(w.working_index)) {
          rec_.end_of_life(result, w.working_index, line,
                           static_cast<double>(user_writes), line_deaths);
          break;
        }
      }
    }
  }

  result.user_writes = static_cast<double>(user_writes);
  result.overhead_writes = overhead_writes;
  result.device_writes = device_.total_writes();
  result.line_deaths = line_deaths;
  rec_.finish(result, {.spare = &spare_, .wear_leveler = &wl_});
  return result;
}

}  // namespace nvmsec
