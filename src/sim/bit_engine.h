// Full-stack stochastic engine: data-dependent wear end to end.
//
//   attack -> payload model -> wear leveler -> spare scheme
//          -> write codec -> BitDevice (per-cell wear + ECP)
//
// This is the engine that lets the §3.3.2 and §2.2.2 defenses be evaluated
// *in combination with* wear leveling and spare-line replacement, rather
// than in isolation: e.g. "UAA against FNW + ECP + Max-WE". The line-level
// Engine remains the tool for the paper's own experiments (it is ~100x
// faster); results are comparable through the shared normalized-lifetime
// denominator (see BitDevice::reference_lifetime()).
#pragma once

#include "attack/attack.h"
#include "nvm/bit_device.h"
#include "obs/run_recorder.h"
#include "reduction/payload.h"
#include "sim/lifetime.h"
#include "spare/spare_scheme.h"
#include "util/rng.h"
#include "wearlevel/wear_leveler.h"

namespace nvmsec {

class BitEngine {
 public:
  /// All components are borrowed for the duration of the run. Migration
  /// (wear-leveler) writes are programmed with random data through the same
  /// codec — moved lines arrive from elsewhere in memory, so their contents
  /// are uncorrelated with the destination's.
  BitEngine(BitDevice& device, Attack& attack, PayloadModel& payload,
            WriteCodec& codec, WearLeveler& wear_leveler,
            SpareScheme& spare_scheme, Rng& rng);

  /// Attach the event log and metrics (reported through
  /// obs/run_recorder.h), forwarded to the spare scheme. No snapshots, and
  /// BitDevice stays uninstrumented: its per-cell hot path is the point.
  void set_observer(const Observer& obs);

  /// Run until device failure, or until `max_user_writes` if non-zero.
  /// The result's `normalized` uses BitDevice::reference_lifetime(), so a
  /// write-reducing codec can legitimately exceed 1.0.
  LifetimeResult run(WriteCount max_user_writes = 0);

 private:
  RunRecorder rec_{};
  BitDevice& device_;
  Attack& attack_;
  PayloadModel& payload_;
  WriteCodec& codec_;
  WearLeveler& wl_;
  SpareScheme& spare_;
  Rng& rng_;
};

}  // namespace nvmsec
