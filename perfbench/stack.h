// Single-device lifetime runs composed from the library's public factories.
//
// compose() builds exactly what run_experiment builds for the same config —
// EnduranceMap::from_model, the spare factory, Device, the attack factory,
// make_wear_leveler — in the same order and with the same RNG draws, so a
// composed run reproduces run_experiment's LifetimeResult field by field.
// The benchmark needs the composition for two things run_experiment hides:
// timing each factory on its own (set-up attribution), and slipping
// forwarding wrappers between the engine and the spare scheme, attack and
// wear leveler (per-layer call counts for the traced run).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "attack/attack.h"
#include "nvm/device.h"
#include "nvm/endurance_map.h"
#include "obs/observer.h"
#include "sim/experiment.h"
#include "sim/lifetime.h"
#include "spare/spare_scheme.h"
#include "util/rng.h"
#include "wearlevel/wear_leveler.h"

namespace perfbench {

/// Call counts gathered by the forwarding wrappers over one or more runs.
/// Per-write-grained calls (resolve, on_write, horizon queries) are only
/// counted: a clock pair per call would cost more than the call. Per-chunk
/// and per-rescue calls (next_counts, on_wear_out) are timed as well.
struct LayerCounts {
  std::uint64_t resolve_calls{0};
  std::uint64_t rescues{0};
  std::uint64_t rescue_ns{0};
  std::uint64_t draw_calls{0};   ///< next_counts() calls that drew
  std::uint64_t draw_writes{0};  ///< writes those draws covered
  std::uint64_t draw_ns{0};
  std::uint64_t on_write_calls{0};
  std::uint64_t horizon_queries{0};
  std::uint64_t horizon_zero{0};  ///< queries answered 0 (per-write fallback)
};

/// Forwards every SpareScheme call to `inner`. The engine caches resolve()
/// results only while the scheme says resolve_cacheable() and its
/// (non-virtual) mapping_epoch() is unchanged, so the wrapper forwards the
/// former and re-syncs its own epoch to the inner scheme's after every
/// forwarded call; otherwise the traced run would take a different path
/// through the engine than the untraced one.
class CountingSpare final : public nvmsec::SpareScheme {
 public:
  CountingSpare(std::unique_ptr<nvmsec::SpareScheme> inner,
                LayerCounts& counts);

  [[nodiscard]] std::uint64_t working_lines() const override;
  [[nodiscard]] nvmsec::PhysLineAddr working_line(
      std::uint64_t idx) const override;
  nvmsec::PhysLineAddr resolve(std::uint64_t idx) override;
  bool on_wear_out(std::uint64_t idx) override;
  [[nodiscard]] bool resolve_cacheable() const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] nvmsec::SpareSchemeStats stats() const override;
  void reset() override;
  bool rebind(const std::shared_ptr<const nvmsec::EnduranceMap>& endurance,
              nvmsec::Rng& rng) override;
  void set_observer(const nvmsec::Observer& obs) override;
  void save_state(nvmsec::StateWriter& w) const override;
  [[nodiscard]] nvmsec::Status load_state(nvmsec::StateReader& r) override;

 private:
  void sync_epoch();

  std::unique_ptr<nvmsec::SpareScheme> inner_;
  LayerCounts& counts_;
};

/// Forwards every Attack call to `inner`, counting and timing the per-chunk
/// next_counts() draws.
class CountingAttack final : public nvmsec::Attack {
 public:
  CountingAttack(std::unique_ptr<nvmsec::Attack> inner, LayerCounts& counts);

  nvmsec::LogicalLineAddr next(nvmsec::Rng& rng,
                               std::uint64_t user_lines) override;
  nvmsec::AttackRun next_run(nvmsec::Rng& rng, std::uint64_t user_lines,
                             std::uint64_t max_len) override;
  [[nodiscard]] nvmsec::BatchContract batch_contract() const override;
  bool next_counts(nvmsec::Rng& rng, std::uint64_t user_lines,
                   std::uint64_t n_writes,
                   nvmsec::WriteCountVector& out) override;
  [[nodiscard]] std::string name() const override;
  void reset() override;
  void save_state(nvmsec::StateWriter& w) const override;
  [[nodiscard]] nvmsec::Status load_state(nvmsec::StateReader& r) override;

 private:
  std::unique_ptr<nvmsec::Attack> inner_;
  LayerCounts& counts_;
};

/// Forwards every WearLeveler call to `inner`, counting on_write() calls
/// and static-mapping horizon queries. mapping_epoch() is virtual here, so
/// the inner leveler's epoch is forwarded directly.
class CountingWearLeveler final : public nvmsec::WearLeveler {
 public:
  CountingWearLeveler(std::unique_ptr<nvmsec::WearLeveler> inner,
                      LayerCounts& counts);

  [[nodiscard]] std::uint64_t logical_lines() const override;
  [[nodiscard]] std::uint64_t working_lines() const override;
  [[nodiscard]] std::uint64_t translate(
      nvmsec::LogicalLineAddr la) const override;
  void on_write(nvmsec::LogicalLineAddr la, nvmsec::Rng& rng,
                std::vector<nvmsec::WlPhysWrite>& out) override;
  [[nodiscard]] std::uint64_t writes_until_remap() const override;
  void commit_batched_writes(std::uint64_t k) override;
  [[nodiscard]] std::uint64_t mapping_epoch() const override;
  [[nodiscard]] std::uint64_t remap_interval() const override;
  bool set_remap_interval(std::uint64_t interval) override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] nvmsec::WriteCount overhead_writes() const override;
  void reset() override;
  void save_state(nvmsec::StateWriter& w) const override;
  [[nodiscard]] nvmsec::Status load_state(nvmsec::StateReader& r) override;

 private:
  std::unique_ptr<nvmsec::WearLeveler> inner_;
  LayerCounts& counts_;
};

/// One composed, not-yet-run device stack plus the host time each factory
/// took. Stochastic-mode runs own a Device, attack and wear leveler; event
/// mode needs only the map and the spare scheme.
struct ComposedRun {
  nvmsec::Rng rng;
  std::shared_ptr<const nvmsec::EnduranceMap> map;
  std::unique_ptr<nvmsec::SpareScheme> spare;
  std::unique_ptr<nvmsec::Device> device;
  std::unique_ptr<nvmsec::Attack> attack;
  std::unique_ptr<nvmsec::WearLeveler> wl;
  std::uint64_t map_build_ns{0};
  std::uint64_t spare_alloc_ns{0};
  std::uint64_t setup_ns{0};  ///< every factory call, map and spare included
};

/// Build `config`'s stack through the public factories. With `counts`
/// non-null the spare scheme, attack and wear leveler are wrapped in the
/// counting forwarders above. Supports the configurations the benchmark
/// runs — event-mode UAA and stochastic-mode uaa/bpa/zipf/random with any
/// wear leveler, under the Max-WE spare scheme — and throws
/// std::invalid_argument for anything run_experiment would build
/// differently (faults, detection, buffers, checkpoints, jitter, other
/// schemes or modes).
ComposedRun compose(const nvmsec::ExperimentConfig& config,
                    LayerCounts* counts);

/// Run a composed stack to device failure with `observer` attached.
nvmsec::LifetimeResult run_composed(ComposedRun& run,
                                    const nvmsec::ExperimentConfig& config,
                                    const nvmsec::Observer& observer);

}  // namespace perfbench
