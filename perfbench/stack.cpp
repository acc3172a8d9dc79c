#include "stack.h"

#include <stdexcept>
#include <utility>

#include "attack/zipf.h"
#include "core/maxwe.h"
#include "nvm/endurance_model.h"
#include "obs/profiler.h"
#include "sim/engine.h"
#include "sim/event_sim.h"

namespace perfbench {

using nvmsec::Profiler;

CountingSpare::CountingSpare(std::unique_ptr<nvmsec::SpareScheme> inner,
                             LayerCounts& counts)
    : inner_(std::move(inner)), counts_(counts) {
  sync_epoch();
}

void CountingSpare::sync_epoch() {
  while (mapping_epoch() < inner_->mapping_epoch()) bump_mapping_epoch();
}

std::uint64_t CountingSpare::working_lines() const {
  return inner_->working_lines();
}

nvmsec::PhysLineAddr CountingSpare::working_line(std::uint64_t idx) const {
  return inner_->working_line(idx);
}

nvmsec::PhysLineAddr CountingSpare::resolve(std::uint64_t idx) {
  ++counts_.resolve_calls;
  const nvmsec::PhysLineAddr line = inner_->resolve(idx);
  sync_epoch();  // lazily repairing schemes (PCD) bump inside resolve()
  return line;
}

bool CountingSpare::on_wear_out(std::uint64_t idx) {
  const std::uint64_t start = Profiler::now_ns();
  const bool rescued = inner_->on_wear_out(idx);
  counts_.rescue_ns += Profiler::now_ns() - start;
  ++counts_.rescues;
  sync_epoch();
  return rescued;
}

bool CountingSpare::resolve_cacheable() const {
  return inner_->resolve_cacheable();
}

std::string CountingSpare::name() const { return inner_->name(); }

nvmsec::SpareSchemeStats CountingSpare::stats() const {
  return inner_->stats();
}

void CountingSpare::reset() {
  inner_->reset();
  sync_epoch();
}

bool CountingSpare::rebind(
    const std::shared_ptr<const nvmsec::EnduranceMap>& endurance,
    nvmsec::Rng& rng) {
  const bool rebound = inner_->rebind(endurance, rng);
  sync_epoch();
  return rebound;
}

void CountingSpare::set_observer(const nvmsec::Observer& obs) {
  inner_->set_observer(obs);
}

void CountingSpare::save_state(nvmsec::StateWriter& w) const {
  inner_->save_state(w);
}

nvmsec::Status CountingSpare::load_state(nvmsec::StateReader& r) {
  nvmsec::Status status = inner_->load_state(r);
  sync_epoch();
  return status;
}

CountingAttack::CountingAttack(std::unique_ptr<nvmsec::Attack> inner,
                               LayerCounts& counts)
    : inner_(std::move(inner)), counts_(counts) {}

nvmsec::LogicalLineAddr CountingAttack::next(nvmsec::Rng& rng,
                                             std::uint64_t user_lines) {
  return inner_->next(rng, user_lines);
}

nvmsec::AttackRun CountingAttack::next_run(nvmsec::Rng& rng,
                                           std::uint64_t user_lines,
                                           std::uint64_t max_len) {
  return inner_->next_run(rng, user_lines, max_len);
}

nvmsec::BatchContract CountingAttack::batch_contract() const {
  return inner_->batch_contract();
}

bool CountingAttack::next_counts(nvmsec::Rng& rng, std::uint64_t user_lines,
                                 std::uint64_t n_writes,
                                 nvmsec::WriteCountVector& out) {
  const std::uint64_t start = Profiler::now_ns();
  const bool drew = inner_->next_counts(rng, user_lines, n_writes, out);
  counts_.draw_ns += Profiler::now_ns() - start;
  if (drew) {
    ++counts_.draw_calls;
    counts_.draw_writes += out.total();
  }
  return drew;
}

std::string CountingAttack::name() const { return inner_->name(); }

void CountingAttack::reset() { inner_->reset(); }

void CountingAttack::save_state(nvmsec::StateWriter& w) const {
  inner_->save_state(w);
}

nvmsec::Status CountingAttack::load_state(nvmsec::StateReader& r) {
  return inner_->load_state(r);
}

CountingWearLeveler::CountingWearLeveler(
    std::unique_ptr<nvmsec::WearLeveler> inner, LayerCounts& counts)
    : inner_(std::move(inner)), counts_(counts) {}

std::uint64_t CountingWearLeveler::logical_lines() const {
  return inner_->logical_lines();
}

std::uint64_t CountingWearLeveler::working_lines() const {
  return inner_->working_lines();
}

std::uint64_t CountingWearLeveler::translate(nvmsec::LogicalLineAddr la) const {
  return inner_->translate(la);
}

void CountingWearLeveler::on_write(nvmsec::LogicalLineAddr la,
                                   nvmsec::Rng& rng,
                                   std::vector<nvmsec::WlPhysWrite>& out) {
  ++counts_.on_write_calls;
  inner_->on_write(la, rng, out);
}

std::uint64_t CountingWearLeveler::writes_until_remap() const {
  const std::uint64_t horizon = inner_->writes_until_remap();
  ++counts_.horizon_queries;
  if (horizon == 0) ++counts_.horizon_zero;
  return horizon;
}

void CountingWearLeveler::commit_batched_writes(std::uint64_t k) {
  inner_->commit_batched_writes(k);
}

std::uint64_t CountingWearLeveler::mapping_epoch() const {
  return inner_->mapping_epoch();
}

std::uint64_t CountingWearLeveler::remap_interval() const {
  return inner_->remap_interval();
}

bool CountingWearLeveler::set_remap_interval(std::uint64_t interval) {
  return inner_->set_remap_interval(interval);
}

std::string CountingWearLeveler::name() const { return inner_->name(); }

nvmsec::WriteCount CountingWearLeveler::overhead_writes() const {
  return inner_->overhead_writes();
}

void CountingWearLeveler::reset() { inner_->reset(); }

void CountingWearLeveler::save_state(nvmsec::StateWriter& w) const {
  inner_->save_state(w);
}

nvmsec::Status CountingWearLeveler::load_state(nvmsec::StateReader& r) {
  return inner_->load_state(r);
}

namespace {

void require_composable(const nvmsec::ExperimentConfig& c) {
  const auto refuse = [](const std::string& what) {
    throw std::invalid_argument("perfbench::compose: " + what +
                                " is not composed here; use run_experiment");
  };
  if (c.spare_scheme != "maxwe") {
    refuse("spare scheme '" + c.spare_scheme + "'");
  }
  if (c.mode == nvmsec::SimulationMode::kBitLevel) refuse("bit-level mode");
  if (c.mode == nvmsec::SimulationMode::kUniformEvent &&
      (c.attack != "uaa" || c.wear_leveler != "none")) {
    refuse("event mode other than UAA without a wear leveler");
  }
  if (c.attack != "uaa" && c.attack != "bpa" && c.attack != "zipf" &&
      c.attack != "random") {
    refuse("attack '" + c.attack + "'");
  }
  if (c.fault.any()) refuse("fault injection");
  if (c.detect || c.adaptive) refuse("attack detection");
  if (c.dram_buffer_lines > 0) refuse("a DRAM buffer");
  if (!c.checkpoint_out.empty() || !c.resume_from.empty()) {
    refuse("checkpointing");
  }
  if (c.line_jitter_sigma > 0) refuse("line jitter");
}

}  // namespace

ComposedRun compose(const nvmsec::ExperimentConfig& config,
                    LayerCounts* counts) {
  require_composable(config);
  ComposedRun run;
  run.rng = nvmsec::Rng(config.seed);
  const std::uint64_t setup_start = Profiler::now_ns();

  const nvmsec::EnduranceModel model(config.endurance);
  run.map = std::make_shared<nvmsec::EnduranceMap>(
      nvmsec::EnduranceMap::from_model(config.geometry, model, run.rng));
  const std::uint64_t map_done = Profiler::now_ns();
  run.map_build_ns = map_done - setup_start;

  nvmsec::MaxWeParams params;
  params.spare_fraction = config.spare_fraction;
  params.swr_fraction = config.swr_fraction;
  run.spare = nvmsec::make_maxwe(run.map, params);
  run.spare_alloc_ns = Profiler::now_ns() - map_done;
  if (counts != nullptr) {
    run.spare = std::make_unique<CountingSpare>(std::move(run.spare), *counts);
  }

  if (config.mode == nvmsec::SimulationMode::kStochastic) {
    const std::uint64_t working = run.spare->working_lines();
    if (config.attack == "bpa") {
      run.attack = nvmsec::make_bpa(config.bpa_burst);
    } else if (config.attack == "zipf") {
      run.attack = nvmsec::make_zipf(config.zipf_skew, working, config.seed);
    } else {
      run.attack = nvmsec::make_attack(config.attack);
    }
    // Same endurance view and group alignment as run_experiment.
    nvmsec::EnduranceView view(working);
    for (std::uint64_t i = 0; i < working; ++i) {
      view[i] = run.map->line_endurance(run.spare->working_line(i));
    }
    nvmsec::WearLevelerParams wl_params = config.wl;
    if (wl_params.group_lines == 0 &&
        working % config.geometry.lines_per_region() == 0) {
      wl_params.group_lines = config.geometry.lines_per_region();
    }
    run.wl = nvmsec::make_wear_leveler(config.wear_leveler, working, view,
                                       wl_params, run.rng);
    run.device = std::make_unique<nvmsec::Device>(run.map);
    if (counts != nullptr) {
      run.attack =
          std::make_unique<CountingAttack>(std::move(run.attack), *counts);
      run.wl =
          std::make_unique<CountingWearLeveler>(std::move(run.wl), *counts);
    }
  }
  run.setup_ns = Profiler::now_ns() - setup_start;
  return run;
}

nvmsec::LifetimeResult run_composed(ComposedRun& run,
                                    const nvmsec::ExperimentConfig& config,
                                    const nvmsec::Observer& observer) {
  if (config.mode == nvmsec::SimulationMode::kUniformEvent) {
    nvmsec::UniformEventSimulator sim(run.map, *run.spare);
    sim.set_observer(observer);
    return sim.run();
  }
  nvmsec::Engine engine(*run.device, *run.attack, *run.wl, *run.spare,
                        run.rng);
  engine.set_fast_path(config.fastpath);
  engine.set_observer(observer);
  return engine.run(config.max_user_writes);
}

}  // namespace perfbench
