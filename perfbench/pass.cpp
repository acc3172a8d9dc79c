// One benchmark pass of one workload, in a fresh process.
//
//   perfbench_pass <workload> <seed> setup|plain|traced
//
// A setup pass builds every device stack the workload simulates through
// the public factories and times it (setup_s). A plain pass times the
// workload the way a user runs it — run_experiments, or run_fleet — with
// no sinks attached (wall_s). A traced pass composes each single-device run
// from the factories with counting wrappers and a Profiler attached, and
// reports per-layer numbers; the fleet workload runs run_fleet with its
// aggregate profiler instead. Either way the pass prints one JSON object
// holding its timings and every run's outputs, which perfbench/run.py
// checks against the recorded references.
#include <algorithm>
#include <cstdint>
#include <exception>
#include <iostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"
#include "obs/profiler.h"
#include "sim/experiment.h"
#include "sim/fleet.h"
#include "sim/parallel.h"
#include "stack.h"

namespace {

using nvmsec::ExperimentConfig;
using nvmsec::LifetimeResult;
using nvmsec::ProfCounter;
using nvmsec::ProfPhase;
using nvmsec::Profiler;

constexpr std::uint64_t kFleetDevices = 1000;
constexpr std::size_t kFleetJobs = 2;

struct NamedConfig {
  std::string name;
  ExperimentConfig config;
};

/// S1/S2: the paper's 1 GB device under UAA on the event engine.
std::vector<NamedConfig> uaa_event_sweep(std::uint64_t seed) {
  std::vector<NamedConfig> runs;
  for (const char* fraction : {"0.01", "0.10", "0.30"}) {
    ExperimentConfig c;
    c.seed = seed;
    c.attack = "uaa";
    c.spare_scheme = "maxwe";
    c.spare_fraction = std::stod(fraction);
    runs.push_back({std::string("maxwe@") + fraction, c});
  }
  return runs;
}

/// S3: one large stochastic zipf device, counts path, no wear leveler.
std::vector<NamedConfig> zipf_large(std::uint64_t seed) {
  ExperimentConfig c;
  c.geometry = nvmsec::DeviceGeometry::scaled(65536, 1024);
  c.endurance.endurance_at_mean = 300000;
  c.mode = nvmsec::SimulationMode::kStochastic;
  c.seed = seed;
  c.attack = "zipf";
  c.spare_scheme = "maxwe";
  return {{"zipf", c}};
}

/// S4: Fig 8 — BPA under the paper's four wear levelers, 10% Max-WE, at
/// Fig 8's 2048 × 128 geometry and a quarter of its 5e4 endurance, four
/// devices per leveler. A device's run length scales with its endurance
/// while its lifetime's spread from seed to seed does not, so at this
/// endurance a pass takes a quarter of the time and a run's median covers
/// four times as many passes at the same seed-to-seed spread. Every run
/// gets its own device seed: the simulated write count follows each
/// device's endurance draw, so one shared map would move all runs of a
/// pass at once.
std::vector<NamedConfig> bpa_wearlevel(std::uint64_t seed) {
  constexpr std::uint64_t kDevicesPerLeveler = 4;
  constexpr double kEndurance = 1.25e4;
  std::vector<NamedConfig> runs;
  std::uint64_t device = seed * 4 * kDevicesPerLeveler;
  for (std::uint64_t copy = 0; copy < kDevicesPerLeveler; ++copy) {
    for (const std::string& wl : nvmsec::paper_wear_levelers()) {
      ExperimentConfig c =
          nvmsec::scaled_stochastic_config(2048, 128, kEndurance);
      c.seed = device++;
      c.attack = "bpa";
      c.wear_leveler = wl;
      c.spare_scheme = "maxwe";
      runs.push_back({wl + "/" + std::to_string(copy), c});
    }
  }
  return runs;
}

/// S6: a stochastic zipf fleet of small devices.
nvmsec::FleetSpec fleet_zipf(std::uint64_t seed) {
  nvmsec::FleetSpec spec;
  spec.devices = kFleetDevices;
  // Disjoint device seeds per workload seed.
  spec.seed_start = seed * kFleetDevices + 1;
  ExperimentConfig& base = spec.base;
  base.geometry = nvmsec::DeviceGeometry::scaled(2048, 128);
  base.endurance.endurance_at_mean = 1000;
  base.mode = nvmsec::SimulationMode::kStochastic;
  base.attack = "zipf";
  base.spare_scheme = "maxwe";
  return spec;
}

std::vector<NamedConfig> single_device_runs(const std::string& workload,
                                            std::uint64_t seed) {
  if (workload == "uaa_event_sweep") return uaa_event_sweep(seed);
  if (workload == "zipf_large") return zipf_large(seed);
  if (workload == "bpa_wearlevel") return bpa_wearlevel(seed);
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

/// The configs a pass sets up: every device the workload simulates.
std::vector<ExperimentConfig> device_configs(const std::string& workload,
                                             std::uint64_t seed) {
  std::vector<ExperimentConfig> configs;
  if (workload == "fleet_zipf") {
    const nvmsec::FleetSpec spec = fleet_zipf(seed);
    for (std::uint64_t d = 0; d < spec.devices; ++d) {
      ExperimentConfig c = spec.base;
      c.seed = spec.seed_start + d;
      c.attack = nvmsec::fleet_device_attack(spec, d);
      configs.push_back(c);
    }
    return configs;
  }
  for (const NamedConfig& r : single_device_runs(workload, seed)) {
    configs.push_back(r.config);
  }
  return configs;
}

double seconds(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Minimal JSON object writer over the library's number/string encoders.
class JsonObject {
 public:
  JsonObject& num(std::string_view key, double value) {
    this->key(key);
    nvmsec::json_append_number(out_, value);
    return *this;
  }
  JsonObject& u64(std::string_view key, std::uint64_t value) {
    this->key(key);
    out_ += std::to_string(value);
    return *this;
  }
  JsonObject& str(std::string_view key, std::string_view value) {
    this->key(key);
    nvmsec::json_append_string(out_, value);
    return *this;
  }
  JsonObject& boolean(std::string_view key, bool value) {
    this->key(key);
    out_ += value ? "true" : "false";
    return *this;
  }
  JsonObject& raw(std::string_view key, const std::string& json) {
    this->key(key);
    out_ += json;
    return *this;
  }
  [[nodiscard]] std::string done() const { return out_ + "}"; }

 private:
  void key(std::string_view k) {
    out_ += out_.size() == 1 ? "" : ",";
    nvmsec::json_append_string(out_, k);
    out_ += ":";
  }
  std::string out_{"{"};
};

/// Every pass names the build that produced it.
JsonObject pass_header() {
  JsonObject out;
  out.str("compiler", PERFBENCH_COMPILER)
      .str("build_type", PERFBENCH_BUILD_TYPE);
  return out;
}

std::string result_json(const LifetimeResult& r) {
  return JsonObject()
      .num("user_writes", r.user_writes)
      .u64("overhead_writes", r.overhead_writes)
      .u64("absorbed_writes", r.absorbed_writes)
      .u64("device_writes", r.device_writes)
      .num("ideal_lifetime", r.ideal_lifetime)
      .num("normalized", r.normalized)
      .u64("line_deaths", r.line_deaths)
      .boolean("failed", r.failed)
      .str("failure_reason", r.failure_reason)
      .num("wear_gini", r.wear_gini)
      .u64("windows_observed", r.windows_observed)
      .u64("anomalous_windows", r.anomalous_windows)
      .u64("alarms_raised", r.alarms_raised)
      .u64("windows_in_alarm", r.windows_in_alarm)
      .u64("cadence_changes", r.cadence_changes)
      .done();
}

std::string runs_json(const std::vector<NamedConfig>& runs,
                      const std::vector<LifetimeResult>& results) {
  std::string out = "[";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonObject()
               .str("name", runs[i].name)
               .raw("result", result_json(results[i]))
               .done();
  }
  return out + "]";
}

std::string fleet_json(const nvmsec::FleetResult& fleet) {
  const nvmsec::FleetAggregate& agg = fleet.aggregate;
  JsonObject causes;
  for (const auto& [cause, n] : agg.failure_causes) causes.u64(cause, n);
  const std::string digest =
      JsonObject()
          .u64("devices", agg.devices)
          .boolean("complete", fleet.complete())
          .num("lifetime_mean", agg.lifetime.mean())
          .num("lifetime_p50", agg.lifetime.quantile(0.5))
          .num("user_writes_mean", agg.user_writes.mean())
          .raw("failure_causes", causes.done())
          .u64("truncated_logs", agg.truncated_logs)
          .done();
  return "[" + JsonObject().str("name", "fleet").raw("fleet", digest).done() +
         "]";
}

/// Builds (and drops) every device stack of the pass through the public
/// factories; returns the summed factory time.
std::uint64_t setup_probe(const std::vector<ExperimentConfig>& configs,
                          std::uint64_t* map_build_ns,
                          std::uint64_t* spare_alloc_ns) {
  std::uint64_t total = 0;
  for (const ExperimentConfig& c : configs) {
    const perfbench::ComposedRun run = perfbench::compose(c, nullptr);
    total += run.setup_ns;
    *map_build_ns += run.map_build_ns;
    *spare_alloc_ns += run.spare_alloc_ns;
  }
  return total;
}

double user_writes(const std::vector<LifetimeResult>& results) {
  double total = 0;
  for (const LifetimeResult& r : results) total += r.user_writes;
  return total;
}

/// A setup pass: every device stack of the workload built through the
/// public factories and dropped again, in its own process so that the
/// plain pass's resource usage covers the workload call alone.
std::string setup_pass(const std::string& workload, std::uint64_t seed) {
  std::uint64_t map_ns = 0;
  std::uint64_t spare_ns = 0;
  const std::uint64_t setup_ns =
      setup_probe(device_configs(workload, seed), &map_ns, &spare_ns);
  return pass_header()
      .num("setup_s", seconds(setup_ns))
      .num("map_build_s", seconds(map_ns))
      .num("spare_alloc_s", seconds(spare_ns))
      .done();
}

/// The workload the way a user runs it, with no sinks attached.
std::string plain_pass(const std::string& workload, std::uint64_t seed) {
  JsonObject out = pass_header();
  if (workload == "fleet_zipf") {
    const nvmsec::FleetSpec spec = fleet_zipf(seed);
    nvmsec::FleetOptions options;
    options.jobs = kFleetJobs;
    const std::uint64_t start = Profiler::now_ns();
    const nvmsec::FleetResult fleet = nvmsec::run_fleet(spec, options);
    const std::uint64_t wall_ns = Profiler::now_ns() - start;
    return out.num("wall_s", seconds(wall_ns))
        .num("user_writes",
             fleet.aggregate.user_writes.mean() *
                 static_cast<double>(fleet.aggregate.devices))
        .u64("devices", fleet.aggregate.devices)
        .raw("runs", fleet_json(fleet))
        .done();
  }
  const std::vector<NamedConfig> runs = single_device_runs(workload, seed);
  std::vector<ExperimentConfig> configs;
  for (const NamedConfig& r : runs) configs.push_back(r.config);
  nvmsec::ParallelOptions options;
  options.jobs = 1;
  const std::uint64_t start = Profiler::now_ns();
  const std::vector<LifetimeResult> results =
      nvmsec::run_experiments(configs, options);
  const std::uint64_t wall_ns = Profiler::now_ns() - start;
  return out.num("wall_s", seconds(wall_ns))
      .num("user_writes", user_writes(results))
      .u64("devices", results.size())
      .raw("runs", runs_json(runs, results))
      .done();
}

double phase_s(const Profiler& prof, ProfPhase phase) {
  return seconds(prof.phase(phase).total_ns);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Profiler-row layers shared by the single-device and fleet traced passes.
void engine_layers(JsonObject& layers, const Profiler& prof) {
  const double hits =
      static_cast<double>(prof.counter(ProfCounter::kResolveCacheHit));
  const double misses =
      static_cast<double>(prof.counter(ProfCounter::kResolveCacheMiss));
  double children = 0;
  for (ProfPhase p :
       {ProfPhase::kEngineCountsDraw, ProfPhase::kEngineCountsResolve,
        ProfPhase::kEngineCountsWrite, ProfPhase::kEngineBatchDraw,
        ProfPhase::kEngineBatchWrite, ProfPhase::kEnginePerWrite,
        ProfPhase::kEngineBuffer, ProfPhase::kEngineRescue,
        ProfPhase::kEngineDetector, ProfPhase::kEngineCheckpoint,
        ProfPhase::kEngineSnapshot}) {
    children += phase_s(prof, p);
  }
  const double engine_run = phase_s(prof, ProfPhase::kEngineRun);
  const double event_run = phase_s(prof, ProfPhase::kEventRun);
  const double event_rescue = phase_s(prof, ProfPhase::kEventRescue);
  layers.num("nvm.write_s", phase_s(prof, ProfPhase::kEngineCountsWrite))
      .num("spare.resolve_s", phase_s(prof, ProfPhase::kEngineCountsResolve))
      .num("engine.resolve_hit_rate", ratio(hits, hits + misses))
      .u64("engine.resolve_flushes",
           prof.counter(ProfCounter::kResolveCacheFlush))
      .num("wl.on_write_s", phase_s(prof, ProfPhase::kEnginePerWrite))
      .num("engine.run_s", engine_run)
      // Rescue spans nested in batch.write/perwrite are subtracted twice,
      // so this is a lower bound, like the repo's own profile tree.
      .num("engine.self_s", std::max(0.0, engine_run - children))
      .u64("engine.perwrite_writes",
           prof.counter(ProfCounter::kPerWriteFallback))
      .u64("engine.batch_writes", prof.counter(ProfCounter::kBatchWrites))
      .u64("engine.counts_writes", prof.counter(ProfCounter::kCountsWrites))
      .num("event.run_s", event_run)
      .num("event.rescue_s", event_rescue)
      .num("event.self_s", std::max(0.0, event_run - event_rescue));
}

std::string traced_pass(const std::string& workload, std::uint64_t seed) {
  Profiler prof;
  JsonObject layers;
  JsonObject out = pass_header();
  if (workload == "fleet_zipf") {
    std::uint64_t map_ns = 0;
    std::uint64_t spare_ns = 0;
    setup_probe(device_configs(workload, seed), &map_ns, &spare_ns);
    const nvmsec::FleetSpec spec = fleet_zipf(seed);
    nvmsec::FleetOptions options;
    options.jobs = kFleetJobs;
    options.profiler = &prof;
    const std::uint64_t start = Profiler::now_ns();
    const nvmsec::FleetResult fleet = nvmsec::run_fleet(spec, options);
    const std::uint64_t wall_ns = Profiler::now_ns() - start;

    const nvmsec::ProfPhaseStats& device = prof.phase(ProfPhase::kFleetDevice);
    const double chunks =
        static_cast<double>(prof.counter(ProfCounter::kCountsChunks));
    std::uint64_t busy_ns = 0;
    for (const nvmsec::ProfWorkerStats& w : prof.workers()) {
      busy_ns += w.busy_ns;
    }
    const double worker_ns = static_cast<double>(prof.workers().size()) *
                             static_cast<double>(prof.utilization_wall_ns());
    const double shard_s = phase_s(prof, ProfPhase::kFleetShard);
    const double merge_s = phase_s(prof, ProfPhase::kFleetMerge);
    const double wall_s = seconds(wall_ns);
    engine_layers(layers, prof);
    layers.num("nvm.map_build_s", seconds(map_ns))
        .num("spare.alloc_s", seconds(spare_ns))
        .u64("spare.rescues", prof.counter(ProfCounter::kRescueEvents))
        .num("spare.rescue_s", phase_s(prof, ProfPhase::kEngineRescue))
        .num("attack.draw_s", phase_s(prof, ProfPhase::kEngineCountsDraw))
        .num("attack.draw_calls", chunks)
        .num("attack.writes_per_draw",
             ratio(static_cast<double>(
                       prof.counter(ProfCounter::kCountsWrites)),
                   chunks))
        .num("fleet.device_s_mean",
             ratio(seconds(device.total_ns), static_cast<double>(device.count)))
        .num("fleet.device_s_max", seconds(device.max_ns))
        .num("fleet.setup_s", phase_s(prof, ProfPhase::kExperimentSetup))
        .num("fleet.merge_s", merge_s)
        .num("fleet.worker_busy_frac",
             ratio(static_cast<double>(busy_ns), worker_ns))
        // Shards run on kFleetJobs threads: their summed span over the job
        // count approximates the wall time they cover.
        .num("trace.unattributed_frac",
             std::max(0.0, 1.0 - ratio(shard_s / kFleetJobs + merge_s,
                                       wall_s)));
    return out.num("wall_s", wall_s)
        .u64("devices", fleet.aggregate.devices)
        .raw("runs", fleet_json(fleet))
        .raw("layers", layers.done())
        .done();
  }

  const std::vector<NamedConfig> runs = single_device_runs(workload, seed);
  perfbench::LayerCounts counts;
  nvmsec::Observer observer;
  observer.profiler = &prof;
  std::vector<LifetimeResult> results;
  std::uint64_t map_ns = 0;
  std::uint64_t spare_ns = 0;
  std::uint64_t setup_ns = 0;
  const std::uint64_t start = Profiler::now_ns();
  for (const NamedConfig& r : runs) {
    perfbench::ComposedRun run = perfbench::compose(r.config, &counts);
    map_ns += run.map_build_ns;
    spare_ns += run.spare_alloc_ns;
    setup_ns += run.setup_ns;
    results.push_back(perfbench::run_composed(run, r.config, observer));
  }
  const double wall_s = seconds(Profiler::now_ns() - start);
  nvmsec::WriteCount overhead = 0;
  for (const LifetimeResult& res : results) overhead += res.overhead_writes;
  const double draws = static_cast<double>(counts.draw_calls);
  const double attributed = seconds(setup_ns) +
                            phase_s(prof, ProfPhase::kEngineRun) +
                            phase_s(prof, ProfPhase::kEventRun);
  engine_layers(layers, prof);
  layers.num("nvm.map_build_s", seconds(map_ns))
      .num("spare.alloc_s", seconds(spare_ns))
      .u64("spare.resolve_calls", counts.resolve_calls)
      .u64("spare.rescues", counts.rescues)
      .num("spare.rescue_s", seconds(counts.rescue_ns))
      .num("attack.draw_s", seconds(counts.draw_ns))
      .num("attack.draw_calls", draws)
      .num("attack.writes_per_draw",
           ratio(static_cast<double>(counts.draw_writes), draws))
      .u64("wl.on_write_calls", counts.on_write_calls)
      .num("wl.horizon_zero_frac",
           ratio(static_cast<double>(counts.horizon_zero),
                 static_cast<double>(counts.horizon_queries)))
      .u64("wl.overhead_writes", overhead)
      .num("trace.unattributed_frac",
           std::max(0.0, 1.0 - ratio(attributed, wall_s)));
  return out.num("wall_s", wall_s)
      .num("user_writes", user_writes(results))
      .u64("devices", results.size())
      .raw("runs", runs_json(runs, results))
      .raw("layers", layers.done())
      .done();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 4) {
    std::cerr << "usage: perfbench_pass <workload> <seed> "
                 "setup|plain|traced\n";
    return 2;
  }
  try {
    const std::string workload = argv[1];
    const std::uint64_t seed = std::stoull(argv[2]);
    const std::string mode = argv[3];
    if (mode != "setup" && mode != "plain" && mode != "traced") {
      throw std::invalid_argument("mode must be setup, plain or traced");
    }
    if (workload != "fleet_zipf") (void)single_device_runs(workload, seed);
    std::cout << (mode == "setup"   ? setup_pass(workload, seed)
                  : mode == "plain" ? plain_pass(workload, seed)
                                    : traced_pass(workload, seed))
              << "\n";
  } catch (const std::exception& e) {
    std::cerr << "perfbench_pass: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
