// Simulator flags shared by maxwe_sim and fleet_sim: one registration and
// one flag-to-ExperimentConfig mapping for the geometry, endurance, attack,
// detector/adaptive, wear-leveler, spare, write-cap, fast-path, bit-mode and
// device-fault knobs. Run-control flags (seeds, jobs, outputs, checkpoints)
// stay with each tool.
#pragma once

#include <string>

#include "sim/experiment.h"
#include "util/cli.h"

namespace nvmsec {

/// The defaults the two tools disagree on: maxwe_sim models the paper's
/// 1 GB device, fleet_sim a scaled one that finishes per device in
/// milliseconds.
struct ExperimentFlagDefaults {
  std::string lines;
  std::string endurance_mean;
};

void add_experiment_flags(CliParser& cli,
                          const ExperimentFlagDefaults& defaults);

/// Map the flags add_experiment_flags registered onto a default
/// ExperimentConfig. Throws std::invalid_argument on an unknown --mode or
/// when --attack-onset and --attack-phases are both given.
ExperimentConfig experiment_config_from_flags(const CliParser& cli);

}  // namespace nvmsec
