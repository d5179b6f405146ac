// mrsc_stress — fault-intensity sweep campaigns over registry designs.
//
//   mrsc_stress [options]
//
// Sweeps one fault kind's intensity over a grid against one design, several
// seeded trials per grid point, and reports the robustness margin: the
// largest intensity at which every trial (at it and below) still matches the
// exact unperturbed reference. Trials whose simulation misbehaves walk the
// solver fallback ladder; trials that fail every rung are classified and
// quarantined — the sweep never crashes on a hard fault.
//
//   --design SPEC      registry design ("counter", "counter(4)", "seqdet",
//                      "fsm_wide(8)", "moving_average", "first_difference",
//                      "delay_chain(2)", "cascade(3)", ...) (default counter)
//   --scenario SPEC    a registry spec or a .mrsc scenario: runs its
//                      @design; a file's @stress line supplies default
//                      --fault/--intensities/--trials (explicit flags win).
//                      An inline @network has no decoder and is rejected.
//   --fault F          rate-jitter | category-jitter | clock-skew | leak |
//                      injection | loss | initial-noise (default rate-jitter)
//   --category C       fast | slow, for category-jitter (default slow)
//   --intensities A,B  ascending grid                   (default: per-kind)
//   --trials N         seeded trials per grid point     (default 3)
//   --seed S           base seed                        (default 42)
//   --threads N        worker threads, 0 = hardware     (default 1)
//   --attempts N       trial ladder attempts            (default 2)
//   --json             print the campaign as JSON instead of a table
//
// Exit codes:
//   0  campaign completed (the margin itself is a measurement, not a verdict)
//   1  runtime failure while running the campaign
//   2  bad CLI usage: unknown flag, design, fault kind, or malformed value,
//      or an inline network
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "scenario/registry.hpp"
#include "stress/campaign.hpp"
#include "tools/cli_flags.hpp"

namespace {

using namespace mrsc;

constexpr char kTool[] = "mrsc_stress";

struct CliOptions {
  stress::CampaignConfig config;
  std::string scenario;
  bool json = false;
  tools::GivenFlags given;
};

void usage() {
  std::fprintf(
      stderr,
      "usage: mrsc_stress [--design SPEC | --scenario SPEC|FILE]\n"
      "       [--fault rate-jitter|category-jitter|clock-skew|leak|"
      "injection|loss|initial-noise]\n"
      "       [--category fast|slow] [--intensities A,B,C] [--trials N]\n"
      "       [--seed S] [--threads N] [--attempts N] [--json]\n");
}

bool parse_cli(int argc, char** argv, CliOptions& options) {
  stress::CampaignConfig& config = options.config;
  tools::FlagParser flags(kTool, {
      {"--json", options.json},
      {"--design",
       [&](const char* value) {
         try {
           config.design =
               scenario::ScenarioRegistry::global().canonicalize(value);
         } catch (const std::invalid_argument& error) {
           std::fprintf(stderr, "mrsc_stress: %s\n", error.what());
           return false;
         }
         return true;
       }},
      {"--scenario", options.scenario},
      {"--fault",
       [&](const char* value) {
         const auto fault = stress::parse_fault_kind(value);
         if (!fault) {
           std::fprintf(stderr, "mrsc_stress: unknown fault kind '%s'\n",
                        value);
           return false;
         }
         config.fault = *fault;
         return true;
       }},
      {"--category",
       [&](const char* value) {
         if (std::strcmp(value, "fast") == 0) {
           config.category = core::RateCategory::kFast;
         } else if (std::strcmp(value, "slow") == 0) {
           config.category = core::RateCategory::kSlow;
         } else {
           std::fprintf(stderr,
                        "mrsc_stress: --category must be fast or slow\n");
           return false;
         }
         return true;
       }},
      {"--intensities", config.intensities},
      {"--trials", config.trials},
      {"--seed", config.base_seed},
      {"--threads", config.threads},
      {"--attempts", config.max_attempts},
  });
  if (!flags.parse(argc, argv)) return false;
  options.given = flags.given();
  for (const double intensity : config.intensities) {
    if (intensity <= 0.0) {
      std::fprintf(stderr, "mrsc_stress: --intensities must be > 0\n");
      return false;
    }
  }
  if (config.trials == 0) {
    std::fprintf(stderr, "mrsc_stress: --trials must be >= 1\n");
    return false;
  }
  if (config.max_attempts == 0) {
    std::fprintf(stderr, "mrsc_stress: --attempts must be >= 1\n");
    return false;
  }
  if (!options.scenario.empty() && options.given.contains("--design")) {
    std::fprintf(stderr,
                 "mrsc_stress: --design and --scenario are mutually "
                 "exclusive\n");
    return false;
  }
  if (!stress::sweepable(options.config.fault)) {
    std::fprintf(stderr,
                 "mrsc_stress: --fault %s has no intensity knob; campaigns "
                 "sweep continuous fault kinds only\n",
                 stress::to_string(options.config.fault));
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  if (!parse_cli(argc, argv, cli)) {
    usage();
    return 2;
  }
  if (!cli.scenario.empty()) {
    try {
      const scenario::Scenario record =
          scenario::load_scenario_argument(cli.scenario);
      if (record.design.empty()) {
        std::fprintf(stderr,
                     "mrsc_stress: scenario '%s' has an inline @network; "
                     "campaigns run registry designs only\n",
                     record.name.c_str());
        return 2;
      }
      cli.config.design = record.design;
      const scenario::StressBinding& budget = record.stress;
      if (!cli.given.contains("--fault") && budget.fault) {
        const auto fault = stress::parse_fault_kind(budget.fault->c_str());
        if (!fault) {
          std::fprintf(stderr,
                       "mrsc_stress: scenario '%s' names unknown fault kind "
                       "'%s'\n",
                       record.name.c_str(), budget.fault->c_str());
          return 2;
        }
        cli.config.fault = *fault;
      }
      if (!cli.given.contains("--intensities") && !budget.intensities.empty()) {
        cli.config.intensities = budget.intensities;
      }
      if (!cli.given.contains("--trials") && budget.trials) {
        cli.config.trials = *budget.trials;
      }
    } catch (const std::exception& error) {
      return tools::exit_code(kTool, error);
    }
  }
  try {
    const stress::CampaignResult result = stress::run_campaign(cli.config);
    if (cli.json) {
      std::printf("%s\n", result.to_value().dump().c_str());
    } else {
      std::printf("%s", result.to_table().c_str());
    }
    return 0;
  } catch (const std::exception& error) {
    // An unknown or malformed design spec, or a fault kind without an
    // intensity, throws std::invalid_argument before any trial runs.
    return tools::exit_code(kTool, error);
  }
}
