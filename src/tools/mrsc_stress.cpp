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
//                      "fsm_wide(8)", "moving_average", "iir", "delay",
//                      "delay_chain(2)")                (default counter)
//   --scenario SPEC    a registry spec or a .mrsc scenario: runs its
//                      @design; a file's @stress line supplies default
//                      --fault/--intensities/--trials (explicit flags win).
//                      Designs without a stress stimulus (cascade(L),
//                      first_difference, inline @network) are rejected.
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
//      or a design without a stress stimulus
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "scenario/registry.hpp"
#include "stress/campaign.hpp"
#include "tools/cli_flags.hpp"
#include "util/strings.hpp"

namespace {

using namespace mrsc;

using tools::need_value;
using tools::parse_double;
using tools::parse_u64;
constexpr char kTool[] = "mrsc_stress";

struct CliOptions {
  stress::CampaignConfig config;
  std::string scenario;
  bool json = false;
  // Whether the user passed the flag explicitly; explicit flags beat the
  // scenario's @stress budget.
  bool set_design = false;
  bool set_fault = false;
  bool set_intensities = false;
  bool set_trials = false;
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
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--json") == 0) {
      options.json = true;
    } else if (std::strcmp(arg, "--design") == 0) {
      const char* v = need_value(kTool, argc, argv, i);
      if (!v) return false;
      try {
        options.config.design =
            scenario::ScenarioRegistry::global().canonicalize(v);
      } catch (const std::invalid_argument& error) {
        std::fprintf(stderr, "mrsc_stress: %s\n", error.what());
        return false;
      }
      options.set_design = true;
    } else if (std::strcmp(arg, "--scenario") == 0) {
      const char* v = need_value(kTool, argc, argv, i);
      if (!v) return false;
      options.scenario = v;
    } else if (std::strcmp(arg, "--fault") == 0) {
      const char* v = need_value(kTool, argc, argv, i);
      if (!v) return false;
      const auto fault = stress::parse_fault_kind(v);
      if (!fault) {
        std::fprintf(stderr, "mrsc_stress: unknown fault kind '%s'\n", v);
        return false;
      }
      options.config.fault = *fault;
      options.set_fault = true;
    } else if (std::strcmp(arg, "--category") == 0) {
      const char* v = need_value(kTool, argc, argv, i);
      if (!v) return false;
      if (std::strcmp(v, "fast") == 0) {
        options.config.category = core::RateCategory::kFast;
      } else if (std::strcmp(v, "slow") == 0) {
        options.config.category = core::RateCategory::kSlow;
      } else {
        std::fprintf(stderr,
                     "mrsc_stress: --category must be fast or slow\n");
        return false;
      }
    } else if (std::strcmp(arg, "--intensities") == 0) {
      const char* v = need_value(kTool, argc, argv, i);
      if (!v) return false;
      options.config.intensities.clear();
      for (const std::string& item : util::split_commas(v)) {
        double value = 0.0;
        if (!parse_double(kTool, arg, item.c_str(), value)) return false;
        if (value <= 0.0) {
          std::fprintf(stderr, "mrsc_stress: --intensities must be > 0\n");
          return false;
        }
        options.config.intensities.push_back(value);
      }
      if (options.config.intensities.empty()) {
        std::fprintf(stderr,
                     "mrsc_stress: --intensities needs at least one value\n");
        return false;
      }
      options.set_intensities = true;
    } else if (std::strcmp(arg, "--trials") == 0) {
      const char* v = need_value(kTool, argc, argv, i);
      std::uint64_t trials = 0;
      if (!v || !parse_u64(kTool, arg, v, trials)) return false;
      if (trials == 0) {
        std::fprintf(stderr, "mrsc_stress: --trials must be >= 1\n");
        return false;
      }
      options.config.trials = static_cast<std::size_t>(trials);
      options.set_trials = true;
    } else if (std::strcmp(arg, "--seed") == 0) {
      const char* v = need_value(kTool, argc, argv, i);
      if (!v || !parse_u64(kTool, arg, v, options.config.base_seed)) {
        return false;
      }
    } else if (std::strcmp(arg, "--threads") == 0) {
      const char* v = need_value(kTool, argc, argv, i);
      std::uint64_t threads = 0;
      if (!v || !parse_u64(kTool, arg, v, threads)) return false;
      options.config.threads = static_cast<std::size_t>(threads);
    } else if (std::strcmp(arg, "--attempts") == 0) {
      const char* v = need_value(kTool, argc, argv, i);
      std::uint64_t attempts = 0;
      if (!v || !parse_u64(kTool, arg, v, attempts)) return false;
      if (attempts == 0) {
        std::fprintf(stderr, "mrsc_stress: --attempts must be >= 1\n");
        return false;
      }
      options.config.max_attempts = static_cast<std::size_t>(attempts);
    } else {
      std::fprintf(stderr, "mrsc_stress: unknown option %s\n", arg);
      return false;
    }
  }
  if (!options.scenario.empty() && options.set_design) {
    std::fprintf(stderr,
                 "mrsc_stress: --design and --scenario are mutually "
                 "exclusive\n");
    return false;
  }
  if (options.config.fault == stress::FaultKind::kRateJitterReaction ||
      options.config.fault == stress::FaultKind::kStoichiometry) {
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
      if (!cli.set_fault && budget.fault) {
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
      if (!cli.set_intensities && !budget.intensities.empty()) {
        cli.config.intensities = budget.intensities;
      }
      if (!cli.set_trials && budget.trials) {
        cli.config.trials = *budget.trials;
      }
    } catch (const std::invalid_argument& error) {
      std::fprintf(stderr, "mrsc_stress: %s\n", error.what());
      return 2;
    } catch (const std::exception& error) {
      std::fprintf(stderr, "mrsc_stress: %s\n", error.what());
      return 1;
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
  } catch (const std::invalid_argument& error) {
    // Rejected before any trial ran: a design without a stress stimulus.
    std::fprintf(stderr, "mrsc_stress: %s\n", error.what());
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "mrsc_stress: %s\n", error.what());
    return 1;
  }
}
