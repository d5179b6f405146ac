// mrsc_sim — command-line simulator for reaction-network files.
//
//   mrsc_sim FILE.crn [options]
//   mrsc_sim --scenario SPEC [options]
//
//   --scenario SPEC    simulate a registry design ("counter", "counter(4)",
//                      "cascade(3)", ...) or a .mrsc scenario file instead
//                      of FILE.crn; scenario @sim budgets become defaults
//                      that explicit flags override
//
//   --t-end T          simulation horizon              (default 100)
//   --method M         dp45 | rk4 | be | ssa | nrm | tau   (default dp45)
//   --dt H             fixed step / initial step       (default 1e-3)
//   --record DT        sampling interval               (default t_end/200)
//   --omega W          molecules per concentration unit, stochastic methods
//   --seed S           RNG seed, stochastic methods    (default 1)
//   --tau T            leap length for tau-leaping     (default 0.01)
//   --max-events N     event cap, stochastic methods; hitting it is an
//                      error that names the method and seed
//   --species A,B,C    which species to report         (default all)
//   --csv PATH         write the trajectory as CSV
//   --plot             render an ASCII waveform of the reported species
//   --laws             print the network's conservation laws
//   --opt              run the kO1 compile pipeline on the loaded network
//                      first (--species names are pinned as roots) and
//                      print the per-pass table
//
// Prints the final state of the reported species, once the run is
// classified clean like every batch job (sim/fallback.hpp).
//
// Exit codes:
//   0  simulation finished and the report was written
//   1  runtime failure: unreadable file, stepper error, classified failure
//   2  bad CLI usage: unknown flag/method, malformed value, unknown species
#include <algorithm>
#include <cstdio>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "analysis/conservation.hpp"
#include "analysis/plot.hpp"
#include "compile/passes.hpp"
#include "core/io.hpp"
#include "scenario/registry.hpp"
#include "sim/fallback.hpp"
#include "sim/method.hpp"
#include "sim/ode.hpp"
#include "sim/ssa.hpp"
#include "tools/cli_flags.hpp"

namespace {

using namespace mrsc;

constexpr char kTool[] = "mrsc_sim";

struct CliOptions {
  std::string file;
  std::string scenario;
  double t_end = 100.0;
  std::string method = "dp45";
  double dt = 1e-3;
  double record = 0.0;  // 0 -> t_end / 200
  double omega = 1000.0;
  std::uint64_t seed = 1;
  double tau = 0.01;
  std::uint64_t max_events = 0;  // 0 keeps the SsaOptions default
  std::vector<std::string> species;
  std::string csv;
  bool plot = false;
  bool laws = false;
  bool opt = false;
  tools::GivenFlags given;
};

void usage() {
  std::fprintf(stderr,
               "usage: mrsc_sim [FILE.crn | --scenario SPEC] [--t-end T] "
               "[--method dp45|rk4|be|ssa|nrm|tau]\n"
               "       [--dt H] [--record DT] [--omega W] [--seed S] "
               "[--tau T]\n"
               "       [--max-events N] [--species A,B,C] [--csv PATH]\n"
               "       [--plot] [--laws] [--opt]\n"
               "       scenarios: %s; parametric counter(N), delay_chain(D), "
               "fsm_wide(S), cascade(L); or a .mrsc file\n",
               scenario::ScenarioRegistry::global().fixed_names_csv().c_str());
}

bool parse_cli(int argc, char** argv, CliOptions& options) {
  tools::FlagParser flags(kTool, {
      {"--t-end", options.t_end},
      {"--scenario", options.scenario},
      {"--method", options.method},
      {"--dt", options.dt},
      {"--record", options.record},
      {"--omega", options.omega},
      {"--seed", options.seed},
      {"--tau", options.tau},
      {"--max-events", options.max_events},
      {"--species", options.species},
      {"--csv", options.csv},
      {"--plot", options.plot},
      {"--laws", options.laws},
      {"--opt", options.opt},
  });
  flags.positional(options.file, "multiple input files");
  if (!flags.parse(argc, argv)) return false;
  options.given = flags.given();
  if (options.given.contains("--max-events") && options.max_events == 0) {
    std::fprintf(stderr, "mrsc_sim: --max-events must be >= 1\n");
    return false;
  }
  if (options.file.empty() == options.scenario.empty()) {
    std::fprintf(stderr,
                 "mrsc_sim: give exactly one of FILE.crn or --scenario\n");
    usage();
    return false;
  }
  // Validate up front so a bad value produces one clear message instead of a
  // divide-by-zero sampling grid or an integrator that cannot advance.
  if (options.t_end <= 0.0) {
    std::fprintf(stderr, "mrsc_sim: --t-end must be > 0 (got %g)\n",
                 options.t_end);
    return false;
  }
  if (options.dt <= 0.0) {
    std::fprintf(stderr, "mrsc_sim: --dt must be > 0 (got %g)\n", options.dt);
    return false;
  }
  if (options.omega <= 0.0) {
    std::fprintf(stderr, "mrsc_sim: --omega must be > 0 (got %g)\n",
                 options.omega);
    return false;
  }
  if (options.tau <= 0.0) {
    std::fprintf(stderr, "mrsc_sim: --tau must be > 0 (got %g)\n",
                 options.tau);
    return false;
  }
  if (options.record < 0.0) {
    std::fprintf(stderr, "mrsc_sim: --record must be >= 0 (got %g)\n",
                 options.record);
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  if (!parse_cli(argc, argv, cli)) return 2;

  core::ReactionNetwork network;
  if (!cli.scenario.empty()) {
    try {
      scenario::ResolvedScenario resolved =
          scenario::resolve_scenario_argument(cli.scenario);
      network = std::move(*resolved.design.network);
      tools::apply_sim_budget(resolved.scenario.sim, cli.given, cli);
      std::printf("scenario %s: %zu species, %zu reactions\n",
                  resolved.scenario.name.c_str(), network.species_count(),
                  network.reaction_count());
    } catch (const std::invalid_argument& error) {
      std::fprintf(stderr, "mrsc_sim: %s\n", error.what());
      return 2;
    } catch (const std::exception& error) {
      std::fprintf(stderr, "mrsc_sim: %s\n", error.what());
      return 1;
    }
  }

  try {
    if (!cli.file.empty()) {
      network = core::load_network(cli.file);
      std::printf("loaded %s: %zu species, %zu reactions\n",
                  cli.file.c_str(), network.species_count(),
                  network.reaction_count());
    }

    if (cli.opt) {
      // The reported species are the interface the user cares about; pin
      // them (resolved against the pre-optimization network) as roots.
      std::vector<core::SpeciesId> roots;
      for (const std::string& name : cli.species) {
        const auto id = network.find_species(name);
        if (!id) {
          std::fprintf(stderr, "mrsc_sim: unknown species '%s'\n",
                       name.c_str());
          return 2;
        }
        roots.push_back(*id);
      }
      auto optimized = compile::optimize_network(network, roots);
      optimized.report.design = cli.file;
      std::printf("%s", optimized.report.to_table().c_str());
    }

    if (cli.laws) {
      const auto laws = analysis::conservation_laws(network);
      std::printf("%zu conservation law(s):\n", laws.size());
      for (const auto& law : laws) {
        std::printf("  ");
        bool first = true;
        for (std::size_t i = 0; i < law.size(); ++i) {
          if (law[i] == 0.0) continue;
          const core::SpeciesId id{
              static_cast<core::SpeciesId::underlying_type>(i)};
          std::printf("%s%+.3g %s", first ? "" : " ", law[i],
                      network.species_name(id).c_str());
          first = false;
        }
        std::printf(" = const\n");
      }
    }

    // Resolve the reported species.
    std::vector<core::SpeciesId> report;
    if (cli.species.empty()) {
      for (std::size_t i = 0; i < network.species_count(); ++i) {
        report.push_back(core::SpeciesId{
            static_cast<core::SpeciesId::underlying_type>(i)});
      }
    } else {
      for (const std::string& name : cli.species) {
        const auto id = network.find_species(name);
        if (!id) {
          std::fprintf(stderr, "mrsc_sim: unknown species '%s'\n",
                       name.c_str());
          return 2;
        }
        report.push_back(*id);
      }
    }

    // Default sampling grid: t_end/200, clamped away from zero so a tiny
    // --t-end cannot underflow it into an invalid (nonpositive) interval.
    const double record =
        cli.record > 0.0
            ? cli.record
            : std::max(cli.t_end / 200.0,
                       std::numeric_limits<double>::min());
    const std::optional<sim::SimMethod> method =
        sim::parse_method(cli.method);
    if (!method) {
      std::fprintf(stderr, "mrsc_sim: unknown method '%s'\n",
                   cli.method.c_str());
      return 2;
    }
    sim::Trajectory trajectory;
    sim::SimFailure failure;
    if (const auto* ode_method = std::get_if<sim::OdeMethod>(&*method)) {
      sim::OdeOptions options;
      options.t_end = cli.t_end;
      options.dt = cli.dt;
      options.record_interval = record;
      options.method = *ode_method;
      sim::OdeResult result = simulate_ode(network, options);
      std::printf("ODE (%s): %zu steps accepted, %zu rejected\n",
                  cli.method.c_str(), result.steps_accepted,
                  result.steps_rejected);
      failure = sim::classify_failure(result);
      trajectory = std::move(result.trajectory);
    } else {
      sim::SsaOptions options;
      options.t_end = cli.t_end;
      options.omega = cli.omega;
      options.seed = cli.seed;
      options.tau = cli.tau;
      if (cli.max_events > 0) options.max_events = cli.max_events;
      options.record_interval = record;
      options.method = std::get<sim::SsaMethod>(*method);
      sim::SsaResult result;
      try {
        result = simulate_ssa(network, options);
      } catch (const std::invalid_argument& error) {
        // An initial state with no molecule-count form is bad input.
        std::fprintf(stderr, "mrsc_sim: %s\n", error.what());
        return 2;
      }
      std::printf("SSA (%s): %llu events%s\n", cli.method.c_str(),
                  static_cast<unsigned long long>(result.events),
                  result.exhausted ? " (exhausted)" : "");
      failure = sim::classify_failure(result);
      trajectory = std::move(result.trajectory);
    }
    if (failure.kind == sim::SimFailureKind::kEventLimit) {
      // The seed reruns the run: the same flags with --seed S.
      std::fprintf(stderr,
                   "mrsc_sim: method %s seed %llu hit the event limit: %s\n",
                   cli.method.c_str(),
                   static_cast<unsigned long long>(cli.seed),
                   failure.detail.c_str());
      return 1;
    }
    if (failure) {
      std::fprintf(stderr, "mrsc_sim: method %s: %s: %s\n",
                   cli.method.c_str(), sim::to_string(failure.kind),
                   failure.detail.c_str());
      return 1;
    }

    std::printf("final state at t=%.6g:\n", trajectory.final_time());
    for (const core::SpeciesId id : report) {
      std::printf("  %-20s %.6g\n", network.species_name(id).c_str(),
                  trajectory.final_value(id));
    }
    if (!cli.csv.empty() &&
        !tools::write_file(kTool, cli.csv,
                           trajectory.to_csv(network, report), "trajectory")) {
      return 1;
    }
    if (cli.plot) {
      analysis::AsciiPlotOptions plot;
      plot.width = 100;
      plot.height = 14;
      std::printf("%s",
                  analysis::plot_trajectory(trajectory, network, report,
                                            plot)
                      .c_str());
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "mrsc_sim: %s\n", error.what());
    return 1;
  }
  return 0;
}
