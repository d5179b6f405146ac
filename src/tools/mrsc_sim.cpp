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
//   --opt              load the design at -O1 (tools/cli_design.hpp: a
//                      registry design keeps its ports, a FILE.crn or
//                      inline network its @roots and the --species names)
//                      and print the per-pass table
//
// Prints the final state of the reported species, once the run is
// classified clean like every batch job (sim/fallback.hpp).
//
// Exit codes:
//   0  simulation finished and the report was written
//   1  runtime failure: unreadable file, stepper error, classified failure
//   2  bad CLI usage: unknown flag/method, malformed value or file, unknown
//      design or species
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "analysis/conservation.hpp"
#include "analysis/plot.hpp"
#include "sim/fallback.hpp"
#include "sim/method.hpp"
#include "tools/cli_design.hpp"

namespace {

using namespace mrsc;

constexpr char kTool[] = "mrsc_sim";

struct CliOptions {
  tools::SimFlags sim;
  std::uint64_t max_events = 0;  // 0 keeps the SsaOptions default
  std::string csv;
  bool plot = false;
  bool laws = false;
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
  options.sim.method = "dp45";
  tools::FlagParser flags(kTool, {
      {"--max-events", options.max_events},
      {"--csv", options.csv},
      {"--plot", options.plot},
      {"--laws", options.laws},
  });
  options.sim.add_to(flags);
  if (!flags.parse(argc, argv)) return false;
  options.given = flags.given();
  if (options.given.contains("--max-events") && options.max_events == 0) {
    std::fprintf(stderr, "mrsc_sim: --max-events must be >= 1\n");
    return false;
  }
  return options.sim.check(kTool);
}

int run(CliOptions& cli) {
  const tools::LoadedDesign loaded = cli.sim.load(cli.given);
  const core::ReactionNetwork& network = loaded.network();
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
  const std::vector<core::SpeciesId> report = loaded.reported();

  const std::string& method_name = cli.sim.method;
  const std::optional<sim::SimMethod> method = sim::parse_method(method_name);
  if (!method) {
    throw std::invalid_argument("unknown method '" + method_name + "'");
  }
  sim::Trajectory trajectory;
  sim::SimFailure failure;
  if (const auto* ode_method = std::get_if<sim::OdeMethod>(&*method)) {
    sim::OdeResult result = simulate_ode(network, cli.sim.ode(*ode_method));
    std::printf("ODE (%s): %zu steps accepted, %zu rejected\n",
                method_name.c_str(), result.steps_accepted,
                result.steps_rejected);
    failure = sim::classify_failure(result);
    trajectory = std::move(result.trajectory);
  } else {
    sim::SsaOptions options = cli.sim.ssa(std::get<sim::SsaMethod>(*method));
    if (cli.max_events > 0) options.max_events = cli.max_events;
    // An initial state with no molecule-count form throws
    // std::invalid_argument: bad input, exit 2.
    sim::SsaResult result = simulate_ssa(network, options);
    std::printf("SSA (%s): %llu events%s\n", method_name.c_str(),
                static_cast<unsigned long long>(result.events),
                result.exhausted ? " (exhausted)" : "");
    failure = sim::classify_failure(result);
    trajectory = std::move(result.trajectory);
  }
  if (failure.kind == sim::SimFailureKind::kEventLimit) {
    // The seed reruns the run: the same flags with --seed S.
    std::fprintf(stderr,
                 "mrsc_sim: method %s seed %llu hit the event limit: %s\n",
                 method_name.c_str(),
                 static_cast<unsigned long long>(cli.sim.seed),
                 failure.detail.c_str());
    return 1;
  }
  if (failure) {
    std::fprintf(stderr, "mrsc_sim: method %s: %s: %s\n",
                 method_name.c_str(), sim::to_string(failure.kind),
                 failure.detail.c_str());
    return 1;
  }

  std::printf("final state at t=%.6g:\n", trajectory.final_time());
  for (const core::SpeciesId id : report) {
    std::printf("  %-20s %.6g\n", network.species_name(id).c_str(),
                trajectory.final_value(id));
  }
  if (!cli.csv.empty() &&
      !tools::write_file(kTool, cli.csv, trajectory.to_csv(network, report),
                         "trajectory")) {
    return 1;
  }
  if (cli.plot) {
    analysis::AsciiPlotOptions plot;
    plot.width = 100;
    plot.height = 14;
    std::printf("%s",
                analysis::plot_trajectory(trajectory, network, report, plot)
                    .c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  if (!parse_cli(argc, argv, cli)) return 2;
  try {
    return run(cli);
  } catch (const std::exception& error) {
    return tools::exit_code(kTool, error, usage);
  }
}
