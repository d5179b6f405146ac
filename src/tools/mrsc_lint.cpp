// mrsc_lint — static analysis over compiled designs, before any simulation.
//
//   mrsc_lint --design NAME [options]
//   mrsc_lint --design all  [options]     lint every built-in design
//   mrsc_lint --scenario SPEC [options]   lint a registry scenario
//   mrsc_lint FILE.crn [options]          lint a serialized network
//
//   --design NAME      built-in design to compile and analyze (see list
//                      below), or "all"
//   --scenario SPEC    lint a registry scenario: a design spec ("counter",
//                      "cascade(3)") or a .mrsc scenario file; the
//                      scenario's lint budget supplies default --checks and
//                      --werror (explicit flags win)
//   --roots A,B        species treated as design ports (FILE mode; built-in
//                      designs carry their port roster automatically)
//   --opt 0|1          optimization level to lint at (default 0: the
//                      unoptimized network keeps its emission tags, so
//                      every check can run)
//   --checks a,b       run only the named checks (default: all)
//   --json PATH        write the LintReport(s) as JSON ("-" for stdout)
//   --werror           treat warnings as errors for the exit code
//   --quiet            suppress info diagnostics in the text listing
//
// Exit code contract (asserted by ctest):
//   0  every selected check ran clean
//   1  at least one error (or, with --werror, warning) fired
//   2  usage error / unknown design / unknown check
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/io.hpp"
#include "lint/lint.hpp"
#include "scenario/registry.hpp"
#include "tools/cli_flags.hpp"
#include "util/json.hpp"

namespace {

using namespace mrsc;

using tools::write_file;
constexpr char kTool[] = "mrsc_lint";

struct CliOptions {
  std::string file;
  std::string design;
  std::string scenario;
  std::vector<std::string> roots;
  int opt = 0;
  std::vector<std::string> checks;
  std::string json;
  bool werror = false;
  bool quiet = false;
};

void usage() {
  std::fprintf(stderr,
               "usage: mrsc_lint [FILE.crn | --design NAME|all |\n"
               "       --scenario SPEC] [--opt 0|1]\n"
               "       [--roots A,B] [--checks a,b] [--json PATH|-]\n"
               "       [--werror] [--quiet]\n"
               "       designs: %s\n",
               scenario::ScenarioRegistry::global().fixed_names_csv().c_str());
  std::fprintf(stderr, "       checks:");
  for (const std::string& name : lint::check_names()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
}

bool parse_cli(int argc, char** argv, CliOptions& options) {
  tools::FlagParser flags(kTool, {
      {"--werror", options.werror},
      {"--quiet", options.quiet},
      {"--design", options.design},
      {"--scenario", options.scenario},
      {"--opt",
       [&](const char* value) {
         return tools::parse_opt_level(kTool, value, options.opt);
       }},
      {"--checks", options.checks},
      {"--roots", options.roots},
      {"--json", options.json},
  });
  flags.positional(options.file, "more than one input file");
  if (!flags.parse(argc, argv)) return false;
  const int sources = (options.file.empty() ? 0 : 1) +
                      (options.design.empty() ? 0 : 1) +
                      (options.scenario.empty() ? 0 : 1);
  if (sources != 1) {
    std::fprintf(stderr,
                 "mrsc_lint: give exactly one of FILE.crn, --design, or "
                 "--scenario\n");
    return false;
  }
  return true;
}

lint::LintReport lint_file(const CliOptions& cli) {
  const core::ReactionNetwork network = core::load_network(cli.file);
  lint::LintInput input;
  input.network = &network;
  input.design = cli.file;
  for (const std::string& name : cli.roots) {
    const auto id = network.find_species(name);
    if (!id) {
      throw std::invalid_argument("--roots: no species named '" + name + "'");
    }
    input.roots.emplace_back(*id, compile::PortRole::kInput);
  }
  lint::LintOptions lint_options;
  lint_options.checks = cli.checks;
  return lint::run_lint(input, lint_options);
}

lint::LintReport lint_one(const std::string& design_name,
                          const CliOptions& cli) {
  compile::CompileOptions compile_options;
  compile_options.opt =
      cli.opt == 0 ? compile::OptLevel::kO0 : compile::OptLevel::kO1;
  const scenario::ResolvedScenario resolved =
      scenario::ScenarioRegistry::global().resolve(design_name,
                                                   compile_options);
  const scenario::BuiltDesign& design = resolved.design;

  lint::LintInput input =
      lint::LintInput::from_design(*design.network, design.info, design_name);
  input.composition = design.composition.get();

  lint::LintOptions lint_options;
  lint_options.checks = cli.checks;
  return lint::run_lint(input, lint_options);
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  if (!parse_cli(argc, argv, cli)) {
    usage();
    return 2;
  }
  try {
    if (!cli.file.empty()) {
      const lint::LintReport report = lint_file(cli);
      std::printf("%s", report.to_text(!cli.quiet).c_str());
      if (!cli.json.empty() &&
          !write_file(kTool, cli.json, report.to_value().dump() + "\n")) {
        return 2;
      }
      return report.clean(cli.werror) ? 0 : 1;
    }

    if (!cli.scenario.empty()) {
      compile::CompileOptions compile_options;
      compile_options.opt =
          cli.opt == 0 ? compile::OptLevel::kO0 : compile::OptLevel::kO1;
      const scenario::ResolvedScenario resolved =
          scenario::resolve_scenario_argument(cli.scenario, compile_options);
      lint::LintInput input =
          lint::LintInput::from_design(*resolved.design.network,
                                       resolved.design.info,
                                       resolved.scenario.name);
      input.composition = resolved.design.composition.get();
      lint::LintOptions lint_options;
      lint_options.checks = cli.checks.empty() ? resolved.scenario.lint.checks
                                               : cli.checks;
      const lint::LintReport report = lint::run_lint(input, lint_options);
      std::printf("%s", report.to_text(!cli.quiet).c_str());
      if (!cli.json.empty() &&
          !write_file(kTool, cli.json, report.to_value().dump() + "\n")) {
        return 2;
      }
      const bool werror = cli.werror || resolved.scenario.lint.werror;
      return report.clean(werror) ? 0 : 1;
    }

    std::vector<std::string> designs;
    if (cli.design == "all") {
      designs = scenario::ScenarioRegistry::global().fixed_names();
    } else {
      designs.push_back(cli.design);
    }

    util::json::Value reports;
    bool dirty = false;
    for (std::size_t i = 0; i < designs.size(); ++i) {
      const lint::LintReport report = lint_one(designs[i], cli);
      std::printf("%s", report.to_text(!cli.quiet).c_str());
      if (i + 1 < designs.size()) std::printf("\n");
      if (!report.clean(cli.werror)) dirty = true;
      reports.array().push_back(report.to_value());
    }
    // One design writes its report; "all" writes the array of them.
    const util::json::Value& json =
        designs.size() > 1 ? reports : reports.as_array().front();
    if (!cli.json.empty() && !write_file(kTool, cli.json, json.dump() + "\n")) {
      return 2;
    }
    return dirty ? 1 : 0;
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "mrsc_lint: %s\n", error.what());
    usage();
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "mrsc_lint: %s\n", error.what());
    return 2;
  }
}
