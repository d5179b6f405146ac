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
//   --roots A,B        species treated as design ports of a FILE.crn or
//                      inline network (registry designs carry their port
//                      roster automatically); every name must be a species
//                      of the design
//   --opt 0|1          optimization level to lint at (default 0: the
//                      unoptimized network keeps its emission tags, so
//                      every check can run); every source, FILE.crn
//                      included, loads through tools::load_design
//   --checks a,b       run only the named checks (default: all)
//   --json PATH        write the LintReport(s) as JSON ("-" for stdout)
//   --werror           treat warnings as errors for the exit code
//   --quiet            suppress info diagnostics in the text listing
//
// Exit code contract (asserted by ctest):
//   0  every selected check ran clean
//   1  at least one error (or, with --werror, warning) fired, or a runtime
//      failure: unreadable input, unwritable --json
//   2  usage error: unknown flag, design, species or check, malformed file
#include <cstdio>
#include <string>
#include <vector>

#include "lint/lint.hpp"
#include "tools/cli_design.hpp"
#include "util/json.hpp"

namespace {

using namespace mrsc;

using tools::write_file;
constexpr char kTool[] = "mrsc_lint";

struct CliOptions {
  tools::DesignSource source;
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
      {"--design", options.source.design},
      {"--scenario", options.source.scenario},
      {"--opt",
       [&](const char* value) {
         return tools::parse_opt_level(kTool, value, options.opt);
       }},
      {"--checks", options.checks},
      {"--roots", options.roots},
      {"--json", options.json},
  });
  flags.positional(options.source.file, "more than one input file");
  return flags.parse(argc, argv);
}

// Lints one design source at --opt. A scenario's lint budget supplies
// default --checks and --werror (explicit flags win); `clean` receives the
// exit-code verdict.
lint::LintReport lint_design(const tools::DesignSource& source,
                             const CliOptions& cli, bool& clean) {
  const tools::LoadedDesign loaded =
      tools::load_design(source, cli.opt, cli.roots);
  const scenario::ResolvedScenario& resolved = loaded.resolved;
  lint::LintInput input = lint::LintInput::from_design(
      loaded.network(), resolved.design.info, resolved.scenario.name);
  input.composition = resolved.design.composition.get();
  lint::LintOptions lint_options;
  lint_options.checks =
      cli.checks.empty() ? resolved.scenario.lint.checks : cli.checks;
  lint::LintReport report = lint::run_lint(input, lint_options);
  clean = report.clean(cli.werror || resolved.scenario.lint.werror);
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  if (!parse_cli(argc, argv, cli)) {
    usage();
    return 2;
  }
  try {
    // "--design all" lints every fixed design and writes the array of
    // reports; any other source writes its one report.
    const bool all = cli.source.design == "all";
    std::vector<tools::DesignSource> sources;
    if (all) {
      for (const std::string& name :
           scenario::ScenarioRegistry::global().fixed_names()) {
        sources.push_back(cli.source);
        sources.back().design = name;
      }
    } else {
      sources.push_back(cli.source);
    }

    util::json::Value reports;
    bool dirty = false;
    for (std::size_t i = 0; i < sources.size(); ++i) {
      bool clean = true;
      const lint::LintReport report = lint_design(sources[i], cli, clean);
      std::printf("%s", report.to_text(!cli.quiet).c_str());
      if (i + 1 < sources.size()) std::printf("\n");
      if (!clean) dirty = true;
      reports.array().push_back(report.to_value());
    }
    const util::json::Value& json = all ? reports : reports.as_array().front();
    if (!cli.json.empty() && !write_file(kTool, cli.json, json.dump() + "\n")) {
      return 1;
    }
    return dirty ? 1 : 0;
  } catch (const std::exception& error) {
    return tools::exit_code(kTool, error, usage);
  }
}
