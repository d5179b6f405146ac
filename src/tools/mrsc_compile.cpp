// mrsc_compile — lower a design (or optimize a .crn file) through the shared
// compile pipeline and report what every pass did. Every source loads
// through tools::load_design (tools/cli_design.hpp).
//
//   mrsc_compile FILE.crn [options]
//   mrsc_compile --design NAME [options]
//   mrsc_compile --scenario SPEC [options]
//   mrsc_compile --list-scenarios
//
//   --design NAME      compile a registry design instead of a file (see
//                      --list-scenarios for the catalog)
//   --scenario SPEC    compile a registry scenario: a design spec
//                      ("counter", "cascade(3)") or a .mrsc scenario file
//                      (an inline @network runs the standalone pipeline
//                      with its @roots pinned)
//   --list-scenarios   print the scenario catalog (fixed designs, parametric
//                      generators with their ranges, smoke set) and exit
//   --opt 0|1          optimization level               (default 1)
//   --assume-zero A,B  input ports promised to stay zero; their dead cone
//                      is eliminated at -O1 (built-in circuit designs only)
//   --roots A,B        extra species pinned alive in a FILE.crn or inline
//                      network; registry designs pin their ports, register
//                      state and clock species themselves. Every name must
//                      be a species of the design
//   --json PATH        write the per-pass CompileReport as JSON
//   --out PATH         write the compiled/optimized network as .crn text
//                      ( - = stdout)
//   --lint             run the static analyzer (lint/) over the compiled
//                      network and print its report; lint errors make the
//                      exit code 1
//
// Prints the per-pass table on stdout. Exits 0 on success, 1 on a runtime
// failure (unreadable input, unwritable --json/--out, a validation failure,
// lint errors under --lint), 2 on bad usage (unknown flag, design or
// species, malformed file).
#include <cstdio>
#include <string>
#include <vector>

#include "core/io.hpp"
#include "lint/lint.hpp"
#include "tools/cli_design.hpp"

namespace {

using namespace mrsc;

using tools::write_file;
constexpr char kTool[] = "mrsc_compile";

struct CliOptions {
  tools::DesignSource source;
  bool list_scenarios = false;
  int opt = 1;
  std::vector<std::string> assume_zero;
  std::vector<std::string> roots;
  std::string json;
  std::string out;
  bool lint = false;
};

void usage() {
  std::fprintf(
      stderr,
      "usage: mrsc_compile [FILE.crn | --design NAME | --scenario SPEC]\n"
      "       [--opt 0|1] [--assume-zero A,B] [--roots A,B] [--json PATH]\n"
      "       [--out PATH] [--lint] [--list-scenarios]\n"
      "       designs: %s\n",
      scenario::ScenarioRegistry::global().fixed_names_csv().c_str());
}

bool parse_cli(int argc, char** argv, CliOptions& options) {
  tools::FlagParser flags(kTool, {
      {"--lint", options.lint},
      {"--list-scenarios", options.list_scenarios},
      {"--design", options.source.design},
      {"--scenario", options.source.scenario},
      {"--opt",
       [&](const char* value) {
         return tools::parse_opt_level(kTool, value, options.opt);
       }},
      {"--assume-zero", options.assume_zero},
      {"--roots", options.roots},
      {"--json", options.json},
      {"--out", options.out},
  });
  flags.positional(options.source.file, "more than one input file");
  return flags.parse(argc, argv);
}

void print_scenario_catalog() {
  const auto& registry = scenario::ScenarioRegistry::global();
  std::printf("fixed designs: %s\n", registry.fixed_names_csv().c_str());
  std::printf("generators:\n");
  for (const scenario::GeneratorInfo& info : registry.generators()) {
    std::printf("  %s(%s)  %s in [%llu, %llu], smoke %s(%llu) — %s\n",
                info.name.c_str(), info.parameter.c_str(),
                info.parameter.c_str(),
                static_cast<unsigned long long>(info.min_arg),
                static_cast<unsigned long long>(info.max_arg),
                info.name.c_str(),
                static_cast<unsigned long long>(info.smoke_arg),
                info.summary.c_str());
  }
  std::printf("smoke catalog:");
  for (const std::string& spec : registry.smoke_catalog()) {
    std::printf(" %s", spec.c_str());
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  if (!parse_cli(argc, argv, cli)) {
    usage();
    return 2;
  }
  if (cli.list_scenarios) {
    print_scenario_catalog();
    return 0;
  }
  try {
    const tools::LoadedDesign loaded =
        tools::load_design(cli.source, cli.opt, cli.roots, cli.assume_zero);
    const compile::CompileReport& report = loaded.report;
    const scenario::BuiltDesign& compiled = loaded.resolved.design;

    std::printf("%s", report.to_table().c_str());
    const auto& b = report.before;
    const auto& a = report.after;
    std::printf("%s: %zu species / %zu reactions -> %zu species / %zu "
                "reactions at -O%d\n",
                report.design.c_str(), b.species, b.reactions, a.species,
                a.reactions, cli.opt);

    if (!cli.json.empty()) {
      if (!write_file(kTool, cli.json, report.to_value().dump() + "\n",
                      "report")) {
        return 1;
      }
    }
    if (!cli.out.empty() &&
        !write_file(kTool, cli.out, core::serialize_network(*compiled.network),
                    "network")) {
      return 1;
    }
    if (cli.lint) {
      lint::LintInput input = lint::LintInput::from_design(
          *compiled.network, compiled.info, report.design);
      input.composition = compiled.composition.get();
      const lint::LintReport lint_report = lint::run_lint(input);
      std::printf("%s", lint_report.to_text().c_str());
      if (!lint_report.clean()) return 1;
    }
    return 0;
  } catch (const std::exception& error) {
    return tools::exit_code(kTool, error, usage);
  }
}
