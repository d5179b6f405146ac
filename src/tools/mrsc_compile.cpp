// mrsc_compile — lower a design (or optimize a .crn file) through the shared
// compile pipeline and report what every pass did.
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
//   --list-scenarios   print the scenario catalog (fixed designs, parametric
//                      generators with their ranges, smoke set) and exit
//   --opt 0|1          optimization level               (default 1)
//   --assume-zero A,B  input ports promised to stay zero; their dead cone
//                      is eliminated at -O1 (built-in circuit designs only)
//   --roots A,B        extra species pinned alive (FILE mode; ports and
//                      clock species of built-in designs are pinned
//                      automatically)
//   --json PATH        write the per-pass CompileReport as JSON
//   --out PATH         write the compiled/optimized network as .crn text
//   --lint             run the static analyzer (lint/) over the compiled
//                      network and print its report; lint errors make the
//                      exit code 1
//
// Prints the per-pass table on stdout; exits nonzero on error.
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "compile/passes.hpp"
#include "compile/report.hpp"
#include "core/io.hpp"
#include "lint/lint.hpp"
#include "scenario/registry.hpp"
#include "tools/cli_flags.hpp"
#include "util/strings.hpp"

namespace {

using namespace mrsc;

using tools::need_value;
using tools::write_file;
constexpr char kTool[] = "mrsc_compile";

struct CliOptions {
  std::string file;
  std::string design;
  std::string scenario;
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
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (arg[0] != '-') {
      if (!options.file.empty()) {
        std::fprintf(stderr, "mrsc_compile: more than one input file\n");
        return false;
      }
      options.file = arg;
      continue;
    }
    if (std::strcmp(arg, "--lint") == 0) {
      options.lint = true;
      continue;
    }
    if (std::strcmp(arg, "--list-scenarios") == 0) {
      options.list_scenarios = true;
      continue;
    }
    const char* value = need_value(kTool, argc, argv, i);
    if (value == nullptr) return false;
    if (std::strcmp(arg, "--design") == 0) {
      options.design = value;
    } else if (std::strcmp(arg, "--scenario") == 0) {
      options.scenario = value;
    } else if (std::strcmp(arg, "--opt") == 0) {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        std::fprintf(stderr, "mrsc_compile: --opt must be 0 or 1\n");
        return false;
      }
      options.opt = value[0] - '0';
    } else if (std::strcmp(arg, "--assume-zero") == 0) {
      options.assume_zero = util::split_commas(value);
    } else if (std::strcmp(arg, "--roots") == 0) {
      options.roots = util::split_commas(value);
    } else if (std::strcmp(arg, "--json") == 0) {
      options.json = value;
    } else if (std::strcmp(arg, "--out") == 0) {
      options.out = value;
    } else {
      std::fprintf(stderr, "mrsc_compile: unknown option %s\n", arg);
      return false;
    }
  }
  if (options.list_scenarios) return true;
  const int sources = (options.file.empty() ? 0 : 1) +
                      (options.design.empty() ? 0 : 1) +
                      (options.scenario.empty() ? 0 : 1);
  if (sources != 1) {
    std::fprintf(stderr,
                 "mrsc_compile: give exactly one of FILE.crn, --design, or "
                 "--scenario\n");
    return false;
  }
  return true;
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
    compile::CompileReport report;
    compile::CompileOptions compile_options;
    compile_options.opt =
        cli.opt == 0 ? compile::OptLevel::kO0 : compile::OptLevel::kO1;
    compile_options.assume_zero_inputs = cli.assume_zero;
    compile_options.report = &report;

    scenario::BuiltDesign compiled;
    if (!cli.scenario.empty()) {
      scenario::ResolvedScenario resolved;
      try {
        resolved =
            scenario::resolve_scenario_argument(cli.scenario, compile_options);
      } catch (const std::invalid_argument& error) {
        std::fprintf(stderr, "mrsc_compile: %s\n", error.what());
        return 2;
      }
      report.design = resolved.scenario.name;
      compiled = std::move(resolved.design);
    } else if (!cli.design.empty()) {
      report.design = cli.design;
      compiled = std::move(
          scenario::ScenarioRegistry::global()
              .resolve(cli.design, compile_options)
              .design);
    } else {
      report.design = cli.file;
      compiled.owned = std::make_unique<core::ReactionNetwork>(
          core::load_network(cli.file));
      compiled.network = compiled.owned.get();
      std::vector<core::SpeciesId> roots;
      for (const std::string& name : cli.roots) {
        const auto id = compiled.network->find_species(name);
        if (!id) {
          throw std::invalid_argument("--roots: no species named '" + name +
                                      "'");
        }
        roots.push_back(*id);
      }
      if (cli.opt == 0) {
        // Nothing to do, but still report the (identity) stats.
        report.before = core::compute_stats(*compiled.network);
        report.after = report.before;
      } else {
        auto result = compile::optimize_network(*compiled.network, roots);
        result.report.design = report.design;
        report = std::move(result.report);
      }
    }

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
    if (!cli.out.empty()) {
      core::save_network(*compiled.network, cli.out);
      std::printf("network written to %s\n", cli.out.c_str());
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
    std::fprintf(stderr, "mrsc_compile: %s\n", error.what());
    return 1;
  }
}
