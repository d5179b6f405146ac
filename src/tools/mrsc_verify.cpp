// mrsc_verify — differential-testing and property-fuzzing CLI.
//
//   mrsc_verify [options]
//
// Sweeps seeds over the structured random-case generator (raw networks,
// synchronous circuits, dual-rail circuits, FSMs, counters), runs every
// applicable invariant/differential oracle, and shrinks any failing network
// to a minimal repro. A clean run prints per-kind counts and exits 0; any
// violation prints the shrunk repro plus the exact command to reproduce it
// and exits 1.
//
// A second mode targets one design instead of the random generator:
//
//   mrsc_verify --scenario SPEC [options]
//
// resolves the scenario ("counter", "cascade(3)", or a .mrsc file) through
// the registry and sweeps the optimized-vs-unoptimized equivalence oracle
// over its network with the design's ports pinned as roots, one run per
// seed in [start-seed, start-seed + seeds); the seed is the base seed of the
// run's SSA-ensemble leg. The scenario's verify budget supplies
// default --seeds/--start-seed (explicit flags win; bare specs default to
// seeds=3, start-seed=1).
//
//   --seeds N          number of cases              (default 50)
//   --start-seed S     first seed                   (default 0)
//   --kinds A,B,C      subset of raw,sync,dual,fsm,counter (default all)
//   --cycles N         clock cycles per clocked case (default 3)
//   --replicates R     SSA replicates per ensemble  (default 16)
//   --omega W          molecules per concentration unit (default 300)
//   --threads N        worker threads               (default 1; 0 = hardware)
//   --no-shrink        report failures unshrunk
//   --no-differential  skip the SSA-ensemble oracles on raw cases
//   --no-opt-equivalence  skip the kO1 compile-pipeline equivalence oracle
//   --json PATH        machine-readable failure report
//   --regen-golden DIR recompute the golden traces into DIR and exit
//   --verbose          print every case, not just failures
//
// Exits 0 on a clean sweep, 1 on violations, 2 on usage errors.
#include <cstdio>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "scenario/registry.hpp"
#include "tools/cli_flags.hpp"
#include "util/json.hpp"
#include "verify/golden.hpp"
#include "verify/opt_equivalence.hpp"
#include "verify/verify.hpp"

namespace {

using namespace mrsc;

using tools::need_value;
using tools::parse_double;
using tools::parse_u64;
using tools::write_file;
using util::json::Value;
constexpr char kTool[] = "mrsc_verify";

struct CliOptions {
  verify::VerifyOptions verify;
  std::string kinds_csv;
  std::string scenario;
  std::string json;
  std::string regen_golden;
  bool verbose = false;
  // Whether the user passed the flag explicitly; explicit flags beat the
  // scenario's verify budget.
  bool set_seeds = false;
  bool set_start_seed = false;
};

void usage() {
  std::fprintf(
      stderr,
      "usage: mrsc_verify [--scenario SPEC]\n"
      "       [--seeds N] [--start-seed S] [--kinds A,B,C]\n"
      "       [--cycles N] [--replicates R] [--omega W] [--threads N]\n"
      "       [--no-shrink] [--no-differential] [--no-opt-equivalence]\n"
      "       [--json PATH] [--regen-golden DIR] [--verbose]\n"
      "       kinds: raw,sync,dual,fsm,counter\n");
}

bool parse_cli(int argc, char** argv, CliOptions& options) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const bool is_flag = std::strcmp(arg, "--no-shrink") == 0 ||
                         std::strcmp(arg, "--no-differential") == 0 ||
                         std::strcmp(arg, "--no-opt-equivalence") == 0 ||
                         std::strcmp(arg, "--verbose") == 0;
    const bool takes_value = !is_flag && arg[0] == '-' && arg[1] == '-';
    const char* value = nullptr;
    if (takes_value && !(value = need_value(kTool, argc, argv, i))) {
      return false;
    }
    if (std::strcmp(arg, "--seeds") == 0) {
      std::uint64_t seeds = 0;
      if (!parse_u64(kTool, arg, value, seeds)) return false;
      options.verify.seeds = static_cast<std::size_t>(seeds);
      options.set_seeds = true;
    } else if (std::strcmp(arg, "--start-seed") == 0) {
      if (!parse_u64(kTool, arg, value, options.verify.start_seed)) {
        return false;
      }
      options.set_start_seed = true;
    } else if (std::strcmp(arg, "--scenario") == 0) {
      options.scenario = value;
    } else if (std::strcmp(arg, "--kinds") == 0) {
      options.kinds_csv = value;
    } else if (std::strcmp(arg, "--cycles") == 0) {
      std::uint64_t cycles = 0;
      if (!parse_u64(kTool, arg, value, cycles)) return false;
      options.verify.generator.cycles = static_cast<std::size_t>(cycles);
    } else if (std::strcmp(arg, "--replicates") == 0) {
      std::uint64_t replicates = 0;
      if (!parse_u64(kTool, arg, value, replicates)) return false;
      options.verify.ssa_replicates = static_cast<std::size_t>(replicates);
    } else if (std::strcmp(arg, "--omega") == 0) {
      if (!parse_double(kTool, arg, value, options.verify.omega)) return false;
    } else if (std::strcmp(arg, "--threads") == 0) {
      std::uint64_t threads = 0;
      if (!parse_u64(kTool, arg, value, threads)) return false;
      options.verify.threads = static_cast<std::size_t>(threads);
    } else if (std::strcmp(arg, "--no-shrink") == 0) {
      options.verify.shrink = false;
    } else if (std::strcmp(arg, "--no-differential") == 0) {
      options.verify.differential = false;
    } else if (std::strcmp(arg, "--no-opt-equivalence") == 0) {
      options.verify.opt_equivalence = false;
    } else if (std::strcmp(arg, "--verbose") == 0) {
      options.verbose = true;
    } else if (std::strcmp(arg, "--json") == 0) {
      options.json = value;
    } else if (std::strcmp(arg, "--regen-golden") == 0) {
      options.regen_golden = value;
    } else {
      std::fprintf(stderr, "mrsc_verify: unknown option %s\n", arg);
      return false;
    }
  }
  if (options.regen_golden.empty() && options.verify.seeds == 0) {
    std::fprintf(stderr, "mrsc_verify: --seeds must be >= 1\n");
    return false;
  }
  if (options.verify.omega <= 0.0) {
    std::fprintf(stderr, "mrsc_verify: --omega must be > 0\n");
    return false;
  }
  if (options.verify.generator.cycles == 0 ||
      options.verify.ssa_replicates == 0) {
    std::fprintf(stderr,
                 "mrsc_verify: --cycles and --replicates must be >= 1\n");
    return false;
  }
  try {
    options.verify.kinds = verify::parse_kinds(options.kinds_csv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mrsc_verify: %s\n", e.what());
    return false;
  }
  return true;
}

// --scenario mode: sweep the opt-equivalence oracle (with its SSA-ensemble
// leg) over one resolved design, one run per seed. The scenario's sim budget
// shapes the oracle run (horizon, sampling grid, omega); its verify budget
// sets the seed sweep.
int run_scenario_verify(const CliOptions& cli) {
  scenario::ResolvedScenario resolved;
  try {
    resolved = scenario::resolve_scenario_argument(cli.scenario);
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "mrsc_verify: %s\n", error.what());
    return 2;
  }
  const scenario::VerifyBudget& budget = resolved.scenario.verify;
  const std::size_t seeds =
      cli.set_seeds ? cli.verify.seeds
                    : static_cast<std::size_t>(budget.seeds.value_or(3));
  const std::uint64_t start_seed =
      cli.set_start_seed ? cli.verify.start_seed : budget.start_seed.value_or(1);

  verify::OptEquivalenceOptions oracle;
  oracle.ssa = true;
  const scenario::SimBudget& sim = resolved.scenario.sim;
  if (sim.t_end) oracle.t_end = *sim.t_end;
  if (sim.record) oracle.record_interval = *sim.record;
  if (sim.omega) oracle.omega = *sim.omega;

  const core::ReactionNetwork& network = *resolved.design.network;
  std::vector<core::SpeciesId> roots;
  for (const auto& [id, role] : resolved.design.info.roots) {
    roots.push_back(id);
  }
  std::printf("scenario %s: %zu species, %zu reactions; opt-equivalence "
              "sweep over seeds [%llu, %llu)\n",
              resolved.scenario.name.c_str(), network.species_count(),
              network.reaction_count(),
              static_cast<unsigned long long>(start_seed),
              static_cast<unsigned long long>(start_seed + seeds));
  std::size_t failed = 0;
  for (std::size_t i = 0; i < seeds; ++i) {
    oracle.base_seed = start_seed + i;
    const std::vector<verify::Violation> violations =
        verify::check_optimization_equivalence(network, roots, oracle);
    if (!violations.empty()) {
      ++failed;
      for (const verify::Violation& violation : violations) {
        std::printf("seed %llu: %s: %s\n",
                    static_cast<unsigned long long>(oracle.base_seed),
                    violation.oracle.c_str(), violation.detail.c_str());
      }
    } else if (cli.verbose) {
      std::printf("seed %llu: ok\n",
                  static_cast<unsigned long long>(oracle.base_seed));
    }
  }
  std::printf("%zu/%zu seeds clean: %s\n", seeds - failed, seeds,
              failed == 0 ? "optimized and original networks agree"
                          : "OPTIMIZATION DIVERGENCE — see above");
  return failed == 0 ? 0 : 1;
}

int regen_golden(const std::string& dir) {
  const auto traces = verify::compute_reference_traces();
  for (const verify::GoldenTrace& trace : traces) {
    const std::string path = dir + "/" + trace.name + ".golden";
    verify::save_golden(trace, path);
    std::printf("wrote %s (%zu rows, tolerance %g)\n", path.c_str(),
                trace.rows.size(), trace.tolerance);
  }
  return 0;
}

int write_json(const std::string& path, const verify::FuzzReport& report) {
  Value failures;
  failures.make_array();
  for (const verify::CaseResult& result : report.cases) {
    if (!result.failed()) continue;
    Value entry;
    entry.set("seed", Value(result.seed));
    entry.set("kind", Value(verify::to_string(result.kind)));
    Value violations;
    violations.make_array();
    for (const verify::Violation& violation : result.violations) {
      Value row;
      row.set("oracle", Value(violation.oracle));
      row.set("detail", Value(violation.detail));
      violations.array().push_back(std::move(row));
    }
    entry.set("violations", std::move(violations));
    entry.set("shrunk", Value(result.shrunk));
    if (result.shrunk) {
      entry.set("shrunk_reactions",
                Value(std::uint64_t{result.shrunk_reactions}));
      entry.set("repro", Value(result.repro));
    }
    failures.array().push_back(std::move(entry));
  }
  Value json;
  json.set("checked", Value(std::uint64_t{report.checked}));
  json.set("failed", Value(std::uint64_t{report.failed}));
  json.set("wall_seconds", Value(report.wall_seconds));
  json.set("failures", std::move(failures));
  return write_file(kTool, path, json.dump() + "\n", "report") ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  if (!parse_cli(argc, argv, cli)) {
    usage();
    return 2;
  }
  try {
    if (!cli.regen_golden.empty()) return regen_golden(cli.regen_golden);
    if (!cli.scenario.empty()) return run_scenario_verify(cli);

    const verify::FuzzReport report = verify::run_fuzz(cli.verify);

    std::map<std::string, std::size_t> per_kind;
    std::map<std::string, std::size_t> per_kind_failed;
    for (const verify::CaseResult& result : report.cases) {
      ++per_kind[verify::to_string(result.kind)];
      if (result.failed()) ++per_kind_failed[verify::to_string(result.kind)];
      if (cli.verbose || result.failed()) {
        std::printf("%s\n", verify::describe(result).c_str());
      }
    }
    std::printf("checked %zu cases in %.1fs:", report.checked,
                report.wall_seconds);
    for (const auto& [kind, count] : per_kind) {
      std::printf(" %s=%zu", kind.c_str(), count);
      if (per_kind_failed.count(kind) > 0) {
        std::printf("(%zu FAILED)", per_kind_failed[kind]);
      }
    }
    std::printf("\n%s\n",
                report.failed == 0
                    ? "all oracles passed"
                    : "VIOLATIONS FOUND — see repros above");
    if (!cli.json.empty()) {
      const int rc = write_json(cli.json, report);
      if (rc != 0) return rc;
    }
    return report.failed == 0 ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "mrsc_verify: %s\n", error.what());
    return 1;
  }
}
