// mrsc_batch — parallel batch runner for reaction-network files.
//
//   mrsc_batch FILE.crn [options]
//   mrsc_batch --scenario SPEC [options]
//
//   --scenario SPEC    run a registry scenario ("counter", "cascade(3)", or
//                      a .mrsc file) instead of a file; the scenario's sim
//                      budget supplies defaults for --method/--t-end/
//                      --record/--omega/--seed (explicit flags win)
//
// Two modes over the runtime's BatchRunner:
//
//   --mode ensemble (default): N independent SSA replicates of the network,
//     seeded deterministically (replicate i gets stream_seed(seed, i)), with
//     per-species mean/stddev/quantile statistics of the final state.
//   --mode sweep: a k_fast/k_slow ratio x rate-jitter grid of deterministic
//     ODE runs, one jittered network copy per grid point.
//
//   --jobs N           worker threads             (default: hardware)
//   --replicates R     ensemble size              (default 64)
//   --timeout S        per-job deadline, seconds  (default: none)
//   --seed S           base seed                  (default 1)
//   --t-end T          simulation horizon         (default 100)
//   --method M         ensemble: ssa|nrm|tau      (default nrm)
//                      sweep:    dp45|rk4|be      (default dp45)
//   --omega W          molecules per concentration unit (ensemble)
//   --record DT        sampling interval          (default t_end/200)
//   --tau T            leap length for tau-leaping
//   --dt H             sweep: step of rk4/be, first step of dp45
//                      (default 1e-3)
//   --ratios A,B,C     sweep ratios               (default 10,100,1000,10000)
//   --jitters A,B      sweep jitter factors       (default 1)
//   --species A,B,C    which species to report    (default all)
//   --retries N        extra attempts per failing job on the solver
//                      fallback ladder: a failure steps down one rung, a
//                      deadline retries the same rung (default 0); recovery
//                      logs land in --json
//   --opt              run the -O1 compile pipeline on the loaded network
//                      first (--species names are pinned as roots); the
//                      per-pass report is printed and lands in --json
//   --json PATH        write the results as one line of compact JSON
//
// Exit codes:
//   0  every job finished ok (possibly after retries)
//   1  at least one job failed / timed out / was quarantined (at any
//      --retries), or a runtime error (unreadable file, unwritable --json)
//   2  bad CLI usage: unknown flag, malformed value, unknown --species name
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "analysis/sweep.hpp"
#include "compile/passes.hpp"
#include "core/io.hpp"
#include "runtime/batch.hpp"
#include "runtime/ensemble.hpp"
#include "scenario/registry.hpp"
#include "sim/method.hpp"
#include "tools/cli_flags.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace {

using namespace mrsc;

using tools::need_value;
using tools::parse_double;
using tools::parse_u64;
using tools::write_file;
using util::json::Value;
constexpr char kTool[] = "mrsc_batch";

struct CliOptions {
  std::string file;
  std::string scenario;
  std::string mode = "ensemble";
  std::size_t jobs = 0;  // 0 -> hardware concurrency
  std::size_t replicates = 64;
  double timeout = 0.0;
  std::uint64_t seed = 1;
  double t_end = 100.0;
  std::string method;  // empty -> mode default
  double omega = 1000.0;
  double record = 0.0;  // 0 -> t_end / 200
  double tau = 0.01;
  double dt = 1e-3;
  std::vector<double> ratios = {10.0, 100.0, 1000.0, 10000.0};
  std::vector<double> jitters = {1.0};
  std::vector<std::string> species;
  std::size_t retries = 0;  // extra attempts beyond the first
  bool opt = false;
  std::string json;
  // Whether the user passed the flag explicitly; explicit flags beat the
  // scenario's sim budget.
  bool set_method = false;
  bool set_t_end = false;
  bool set_record = false;
  bool set_omega = false;
  bool set_seed = false;
  // Compile report from --opt, embedded in the --json output.
  std::optional<Value> compile_report;
};

void usage() {
  std::fprintf(
      stderr,
      "usage: mrsc_batch [FILE.crn | --scenario SPEC]\n"
      "       [--mode ensemble|sweep] [--jobs N]\n"
      "       [--replicates R] [--timeout S] [--seed S] [--t-end T]\n"
      "       [--method ssa|nrm|tau|dp45|rk4|be] [--omega W] [--record DT]\n"
      "       [--tau T] [--dt H] [--ratios A,B,C] [--jitters A,B]\n"
      "       [--species A,B,C] [--retries N] [--opt] [--json PATH]\n");
}

bool parse_double_list(const char* flag, const char* text,
                       std::vector<double>& out) {
  out.clear();
  for (const std::string& item : util::split_commas(text)) {
    double value = 0.0;
    if (!parse_double(kTool, flag, item.c_str(), value)) return false;
    out.push_back(value);
  }
  if (out.empty()) {
    std::fprintf(stderr, "mrsc_batch: %s needs at least one value\n", flag);
    return false;
  }
  return true;
}

bool parse_cli(int argc, char** argv, CliOptions& options) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const bool is_flag = std::strcmp(arg, "--opt") == 0;
    const bool takes_value = !is_flag && arg[0] == '-' && arg[1] == '-';
    const char* value = nullptr;
    if (takes_value && !(value = need_value(kTool, argc, argv, i))) {
      return false;
    }
    if (is_flag) {
      options.opt = true;
      continue;
    }
    if (std::strcmp(arg, "--mode") == 0) {
      options.mode = value;
    } else if (std::strcmp(arg, "--jobs") == 0) {
      std::uint64_t jobs = 0;
      if (!parse_u64(kTool, arg, value, jobs)) return false;
      options.jobs = static_cast<std::size_t>(jobs);
    } else if (std::strcmp(arg, "--replicates") == 0) {
      std::uint64_t replicates = 0;
      if (!parse_u64(kTool, arg, value, replicates)) return false;
      options.replicates = static_cast<std::size_t>(replicates);
    } else if (std::strcmp(arg, "--timeout") == 0) {
      if (!parse_double(kTool, arg, value, options.timeout)) return false;
    } else if (std::strcmp(arg, "--seed") == 0) {
      if (!parse_u64(kTool, arg, value, options.seed)) return false;
      options.set_seed = true;
    } else if (std::strcmp(arg, "--t-end") == 0) {
      if (!parse_double(kTool, arg, value, options.t_end)) return false;
      options.set_t_end = true;
    } else if (std::strcmp(arg, "--method") == 0) {
      options.method = value;
      options.set_method = true;
    } else if (std::strcmp(arg, "--omega") == 0) {
      if (!parse_double(kTool, arg, value, options.omega)) return false;
      options.set_omega = true;
    } else if (std::strcmp(arg, "--record") == 0) {
      if (!parse_double(kTool, arg, value, options.record)) return false;
      options.set_record = true;
    } else if (std::strcmp(arg, "--scenario") == 0) {
      options.scenario = value;
    } else if (std::strcmp(arg, "--tau") == 0) {
      if (!parse_double(kTool, arg, value, options.tau)) return false;
    } else if (std::strcmp(arg, "--dt") == 0) {
      if (!parse_double(kTool, arg, value, options.dt)) return false;
    } else if (std::strcmp(arg, "--ratios") == 0) {
      if (!parse_double_list(arg, value, options.ratios)) return false;
    } else if (std::strcmp(arg, "--jitters") == 0) {
      if (!parse_double_list(arg, value, options.jitters)) return false;
    } else if (std::strcmp(arg, "--species") == 0) {
      options.species = util::split_commas(value);
    } else if (std::strcmp(arg, "--retries") == 0) {
      std::uint64_t retries = 0;
      if (!parse_u64(kTool, arg, value, retries)) return false;
      options.retries = static_cast<std::size_t>(retries);
    } else if (std::strcmp(arg, "--json") == 0) {
      options.json = value;
    } else if (arg[0] == '-') {
      std::fprintf(stderr, "mrsc_batch: unknown option %s\n", arg);
      return false;
    } else if (options.file.empty()) {
      options.file = arg;
    } else {
      std::fprintf(stderr, "mrsc_batch: multiple input files\n");
      return false;
    }
  }
  if (options.file.empty() == options.scenario.empty()) {
    std::fprintf(stderr,
                 "mrsc_batch: give exactly one of FILE.crn or --scenario\n");
    usage();
    return false;
  }
  if (options.mode != "ensemble" && options.mode != "sweep") {
    std::fprintf(stderr, "mrsc_batch: --mode must be ensemble or sweep\n");
    return false;
  }
  if (options.t_end <= 0.0 || options.omega <= 0.0 || options.tau <= 0.0 ||
      options.dt <= 0.0) {
    std::fprintf(stderr,
                 "mrsc_batch: --t-end, --omega, --tau, --dt must be > 0\n");
    return false;
  }
  if (options.record < 0.0 || options.timeout < 0.0) {
    std::fprintf(stderr, "mrsc_batch: --record and --timeout must be >= 0\n");
    return false;
  }
  if (options.replicates == 0) {
    std::fprintf(stderr, "mrsc_batch: --replicates must be >= 1\n");
    return false;
  }
  for (const double ratio : options.ratios) {
    if (ratio <= 0.0) {
      std::fprintf(stderr, "mrsc_batch: --ratios must be > 0\n");
      return false;
    }
  }
  for (const double jitter : options.jitters) {
    if (jitter < 1.0) {
      std::fprintf(stderr, "mrsc_batch: --jitters must be >= 1\n");
      return false;
    }
  }
  return true;
}

std::vector<core::SpeciesId> resolve_species(
    const core::ReactionNetwork& network,
    const std::vector<std::string>& names) {
  std::vector<core::SpeciesId> ids;
  if (names.empty()) {
    for (std::size_t i = 0; i < network.species_count(); ++i) {
      ids.push_back(
          core::SpeciesId{static_cast<core::SpeciesId::underlying_type>(i)});
    }
    return ids;
  }
  for (const std::string& name : names) {
    const auto id = network.find_species(name);
    if (!id) {
      throw std::invalid_argument("unknown species '" + name + "'");
    }
    ids.push_back(*id);
  }
  return ids;
}

// Starts a --json report: the mode, then the --opt compile report if any.
Value report_header(const char* mode, const CliOptions& cli) {
  Value json;
  json.set("mode", Value(mode));
  if (cli.compile_report) json.set("compile", *cli.compile_report);
  return json;
}

// A job's ladder history, or null when its first attempt succeeded.
Value recovery_value(const runtime::JobResult& job) {
  return job.recovery.attempts.empty() ? Value() : job.recovery.to_value();
}

// Writes a --json report as one line of compact JSON.
bool write_report(const CliOptions& cli, const Value& json) {
  return write_file(kTool, cli.json, json.dump() + "\n", "results");
}

int run_ensemble(const core::ReactionNetwork& network,
                 const CliOptions& cli) {
  sim::SsaOptions ssa;
  ssa.t_end = cli.t_end;
  ssa.omega = cli.omega;
  ssa.tau = cli.tau;
  ssa.record_interval = cli.record > 0.0 ? cli.record : cli.t_end / 200.0;
  const std::string method = cli.method.empty() ? "nrm" : cli.method;
  const std::optional<sim::SimMethod> parsed = sim::parse_method(method);
  const auto* ssa_method =
      parsed ? std::get_if<sim::SsaMethod>(&*parsed) : nullptr;
  if (ssa_method == nullptr) {
    std::fprintf(stderr,
                 "mrsc_batch: ensemble --method must be ssa|nrm|tau\n");
    return 2;
  }
  ssa.method = *ssa_method;

  runtime::EnsembleOptions options;
  options.replicates = cli.replicates;
  options.base_seed = cli.seed;
  options.batch.threads = cli.jobs;
  options.batch.timeout_seconds = cli.timeout;
  options.batch.max_attempts = cli.retries + 1;

  const runtime::EnsembleResult result =
      runtime::run_ssa_ensemble(network, ssa, options);
  const std::vector<core::SpeciesId> report =
      resolve_species(network, cli.species);

  std::printf(
      "ensemble: %zu replicates (%s, omega=%g, t_end=%g) on %zu worker(s)\n"
      "          %zu ok, %zu failed, %zu timeout, %zu cancelled, "
      "%zu quarantined in %.3fs (%.1f jobs/s)\n",
      options.replicates, method.c_str(), ssa.omega, ssa.t_end,
      runtime::BatchRunner(options.batch).options().threads, result.ok,
      result.failed, result.timed_out, result.cancelled, result.quarantined,
      result.wall_seconds,
      static_cast<double>(options.replicates) /
          std::max(result.wall_seconds, 1e-12));
  std::printf("final state over ok replicates:\n");
  std::printf("  %-20s %12s %12s %12s %12s %12s\n", "species", "mean",
              "stddev", "q05", "median", "q95");
  for (const core::SpeciesId id : report) {
    const runtime::SpeciesStats& stats = result.final_stats[id.index()];
    std::printf("  %-20s %12.6g %12.6g %12.6g %12.6g %12.6g\n",
                stats.name.c_str(), stats.mean, stats.stddev, stats.q05,
                stats.q50, stats.q95);
  }
  // Name every non-ok replicate with the seed that reruns it
  // (`--seed <seed> --replicates 1` reproduces the exact trajectory).
  for (std::size_t i = 0; i < result.replicates.size(); ++i) {
    const runtime::JobResult& job = result.replicates[i];
    if (job.status == runtime::JobStatus::kOk) continue;
    std::fprintf(stderr, "mrsc_batch: replicate %zu (seed %llu) %s%s%s\n", i,
                 static_cast<unsigned long long>(job.seed),
                 runtime::to_string(job.status),
                 job.error.empty() ? "" : ": ", job.error.c_str());
  }

  if (!cli.json.empty()) {
    Value json = report_header("ensemble", cli);
    json.set("replicates", Value(options.replicates));
    json.set("base_seed", Value(options.base_seed));
    json.set("method", Value(method));
    json.set("ok", Value(result.ok));
    json.set("failed", Value(result.failed));
    json.set("timeout", Value(result.timed_out));
    json.set("cancelled", Value(result.cancelled));
    json.set("quarantined", Value(result.quarantined));
    json.set("wall_seconds", Value(result.wall_seconds));
    Value species;
    species.make_array();
    for (const core::SpeciesId id : report) {
      species.array().push_back(result.final_stats[id.index()].to_value());
    }
    json.set("species", std::move(species));
    // Per-replicate arrays in job order, so they line up with the seeds:
    // status, seed, attempts and the ladder history of every replicate
    // that failed an attempt (null for clean first-try successes).
    // (--replicates >= 1, so none of them is empty.)
    Value status, seeds, attempts, recovery;
    for (const runtime::JobResult& job : result.replicates) {
      status.array().emplace_back(runtime::to_string(job.status));
      seeds.array().emplace_back(job.seed);
      attempts.array().emplace_back(job.attempts);
      recovery.array().push_back(recovery_value(job));
    }
    json.set("replicate_status", std::move(status));
    json.set("replicate_seeds", std::move(seeds));
    json.set("replicate_attempts", std::move(attempts));
    json.set("recovery", std::move(recovery));
    if (!write_report(cli, json)) return 1;
  }
  return result.ok == result.replicates.size() ? 0 : 1;
}

int run_sweep(const core::ReactionNetwork& network, const CliOptions& cli) {
  const std::optional<sim::SimMethod> parsed =
      sim::parse_method(cli.method.empty() ? "dp45" : cli.method);
  const auto* ode_method =
      parsed ? std::get_if<sim::OdeMethod>(&*parsed) : nullptr;
  if (ode_method == nullptr) {
    std::fprintf(stderr, "mrsc_batch: sweep --method must be dp45|rk4|be\n");
    return 2;
  }
  sim::OdeOptions ode;
  ode.t_end = cli.t_end;
  ode.dt = cli.dt;
  ode.record_interval = cli.record > 0.0 ? cli.record : cli.t_end / 200.0;
  ode.method = *ode_method;

  // One jittered network copy per grid point; the jobs reference them.
  struct GridPoint {
    double ratio;
    double jitter;
    std::uint64_t seed;
  };
  std::vector<GridPoint> grid;
  for (const double ratio : cli.ratios) {
    for (const double jitter : cli.jitters) {
      grid.push_back({ratio, jitter,
                      util::Rng::stream_seed(cli.seed, grid.size())});
    }
  }
  std::vector<core::ReactionNetwork> networks(grid.size(), network);
  std::vector<runtime::SimJob> jobs(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    core::RatePolicy policy = network.rate_policy();
    policy.k_fast = grid[i].ratio * policy.k_slow;
    networks[i].set_rate_policy(policy);
    if (grid[i].jitter > 1.0) {
      util::Rng rng(grid[i].seed);
      analysis::apply_rate_jitter(networks[i], grid[i].jitter, rng);
    }
    jobs[i].network = &networks[i];
    jobs[i].kind = runtime::SimKind::kOde;
    jobs[i].ode = ode;
  }

  runtime::BatchOptions batch;
  batch.threads = cli.jobs;
  batch.timeout_seconds = cli.timeout;
  batch.max_attempts = cli.retries + 1;
  runtime::BatchRunner runner(batch);
  const std::vector<runtime::JobResult> results = runner.run(jobs);
  const std::vector<core::SpeciesId> report =
      resolve_species(network, cli.species);

  std::printf("sweep: %zu points on %zu worker(s)\n", grid.size(),
              runner.options().threads);
  std::printf("  %-14s %-8s %-10s %-10s", "k_fast/k_slow", "jitter",
              "status", "wall [s]");
  for (const core::SpeciesId id : report) {
    std::printf(" %12s", network.species_name(id).c_str());
  }
  std::printf("\n");
  std::size_t failures = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const runtime::JobResult& job = results[i];
    if (job.status != runtime::JobStatus::kOk) ++failures;
    std::printf("  %-14g %-8g %-10s %-10.3f", grid[i].ratio, grid[i].jitter,
                runtime::to_string(job.status), job.wall_seconds);
    for (const core::SpeciesId id : report) {
      if (id.index() < job.final_state.size()) {
        std::printf(" %12.6g", job.final_state[id.index()]);
      } else {
        std::printf(" %12s", "-");
      }
    }
    std::printf("\n");
    if (job.status != runtime::JobStatus::kOk) {
      std::fprintf(stderr,
                   "mrsc_batch: sweep point %zu (ratio %g jitter %g seed "
                   "%llu) %s%s%s\n",
                   i, grid[i].ratio, grid[i].jitter,
                   static_cast<unsigned long long>(grid[i].seed),
                   runtime::to_string(job.status),
                   job.error.empty() ? "" : ": ", job.error.c_str());
    }
  }

  if (!cli.json.empty()) {
    Value json = report_header("sweep", cli);
    Value points;
    points.make_array();
    for (std::size_t i = 0; i < results.size(); ++i) {
      const runtime::JobResult& job = results[i];
      Value point;
      point.set("ratio", Value(grid[i].ratio));
      point.set("jitter", Value(grid[i].jitter));
      point.set("seed", Value(grid[i].seed));
      point.set("status", Value(runtime::to_string(job.status)));
      point.set("wall_seconds", Value(job.wall_seconds));
      point.set("attempts", Value(job.attempts));
      point.set("recovery", recovery_value(job));
      point.append_members(job.to_value(network, report));
      points.array().push_back(std::move(point));
    }
    json.set("points", std::move(points));
    if (!write_report(cli, json)) return 1;
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  if (!parse_cli(argc, argv, cli)) return 2;
  core::ReactionNetwork network;
  std::string label = cli.file;
  if (!cli.scenario.empty()) {
    try {
      scenario::ResolvedScenario resolved =
          scenario::resolve_scenario_argument(cli.scenario);
      network = std::move(*resolved.design.network);
      label = resolved.scenario.name;
      const scenario::SimBudget& budget = resolved.scenario.sim;
      if (!cli.set_method && budget.method) cli.method = *budget.method;
      if (!cli.set_t_end && budget.t_end) cli.t_end = *budget.t_end;
      if (!cli.set_record && budget.record) cli.record = *budget.record;
      if (!cli.set_omega && budget.omega) cli.omega = *budget.omega;
      if (!cli.set_seed && budget.seed) cli.seed = *budget.seed;
      std::printf("scenario %s: %zu species, %zu reactions\n", label.c_str(),
                  network.species_count(), network.reaction_count());
    } catch (const std::invalid_argument& error) {
      std::fprintf(stderr, "mrsc_batch: %s\n", error.what());
      return 2;
    } catch (const std::exception& error) {
      std::fprintf(stderr, "mrsc_batch: %s\n", error.what());
      return 1;
    }
  }
  try {
    if (!cli.file.empty()) {
      network = core::load_network(cli.file);
      std::printf("loaded %s: %zu species, %zu reactions\n", cli.file.c_str(),
                  network.species_count(), network.reaction_count());
    }
    if (cli.opt) {
      // Resolve --species against the unoptimized network and pin them as
      // roots so everything the user asked to see survives optimization.
      std::vector<core::SpeciesId> roots;
      for (const std::string& name : cli.species) {
        const auto id = network.find_species(name);
        if (!id) {
          std::fprintf(stderr, "mrsc_batch: --species: no species named '%s'\n",
                       name.c_str());
          return 2;
        }
        roots.push_back(*id);
      }
      auto optimized = compile::optimize_network(network, roots);
      optimized.report.design = label;
      std::printf("%s", optimized.report.to_table().c_str());
      cli.compile_report = optimized.report.to_value();
    }
    // A --species typo is bad usage (exit 2), not a job failure (exit 1):
    // validate the names before any simulation runs.
    try {
      (void)resolve_species(network, cli.species);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "mrsc_batch: --species: %s\n", error.what());
      return 2;
    }
    return cli.mode == "ensemble" ? run_ensemble(network, cli)
                                  : run_sweep(network, cli);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "mrsc_batch: %s\n", error.what());
    return 1;
  }
}
