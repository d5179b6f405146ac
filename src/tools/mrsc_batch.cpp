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
//   --opt              load the design at -O1 (tools/cli_design.hpp: a
//                      registry design keeps its ports, a FILE.crn or
//                      inline network its @roots and the --species names);
//                      the per-pass report is printed and lands in --json
//   --json PATH        write the results as one line of compact JSON
//
// Exit codes:
//   0  every job finished ok (possibly after retries)
//   1  at least one job failed / timed out / was quarantined (at any
//      --retries), or a runtime error (unreadable file, unwritable --json)
//   2  bad CLI usage: unknown flag, malformed value or file, unknown design
//      or --species name
#include <algorithm>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "analysis/sweep.hpp"
#include "runtime/batch.hpp"
#include "runtime/ensemble.hpp"
#include "sim/method.hpp"
#include "tools/cli_design.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace {

using namespace mrsc;

using tools::write_file;
using util::json::Value;
constexpr char kTool[] = "mrsc_batch";

struct CliOptions {
  std::string mode = "ensemble";
  std::size_t jobs = 0;  // 0 -> hardware concurrency
  std::size_t replicates = 64;
  double timeout = 0.0;
  tools::SimFlags sim;  // an empty method is the mode's default
  std::vector<double> ratios = {10.0, 100.0, 1000.0, 10000.0};
  std::vector<double> jitters = {1.0};
  std::size_t retries = 0;  // extra attempts beyond the first
  std::string json;
  tools::GivenFlags given;
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

bool parse_cli(int argc, char** argv, CliOptions& options) {
  tools::FlagParser flags(kTool, {
      {"--mode", options.mode},
      {"--jobs", options.jobs},
      {"--replicates", options.replicates},
      {"--timeout", options.timeout},
      {"--ratios", options.ratios},
      {"--jitters", options.jitters},
      {"--retries", options.retries},
      {"--json", options.json},
  });
  options.sim.add_to(flags);
  if (!flags.parse(argc, argv)) return false;
  options.given = flags.given();
  if (options.mode != "ensemble" && options.mode != "sweep") {
    std::fprintf(stderr, "mrsc_batch: --mode must be ensemble or sweep\n");
    return false;
  }
  if (!options.sim.check(kTool)) return false;
  if (options.timeout < 0.0) {
    std::fprintf(stderr, "mrsc_batch: --timeout must be >= 0 (got %g)\n",
                 options.timeout);
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

// Starts a --json report: the mode, then the --opt compile report if any.
Value report_header(const char* mode, const tools::LoadedDesign& loaded,
                    const CliOptions& cli) {
  Value json;
  json.set("mode", Value(mode));
  if (cli.sim.opt) json.set("compile", loaded.report.to_value());
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

int run_ensemble(const tools::LoadedDesign& loaded, const CliOptions& cli) {
  const core::ReactionNetwork& network = loaded.network();
  const std::string method = cli.sim.method.empty() ? "nrm" : cli.sim.method;
  const std::optional<sim::SimMethod> parsed = sim::parse_method(method);
  const auto* ssa_method =
      parsed ? std::get_if<sim::SsaMethod>(&*parsed) : nullptr;
  if (ssa_method == nullptr) {
    throw std::invalid_argument("ensemble --method must be ssa|nrm|tau");
  }
  const sim::SsaOptions ssa = cli.sim.ssa(*ssa_method);

  runtime::EnsembleOptions options;
  options.replicates = cli.replicates;
  options.base_seed = cli.sim.seed;
  options.batch.threads = cli.jobs;
  options.batch.timeout_seconds = cli.timeout;
  options.batch.max_attempts = cli.retries + 1;

  const runtime::EnsembleResult result =
      runtime::run_ssa_ensemble(network, ssa, options);
  const std::vector<core::SpeciesId> report = loaded.reported();

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
    Value json = report_header("ensemble", loaded, cli);
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

int run_sweep(const tools::LoadedDesign& loaded, const CliOptions& cli) {
  const core::ReactionNetwork& network = loaded.network();
  const std::optional<sim::SimMethod> parsed =
      sim::parse_method(cli.sim.method.empty() ? "dp45" : cli.sim.method);
  const auto* ode_method =
      parsed ? std::get_if<sim::OdeMethod>(&*parsed) : nullptr;
  if (ode_method == nullptr) {
    throw std::invalid_argument("sweep --method must be dp45|rk4|be");
  }
  const sim::OdeOptions ode = cli.sim.ode(*ode_method);

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
                      util::Rng::stream_seed(cli.sim.seed, grid.size())});
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
  const std::vector<core::SpeciesId> report = loaded.reported();

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
    Value json = report_header("sweep", loaded, cli);
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

int run(CliOptions& cli) {
  const tools::LoadedDesign loaded = cli.sim.load(cli.given);
  return cli.mode == "ensemble" ? run_ensemble(loaded, cli)
                                : run_sweep(loaded, cli);
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
