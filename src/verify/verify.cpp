#include "verify/verify.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <sstream>

#include "analysis/decode.hpp"
#include "core/io.hpp"
#include "logic/netlist.hpp"
#include "runtime/batch.hpp"
#include "runtime/ensemble.hpp"
#include "sim/ode.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "verify/lint_oracle.hpp"

namespace mrsc::verify {
namespace {

using core::ReactionNetwork;

using util::format;

void add(std::vector<Violation>& out, MaybeViolation v) {
  if (v) out.push_back(std::move(*v));
}

/// Free-run horizon: a few clock periods is enough for the token invariants,
/// and it's what keeps shrink predicates cheap.
double free_run_t_end(const core::RatePolicy& policy) {
  const double period_guess = 15.0 * sync::ClockSpec{}.phase_stretch /
                              policy.k_slow;
  return 3.5 * period_guess;
}

/// Circuit-vs-reference tolerances of dual-rail circuits and of the
/// rate-robustness re-run, wider than the single-rail kFunctionalTolerance
/// (docs/VERIFY.md gives the rationale).
constexpr double kDualFunctionalTolerance = 0.08;
constexpr double kRobustFunctionalTolerance = 0.12;

/// Bias of the ODE-vs-SSA and direct-vs-NRM CLT bands: absorbs the
/// O(1/omega) systematic gap between an SSA mean and the deterministic ODE
/// limit.
constexpr double kFiniteOmegaBias = 0.05;

/// An alternative fast/slow ratio for the rate-robustness oracle, sampled
/// per seed (the default policy is 1000).
double robustness_ratio(std::uint64_t seed) {
  constexpr double kRatios[] = {300.0, 3000.0};
  return kRatios[seed % 2];
}

/// Polled between the oracles of one case, so a stop lands within one
/// oracle's simulation (each also carries the hook as its `abort`).
void poll(const VerifyOptions& o) {
  if (o.abort && o.abort()) throw VerifyAborted();
}

const sync::ClockHandles* clock_of(const GeneratedCase& c) {
  return c.clocked.decoder ? &*c.clocked.decoder->clock : nullptr;
}

std::span<const std::pair<core::SpeciesId, core::SpeciesId>> rails_of(
    const GeneratedCase& c) {
  if (const auto* dual = std::get_if<DualRailCase>(&c.payload)) {
    return dual->rail_pairs;
  }
  return {};
}

// --- optimization equivalence ------------------------------------------------

/// Proves the kO1 pipeline trajectory-preserving on this case's network with
/// the given interface pinned as roots.
void check_opt(std::vector<Violation>& out, const ReactionNetwork& network,
               std::span<const core::SpeciesId> roots, std::uint64_t seed,
               const VerifyOptions& o, bool ssa) {
  if (!o.opt_equivalence) return;
  poll(o);
  OptEquivalenceOptions eq;
  eq.t_end = ssa ? 2.0 : free_run_t_end(network.rate_policy());
  eq.ssa = ssa;
  eq.omega = o.omega;
  eq.replicates = std::min<std::size_t>(o.ssa_replicates, 8);
  eq.base_seed = util::Rng::stream_seed(seed, 0xEC);
  const auto found = check_optimization_equivalence(network, roots, eq);
  out.insert(out.end(), found.begin(), found.end());
}

// --- clocked cases -----------------------------------------------------------

/// The oracles of every clocked kind: drive the decoder's stimulus, check
/// the decoded output and the trajectory invariants, re-run circuits under
/// another rate ratio, and prove the optimizer on the case's interface.
std::vector<Violation> check_clocked(const GeneratedCase& c,
                                     const VerifyOptions& o) {
  std::vector<Violation> out;
  const ClockedCase& clocked = c.clocked;
  const analysis::Decoder& decoder = *clocked.decoder;
  const ReactionNetwork& network = c.network();
  const bool circuit = c.kind == CaseKind::kSyncCircuit ||
                       c.kind == CaseKind::kDualRailCircuit;
  const bool dual = c.kind == CaseKind::kDualRailCircuit;
  const char* oracle = c.kind == CaseKind::kSyncCircuit  ? "sync_functional"
                       : dual                            ? "dual_functional"
                       : c.kind == CaseKind::kFsm        ? "fsm_reference"
                                                         : "counter_reference";
  sim::OdeOptions ode;
  // Dual-rail circuits normalize their rails every cycle and need the room.
  ode.t_end = (dual ? 2.0 : 1.0) *
              decoder.t_end(network.rate_policy(), clocked.stimulus.size());
  ode.abort = o.abort;
  const analysis::DecodedRun run =
      analysis::run_decoded(network, ode, decoder, clocked.stimulus);
  add(out, check_decoded(oracle, run, decoder,
                         dual ? kDualFunctionalTolerance
                              : kFunctionalTolerance));
  if (const auto* machine = std::get_if<FsmCase>(&c.payload)) {
    // Minimization must preserve behaviour exactly (pure differential, no
    // simulation involved).
    const fsm::MinimizationResult minimized = fsm::minimize(machine->spec);
    const std::vector<double> outputs =
        analysis::FsmDecoder(minimized.spec, machine->handles)
            .reference(clocked.stimulus)[1];
    for (std::size_t i = 0; i < outputs.size(); ++i) {
      if (outputs[i] != run.expected[1][i]) {
        out.push_back(
            {"fsm_minimize",
             format("cycle %zu: minimized machine output %.0f vs original "
                    "%.0f (%zu -> %zu states)",
                    i, outputs[i], run.expected[1][i],
                    machine->spec.num_states, minimized.spec.num_states)});
        break;
      }
    }
  }
  if (const auto* counter = std::get_if<CounterCase>(&c.payload)) {
    // The decoder's arithmetic reference must agree with the independent
    // gate-level counter (pure differential, no simulation).
    const logic::Netlist golden = logic::make_counter_netlist(
        counter->spec.bits, counter->spec.initial_value);
    logic::Simulation sim(golden);
    for (std::size_t i = 0; i < run.expected[0].size(); ++i) {
      sim.set_input(*golden.find("enable"), clocked.stimulus[i] != 0.0);
      sim.evaluate();
      sim.clock_edge();
      sim.evaluate();
      const auto gate = static_cast<double>(sim.output_word());
      if (run.expected[0][i] == gate) continue;
      out.push_back({"counter_netlist",
                     format("increment %zu: counter reference %.0f vs "
                            "gate-level %.0f",
                            i, run.expected[0][i], gate)});
      break;
    }
  }
  poll(o);
  add(out, check_non_negative(network, run.ode.trajectory));
  add(out, check_conservation(network, run.ode.trajectory, decoder.driven));
  add(out, check_clock_phase_token(*decoder.clock, run.ode.trajectory));
  if (dual) {
    add(out,
        check_dual_rail_exclusive(network, run.ode.trajectory, rails_of(c)));
  }
  if (circuit && o.robustness && c.seed % 4 == 0) {
    poll(o);
    ReactionNetwork alt = network;
    core::RatePolicy policy = alt.rate_policy();
    policy.k_fast = policy.k_slow * robustness_ratio(c.seed);
    alt.set_rate_policy(policy);
    const analysis::DecodedRun rerun =
        analysis::run_decoded(alt, ode, decoder, clocked.stimulus);
    add(out, check_decoded("rate_robustness", rerun, decoder,
                           kRobustFunctionalTolerance));
  }
  std::vector<core::SpeciesId> roots = decoder.driven;
  roots.insert(roots.end(), clocked.state.begin(), clocked.state.end());
  for (const core::SpeciesId id : decoder.clock->species()) roots.push_back(id);
  check_opt(out, network, roots, circuit ? c.seed : 0, o, /*ssa=*/false);
  return out;
}

std::vector<Violation> check_raw(const RawCase& c, std::uint64_t seed,
                                 const VerifyOptions& o) {
  std::vector<Violation> out;
  constexpr double kTEnd = 2.0;
  sim::OdeOptions ode_options;
  ode_options.t_end = kTEnd;
  ode_options.abort = o.abort;
  const auto ode = sim::simulate_ode(c.network, ode_options);
  poll(o);
  add(out, check_non_negative(c.network, ode.trajectory));
  add(out, check_conservation(c.network, ode.trajectory));
  // No interface to pin: the pipeline may remove anything provably dead.
  // Closed cases have bounded dynamics, so they also get the SSA leg.
  check_opt(out, c.network, /*roots=*/{}, seed, o,
            /*ssa=*/o.differential && c.closed);

  // The ensemble differentials need bounded dynamics; closed (mass-
  // preserving) networks guarantee that. Open random networks can contain
  // autocatalytic loops whose SSA event counts explode, so they only get the
  // ODE-side checks above.
  if (!o.differential || !c.closed) return out;

  sim::SsaOptions ssa;
  ssa.t_end = kTEnd;
  ssa.omega = o.omega;
  ssa.record_interval = kTEnd;  // final state only
  ssa.abort = o.abort;
  runtime::EnsembleOptions ensemble_options;
  ensemble_options.replicates = o.ssa_replicates;
  ensemble_options.base_seed = util::Rng::stream_seed(seed, 0xE5);
  ensemble_options.batch.threads = 1;  // outer sweep owns the parallelism

  ssa.method = sim::SsaMethod::kNextReaction;
  const auto nrm = runtime::run_ssa_ensemble(c.network, ssa, ensemble_options);
  poll(o);
  ssa.method = sim::SsaMethod::kDirect;
  const auto direct =
      runtime::run_ssa_ensemble(c.network, ssa, ensemble_options);
  poll(o);

  add(out, check_mean_in_band("ode_vs_ssa_mean", nrm,
                              ode.trajectory.final_state(), kFiniteOmegaBias));
  add(out,
      check_ensembles_agree("direct_vs_nrm", direct, nrm, kFiniteOmegaBias));
  poll(o);

  // Worker count must not change results: rerun the next-reaction ensemble
  // on four threads and require bitwise identity.
  runtime::EnsembleOptions parallel_options = ensemble_options;
  parallel_options.batch.threads = 4;
  ssa.method = sim::SsaMethod::kNextReaction;
  const auto nrm_parallel =
      runtime::run_ssa_ensemble(c.network, ssa, parallel_options);
  add(out, check_results_bitwise_equal("serial_vs_parallel", nrm,
                                       nrm_parallel));
  return out;
}

/// Rebuilds the case with `candidate` as its network (species ids are
/// preserved by the shrinker, so circuit/FSM/counter handles stay valid).
GeneratedCase with_network(const GeneratedCase& c, ReactionNetwork candidate) {
  GeneratedCase copy = c;
  std::visit([&](auto& payload) { payload.network = std::move(candidate); },
             copy.payload);
  return copy;
}

bool is_invariant_oracle(const std::string& oracle) {
  return oracle == "non_negative" || oracle == "conservation" ||
         oracle == "clock_phase_token" || oracle == "dual_rail_exclusive";
}

}  // namespace

std::vector<Violation> check_trajectory_invariants(
    const ReactionNetwork& network, const sync::ClockHandles* clock,
    std::span<const std::pair<core::SpeciesId, core::SpeciesId>> rail_pairs) {
  std::vector<Violation> out;
  sim::OdeOptions ode_options;
  ode_options.t_end =
      clock != nullptr ? free_run_t_end(network.rate_policy()) : 2.0;
  const auto ode = sim::simulate_ode(network, ode_options);
  add(out, check_non_negative(network, ode.trajectory));
  add(out, check_conservation(network, ode.trajectory));
  if (clock != nullptr) {
    add(out, check_clock_phase_token(*clock, ode.trajectory));
  }
  if (!rail_pairs.empty()) {
    add(out, check_dual_rail_exclusive(network, ode.trajectory, rail_pairs));
  }
  return out;
}

std::vector<Violation> check_case(const GeneratedCase& c,
                                  const VerifyOptions& options) {
  try {
    std::vector<Violation> out =
        c.kind == CaseKind::kRawNetwork
            ? check_raw(std::get<RawCase>(c.payload), c.seed, options)
            : check_clocked(c, options);
    if (options.lint_cross) {
      poll(options);
      const std::vector<Violation> lint_violations = check_lint_cross(c);
      out.insert(out.end(), lint_violations.begin(), lint_violations.end());
    }
    return out;
  } catch (const VerifyAborted&) {
    throw;
  } catch (const std::exception& e) {
    // A stop is the caller's, not the case's. Otherwise a healthy case must
    // simulate, so a throw is itself a finding: fall back to the
    // driver-free invariant pass so a broken clock is still attributed to
    // the right oracle.
    poll(options);
    std::vector<Violation> out =
        check_trajectory_invariants(c.network(), clock_of(c), rails_of(c));
    out.push_back({"harness", e.what()});
    return out;
  }
}

std::optional<ShrinkResult> shrink_case(const GeneratedCase& c,
                                        const std::string& oracle,
                                        const VerifyOptions& options) {
  // The lint cross-oracle is structural: there is no trajectory predicate
  // to replay while shrinking, and the fault site selection depends on the
  // original reaction numbering.
  if (oracle == "lint_cross") return std::nullopt;
  VerifyOptions replay = options;
  replay.shrink = false;
  replay.lint_cross = false;
  replay.robustness = oracle == "rate_robustness";
  replay.differential = !is_invariant_oracle(oracle);
  replay.opt_equivalence = oracle == "opt_equivalence";

  // Invariant oracles replay on the cheap, exception-free path (free-run +
  // trajectory oracles); the others replay the case through the driver.
  const bool invariant = is_invariant_oracle(oracle);
  const ViolationPredicate violates = [c = c, oracle, replay, invariant](
                                          const ReactionNetwork& candidate) {
    const std::vector<Violation> found =
        invariant ? check_trajectory_invariants(candidate, clock_of(c),
                                                rails_of(c))
                  : check_case(with_network(c, candidate), replay);
    return std::ranges::any_of(
        found, [&](const Violation& v) { return v.oracle == oracle; });
  };
  return shrink_network(c.network(), violates);
}

FuzzReport run_fuzz(const VerifyOptions& options) {
  const auto started = std::chrono::steady_clock::now();
  FuzzReport report;
  const std::vector<CaseKind> kinds =
      options.kinds.empty() ? parse_kinds("") : options.kinds;
  report.cases.resize(options.seeds);

  runtime::BatchRunner runner({.threads = options.threads});
  runner.for_each_index(options.seeds, [&](std::size_t i) {
    if (options.abort && options.abort()) throw VerifyAborted();
    const std::uint64_t seed = options.start_seed + i;
    const CaseKind kind = kinds[i % kinds.size()];
    CaseResult& result = report.cases[i];
    result.kind = kind;
    result.seed = seed;
    try {
      const GeneratedCase c = generate_case(kind, seed, options.generator);
      result.original_reactions = c.network().reaction_count();
      result.violations = check_case(c, options);
    } catch (const VerifyAborted&) {
      throw;
    } catch (const std::exception& e) {
      result.violations.push_back({"generator", e.what()});
    }
  });

  // Shrink failures serially (they are rare by construction; a red CI run
  // only ever has a handful).
  for (CaseResult& result : report.cases) {
    ++report.checked;
    if (!result.failed()) continue;
    ++report.failed;
    if (!options.shrink || result.violations.front().oracle == "generator") {
      continue;
    }
    try {
      const GeneratedCase c =
          generate_case(result.kind, result.seed, options.generator);
      // Replay against the faulted oracle. (The case as regenerated is the
      // unmutated one; shrinking only helps for genuine generator-born
      // failures, which is exactly the CI scenario.)
      const auto shrunk =
          shrink_case(c, result.violations.front().oracle, options);
      if (shrunk && shrunk->reproduced) {
        result.shrunk = true;
        result.original_reactions = shrunk->original_reactions;
        result.shrunk_reactions = shrunk->final_reactions;
        result.repro = core::serialize_network(shrunk->network);
      }
    } catch (const std::exception&) {
      // Shrinking is best-effort; the unshrunk failure is still reported.
    }
  }
  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();
  return report;
}

std::string describe(const CaseResult& result) {
  std::ostringstream out;
  out << "seed " << result.seed << " [" << to_string(result.kind) << "]";
  if (!result.failed()) {
    out << ": ok";
    return out.str();
  }
  for (const Violation& v : result.violations) {
    out << "\n  " << v.oracle << ": " << v.detail;
  }
  if (result.shrunk) {
    out << "\n  shrunk " << result.original_reactions << " -> "
        << result.shrunk_reactions << " reactions; minimal repro:\n";
    std::istringstream lines(result.repro);
    std::string line;
    while (std::getline(lines, line)) {
      out << "    " << line << "\n";
    }
    out << "  reproduce: mrsc_verify --kinds " << to_string(result.kind)
        << " --start-seed " << result.seed << " --seeds 1";
  }
  return out.str();
}

}  // namespace mrsc::verify
