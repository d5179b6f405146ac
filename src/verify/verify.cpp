#include "verify/verify.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <sstream>

#include "analysis/harness.hpp"
#include "core/io.hpp"
#include "logic/netlist.hpp"
#include "runtime/batch.hpp"
#include "runtime/ensemble.hpp"
#include "sim/ode.hpp"
#include "sync/dual_rail.hpp"
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

/// An alternative fast/slow ratio for the rate-robustness oracle, sampled
/// per seed (the default policy is 1000).
double robustness_ratio(std::uint64_t seed) {
  constexpr double kRatios[] = {300.0, 3000.0};
  return kRatios[seed % 2];
}

// --- optimization equivalence ------------------------------------------------

void add_clock_roots(std::vector<core::SpeciesId>& roots,
                     const sync::ClockHandles& clock) {
  roots.insert(roots.end(), {clock.phase_r, clock.phase_g, clock.phase_b,
                             clock.ind_r, clock.ind_g, clock.ind_b});
}

/// Proves the kO1 pipeline trajectory-preserving on this case's network with
/// the given interface pinned as roots.
void check_opt(std::vector<Violation>& out, const ReactionNetwork& network,
               std::span<const core::SpeciesId> roots, std::uint64_t seed,
               const VerifyOptions& o, bool ssa) {
  if (!o.opt_equivalence) return;
  OptEquivalenceOptions eq;
  eq.t_end = ssa ? 2.0 : free_run_t_end(network.rate_policy());
  eq.ssa = ssa;
  eq.omega = o.omega;
  eq.replicates = std::min<std::size_t>(o.ssa_replicates, 8);
  eq.base_seed = util::Rng::stream_seed(seed, 0xEC);
  eq.clt = CltBand{o.clt.z, 0.0};
  const auto found = check_optimization_equivalence(network, roots, eq);
  out.insert(out.end(), found.begin(), found.end());
}

// --- per-kind oracle passes --------------------------------------------------

std::vector<Violation> check_sync(const SyncCase& c, std::uint64_t seed,
                                  const VerifyOptions& o) {
  std::vector<Violation> out;
  analysis::ClockedRunOptions run_options;
  run_options.ode.t_end = analysis::suggest_t_end(
      {}, c.network.rate_policy(), c.samples.size());
  const auto run = analysis::run_clocked_circuit(
      c.network, c.circuit, c.in_port, c.samples, c.out_port, run_options);
  add(out, check_series_match("sync_functional", run.outputs, c.expected,
                              o.functional));
  const core::SpeciesId driven[] = {c.circuit.input(c.in_port),
                                    c.circuit.output(c.out_port)};
  add(out, check_non_negative(c.network, run.ode.trajectory, o.trajectory));
  add(out, check_conservation(c.network, run.ode.trajectory, o.trajectory,
                              driven));
  add(out, check_clock_phase_token(c.circuit.clock, run.ode.trajectory,
                                   o.trajectory));
  if (o.robustness && seed % 4 == 0) {
    ReactionNetwork alt = c.network;
    core::RatePolicy policy = alt.rate_policy();
    policy.k_fast = policy.k_slow * robustness_ratio(seed);
    alt.set_rate_policy(policy);
    const auto rerun = analysis::run_clocked_circuit(
        alt, c.circuit, c.in_port, c.samples, c.out_port, run_options);
    add(out, check_series_match("rate_robustness", rerun.outputs, c.expected,
                                o.functional_robust));
  }
  std::vector<core::SpeciesId> roots;
  for (const auto& [name, id] : c.circuit.inputs) roots.push_back(id);
  for (const auto& [name, id] : c.circuit.outputs) roots.push_back(id);
  add_clock_roots(roots, c.circuit.clock);
  check_opt(out, c.network, roots, seed, o, /*ssa=*/false);
  return out;
}

std::vector<Violation> check_dual(const DualRailCase& c, std::uint64_t seed,
                                  const VerifyOptions& o) {
  std::vector<Violation> out;
  analysis::ClockedRunOptions run_options;
  run_options.ode.t_end = 2.0 * analysis::suggest_t_end(
                                    {}, c.network.rate_policy(),
                                    c.samples.size());
  std::vector<analysis::PortSamples> inputs(2);
  inputs[0].port = sync::rail_pos("x");
  inputs[1].port = sync::rail_neg("x");
  for (const double v : c.samples) {
    inputs[0].samples.push_back(v > 0.0 ? v : 0.0);
    inputs[1].samples.push_back(v < 0.0 ? -v : 0.0);
  }
  const std::vector<std::string> out_ports = {sync::rail_pos("y"),
                                              sync::rail_neg("y")};
  auto drive = [&](const ReactionNetwork& net) {
    return analysis::run_clocked_circuit_multi(net, c.circuit, inputs,
                                               out_ports, run_options);
  };
  const auto run = drive(c.network);
  add(out, check_series_match("dual_functional",
                              analysis::signed_series(run, "y"), c.expected,
                              o.functional_dual));
  const core::SpeciesId driven[] = {c.circuit.input(inputs[0].port),
                                    c.circuit.input(inputs[1].port),
                                    c.circuit.output(out_ports[0]),
                                    c.circuit.output(out_ports[1])};
  add(out, check_non_negative(c.network, run.ode.trajectory, o.trajectory));
  add(out, check_conservation(c.network, run.ode.trajectory, o.trajectory,
                              driven));
  add(out, check_clock_phase_token(c.circuit.clock, run.ode.trajectory,
                                   o.trajectory));
  add(out, check_dual_rail_exclusive(c.network, run.ode.trajectory,
                                     c.rail_pairs, o.trajectory));
  if (o.robustness && seed % 4 == 0) {
    ReactionNetwork alt = c.network;
    core::RatePolicy policy = alt.rate_policy();
    policy.k_fast = policy.k_slow * robustness_ratio(seed);
    alt.set_rate_policy(policy);
    const auto rerun = drive(alt);
    add(out, check_series_match("rate_robustness",
                                analysis::signed_series(rerun, "y"),
                                c.expected, o.functional_robust));
  }
  std::vector<core::SpeciesId> roots;
  for (const auto& [name, id] : c.circuit.inputs) roots.push_back(id);
  for (const auto& [name, id] : c.circuit.outputs) roots.push_back(id);
  add_clock_roots(roots, c.circuit.clock);
  check_opt(out, c.network, roots, seed, o, /*ssa=*/false);
  return out;
}

std::vector<Violation> check_fsm(const FsmCase& c, const VerifyOptions& o) {
  std::vector<Violation> out;
  analysis::ClockedRunOptions run_options;
  run_options.ode.t_end = analysis::suggest_t_end(
      c.spec.clock, c.network.rate_policy(), c.inputs.size());
  const auto run = analysis::run_fsm(c.network, c.handles, c.inputs,
                                     run_options);
  const fsm::FsmTrace reference = fsm::evaluate_reference(c.spec, c.inputs);
  for (std::size_t i = 0; i < c.inputs.size(); ++i) {
    if (run.states[i] != reference.states[i]) {
      out.push_back({"fsm_reference",
                     format("cycle %zu: molecular state %zu vs reference %zu",
                            i, run.states[i], reference.states[i])});
      break;
    }
    if (run.outputs[i] != reference.outputs[i]) {
      out.push_back(
          {"fsm_reference",
           format("cycle %zu: molecular output %zd vs reference %zd", i,
                  static_cast<std::ptrdiff_t>(run.outputs[i]),
                  static_cast<std::ptrdiff_t>(reference.outputs[i]))});
      break;
    }
  }
  // Minimization must preserve behaviour exactly (pure differential, no
  // simulation involved).
  const fsm::MinimizationResult minimized = fsm::minimize(c.spec);
  const fsm::FsmTrace min_trace =
      fsm::evaluate_reference(minimized.spec, c.inputs);
  for (std::size_t i = 0; i < c.inputs.size(); ++i) {
    if (min_trace.outputs[i] != reference.outputs[i]) {
      out.push_back(
          {"fsm_minimize",
           format("cycle %zu: minimized machine output %zd vs original %zd "
                  "(%zu -> %zu states)",
                  i, static_cast<std::ptrdiff_t>(min_trace.outputs[i]),
                  static_cast<std::ptrdiff_t>(reference.outputs[i]),
                  c.spec.num_states, minimized.spec.num_states)});
      break;
    }
  }
  std::vector<core::SpeciesId> driven = c.handles.input;
  driven.insert(driven.end(), c.handles.output.begin(),
                c.handles.output.end());
  add(out, check_non_negative(c.network, run.ode.trajectory, o.trajectory));
  add(out, check_conservation(c.network, run.ode.trajectory, o.trajectory,
                              driven));
  add(out, check_clock_phase_token(c.handles.clock, run.ode.trajectory,
                                   o.trajectory));
  std::vector<core::SpeciesId> roots = c.handles.state;
  roots.insert(roots.end(), c.handles.state_primed.begin(),
               c.handles.state_primed.end());
  roots.insert(roots.end(), c.handles.input.begin(), c.handles.input.end());
  roots.insert(roots.end(), c.handles.output.begin(), c.handles.output.end());
  add_clock_roots(roots, c.handles.clock);
  check_opt(out, c.network, roots, /*seed=*/0, o, /*ssa=*/false);
  return out;
}

std::vector<Violation> check_counter(const CounterCase& c,
                                     const VerifyOptions& o) {
  std::vector<Violation> out;
  analysis::ClockedRunOptions run_options;
  run_options.ode.t_end = analysis::suggest_t_end(
      c.spec.clock, c.network.rate_policy(), c.increments);
  const auto run =
      analysis::run_counter(c.network, c.handles, c.increments, run_options);
  const logic::Netlist golden =
      logic::make_counter_netlist(c.spec.bits, c.spec.initial_value);
  logic::Simulation sim(golden);
  const logic::NetId enable = *golden.find("enable");
  for (std::size_t i = 0; i < c.increments; ++i) {
    sim.set_input(enable, true);
    sim.evaluate();
    sim.clock_edge();
    sim.evaluate();
    if (run.values[i] != sim.output_word()) {
      out.push_back(
          {"counter_reference",
           format("increment %zu: molecular counter %llu vs gate-level %llu",
                  i, static_cast<unsigned long long>(run.values[i]),
                  static_cast<unsigned long long>(sim.output_word()))});
      break;
    }
  }
  const core::SpeciesId driven[] = {c.handles.increment};
  add(out, check_non_negative(c.network, run.ode.trajectory, o.trajectory));
  add(out, check_conservation(c.network, run.ode.trajectory, o.trajectory,
                              driven));
  add(out, check_clock_phase_token(c.handles.clock, run.ode.trajectory,
                                   o.trajectory));
  std::vector<core::SpeciesId> roots = {c.handles.increment};
  roots.insert(roots.end(), c.handles.zero_rail.begin(),
               c.handles.zero_rail.end());
  roots.insert(roots.end(), c.handles.one_rail.begin(),
               c.handles.one_rail.end());
  add_clock_roots(roots, c.handles.clock);
  check_opt(out, c.network, roots, /*seed=*/0, o, /*ssa=*/false);
  return out;
}

std::vector<Violation> check_raw(const RawCase& c, std::uint64_t seed,
                                 const VerifyOptions& o) {
  std::vector<Violation> out;
  constexpr double kTEnd = 2.0;
  sim::OdeOptions ode_options;
  ode_options.t_end = kTEnd;
  const auto ode = sim::simulate_ode(c.network, ode_options);
  add(out, check_non_negative(c.network, ode.trajectory, o.trajectory));
  add(out, check_conservation(c.network, ode.trajectory, o.trajectory));
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
  runtime::EnsembleOptions ensemble_options;
  ensemble_options.replicates = o.ssa_replicates;
  ensemble_options.base_seed = util::Rng::stream_seed(seed, 0xE5);
  ensemble_options.batch.threads = 1;  // outer sweep owns the parallelism

  ssa.method = sim::SsaMethod::kNextReaction;
  const auto nrm = runtime::run_ssa_ensemble(c.network, ssa, ensemble_options);
  ssa.method = sim::SsaMethod::kDirect;
  const auto direct =
      runtime::run_ssa_ensemble(c.network, ssa, ensemble_options);

  add(out, check_mean_in_band("ode_vs_ssa_mean", nrm,
                              ode.trajectory.final_state(), o.clt));
  add(out, check_ensembles_agree("direct_vs_nrm", direct, nrm, o.clt));

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

const sync::ClockHandles* clock_of(const GeneratedCase& c) {
  switch (c.kind) {
    case CaseKind::kSyncCircuit:
      return &std::get<SyncCase>(c.payload).circuit.clock;
    case CaseKind::kDualRailCircuit:
      return &std::get<DualRailCase>(c.payload).circuit.clock;
    case CaseKind::kFsm:
      return &std::get<FsmCase>(c.payload).handles.clock;
    case CaseKind::kCounter:
      return &std::get<CounterCase>(c.payload).handles.clock;
    case CaseKind::kRawNetwork:
      break;
  }
  return nullptr;
}

std::span<const std::pair<core::SpeciesId, core::SpeciesId>> rails_of(
    const GeneratedCase& c) {
  if (c.kind == CaseKind::kDualRailCircuit) {
    return std::get<DualRailCase>(c.payload).rail_pairs;
  }
  return {};
}

bool is_invariant_oracle(const std::string& oracle) {
  return oracle == "non_negative" || oracle == "conservation" ||
         oracle == "clock_phase_token" || oracle == "dual_rail_exclusive";
}

}  // namespace

std::vector<Violation> check_trajectory_invariants(
    const ReactionNetwork& network, const sync::ClockHandles* clock,
    std::span<const std::pair<core::SpeciesId, core::SpeciesId>> rail_pairs,
    const VerifyOptions& options) {
  std::vector<Violation> out;
  sim::OdeOptions ode_options;
  ode_options.t_end =
      clock != nullptr ? free_run_t_end(network.rate_policy()) : 2.0;
  const auto ode = sim::simulate_ode(network, ode_options);
  add(out, check_non_negative(network, ode.trajectory, options.trajectory));
  add(out, check_conservation(network, ode.trajectory, options.trajectory));
  if (clock != nullptr) {
    add(out, check_clock_phase_token(*clock, ode.trajectory,
                                     options.trajectory));
  }
  if (!rail_pairs.empty()) {
    add(out, check_dual_rail_exclusive(network, ode.trajectory, rail_pairs,
                                       options.trajectory));
  }
  return out;
}

std::vector<Violation> check_case(const GeneratedCase& c,
                                  const VerifyOptions& options) {
  try {
    std::vector<Violation> out;
    switch (c.kind) {
      case CaseKind::kRawNetwork:
        out = check_raw(std::get<RawCase>(c.payload), c.seed, options);
        break;
      case CaseKind::kSyncCircuit:
        out = check_sync(std::get<SyncCase>(c.payload), c.seed, options);
        break;
      case CaseKind::kDualRailCircuit:
        out = check_dual(std::get<DualRailCase>(c.payload), c.seed, options);
        break;
      case CaseKind::kFsm:
        out = check_fsm(std::get<FsmCase>(c.payload), options);
        break;
      case CaseKind::kCounter:
        out = check_counter(std::get<CounterCase>(c.payload), options);
        break;
    }
    if (options.lint_cross) {
      const std::vector<Violation> lint_violations = check_lint_cross(c);
      out.insert(out.end(), lint_violations.begin(), lint_violations.end());
    }
    return out;
  } catch (const std::exception& e) {
    // A healthy case must simulate; a throw is itself a finding. Fall back
    // to the harness-free invariant pass so a broken clock is still
    // attributed to the right oracle.
    std::vector<Violation> out = check_trajectory_invariants(
        c.network(), clock_of(c), rails_of(c), options);
    out.push_back({"harness", e.what()});
    return out;
  }
  return {};
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

  ViolationPredicate violates;
  if (is_invariant_oracle(oracle)) {
    // The cheap, exception-free path: free-run + trajectory oracles.
    violates = [c = c, oracle, replay](const ReactionNetwork& candidate) {
      const auto found = check_trajectory_invariants(
          candidate, clock_of(c), rails_of(c), replay);
      for (const Violation& v : found) {
        if (v.oracle == oracle) return true;
      }
      return false;
    };
  } else {
    // Full replay through the harness (functional/differential oracles).
    violates = [c = c, oracle, replay](const ReactionNetwork& candidate) {
      const auto found = check_case(with_network(c, candidate), replay);
      for (const Violation& v : found) {
        if (v.oracle == oracle) return true;
      }
      return false;
    };
  }
  return shrink_network(c.network(), violates, options.shrink_options);
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
