// Experiment T4: substrate performance (google-benchmark).
//
// Throughput of the simulation substrate as a function of network size: RHS
// evaluation, Jacobian assembly, adaptive ODE steps, SSA event processing,
// and whole-design runs. This is the "simulator scaling" table that stands
// in for the authors' testbed characterization.
#include <benchmark/benchmark.h>

#include <span>
#include <string>
#include <vector>

#include "async/chain.hpp"
#include "core/builder.hpp"
#include "core/network.hpp"
#include "dsp/filters.hpp"
#include "runtime/ensemble.hpp"
#include "scenario/registry.hpp"
#include "sim/engine/compiled_system.hpp"
#include "sim/ode.hpp"
#include "sim/ssa.hpp"
#include "sync/clock.hpp"
#include "util/matrix.hpp"

namespace {

using namespace mrsc;

core::ReactionNetwork chain_network(std::size_t elements) {
  core::ReactionNetwork net;
  async::ChainSpec spec;
  spec.elements = elements;
  const async::ChainHandles chain = async::build_delay_chain(net, spec);
  net.set_initial(chain.input, 1.0);
  return net;
}

void BM_RhsEvaluation(benchmark::State& state) {
  const core::ReactionNetwork net =
      chain_network(static_cast<std::size_t>(state.range(0)));
  const sim::CompiledSystem system(net);
  std::vector<double> x = net.initial_state();
  std::vector<double> dxdt(x.size());
  std::vector<double> flux(system.reaction_count());
  for (auto _ : state) {
    system.rhs(x, dxdt, flux);
    benchmark::DoNotOptimize(dxdt.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(system.reaction_count()));
  state.counters["species"] = static_cast<double>(system.species_count());
  state.counters["reactions"] = static_cast<double>(system.reaction_count());
}
BENCHMARK(BM_RhsEvaluation)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_JacobianAssembly(benchmark::State& state) {
  const core::ReactionNetwork net =
      chain_network(static_cast<std::size_t>(state.range(0)));
  const sim::CompiledSystem system(net);
  std::vector<double> x = net.initial_state();
  util::Matrix jac;
  for (auto _ : state) {
    system.jacobian(x, jac);
    benchmark::DoNotOptimize(jac.data().data());
  }
}
BENCHMARK(BM_JacobianAssembly)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_AdaptiveOdeRun(benchmark::State& state) {
  const core::ReactionNetwork net =
      chain_network(static_cast<std::size_t>(state.range(0)));
  sim::OdeOptions options;
  options.t_end = 10.0;
  options.record_interval = 1.0;
  std::size_t steps = 0;
  for (auto _ : state) {
    const sim::OdeResult result = simulate_ode(net, options);
    steps = result.steps_accepted;
    benchmark::DoNotOptimize(result.trajectory.sample_count());
  }
  state.counters["steps"] = static_cast<double>(steps);
}
BENCHMARK(BM_AdaptiveOdeRun)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// dp45 on the stiff serve designs at serve_cold's t_end: k_fast bounds every
// step, so the run is ~1 750 steps of 6 RHS evaluations each on cascade(4).
void BM_Dp45Scenario(benchmark::State& state, const char* spec) {
  const scenario::ResolvedScenario resolved =
      scenario::ScenarioRegistry::global().resolve(spec);
  const sim::CompiledSystem system(*resolved.design.network);
  const std::vector<double> initial = resolved.design.network->initial_state();
  sim::OdeOptions options;
  options.t_end = 3.0;
  options.record_interval = 0.1;
  std::size_t rhs = 0;
  for (auto _ : state) {
    const sim::OdeResult result = simulate_ode(system, options, initial);
    rhs = result.rhs_evaluations;
    benchmark::DoNotOptimize(result.trajectory.sample_count());
  }
  state.counters["rhs_evaluations"] = static_cast<double>(rhs);
}
BENCHMARK_CAPTURE(BM_Dp45Scenario, cascade_4, "cascade(4)")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Dp45Scenario, counter_4, "counter(4)")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Dp45Scenario, fsm_wide_16, "fsm_wide(16)")
    ->Unit(benchmark::kMillisecond);

// One RHS on the same designs at the dp45 run's state at t = 1.5, halfway
// to serve_cold's t_end: the layer BM_Dp45Scenario's runs spend most of
// their time in, at a state with live clocks (BM_RhsEvaluation times delay
// chains at their initial state, where almost every flux is zero).
void BM_RhsScenario(benchmark::State& state, const char* spec) {
  const scenario::ResolvedScenario resolved =
      scenario::ScenarioRegistry::global().resolve(spec);
  const sim::CompiledSystem system(*resolved.design.network);
  sim::OdeOptions options;
  options.t_end = 1.5;
  options.record_interval = 0.1;
  const sim::OdeResult run = simulate_ode(
      system, options, resolved.design.network->initial_state());
  const std::span<const double> x = run.trajectory.final_state();
  std::vector<double> dxdt(x.size());
  std::vector<double> flux(system.reaction_count());
  for (auto _ : state) {
    system.rhs(x, dxdt, flux);
    benchmark::DoNotOptimize(dxdt.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(system.reaction_count()));
  state.counters["species"] = static_cast<double>(system.species_count());
  state.counters["reactions"] = static_cast<double>(system.reaction_count());
}
BENCHMARK_CAPTURE(BM_RhsScenario, cascade_4, "cascade(4)");
BENCHMARK_CAPTURE(BM_RhsScenario, counter_4, "counter(4)");
BENCHMARK_CAPTURE(BM_RhsScenario, fsm_wide_16, "fsm_wide(16)");

void BM_SsaDirect(benchmark::State& state) {
  const core::ReactionNetwork net = chain_network(2);
  sim::SsaOptions options;
  options.t_end = 20.0;
  options.omega = static_cast<double>(state.range(0));
  options.method = sim::SsaMethod::kDirect;
  std::uint64_t events = 0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    options.seed = seed++;
    const sim::SsaResult result = simulate_ssa(net, options);
    events += result.events;
    benchmark::DoNotOptimize(result.final_counts.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_SsaDirect)->Arg(100)->Arg(1000)->Unit(benchmark::kMillisecond);

// Runs the direct method on `network` at omega 200 for t_end per
// iteration and reports per-event work: propensity evaluations and the
// entries each event's total visited.
void run_direct_per_event(benchmark::State& state,
                          const core::ReactionNetwork& network, double t_end) {
  const sim::CompiledSystem system(network);
  const std::vector<std::int64_t> initial =
      sim::to_counts(network.initial_state(), 200.0);
  sim::SsaOptions options;
  options.t_end = t_end;
  options.omega = 200.0;
  options.method = sim::SsaMethod::kDirect;
  std::uint64_t events = 0;
  std::uint64_t evaluations = 0;
  std::uint64_t terms = 0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    options.seed = seed++;
    const sim::SsaResult result = simulate_ssa(system, options, initial);
    events += result.events;
    evaluations += result.propensity_evaluations;
    terms += result.selection_terms;
    benchmark::DoNotOptimize(result.final_counts.data());
  }
  const auto per_event = [&](std::uint64_t work) {
    return events > 0
               ? static_cast<double>(work) / static_cast<double>(events)
               : 0.0;
  };
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["reactions"] = static_cast<double>(system.reaction_count());
  state.counters["evals_per_event"] = per_event(evaluations);
  state.counters["terms_per_event"] = per_event(terms);
}

// The direct method on a registry design. On delay_chain(16) (~1000
// reactions, ~68 dependents each) a firing refreshes only its dependents,
// only the ~3 nonzero propensities enter the scan, and since no refresh
// changes a value every total after the first is reused. On cascade(4) a
// total re-adds ~14 of its ~27 nonzero propensities.
void BM_SsaDirectScenario(benchmark::State& state, const char* spec) {
  const scenario::ResolvedScenario resolved =
      scenario::ScenarioRegistry::global().resolve(spec);
  run_direct_per_event(state, *resolved.design.network, 5.0);
}
BENCHMARK_CAPTURE(BM_SsaDirectScenario, cascade_4, "cascade(4)")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SsaDirectScenario, delay_chain_16, "delay_chain(16)")
    ->Unit(benchmark::kMillisecond);

// The opposite regime: a ring of 500 pools (200 molecules each) hopping to
// both neighbours, R = 1000, whose propensities all stay nonzero. Every
// event's scan walks all R entries and its total re-adds about half, so
// this pins the direct method's per-event cost when there is no zero to
// skip.
core::ReactionNetwork dense_ring_network() {
  constexpr std::size_t kPools = 500;
  core::ReactionNetwork net;
  core::NetworkBuilder b(net);
  const auto pool = [](std::size_t i) {
    return "R" + std::to_string(i % kPools);
  };
  for (std::size_t i = 0; i < kPools; ++i) b.species(pool(i), 1.0);
  for (std::size_t i = 0; i < kPools; ++i) {
    b.reaction(pool(i) + " -> " + pool(i + 1), 0.01);
    b.reaction(pool(i) + " -> " + pool(i + kPools - 1), 0.01);
  }
  return net;
}

void BM_SsaDirectDenseRing(benchmark::State& state) {
  run_direct_per_event(state, dense_ring_network(), 2.0);
}
BENCHMARK(BM_SsaDirectDenseRing)->Unit(benchmark::kMillisecond);

void BM_SsaNextReaction(benchmark::State& state) {
  const core::ReactionNetwork net = chain_network(2);
  sim::SsaOptions options;
  options.t_end = 20.0;
  options.omega = static_cast<double>(state.range(0));
  options.method = sim::SsaMethod::kNextReaction;
  std::uint64_t events = 0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    options.seed = seed++;
    const sim::SsaResult result = simulate_ssa(net, options);
    events += result.events;
    benchmark::DoNotOptimize(result.final_counts.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_SsaNextReaction)
    ->Arg(100)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);

void BM_ClockCycle(benchmark::State& state) {
  core::ReactionNetwork net;
  sync::build_clock(net, {});
  sim::OdeOptions options;
  options.t_end = 30.0;  // ~one period
  options.record_interval = 1.0;
  for (auto _ : state) {
    const sim::OdeResult result = simulate_ode(net, options);
    benchmark::DoNotOptimize(result.steps_accepted);
  }
}
BENCHMARK(BM_ClockCycle)->Unit(benchmark::kMillisecond);

void BM_CompileMovingAverage(benchmark::State& state) {
  for (auto _ : state) {
    auto design = dsp::make_moving_average();
    benchmark::DoNotOptimize(design.network->reaction_count());
  }
}
BENCHMARK(BM_CompileMovingAverage);

// Multi-worker SSA ensemble through the batch runtime. Every worker count
// runs the identical seed set (stream-derived from base_seed), so the work is
// constant and the scaling is pure scheduling. The direct method refreshes
// the fired reaction's dependents and then sums and scans the nonzero
// propensities on every event: the regime the compiled engine's hoisted
// scale factors, CSR kernels, dependency graph and active set target.
void BM_SsaEnsemble(benchmark::State& state) {
  const core::ReactionNetwork net = chain_network(8);
  sim::SsaOptions ssa;
  ssa.t_end = 10.0;
  ssa.omega = 200.0;
  ssa.record_interval = 1.0;
  ssa.method = sim::SsaMethod::kDirect;
  runtime::EnsembleOptions options;
  options.replicates = 32;
  options.base_seed = 1;
  options.batch.threads = static_cast<std::size_t>(state.range(0));
  std::size_t ok = 0;
  for (auto _ : state) {
    const runtime::EnsembleResult result =
        runtime::run_ssa_ensemble(net, ssa, options);
    ok = result.ok;
    benchmark::DoNotOptimize(result.final_stats.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(options.replicates));
  state.counters["ok"] = static_cast<double>(ok);
}
BENCHMARK(BM_SsaEnsemble)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// CompiledSystem construction on the registry's delay_chain(D) generator,
// whose dense dependency graph (~68 edges per reaction at D = 16) is the
// build's worst case. Serve compiles once per cold request, so this is a
// per-request cost there.
void BM_CompiledSystemBuild(benchmark::State& state) {
  const scenario::ResolvedScenario resolved =
      scenario::ScenarioRegistry::global().resolve(
          "delay_chain(" + std::to_string(state.range(0)) + ")");
  const core::ReactionNetwork& net = *resolved.design.network;
  std::size_t edges = 0;
  for (auto _ : state) {
    const sim::CompiledSystem system(net);
    edges = 0;
    for (std::size_t j = 0; j < system.reaction_count(); ++j) {
      edges += system.affected_reactions(j).size();
    }
    benchmark::DoNotOptimize(edges);
  }
  state.counters["reactions"] = static_cast<double>(net.reaction_count());
  state.counters["dep_edges"] = static_cast<double>(edges);
}
BENCHMARK(BM_CompiledSystemBuild)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
