#include "sim/ode.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/builder.hpp"
#include "scenario/registry.hpp"
#include "verify/generator.hpp"

namespace mrsc::sim {
namespace {

using core::NetworkBuilder;
using core::RateCategory;
using core::ReactionNetwork;
using core::SpeciesId;

ReactionNetwork decay_network(double k) {
  ReactionNetwork net;
  NetworkBuilder b(net);
  b.species("A", 1.0);
  b.reaction("A -> B", k);
  return net;
}

// All three integrators should reproduce A(t) = e^{-k t}.
class IntegratorTest : public ::testing::TestWithParam<OdeMethod> {};

TEST_P(IntegratorTest, ExponentialDecayMatchesAnalytic) {
  const double k = 0.7;
  const ReactionNetwork net = decay_network(k);
  OdeOptions options;
  options.method = GetParam();
  options.t_end = 4.0;
  options.dt = 1e-3;
  options.record_interval = 0.5;
  const OdeResult result = simulate_ode(net, options);
  const SpeciesId a = *net.find_species("A");
  for (std::size_t s = 0; s < result.trajectory.sample_count(); ++s) {
    const double t = result.trajectory.time(s);
    EXPECT_NEAR(result.trajectory.value(s, a), std::exp(-k * t), 2e-3)
        << "t=" << t;
  }
}

TEST_P(IntegratorTest, MassConservation) {
  const ReactionNetwork net = decay_network(1.0);
  OdeOptions options;
  options.method = GetParam();
  options.t_end = 3.0;
  options.dt = 1e-3;
  const OdeResult result = simulate_ode(net, options);
  const SpeciesId a = *net.find_species("A");
  const SpeciesId b = *net.find_species("B");
  for (std::size_t s = 0; s < result.trajectory.sample_count(); ++s) {
    EXPECT_NEAR(result.trajectory.value(s, a) + result.trajectory.value(s, b),
                1.0, 1e-4);
  }
}

TEST_P(IntegratorTest, ReversibleReactionReachesEquilibrium) {
  // A <-> B with k+ = 2, k- = 1 : equilibrium B/A = 2.
  ReactionNetwork net;
  NetworkBuilder b(net);
  b.species("A", 1.0);
  b.reaction("A -> B", 2.0);
  b.reaction("B -> A", 1.0);
  OdeOptions options;
  options.method = GetParam();
  options.t_end = 20.0;
  options.dt = 1e-3;
  const OdeResult result = simulate_ode(net, options);
  EXPECT_NEAR(result.trajectory.final_value(*net.find_species("A")), 1.0 / 3.0,
              1e-3);
  EXPECT_NEAR(result.trajectory.final_value(*net.find_species("B")), 2.0 / 3.0,
              1e-3);
}

INSTANTIATE_TEST_SUITE_P(Methods, IntegratorTest,
                         ::testing::Values(OdeMethod::kRk4Fixed,
                                           OdeMethod::kDormandPrince45,
                                           OdeMethod::kBackwardEuler));

TEST(OdeSimulation, ZeroOrderSourceGrowsLinearly) {
  ReactionNetwork net;
  NetworkBuilder b(net);
  b.reaction("0 -> A", 0.5);
  OdeOptions options;
  options.t_end = 4.0;
  const OdeResult result = simulate_ode(net, options);
  EXPECT_NEAR(result.trajectory.final_value(*net.find_species("A")), 2.0,
              1e-6);
}

TEST(OdeSimulation, BimolecularAnnihilationLeavesExcess) {
  // A + B -> 0 with A0=2, B0=1: final A = 1, B = 0.
  ReactionNetwork net;
  NetworkBuilder b(net);
  b.species("A", 2.0);
  b.species("B", 1.0);
  b.reaction("A + B -> 0", 50.0);
  OdeOptions options;
  options.t_end = 10.0;
  const OdeResult result = simulate_ode(net, options);
  EXPECT_NEAR(result.trajectory.final_value(*net.find_species("A")), 1.0,
              1e-2);
  EXPECT_NEAR(result.trajectory.final_value(*net.find_species("B")), 0.0,
              1e-2);
}

TEST(OdeSimulation, StiffFastSlowSeparation) {
  // Fast equilibration feeding a slow drain; the adaptive and implicit
  // integrators must agree.
  ReactionNetwork net;
  NetworkBuilder b(net);
  b.species("A", 1.0);
  b.reaction("A -> B", RateCategory::kFast);
  b.reaction("B -> C", RateCategory::kSlow);
  net.set_rate_policy(core::RatePolicy{1.0, 10000.0});

  OdeOptions adaptive;
  adaptive.t_end = 2.0;
  const double c_adaptive =
      simulate_ode(net, adaptive)
          .trajectory.final_value(*net.find_species("C"));

  OdeOptions implicit;
  implicit.method = OdeMethod::kBackwardEuler;
  implicit.t_end = 2.0;
  implicit.dt = 1e-3;
  const double c_implicit =
      simulate_ode(net, implicit)
          .trajectory.final_value(*net.find_species("C"));

  const double expected = 1.0 - std::exp(-2.0);  // B -> C dominates
  EXPECT_NEAR(c_adaptive, expected, 5e-3);
  EXPECT_NEAR(c_implicit, expected, 5e-3);
}

TEST(OdeSimulation, RecordIntervalControlsSampleCount) {
  const ReactionNetwork net = decay_network(1.0);
  OdeOptions options;
  options.t_end = 10.0;
  options.record_interval = 1.0;
  const OdeResult result = simulate_ode(net, options);
  // Roughly one sample per unit time plus endpoints.
  EXPECT_GE(result.trajectory.sample_count(), 10u);
  EXPECT_LE(result.trajectory.sample_count(), 14u);
}

TEST(OdeSimulation, RecordEveryStepWhenIntervalZero) {
  const ReactionNetwork net = decay_network(1.0);
  OdeOptions options;
  options.t_end = 1.0;
  options.record_interval = 0.0;
  options.method = OdeMethod::kRk4Fixed;
  options.dt = 0.1;
  const OdeResult result = simulate_ode(net, options);
  // t=0 plus ~10 steps (floating-point accumulation may add one residual
  // step at the end).
  EXPECT_GE(result.trajectory.sample_count(), 11u);
  EXPECT_LE(result.trajectory.sample_count(), 12u);
}

TEST(OdeSimulation, ObserverInjectionChangesState) {
  const ReactionNetwork net = decay_network(1.0);
  const SpeciesId a = *net.find_species("A");
  FaultEventObserver injector({{.time = 1.0, .species = a, .add = 5.0}});
  Observer* observers[] = {&injector};
  OdeOptions options;
  options.t_end = 1.2;
  const OdeResult result = simulate_ode(
      net, options, net.initial_state(),
      std::span<Observer* const>(observers, 1));
  // At t=1 A ~ e^-1 ~ 0.37, injection adds 5.
  EXPECT_GT(result.trajectory.final_value(a), 4.0);
}

TEST(OdeSimulation, ObserverCanStopEarly) {
  const ReactionNetwork net = decay_network(1.0);
  SteadyStateDetector detector(1e-6, 0.5);
  Observer* observers[] = {&detector};
  OdeOptions options;
  options.t_end = 1000.0;
  const OdeResult result = simulate_ode(
      net, options, net.initial_state(),
      std::span<Observer* const>(observers, 1));
  EXPECT_TRUE(result.stopped_by_observer);
  EXPECT_LT(result.end_time, 100.0);
}

TEST(OdeSimulation, NegativeConcentrationsClamped) {
  // Aggressive fixed step on a fast decay would overshoot below zero.
  const ReactionNetwork net = decay_network(100.0);
  OdeOptions options;
  options.method = OdeMethod::kRk4Fixed;
  options.dt = 0.05;
  options.t_end = 2.0;
  const OdeResult result = simulate_ode(net, options);
  for (std::size_t s = 0; s < result.trajectory.sample_count(); ++s) {
    EXPECT_GE(result.trajectory.value(s, *net.find_species("A")), 0.0);
  }
}

TEST(OdeSimulation, InvalidOptionsThrow) {
  const ReactionNetwork net = decay_network(1.0);
  OdeOptions bad_t;
  bad_t.t_end = 0.0;
  EXPECT_THROW((void)simulate_ode(net, bad_t), std::invalid_argument);
  OdeOptions bad_dt;
  bad_dt.dt = 0.0;
  EXPECT_THROW((void)simulate_ode(net, bad_dt), std::invalid_argument);
}

TEST(OdeSimulation, InitialStateSizeMismatchThrows) {
  const ReactionNetwork net = decay_network(1.0);
  OdeOptions options;
  EXPECT_THROW((void)simulate_ode(net, options, std::vector<double>{1.0, 2.0,
                                                                    3.0}),
               std::invalid_argument);
}

TEST(OdeSimulation, AdaptiveReportsRejectedSteps) {
  // A stiff-ish system with a loose initial step forces rejections.
  ReactionNetwork net;
  NetworkBuilder b(net);
  b.species("A", 1.0);
  b.reaction("A -> B", 500.0);
  OdeOptions options;
  options.t_end = 1.0;
  options.dt = 0.5;  // far too big initially
  const OdeResult result = simulate_ode(net, options);
  EXPECT_GT(result.steps_accepted, 0u);
  EXPECT_GT(result.steps_rejected, 0u);
}

TEST(OdeSimulation, StepLimitReported) {
  const ReactionNetwork net = decay_network(1.0);
  OdeOptions options;
  options.method = OdeMethod::kRk4Fixed;
  options.dt = 1e-4;
  options.t_end = 100.0;
  options.max_steps = 50;  // far too few
  const OdeResult result = simulate_ode(net, options);
  EXPECT_TRUE(result.hit_step_limit);
  EXPECT_LT(result.end_time, 1.0);
}

TEST(OdeSimulation, FinalStateRecordedAtTEnd) {
  const ReactionNetwork net = decay_network(1.0);
  OdeOptions options;
  options.t_end = 2.0;
  options.record_interval = 0.75;
  const OdeResult result = simulate_ode(net, options);
  EXPECT_DOUBLE_EQ(result.trajectory.final_time(), result.end_time);
  EXPECT_NEAR(result.end_time, 2.0, 1e-9);
}

// ---------------------------------------------------------------------------
// Dormand-Prince first-same-as-last. run_dp45 reuses k7 = f(x_new) as the
// next step's k1; the reference below is the plain 7-RHS-per-step loop it
// replaced, kept only here. Every propensity and RHS is a pure function of
// x, so the two must agree bit for bit: trajectory, step counts, end time
// and flags.

void reference_clamp(std::span<double> x) {
  for (double& v : x) {
    if (v < 0.0) v = 0.0;
  }
}

OdeResult reference_dp45(const CompiledSystem& system,
                         const OdeOptions& options, std::vector<double> x,
                         std::span<Observer* const> observers = {}) {
  constexpr double kA21 = 1.0 / 5.0;
  constexpr double kA31 = 3.0 / 40.0, kA32 = 9.0 / 40.0;
  constexpr double kA41 = 44.0 / 45.0, kA42 = -56.0 / 15.0,
                   kA43 = 32.0 / 9.0;
  constexpr double kA51 = 19372.0 / 6561.0, kA52 = -25360.0 / 2187.0,
                   kA53 = 64448.0 / 6561.0, kA54 = -212.0 / 729.0;
  constexpr double kA61 = 9017.0 / 3168.0, kA62 = -355.0 / 33.0,
                   kA63 = 46732.0 / 5247.0, kA64 = 49.0 / 176.0,
                   kA65 = -5103.0 / 18656.0;
  constexpr double kB1 = 35.0 / 384.0, kB3 = 500.0 / 1113.0,
                   kB4 = 125.0 / 192.0, kB5 = -2187.0 / 6784.0,
                   kB6 = 11.0 / 84.0;
  constexpr double kE1 = kB1 - 5179.0 / 57600.0,
                   kE3 = kB3 - 7571.0 / 16695.0,
                   kE4 = kB4 - 393.0 / 640.0,
                   kE5 = kB5 + 92097.0 / 339200.0,
                   kE6 = kB6 - 187.0 / 2100.0, kE7 = -1.0 / 40.0;

  const std::size_t n = system.species_count();
  OdeResult result;
  Trajectory trajectory(n);
  trajectory.append(0.0, x);
  double next_record = options.record_interval;
  // Accepted-step bookkeeping exactly as the integrator's RunContext does
  // it: clamp, observers, clamp, record, stop checks.
  auto accept = [&](double t, std::span<double> state) {
    reference_clamp(state);
    for (Observer* obs : observers) obs->on_step(t, state);
    reference_clamp(state);
    if (options.record_interval <= 0.0 || t >= next_record) {
      trajectory.append(t, state);
      if (options.record_interval > 0.0) {
        next_record +=
            options.record_interval *
            std::floor((t - next_record) / options.record_interval + 1.0);
      }
    }
    for (Observer* obs : observers) {
      if (obs->should_stop(t, state)) {
        result.stopped_by_observer = true;
        return false;
      }
    }
    if (options.abort && options.abort()) {
      result.aborted = true;
      return false;
    }
    return true;
  };

  std::vector<double> k1(n), k2(n), k3(n), k4(n), k5(n), k6(n), k7(n),
      tmp(n), x_new(n);
  double t = 0.0;
  double h = std::min(options.dt, options.t_end);
  while (t < options.t_end && result.steps_accepted < options.max_steps) {
    h = std::clamp(h, options.min_step, options.max_step);
    h = std::min(h, options.t_end - t);
    system.rhs(x, k1);
    for (std::size_t i = 0; i < n; ++i) tmp[i] = x[i] + h * kA21 * k1[i];
    system.rhs(tmp, k2);
    for (std::size_t i = 0; i < n; ++i) {
      tmp[i] = x[i] + h * (kA31 * k1[i] + kA32 * k2[i]);
    }
    system.rhs(tmp, k3);
    for (std::size_t i = 0; i < n; ++i) {
      tmp[i] = x[i] + h * (kA41 * k1[i] + kA42 * k2[i] + kA43 * k3[i]);
    }
    system.rhs(tmp, k4);
    for (std::size_t i = 0; i < n; ++i) {
      tmp[i] = x[i] + h * (kA51 * k1[i] + kA52 * k2[i] + kA53 * k3[i] +
                           kA54 * k4[i]);
    }
    system.rhs(tmp, k5);
    for (std::size_t i = 0; i < n; ++i) {
      tmp[i] = x[i] + h * (kA61 * k1[i] + kA62 * k2[i] + kA63 * k3[i] +
                           kA64 * k4[i] + kA65 * k5[i]);
    }
    system.rhs(tmp, k6);
    for (std::size_t i = 0; i < n; ++i) {
      x_new[i] = x[i] + h * (kB1 * k1[i] + kB3 * k3[i] + kB4 * k4[i] +
                             kB5 * k5[i] + kB6 * k6[i]);
    }
    if (std::ranges::any_of(x_new,
                            [](double v) { return !std::isfinite(v); })) {
      result.non_finite = true;
      break;
    }
    system.rhs(x_new, k7);
    double err_sq = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double e = h * (kE1 * k1[i] + kE3 * k3[i] + kE4 * k4[i] +
                            kE5 * k5[i] + kE6 * k6[i] + kE7 * k7[i]);
      const double scale =
          options.abs_tol +
          options.rel_tol * std::max(std::abs(x[i]), std::abs(x_new[i]));
      const double ratio = e / scale;
      err_sq += ratio * ratio;
    }
    const double err = std::sqrt(err_sq / static_cast<double>(n));
    if (err <= 1.0 || h <= options.min_step) {
      if (err > 1.0) ++result.steps_forced;
      t += h;
      std::swap(x, x_new);
      ++result.steps_accepted;
      if (!accept(t, x)) break;
    } else {
      ++result.steps_rejected;
    }
    const double factor = !std::isfinite(err) ? 0.2
                          : (err <= 0.0)
                              ? 5.0
                              : std::clamp(0.9 * std::pow(err, -0.2), 0.2, 5.0);
    h *= factor;
  }
  result.hit_step_limit =
      result.steps_accepted >= options.max_steps && t < options.t_end;
  if (trajectory.empty() || trajectory.final_time() < t) {
    trajectory.append(t, x);
  }
  result.trajectory = std::move(trajectory);
  result.end_time = t;
  return result;
}

void expect_ode_runs_bitwise(const OdeResult& run, const OdeResult& reference,
                             const std::string& context) {
  EXPECT_EQ(run.steps_accepted, reference.steps_accepted) << context;
  EXPECT_EQ(run.steps_rejected, reference.steps_rejected) << context;
  EXPECT_EQ(run.steps_forced, reference.steps_forced) << context;
  EXPECT_EQ(run.stopped_by_observer, reference.stopped_by_observer)
      << context;
  EXPECT_EQ(run.hit_step_limit, reference.hit_step_limit) << context;
  EXPECT_EQ(run.non_finite, reference.non_finite) << context;
  EXPECT_EQ(run.aborted, reference.aborted) << context;
  EXPECT_EQ(run.end_time, reference.end_time) << context;
  ASSERT_EQ(run.trajectory.sample_count(), reference.trajectory.sample_count())
      << context;
  for (std::size_t k = 0; k < run.trajectory.sample_count(); ++k) {
    ASSERT_EQ(run.trajectory.time(k), reference.trajectory.time(k))
        << context << " sample " << k;
    const std::span<const double> a = run.trajectory.state(k);
    const std::span<const double> b = reference.trajectory.state(k);
    ASSERT_TRUE(std::ranges::equal(a, b)) << context << " sample " << k;
  }
}

/// Runs the integrator and the reference on one network; returns the run.
OdeResult expect_dp45_matches_reference(const ReactionNetwork& network,
                                        const OdeOptions& options,
                                        const std::string& context) {
  const CompiledSystem system(network);
  const OdeResult reference =
      reference_dp45(system, options, network.initial_state());
  OdeResult run = simulate_ode(system, options, network.initial_state());
  expect_ode_runs_bitwise(run, reference, context);
  return run;
}

/// 1 + 6 per attempted step: what the counter reads when every step
/// reused its predecessor's last stage.
std::size_t fsal_evaluations(const OdeResult& run) {
  return 1 + 6 * (run.steps_accepted + run.steps_rejected);
}

struct OdeCase {
  std::string name;
  ReactionNetwork network;
};

std::vector<OdeCase> dp45_cases() {
  std::vector<OdeCase> cases;
  for (const char* spec :
       {"counter", "moving_average", "iir", "first_difference", "delay",
        "seqdet", "cascade", "counter(2)", "counter(8)", "delay_chain(2)",
        "delay_chain(16)", "fsm_wide(4)", "fsm_wide(32)", "cascade(2)",
        "cascade(5)"}) {
    cases.push_back({spec, *scenario::ScenarioRegistry::global().resolve(spec).design.network});
  }
  const std::vector<verify::CaseKind> kinds = {
      verify::CaseKind::kRawNetwork, verify::CaseKind::kSyncCircuit,
      verify::CaseKind::kDualRailCircuit, verify::CaseKind::kFsm,
      verify::CaseKind::kCounter};
  for (const verify::CaseKind kind : kinds) {
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
      cases.push_back({std::string(verify::to_string(kind)) + " seed " +
                           std::to_string(seed),
                       verify::generate_case(kind, seed).network()});
    }
  }
  return cases;
}

OdeOptions dp45_options() {
  OdeOptions options;
  options.method = OdeMethod::kDormandPrince45;
  options.t_end = 2.0;
  options.record_interval = 0.05;
  return options;
}

TEST(Dp45Fsal, MatchesSevenStageReference) {
  const std::vector<OdeCase> cases = dp45_cases();
  ASSERT_EQ(cases.size(), 15u + 50u);
  std::size_t steps = 0;
  std::size_t rejected = 0;
  for (const OdeCase& c : cases) {
    const OdeResult run =
        expect_dp45_matches_reference(c.network, dp45_options(), c.name);
    steps += run.steps_accepted;
    rejected += run.steps_rejected;
    // Never more than the 7-stage loop, never less than perfect reuse.
    EXPECT_GE(run.rhs_evaluations, fsal_evaluations(run)) << c.name;
    EXPECT_LE(run.rhs_evaluations,
              7 * (run.steps_accepted + run.steps_rejected))
        << c.name;
  }
  EXPECT_GT(steps, 10'000u) << "cases too easy to regress";
  EXPECT_GT(rejected, 0u) << "the rejected-step path must be taken too";
}

TEST(Dp45Fsal, MatchesReferenceRecordingEveryStep) {
  OdeOptions options = dp45_options();
  options.record_interval = 0.0;
  for (const OdeCase& c : dp45_cases()) {
    expect_dp45_matches_reference(c.network, options, c.name);
  }
}

TEST(Dp45Fsal, MatchesReferenceOnAbort) {
  std::size_t aborted = 0;
  for (const OdeCase& c : dp45_cases()) {
    // A deterministic abort: the hook fires on its 40th poll.
    std::size_t polls = 0;
    OdeOptions options = dp45_options();
    options.abort = [&polls] { return ++polls >= 40; };
    const CompiledSystem system(c.network);
    const OdeResult reference =
        reference_dp45(system, options, c.network.initial_state());
    polls = 0;
    const OdeResult run =
        simulate_ode(system, options, c.network.initial_state());
    expect_ode_runs_bitwise(run, reference, c.name);
    if (run.aborted) ++aborted;
  }
  EXPECT_GT(aborted, 10u) << "the abort exit must actually be taken";
}

TEST(Dp45Fsal, MatchesReferenceWithObservers) {
  // Observers may write the state, so every accepted step recomputes k1;
  // the injector makes that write real, the detector stops the run early.
  const ReactionNetwork net =
      *scenario::ScenarioRegistry::global().resolve("cascade(4)").design.network;
  const CompiledSystem system(net);
  const SpeciesId first{0};
  OdeOptions options = dp45_options();
  options.t_end = 4.0;
  {
    FaultEventObserver reference_injector(
        {{.time = 1.0, .species = first, .add = 0.5}});
    Observer* reference_observers[] = {&reference_injector};
    const OdeResult reference = reference_dp45(
        system, options, net.initial_state(), reference_observers);
    FaultEventObserver injector({{.time = 1.0, .species = first, .add = 0.5}});
    Observer* observers[] = {&injector};
    const OdeResult run =
        simulate_ode(system, options, net.initial_state(), observers);
    expect_ode_runs_bitwise(run, reference, "injector");
    // A fresh k1 after every accepted step but the last.
    EXPECT_EQ(run.rhs_evaluations,
              fsal_evaluations(run) + run.steps_accepted - 1);
  }
  {
    const ReactionNetwork decay = decay_network(1.0);
    const CompiledSystem decay_system(decay);
    SteadyStateDetector reference_detector(1e-6, 0.5);
    Observer* reference_observers[] = {&reference_detector};
    options.t_end = 1000.0;
    const OdeResult reference = reference_dp45(
        decay_system, options, decay.initial_state(), reference_observers);
    SteadyStateDetector detector(1e-6, 0.5);
    Observer* observers[] = {&detector};
    const OdeResult run = simulate_ode(decay_system, options,
                                       decay.initial_state(), observers);
    expect_ode_runs_bitwise(run, reference, "detector");
    EXPECT_TRUE(run.stopped_by_observer);
  }
}

TEST(Dp45Fsal, ReusesEveryLastStageOnCascade) {
  // cascade(4) is one of the stability-limited serve workloads: nothing is
  // ever clamped, so every step after the first costs exactly 6 RHS.
  const ReactionNetwork net =
      *scenario::ScenarioRegistry::global().resolve("cascade(4)").design.network;
  OdeOptions options = dp45_options();
  options.t_end = 5.0;
  const OdeResult run =
      expect_dp45_matches_reference(net, options, "cascade(4)");
  EXPECT_GT(run.steps_accepted, 100u);
  EXPECT_EQ(run.rhs_evaluations, fsal_evaluations(run));
}

TEST(Dp45Fsal, RecomputesTheFirstStageAfterAClamp) {
  // A fast annihilation under loose tolerances overshoots B below zero; the
  // clamp rewrites x after the step, so k7 = f(unclamped x) must not be
  // reused as the next k1.
  ReactionNetwork net;
  NetworkBuilder b(net);
  b.species("A", 1.0);
  b.species("B", 0.5);
  b.reaction("A + B -> 0", 1000.0);
  OdeOptions options = dp45_options();
  options.t_end = 1.0;
  options.dt = 0.01;
  options.rel_tol = 0.5;
  options.abs_tol = 0.5;
  options.record_interval = 0.0;
  const OdeResult run = expect_dp45_matches_reference(net, options, "clamp");
  EXPECT_GT(run.rhs_evaluations, fsal_evaluations(run))
      << "the clamp never fired: the fixture no longer covers it";
}

TEST(Dp45Fsal, MatchesReferenceWhenTheStateGoesNonFinite) {
  // x' = x^2 from x = 1 has a pole at t = 1. A min_step too large to
  // resolve it forces the controller past the pole, a stage overflows, and
  // the run must stop at its last finite state exactly where the
  // reference's separate finiteness pass stops it.
  ReactionNetwork net;
  NetworkBuilder b(net);
  b.species("X", 1.0);
  b.reaction("2 X -> 3 X", 1.0);
  OdeOptions options = dp45_options();
  options.min_step = 1e-3;
  const OdeResult run = expect_dp45_matches_reference(net, options, "pole");
  EXPECT_TRUE(run.non_finite);
  EXPECT_LT(run.end_time, options.t_end);
  for (const double v : run.trajectory.final_state()) {
    EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(OdeSimulation, RhsEvaluationCountsForFixedStepMethods) {
  const ReactionNetwork net = decay_network(1.0);
  OdeOptions options;
  options.method = OdeMethod::kRk4Fixed;
  options.t_end = 1.0;
  options.dt = 0.25;
  const OdeResult rk4 = simulate_ode(net, options);
  EXPECT_EQ(rk4.rhs_evaluations, 4 * rk4.steps_accepted);
  options.method = OdeMethod::kBackwardEuler;
  const OdeResult be = simulate_ode(net, options);
  EXPECT_GE(be.rhs_evaluations, be.steps_accepted);
}

}  // namespace
}  // namespace mrsc::sim
