#include "sync/clock.hpp"

#include <gtest/gtest.h>

#include "analysis/metrics.hpp"
#include "sim/observer.hpp"
#include "sim/ode.hpp"
#include "trajectory_window.hpp"

namespace mrsc::sync {
namespace {

using core::ReactionNetwork;

struct ClockRun {
  sim::OdeResult ode;
  std::vector<double> rising_r, rising_g, rising_b;
};

ClockRun run_clock(const ClockSpec& spec, double t_end,
                   const core::RatePolicy& policy = {}) {
  ReactionNetwork net;
  net.set_rate_policy(policy);
  const ClockHandles handles = build_clock(net, spec);
  sim::EdgeDetector edge_r(handles.phase_r, 0.2 * spec.token,
                           0.6 * spec.token);
  sim::EdgeDetector edge_g(handles.phase_g, 0.2 * spec.token,
                           0.6 * spec.token);
  sim::EdgeDetector edge_b(handles.phase_b, 0.2 * spec.token,
                           0.6 * spec.token);
  sim::Observer* observers[] = {&edge_r, &edge_g, &edge_b};
  sim::OdeOptions options;
  options.t_end = t_end;
  options.record_interval = 0.1;
  ClockRun run;
  run.ode = sim::simulate_ode(net, options, net.initial_state(),
                              std::span<sim::Observer* const>(observers, 3));
  run.rising_r = edge_r.rising_edges();
  run.rising_g = edge_g.rising_edges();
  run.rising_b = edge_b.rising_edges();
  return run;
}

double mean_period(const std::vector<double>& edges) {
  if (edges.size() < 2) return 0.0;
  return (edges.back() - edges.front()) /
         static_cast<double>(edges.size() - 1);
}

TEST(Clock, SustainsOscillation) {
  const ClockRun run = run_clock({}, 400.0);
  // ~13 periods in 400 time units at stretch 4; require several full cycles
  // on every phase.
  EXPECT_GE(run.rising_r.size(), 8u);
  EXPECT_GE(run.rising_g.size(), 8u);
  EXPECT_GE(run.rising_b.size(), 8u);
}

TEST(Clock, PeriodIsRegular) {
  const ClockRun run = run_clock({}, 400.0);
  std::vector<double> periods;
  for (std::size_t i = 1; i < run.rising_g.size(); ++i) {
    periods.push_back(run.rising_g[i] - run.rising_g[i - 1]);
  }
  ASSERT_GE(periods.size(), 5u);
  const double mean = analysis::mean(periods);
  // Skip the first period (start-up transient) when judging regularity.
  for (std::size_t i = 1; i < periods.size(); ++i) {
    EXPECT_NEAR(periods[i], mean, 0.1 * mean) << "period " << i;
  }
}

TEST(Clock, PhasesAreMutuallyExclusive) {
  ReactionNetwork net;
  const ClockSpec spec;
  const ClockHandles handles = build_clock(net, spec);
  sim::OdeOptions options;
  options.t_end = 300.0;
  options.record_interval = 0.1;
  const sim::OdeResult result = sim::simulate_ode(net, options);
  // At most one phase is ever above 60% of the token; the second-largest
  // stays below 50% (they cross during transfers).
  for (std::size_t k = 0; k < result.trajectory.sample_count(); ++k) {
    double values[3] = {result.trajectory.value(k, handles.phase_r),
                        result.trajectory.value(k, handles.phase_g),
                        result.trajectory.value(k, handles.phase_b)};
    std::sort(std::begin(values), std::end(values));
    if (values[2] > 0.6) {
      EXPECT_LT(values[1], 0.5)
          << "t=" << result.trajectory.time(k);
    }
  }
}

TEST(Clock, TokenIsConserved) {
  ReactionNetwork net;
  const ClockSpec spec;
  const ClockHandles handles = build_clock(net, spec);
  sim::OdeOptions options;
  options.t_end = 200.0;
  options.record_interval = 1.0;
  const sim::OdeResult result = sim::simulate_ode(net, options);
  const auto dimer = [&](const char* name) {
    return *net.find_species(name);
  };
  for (std::size_t k = 0; k < result.trajectory.sample_count(); ++k) {
    // Token + 2x dimerized token is conserved.
    const double total =
        result.trajectory.value(k, handles.phase_r) +
        result.trajectory.value(k, handles.phase_g) +
        result.trajectory.value(k, handles.phase_b) +
        2.0 * (result.trajectory.value(k, dimer("clk_I_r2g")) +
               result.trajectory.value(k, dimer("clk_I_g2b")) +
               result.trajectory.value(k, dimer("clk_I_b2r")));
    EXPECT_NEAR(total, spec.token, 1e-3) << "t=" << result.trajectory.time(k);
  }
}

TEST(Clock, StretchLengthensPeriod) {
  ClockSpec fast_spec;
  fast_spec.phase_stretch = 2.0;
  ClockSpec slow_spec;
  slow_spec.phase_stretch = 8.0;
  const double period_fast =
      mean_period(run_clock(fast_spec, 300.0).rising_g);
  const double period_slow =
      mean_period(run_clock(slow_spec, 900.0).rising_g);
  ASSERT_GT(period_fast, 0.0);
  ASSERT_GT(period_slow, 0.0);
  // Sub-linear in the stretch: the gate build-up and seeding scale with it,
  // but the feedback-driven completion of each transfer does not.
  EXPECT_GT(period_slow, 1.5 * period_fast);
}

TEST(Clock, PeriodScalesInverselyWithSlowRate) {
  core::RatePolicy doubled;
  doubled.k_slow = 2.0;
  doubled.k_fast = 2000.0;
  const double base = mean_period(run_clock({}, 300.0).rising_g);
  const double scaled = mean_period(run_clock({}, 150.0, doubled).rising_g);
  ASSERT_GT(base, 0.0);
  ASSERT_GT(scaled, 0.0);
  EXPECT_NEAR(scaled, base / 2.0, 0.15 * base);
}

TEST(Clock, OscillatesAcrossRateRatios) {
  for (const double ratio : {100.0, 1000.0, 10000.0}) {
    core::RatePolicy policy;
    policy.k_fast = ratio;
    const ClockRun run = run_clock({}, 300.0, policy);
    EXPECT_GE(run.rising_g.size(), 6u) << "ratio " << ratio;
  }
}

TEST(Clock, PhaseOrderIsRGB) {
  const ClockRun run = run_clock({}, 200.0);
  // After startup, each G rising edge is followed by a B rising edge before
  // the next R rising edge.
  ASSERT_GE(run.rising_g.size(), 3u);
  ASSERT_GE(run.rising_b.size(), 3u);
  ASSERT_GE(run.rising_r.size(), 3u);
  EXPECT_LT(run.rising_g[0], run.rising_b[0]);
  EXPECT_LT(run.rising_b[0], run.rising_r[0]);
  EXPECT_LT(run.rising_r[0], run.rising_g[1]);
}

TEST(Clock, WithoutFeedbackOscillationCollapses) {
  // Ablation: the positive-feedback dimers are what turn the token loop into
  // a relaxation oscillator. Without them the system drifts into a mixed
  // fixed point (all phases partially occupied, all indicators suppressed)
  // instead of producing a limit cycle.
  ClockSpec spec;
  spec.feedback = false;
  const ClockRun run = run_clock(spec, 600.0);
  EXPECT_LE(run.rising_g.size(), 2u);
  const auto final_state = run.ode.trajectory.final_state();
  // No phase dominates at the end.
  int high_phases = 0;
  for (std::size_t i = 0; i < final_state.size(); ++i) {
    if (final_state[i] > 0.8) ++high_phases;
  }
  EXPECT_EQ(high_phases, 0);
}

TEST(Clock, TokenAmountSetsAmplitude) {
  ReactionNetwork net;
  ClockSpec spec;
  spec.token = 2.0;
  const ClockHandles handles = build_clock(net, spec);
  sim::OdeOptions options;
  options.t_end = 200.0;
  options.record_interval = 0.2;
  const sim::OdeResult result = sim::simulate_ode(net, options);
  EXPECT_GT(
      max_in_window(result.trajectory, handles.phase_g, 50.0, 200.0), 1.8);
}

TEST(Clock, InvalidSpecsThrow) {
  ReactionNetwork net;
  ClockSpec bad_token;
  bad_token.token = 0.0;
  EXPECT_THROW((void)build_clock(net, bad_token), std::invalid_argument);
  ClockSpec bad_stretch;
  bad_stretch.phase_stretch = 0.5;
  EXPECT_THROW((void)build_clock(net, bad_stretch), std::invalid_argument);
}

}  // namespace
}  // namespace mrsc::sync
