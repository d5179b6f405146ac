// Cross-module integration tests: whole designs driven end to end under
// varying rate regimes, stochasticity, and perturbations — the operational
// form of the paper's robustness claims.
#include <gtest/gtest.h>

#include "analysis/decode.hpp"
#include "analysis/metrics.hpp"
#include "analysis/sweep.hpp"
#include "async/chain.hpp"
#include "dsp/counter.hpp"
#include "dsp/filters.hpp"
#include "sim/ode.hpp"
#include "sim/ssa.hpp"

namespace mrsc {
namespace {

/// The moving-average filter's max error over `x`, within `horizon` times
/// the decoder's suggested t_end.
double moving_average_error(const dsp::Design& design,
                            const std::vector<double>& x, double horizon) {
  const auto decoder = analysis::CircuitDecoder::clocked(
      design.circuit, dsp::reference_moving_average);
  sim::OdeOptions ode;
  ode.t_end = horizon * decoder.t_end(design.network->rate_policy(), x.size());
  const auto run = analysis::run_decoded(*design.network, ode, decoder, x);
  return analysis::max_abs_error(run.outputs[0], run.expected[0]);
}

// T1 operational form: the moving-average filter stays accurate across
// decades of k_fast/k_slow separation.
class RateRatioTest : public ::testing::TestWithParam<double> {};

TEST_P(RateRatioTest, MovingAverageAccurateAtRatio) {
  const double ratio = GetParam();
  auto design = dsp::make_moving_average();
  design.network->set_rate_policy(core::RatePolicy{1.0, ratio});
  const std::vector<double> x = {1.0, 0.0, 1.0, 0.5};
  EXPECT_LT(moving_average_error(design, x, 1.0), 0.03)
      << "ratio " << ratio;
}

INSTANTIATE_TEST_SUITE_P(Ratios, RateRatioTest,
                         ::testing::Values(100.0, 1000.0, 10000.0));

TEST(Integration, MovingAverageSurvivesPerReactionJitter) {
  // Kinetic constants "are not constant at all": jitter every rate by up to
  // 1.5x in either direction; the computation must still be correct.
  auto design = dsp::make_moving_average();
  util::Rng rng(2024);
  analysis::apply_rate_jitter(*design.network, 1.5, rng);
  const std::vector<double> x = {1.0, 0.5, 1.5, 0.25};
  EXPECT_LT(moving_average_error(design, x, 2.0), 0.05);
}

TEST(Integration, CounterSurvivesPerReactionJitter) {
  core::ReactionNetwork net;
  dsp::CounterSpec spec;
  spec.bits = 3;
  const analysis::CounterDecoder decoder(spec, dsp::build_counter(net, spec));
  util::Rng rng(7);
  analysis::apply_rate_jitter(net, 1.5, rng);
  sim::OdeOptions ode;
  ode.t_end = 2.0 * decoder.t_end(net.rate_policy(), 10);
  const auto result = analysis::run_decoded(net, ode, decoder,
                                            std::vector<double>(10, 1.0));
  for (std::size_t i = 0; i < result.outputs[0].size(); ++i) {
    EXPECT_EQ(result.outputs[0][i], static_cast<double>((i + 1) % 8))
        << "cycle " << i;
  }
}

TEST(Integration, AsyncChainOdeAndSsaAgree) {
  // T2 operational form: the stochastic trajectory of the chain follows the
  // deterministic one at moderate molecule counts.
  core::ReactionNetwork net;
  async::ChainSpec spec;
  spec.elements = 1;
  const async::ChainHandles handles = async::build_delay_chain(net, spec);
  net.set_initial(handles.input, 1.0);
  net.set_rate_policy(core::RatePolicy{1.0, 200.0});

  sim::OdeOptions ode;
  ode.t_end = 60.0;
  const sim::OdeResult ode_run = sim::simulate_ode(net, ode);

  sim::SsaOptions ssa;
  ssa.t_end = 60.0;
  ssa.omega = 400.0;
  ssa.seed = 17;
  const sim::SsaResult ssa_run = sim::simulate_ssa(net, ssa);

  EXPECT_NEAR(ssa_run.trajectory.final_value(handles.output),
              ode_run.trajectory.final_value(handles.output), 0.08);
}

TEST(Integration, TwoIndependentDesignsShareOneNetwork) {
  // Namespacing: an async chain and a clock coexist without interference.
  core::ReactionNetwork net;
  async::ChainSpec chain_spec;
  chain_spec.elements = 1;
  chain_spec.prefix = "chainA";
  const async::ChainHandles chain = async::build_delay_chain(net, chain_spec);
  net.set_initial(chain.input, 1.0);
  sync::ClockSpec clock_spec;
  clock_spec.prefix = "clkB";
  const sync::ClockHandles clock = sync::build_clock(net, clock_spec);

  sim::EdgeDetector clock_edges(clock.phase_g, 0.2, 0.6);
  sim::Observer* observers[] = {&clock_edges};
  sim::OdeOptions ode;
  ode.t_end = 150.0;
  const sim::OdeResult run = sim::simulate_ode(
      net, ode, net.initial_state(),
      std::span<sim::Observer* const>(observers, 1));
  EXPECT_GT(run.trajectory.final_value(chain.output), 0.9);
  EXPECT_GE(clock_edges.rising_edges().size(), 3u);
}

TEST(Integration, RateSweepOnMovingAverage) {
  // A miniature version of the T1 bench, exercised as a test.
  analysis::RateSweepConfig config;
  config.ratios = {100.0, 1000.0};
  config.jitter_factors = {1.0};
  const auto points = analysis::run_rate_sweep(
      config,
      [](const core::RatePolicy& policy, double jitter,
         std::uint64_t seed) -> double {
        auto design = dsp::make_moving_average();
        design.network->set_rate_policy(policy);
        if (jitter > 1.0) {
          util::Rng rng(seed);
          analysis::apply_rate_jitter(*design.network, jitter, rng);
        }
        const std::vector<double> x = {1.0, 0.0, 0.5};
        return moving_average_error(design, x, 2.0);
      });
  ASSERT_EQ(points.size(), 2u);
  for (const auto& point : points) {
    EXPECT_FALSE(point.failed) << "ratio " << point.ratio;
    EXPECT_LT(point.error, 0.05) << "ratio " << point.ratio;
  }
}

TEST(Integration, BackwardEulerHandlesExtremeRatio) {
  // At k_fast/k_slow = 1e5 the network is stiff; the implicit integrator
  // still delivers the async transfer.
  core::ReactionNetwork net;
  async::ChainSpec spec;
  spec.elements = 1;
  const async::ChainHandles handles = async::build_delay_chain(net, spec);
  net.set_initial(handles.input, 1.0);
  net.set_rate_policy(core::RatePolicy{1.0, 100000.0});
  sim::OdeOptions options;
  options.method = sim::OdeMethod::kBackwardEuler;
  options.dt = 5e-3;
  options.t_end = 40.0;
  const sim::OdeResult run = sim::simulate_ode(net, options);
  EXPECT_GT(run.trajectory.final_value(handles.output), 0.9);
}

}  // namespace
}  // namespace mrsc
