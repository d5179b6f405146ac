#include "async/chain.hpp"

#include <gtest/gtest.h>

#include "sim/ode.hpp"
#include "sim/ssa.hpp"
#include "trajectory_window.hpp"

namespace mrsc::async {
namespace {

using core::ReactionNetwork;

// A full transfer through n elements takes 3n+1 phases of a few slow time
// constants each; budget generously (runs stop changing once Y arrives).
double t_end_for(std::size_t elements) {
  return 40.0 * static_cast<double>(elements + 1);
}

class ChainLengthTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ChainLengthTest, ValueArrivesAtOutput) {
  ReactionNetwork net;
  ChainSpec spec;
  spec.elements = GetParam();
  const ChainHandles handles = build_delay_chain(net, spec);
  net.set_initial(handles.input, 1.0);

  sim::OdeOptions options;
  options.t_end = t_end_for(spec.elements);
  const sim::OdeResult result = sim::simulate_ode(net, options);
  // The transfer is crisp but the final element's tail stalls once the
  // output (a red species) suppresses the red-absence indicator; ~1-2% of
  // the value remains in flight. That is inherent to the scheme.
  EXPECT_GT(result.trajectory.final_value(handles.output), 0.96);
  EXPECT_LT(result.trajectory.final_value(handles.output), 1.001);
  // Everything upstream has drained.
  EXPECT_LT(result.trajectory.final_value(handles.input), 0.01);
  for (std::size_t i = 0; i + 1 < spec.elements; ++i) {
    EXPECT_LT(result.trajectory.final_value(handles.red[i]), 0.02);
    EXPECT_LT(result.trajectory.final_value(handles.blue[i]), 0.02);
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, ChainLengthTest,
                         ::testing::Values(1u, 2u, 3u, 4u));

TEST(AsyncChain, PhasesAreOrdered) {
  // The green species of element 1 must peak before element 2's: the value
  // passes through them in sequence.
  ReactionNetwork net;
  ChainSpec spec;
  spec.elements = 2;
  const ChainHandles handles = build_delay_chain(net, spec);
  net.set_initial(handles.input, 1.0);

  sim::OdeOptions options;
  options.t_end = t_end_for(2);
  options.record_interval = 0.1;
  const sim::OdeResult result = sim::simulate_ode(net, options);

  auto peak_time = [&](core::SpeciesId id) {
    double best = -1.0;
    double best_t = 0.0;
    for (std::size_t k = 0; k < result.trajectory.sample_count(); ++k) {
      if (result.trajectory.value(k, id) > best) {
        best = result.trajectory.value(k, id);
        best_t = result.trajectory.time(k);
      }
    }
    return best_t;
  };
  const double order[] = {
      peak_time(handles.red[0]),  peak_time(handles.green[0]),
      peak_time(handles.blue[0]), peak_time(handles.red[1]),
      peak_time(handles.green[1]), peak_time(handles.blue[1])};
  for (std::size_t i = 0; i + 1 < std::size(order); ++i) {
    EXPECT_LT(order[i], order[i + 1]) << "stage " << i;
  }
}

TEST(AsyncChain, TransfersAreCrisp) {
  // Each stage should swing nearly rail to rail: its peak is close to the
  // full signal value.
  ReactionNetwork net;
  ChainSpec spec;
  spec.elements = 2;
  const ChainHandles handles = build_delay_chain(net, spec);
  net.set_initial(handles.input, 1.0);

  sim::OdeOptions options;
  options.t_end = t_end_for(2);
  options.record_interval = 0.1;
  const sim::OdeResult result = sim::simulate_ode(net, options);
  const core::SpeciesId stages[] = {handles.red[0], handles.green[0],
                                    handles.blue[0], handles.red[1],
                                    handles.green[1], handles.blue[1]};
  for (const core::SpeciesId stage : stages) {
    EXPECT_GT(max_in_window(result.trajectory, stage, 0.0, options.t_end),
              0.9);
  }
}

TEST(AsyncChain, FeedbackIsEssentialForCrispOrderedTransfer) {
  // Ablation of reactions (2)-(3): without the positive-feedback dimers,
  // partial products populate every color simultaneously, all three absence
  // indicators are suppressed at once, and the phase discipline collapses —
  // the value smears across the stages instead of moving in crisp steps.
  ReactionNetwork net;
  ChainSpec spec;
  spec.elements = 1;
  spec.feedback = false;
  const ChainHandles handles = build_delay_chain(net, spec);
  net.set_initial(handles.input, 1.0);
  sim::OdeOptions options;
  options.t_end = 400.0;
  options.record_interval = 0.5;
  const sim::OdeResult result = sim::simulate_ode(net, options);
  // Far from delivered by the time the feedback version has long finished
  // (the with-feedback chain delivers > 0.96 by t ~ 40; see other tests).
  EXPECT_LT(result.trajectory.final_value(handles.output), 0.5);
  // Phase exclusivity lost: at some instant at least three stages hold more
  // than 10% of the signal simultaneously.
  bool smeared = false;
  for (std::size_t k = 0; k < result.trajectory.sample_count(); ++k) {
    int occupied = 0;
    for (const core::SpeciesId stage :
         {handles.red[0], handles.green[0], handles.blue[0],
          handles.output}) {
      if (result.trajectory.value(k, stage) > 0.1) ++occupied;
    }
    if (occupied >= 3) smeared = true;
  }
  EXPECT_TRUE(smeared);
}

TEST(AsyncChain, RateRatioRobustness) {
  // The transfer characteristics are claimed independent of specific rates:
  // check delivery across two decades of k_fast/k_slow.
  for (const double ratio : {100.0, 1000.0, 10000.0}) {
    ReactionNetwork net;
    ChainSpec spec;
    spec.elements = 2;
    const ChainHandles handles = build_delay_chain(net, spec);
    net.set_initial(handles.input, 1.0);
    net.set_rate_policy(core::RatePolicy{1.0, ratio});
    sim::OdeOptions options;
    options.t_end = t_end_for(2);
    const sim::OdeResult result = sim::simulate_ode(net, options);
    EXPECT_GT(result.trajectory.final_value(handles.output), 0.92)
        << "ratio " << ratio;
  }
}

TEST(AsyncChain, DifferentAmplitudesPreserved) {
  // The feedback flux scales with the square of the signal value, so small
  // amplitudes move more slowly and stall with a slightly larger tail.
  for (const double amplitude : {0.5, 1.0, 2.0}) {
    ReactionNetwork net;
    ChainSpec spec;
    spec.elements = 2;
    const ChainHandles handles = build_delay_chain(net, spec);
    net.set_initial(handles.input, amplitude);
    sim::OdeOptions options;
    options.t_end = t_end_for(2) * 3.0;
    const sim::OdeResult result = sim::simulate_ode(net, options);
    EXPECT_NEAR(result.trajectory.final_value(handles.output), amplitude,
                0.06 * amplitude + 0.01)
        << "amplitude " << amplitude;
  }
}

TEST(AsyncChain, StochasticTransferDeliversMostMolecules) {
  ReactionNetwork net;
  ChainSpec spec;
  spec.elements = 2;
  const ChainHandles handles = build_delay_chain(net, spec);
  net.set_initial(handles.input, 1.0);
  net.set_rate_policy(core::RatePolicy{1.0, 200.0});

  sim::SsaOptions options;
  options.t_end = t_end_for(2);
  options.omega = 200.0;  // 200 molecules of signal
  options.seed = 3;
  const sim::SsaResult result = simulate_ssa(net, options);
  EXPECT_GT(result.final_counts[handles.output.index()], 180);
}

TEST(AsyncChain, ZeroElementsRejected) {
  ReactionNetwork net;
  ChainSpec spec;
  spec.elements = 0;
  EXPECT_THROW((void)build_delay_chain(net, spec), std::invalid_argument);
}

TEST(AsyncChain, PrefixAllowsMultipleChains) {
  ReactionNetwork net;
  ChainSpec first;
  first.prefix = "c1";
  ChainSpec second;
  second.prefix = "c2";
  EXPECT_NO_THROW(build_delay_chain(net, first));
  EXPECT_NO_THROW(build_delay_chain(net, second));
}

}  // namespace
}  // namespace mrsc::async
