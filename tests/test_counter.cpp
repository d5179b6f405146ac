#include "dsp/counter.hpp"

#include <gtest/gtest.h>

#include "analysis/decode.hpp"
#include "logic/netlist.hpp"

namespace mrsc::dsp {
namespace {

using core::ReactionNetwork;

struct CounterRun {
  std::vector<std::uint64_t> values;
  sim::OdeResult ode;
};

/// Drives `increments` increment tokens through the counter's decoder.
CounterRun run_counter(const ReactionNetwork& net, const CounterSpec& spec,
                       const CounterHandles& handles,
                       std::size_t increments) {
  const analysis::CounterDecoder decoder(spec, handles);
  sim::OdeOptions ode;
  ode.t_end = decoder.t_end(net.rate_policy(), increments);
  analysis::DecodedRun run = analysis::run_decoded(
      net, ode, decoder, std::vector<double>(increments, 1.0));
  CounterRun out;
  for (const double v : run.outputs[0]) {
    out.values.push_back(static_cast<std::uint64_t>(v));
  }
  out.ode = std::move(run.ode);
  return out;
}

// Golden model: the gate-level counter netlist clocked the same number of
// times.
std::vector<std::uint64_t> golden_counts(std::size_t bits,
                                         std::uint64_t initial,
                                         std::size_t increments) {
  const logic::Netlist netlist = logic::make_counter_netlist(bits, initial);
  logic::Simulation sim(netlist);
  const logic::NetId enable = *netlist.find("enable");
  std::vector<std::uint64_t> values;
  for (std::size_t i = 0; i < increments; ++i) {
    sim.set_input(enable, true);
    sim.evaluate();
    sim.clock_edge();
    sim.evaluate();
    values.push_back(sim.output_word());
  }
  return values;
}

class CounterBitsTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CounterBitsTest, MatchesGateLevelGoldenModel) {
  ReactionNetwork net;
  CounterSpec spec;
  spec.bits = GetParam();
  const CounterHandles handles = build_counter(net, spec);
  const std::size_t increments = (std::size_t{1} << spec.bits) + 3;  // wraps
  const auto result = run_counter(net, spec, handles, increments);
  const auto golden = golden_counts(spec.bits, 0, increments);
  ASSERT_EQ(result.values.size(), golden.size());
  for (std::size_t i = 0; i < increments; ++i) {
    EXPECT_EQ(result.values[i], golden[i]) << "cycle " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, CounterBitsTest,
                         ::testing::Values(1u, 2u, 3u));

TEST(Counter, InitialValueRespected) {
  ReactionNetwork net;
  CounterSpec spec;
  spec.bits = 3;
  spec.initial_value = 5;
  const CounterHandles handles = build_counter(net, spec);
  const auto result =
      run_counter(net, spec, handles, 5);
  EXPECT_EQ(result.values[0], 6u);
  EXPECT_EQ(result.values[1], 7u);
  EXPECT_EQ(result.values[2], 0u);  // wrap
  EXPECT_EQ(result.values[3], 1u);
}

TEST(Counter, DecodeThresholdsRails) {
  ReactionNetwork net;
  CounterSpec spec;
  spec.bits = 2;
  const CounterHandles handles = build_counter(net, spec);
  std::vector<double> state(net.species_count(), 0.0);
  state[handles.one_rail[0].index()] = 0.9;
  state[handles.zero_rail[0].index()] = 0.1;
  state[handles.one_rail[1].index()] = 0.2;
  state[handles.zero_rail[1].index()] = 0.8;
  EXPECT_EQ(decode_counter(handles, state), 1u);
}

TEST(Counter, RailsStayComplementary) {
  // After many cycles the dual-rail totals must remain ~1 per bit.
  ReactionNetwork net;
  CounterSpec spec;
  spec.bits = 3;
  const CounterHandles handles = build_counter(net, spec);
  const std::size_t increments = 12;
  const auto result = run_counter(net, spec, handles, increments);
  const auto final_state = result.ode.trajectory.final_state();
  for (std::size_t bit = 0; bit < spec.bits; ++bit) {
    const double total = final_state[handles.zero_rail[bit].index()] +
                         final_state[handles.one_rail[bit].index()];
    // Some quantity is transiently in the primed masters right at the end;
    // totals must stay near 1.
    EXPECT_NEAR(total, 1.0, 0.05) << "bit " << bit;
  }
}

TEST(Counter, RobustAcrossRateRatios) {
  for (const double ratio : {200.0, 5000.0}) {
    ReactionNetwork net;
    CounterSpec spec;
    spec.bits = 2;
    const CounterHandles handles = build_counter(net, spec);
    net.set_rate_policy(core::RatePolicy{1.0, ratio});
    const auto result =
        run_counter(net, spec, handles, 6);
    const auto golden = golden_counts(2, 0, 6);
    EXPECT_EQ(result.values, golden) << "ratio " << ratio;
  }
}

TEST(Counter, InvalidSpecsThrow) {
  ReactionNetwork net;
  CounterSpec zero_bits;
  zero_bits.bits = 0;
  EXPECT_THROW((void)build_counter(net, zero_bits), std::invalid_argument);
  CounterSpec bad_init;
  bad_init.bits = 2;
  bad_init.initial_value = 4;
  EXPECT_THROW((void)build_counter(net, bad_init), std::invalid_argument);
}

}  // namespace
}  // namespace mrsc::dsp
