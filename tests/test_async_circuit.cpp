#include "async/circuit.hpp"

#include <gtest/gtest.h>

#include "analysis/decode.hpp"
#include "analysis/metrics.hpp"
#include "dsp/filters.hpp"
#include "sim/ode.hpp"

namespace mrsc::async {
namespace {

using core::ReactionNetwork;
using sync::Reg;
using sync::Sig;

std::vector<double> run_self_timed(const ReactionNetwork& net,
                                   const CompiledAsyncCircuit& circuit,
                                   const std::vector<double>& samples) {
  sim::OdeOptions ode;
  // A handshake cycle is ~20-40 slow time constants; budget generously (the
  // run stops early once all outputs arrive).
  ode.t_end = 150.0 * static_cast<double>(samples.size() + 3);
  return analysis::run_decoded(
             net, ode, analysis::CircuitDecoder::self_timed(circuit, {}),
             samples)
      .outputs[0];
}

TEST(AsyncCircuit, MinOpRejected) {
  AsyncCircuitBuilder builder;
  const Sig a = builder.input("a");
  const Sig b = builder.input("b");
  builder.output("y", builder.min(a, b));
  ReactionNetwork net;
  EXPECT_THROW((void)builder.compile_async(net), std::logic_error);
}

TEST(AsyncCircuit, StaticChecksStillApply) {
  AsyncCircuitBuilder builder;
  (void)builder.input("x");
  ReactionNetwork net;
  EXPECT_THROW((void)builder.compile_async(net), std::logic_error);
}

TEST(AsyncCircuit, HandlesAreNamed) {
  AsyncCircuitBuilder builder;
  const Sig x = builder.input("x");
  const Reg reg = builder.add_register("d", 0.25);
  builder.output("y", builder.read(reg));
  builder.write(reg, x);
  ReactionNetwork net;
  const CompiledAsyncCircuit compiled = builder.compile_async(net, "t");
  EXPECT_NO_THROW((void)compiled.input("x"));
  EXPECT_NO_THROW((void)compiled.output("y"));
  EXPECT_NO_THROW((void)compiled.red_of("d"));
  EXPECT_NO_THROW((void)compiled.red_of("hb"));  // built-in heartbeat
  EXPECT_THROW((void)compiled.input("zzz"), std::out_of_range);
  EXPECT_DOUBLE_EQ(net.initial(compiled.red_of("d")), 0.25);
}

TEST(AsyncCircuit, HeartbeatPacesWithoutData) {
  // With no inputs injected, the heartbeat keeps cycling: the pipeline is
  // live even when idle.
  AsyncCircuitBuilder builder;
  const Sig x = builder.input("x");
  const Reg reg = builder.add_register("d", 0.0);
  builder.output("y", builder.read(reg));
  builder.write(reg, x);
  ReactionNetwork net;
  const CompiledAsyncCircuit compiled = builder.compile_async(net, "t");

  sim::EdgeDetector pacing(compiled.pacing, 0.2, 0.6);
  sim::Observer* observers[] = {&pacing};
  sim::OdeOptions options;
  options.t_end = 400.0;
  (void)sim::simulate_ode(net, options, net.initial_state(),
                          std::span<sim::Observer* const>(observers, 1));
  EXPECT_GE(pacing.rising_edges().size(), 3u);
}

TEST(AsyncCircuit, DelayLineDelaysByOneCycle) {
  AsyncCircuitBuilder builder;
  const Sig x = builder.input("x");
  const Reg reg = builder.add_register("d", 0.0);
  builder.output("y", builder.read(reg));
  builder.write(reg, x);
  auto net = std::make_unique<ReactionNetwork>();
  const CompiledAsyncCircuit compiled = builder.compile_async(*net, "t");

  const std::vector<double> samples = {1.0, 0.5, 1.5};
  const auto outputs = run_self_timed(*net, compiled, samples);
  const auto expected = dsp::reference_delay_line(samples, 1);
  EXPECT_LT(analysis::max_abs_error(outputs, expected), 0.05);
}

TEST(AsyncCircuit, MovingAverageSelfTimed) {
  // The paper's flagship filter with NO clock anywhere: completion is
  // detected by the blue-colored wires.
  AsyncCircuitBuilder builder;
  const Sig x = builder.input("x");
  const auto copies = builder.fanout(x, 2);
  const Reg reg = builder.add_register("d", 0.0);
  const Sig prev = builder.read(reg);
  builder.write(reg, copies[1]);
  builder.output("y", builder.scale(builder.add(copies[0], prev), 1, 1));
  auto net = std::make_unique<ReactionNetwork>();
  const CompiledAsyncCircuit compiled = builder.compile_async(*net, "t");

  const std::vector<double> samples = {1.0, 0.0, 1.0, 0.5};
  const auto outputs = run_self_timed(*net, compiled, samples);
  const auto expected = dsp::reference_moving_average(samples);
  EXPECT_LT(analysis::max_abs_error(outputs, expected), 0.05);
}

TEST(AsyncCircuit, RateRatioRobust) {
  for (const double ratio : {200.0, 5000.0}) {
    AsyncCircuitBuilder builder;
    const Sig x = builder.input("x");
    const Reg reg = builder.add_register("d", 0.0);
    builder.output("y", builder.read(reg));
    builder.write(reg, x);
    auto net = std::make_unique<ReactionNetwork>();
    const CompiledAsyncCircuit compiled = builder.compile_async(*net, "t");
    net->set_rate_policy(core::RatePolicy{1.0, ratio});

    const std::vector<double> samples = {1.0, 0.5};
    const auto outputs = run_self_timed(*net, compiled, samples);
    const auto expected = dsp::reference_delay_line(samples, 1);
    EXPECT_LT(analysis::max_abs_error(outputs, expected), 0.08)
        << "ratio " << ratio;
  }
}

}  // namespace
}  // namespace mrsc::async
