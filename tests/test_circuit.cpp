#include "sync/circuit.hpp"

#include <gtest/gtest.h>

#include "analysis/decode.hpp"
#include "analysis/metrics.hpp"
#include "dsp/filters.hpp"

namespace mrsc::sync {
namespace {

using core::ReactionNetwork;

// --- static (compile-time) discipline checks --------------------------------

TEST(CircuitBuilder, SignalConsumedTwiceThrows) {
  CircuitBuilder builder;
  const Sig x = builder.input("x");
  builder.output("a", x);
  EXPECT_THROW(builder.output("b", x), std::logic_error);
}

TEST(CircuitBuilder, DanglingSignalFailsCompile) {
  CircuitBuilder builder;
  (void)builder.input("x");
  ReactionNetwork net;
  EXPECT_THROW((void)builder.compile(net), std::logic_error);
}

TEST(CircuitBuilder, UnreadRegisterFailsCompile) {
  CircuitBuilder builder;
  const Sig x = builder.input("x");
  const Reg reg = builder.add_register("d");
  builder.write(reg, x);
  ReactionNetwork net;
  EXPECT_THROW((void)builder.compile(net), std::logic_error);
}

TEST(CircuitBuilder, UnwrittenRegisterFailsCompile) {
  CircuitBuilder builder;
  const Reg reg = builder.add_register("d");
  builder.output("y", builder.read(reg));
  ReactionNetwork net;
  EXPECT_THROW((void)builder.compile(net), std::logic_error);
}

TEST(CircuitBuilder, DoubleReadThrows) {
  CircuitBuilder builder;
  const Reg reg = builder.add_register("d");
  (void)builder.read(reg);
  EXPECT_THROW((void)builder.read(reg), std::logic_error);
}

TEST(CircuitBuilder, DoubleWriteThrows) {
  CircuitBuilder builder;
  const Reg reg = builder.add_register("d");
  const Sig x = builder.input("x");
  const Sig y = builder.input("y");
  builder.write(reg, x);
  EXPECT_THROW(builder.write(reg, y), std::logic_error);
}

TEST(CircuitBuilder, FanoutZeroThrows) {
  CircuitBuilder builder;
  const Sig x = builder.input("x");
  EXPECT_THROW((void)builder.fanout(x, 0), std::logic_error);
}

TEST(CircuitBuilder, ScaleZeroNumeratorThrows) {
  CircuitBuilder builder;
  const Sig x = builder.input("x");
  EXPECT_THROW((void)builder.scale(x, 0, 1), std::logic_error);
}

TEST(CircuitBuilder, InvalidSignalThrows) {
  CircuitBuilder builder;
  EXPECT_THROW(builder.output("y", Sig{}), std::logic_error);
}

TEST(CircuitBuilder, CompiledHandlesAreNamed) {
  CircuitBuilder builder;
  const Sig x = builder.input("x");
  const Reg reg = builder.add_register("d", 0.5);
  builder.output("y", builder.read(reg));
  builder.write(reg, x);
  ReactionNetwork net;
  const CompiledCircuit compiled = builder.compile(net, {}, "t");
  EXPECT_NO_THROW((void)compiled.input("x"));
  EXPECT_NO_THROW((void)compiled.output("y"));
  EXPECT_NO_THROW((void)compiled.state("d"));
  EXPECT_THROW((void)compiled.input("nope"), std::out_of_range);
  EXPECT_THROW((void)compiled.output("nope"), std::out_of_range);
  EXPECT_THROW((void)compiled.state("nope"), std::out_of_range);
  // The register's initial value lands in the red species of its triple.
  EXPECT_DOUBLE_EQ(net.initial(compiled.state("d")), 0.5);
}

// --- dynamic behaviour -------------------------------------------------------

/// The decoded output of port `out` when `x` drives port `in`.
std::vector<double> run_circuit(const ReactionNetwork& net,
                                const CompiledCircuit& circuit,
                                const std::vector<double>& x,
                                const std::string& in = "x",
                                std::size_t warmup = 1,
                                const ClockSpec& clock = {}) {
  auto decoder = analysis::CircuitDecoder::clocked(circuit, {}, in);
  decoder.clock_spec = clock;
  sim::OdeOptions ode;
  ode.t_end = decoder.t_end(net.rate_policy(), x.size());
  analysis::DecodeOptions options;
  options.warmup_edges = warmup;
  return analysis::run_decoded(net, ode, decoder, x, options).outputs[0];
}

TEST(SyncCircuit, DelayLineDelaysByOneCycle) {
  auto design = dsp::make_delay_line(1);
  const std::vector<double> x = {1.0, 0.5, 2.0, 0.25};
  const auto outputs = run_circuit(*design.network, design.circuit, x);
  const auto expected = dsp::reference_delay_line(x, 1);
  EXPECT_LT(analysis::max_abs_error(outputs, expected), 0.01);
}

TEST(SyncCircuit, TwoStageDelayLine) {
  auto design = dsp::make_delay_line(2);
  const std::vector<double> x = {1.0, 0.5, 2.0, 0.25, 0.75};
  const auto outputs = run_circuit(*design.network, design.circuit, x);
  const auto expected = dsp::reference_delay_line(x, 2);
  // Two registers in series double the per-cycle transfer residual.
  EXPECT_LT(analysis::max_abs_error(outputs, expected), 0.02);
}

TEST(SyncCircuit, RegisterInitialValueEmergesFirst) {
  // With zero warmup edges the register's initial value is the first
  // output. (With warmup >= 1, the circuit free-runs the warmup cycles on
  // zero input and initial values are consumed — and discarded — there.)
  CircuitBuilder builder;
  const Sig x = builder.input("x");
  const Reg reg = builder.add_register("d", 0.8);
  builder.output("y", builder.read(reg));
  builder.write(reg, x);
  auto net = std::make_unique<ReactionNetwork>();
  const CompiledCircuit compiled = builder.compile(*net, {}, "t");
  const std::vector<double> samples = {0.3, 0.4};
  const auto outputs = run_circuit(*net, compiled, samples, "x", 0);
  EXPECT_NEAR(outputs[0], 0.8, 0.01);
  EXPECT_NEAR(outputs[1], 0.3, 0.01);
}

TEST(SyncCircuit, AdderCombinesTwoInputsCycleWise) {
  CircuitBuilder builder;
  const Sig a = builder.input("a");
  const Reg reg = builder.add_register("d", 0.0);
  // y[n] = a[n] + d, d := a[n] -- i.e. y[n] = a[n] + a[n-1].
  const auto copies = builder.fanout(a, 2);
  const Sig sum = builder.add(copies[0], builder.read(reg));
  builder.write(reg, copies[1]);
  builder.output("y", sum);
  auto net = std::make_unique<ReactionNetwork>();
  const CompiledCircuit compiled = builder.compile(*net, {}, "t");
  const std::vector<double> samples = {1.0, 0.5, 0.25};
  const auto outputs = run_circuit(*net, compiled, samples, "a");
  EXPECT_NEAR(outputs[0], 1.0, 0.01);
  EXPECT_NEAR(outputs[1], 1.5, 0.01);
  EXPECT_NEAR(outputs[2], 0.75, 0.01);
}

TEST(SyncCircuit, MinOpAndLeftoverDrain) {
  // y[n] = min(x[n], c) against a constant refreshed each cycle through a
  // register loop.
  CircuitBuilder builder;
  const Sig x = builder.input("x");
  const Reg constant = builder.add_register("c", 0.5);
  const auto copies = builder.fanout(builder.read(constant), 2);
  builder.write(constant, copies[1]);
  builder.output("y", builder.min(x, copies[0]));
  auto net = std::make_unique<ReactionNetwork>();
  const CompiledCircuit compiled = builder.compile(*net, {}, "t");
  const std::vector<double> samples = {1.0, 0.2, 0.8};
  const auto outputs = run_circuit(*net, compiled, samples);
  EXPECT_NEAR(outputs[0], 0.5, 0.02);
  EXPECT_NEAR(outputs[1], 0.2, 0.02);
  EXPECT_NEAR(outputs[2], 0.5, 0.02);
}

TEST(SyncCircuit, DiscardDrainsUnusedValues) {
  // Discarded copies must not accumulate and distort later cycles.
  CircuitBuilder builder;
  const Sig x = builder.input("x");
  const auto copies = builder.fanout(x, 2);
  builder.discard(copies[1]);
  const Reg reg = builder.add_register("d", 0.0);
  builder.output("y", builder.read(reg));
  builder.write(reg, copies[0]);
  auto net = std::make_unique<ReactionNetwork>();
  const CompiledCircuit compiled = builder.compile(*net, {}, "t");
  const std::vector<double> samples = {1.0, 1.0, 1.0, 1.0};
  const auto outputs = run_circuit(*net, compiled, samples);
  const auto expected = dsp::reference_delay_line(samples, 1);
  EXPECT_LT(analysis::max_abs_error(outputs, expected), 0.02);
}

TEST(SyncCircuit, MovingAverageMatchesReference) {
  auto design = dsp::make_moving_average();
  const std::vector<double> x = {1.0, 1.0, 2.0, 0.0, 0.5};
  const auto outputs = run_circuit(*design.network, design.circuit, x);
  const auto expected = dsp::reference_moving_average(x);
  EXPECT_LT(analysis::max_abs_error(outputs, expected), 0.01);
}

TEST(SyncCircuit, SecondOrderIirTracksReference) {
  auto design = dsp::make_second_order_iir();
  const std::vector<double> x = {1.0, 0.0, 0.0, 0.0, 1.0, 1.0};
  const auto outputs = run_circuit(*design.network, design.circuit, x);
  const auto expected = dsp::reference_second_order_iir(x);
  EXPECT_LT(analysis::max_abs_error(outputs, expected), 0.02);
}

TEST(SyncCircuit, SlowerClockImprovesAccuracy) {
  // Timing closure: more settle time per phase -> smaller per-cycle error.
  auto run_with_stretch = [](double stretch) {
    ClockSpec clock;
    clock.phase_stretch = stretch;
    auto design = dsp::make_moving_average(clock);
    const std::vector<double> x = {1.0, 0.0, 1.0, 0.0};
    return analysis::max_abs_error(
        run_circuit(*design.network, design.circuit, x, "x", 1, clock),
        dsp::reference_moving_average(x));
  };
  const double coarse = run_with_stretch(2.0);
  const double fine = run_with_stretch(8.0);
  EXPECT_LT(fine, coarse);
}

TEST(Filters, ReferenceModels) {
  const std::vector<double> x = {1.0, 2.0, 3.0};
  EXPECT_EQ(dsp::reference_delay_line(x, 1),
            (std::vector<double>{0.0, 1.0, 2.0}));
  EXPECT_EQ(dsp::reference_delay_line(x, 2),
            (std::vector<double>{0.0, 0.0, 1.0}));
  EXPECT_EQ(dsp::reference_moving_average(x),
            (std::vector<double>{0.5, 1.5, 2.5}));
  const std::vector<double> impulse = {1.0, 0.0, 0.0};
  const auto iir = dsp::reference_second_order_iir(impulse);
  EXPECT_DOUBLE_EQ(iir[0], 1.0);
  EXPECT_DOUBLE_EQ(iir[1], 0.5);
  EXPECT_DOUBLE_EQ(iir[2], 0.5);
}

TEST(Filters, DelayLineNeedsAtLeastOneStage) {
  EXPECT_THROW((void)dsp::make_delay_line(0), std::invalid_argument);
}

}  // namespace
}  // namespace mrsc::sync
