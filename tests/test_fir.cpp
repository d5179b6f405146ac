#include <gtest/gtest.h>

#include "analysis/decode.hpp"
#include "analysis/metrics.hpp"
#include "dsp/filters.hpp"

namespace mrsc::dsp {
namespace {

std::vector<double> run_fir(const Design& design,
                            const analysis::Decoder& decoder,
                            const std::vector<double>& x) {
  sim::OdeOptions ode;
  ode.t_end = decoder.t_end(design.network->rate_policy(), x.size());
  return analysis::run_decoded(*design.network, ode, decoder, x).outputs[0];
}

std::vector<double> run_unsigned_fir(const Design& design,
                                     const std::vector<double>& x) {
  return run_fir(design, analysis::CircuitDecoder::clocked(design.circuit, {}),
                 x);
}

std::vector<double> run_signed_fir(const Design& design,
                                   const std::vector<double>& x) {
  return run_fir(design,
                 analysis::CircuitDecoder::dual_rail(design.circuit, {}), x);
}

TEST(TapValue, DyadicArithmetic) {
  EXPECT_DOUBLE_EQ(tap_value({1, 0, false}), 1.0);
  EXPECT_DOUBLE_EQ(tap_value({3, 2, false}), 0.75);
  EXPECT_DOUBLE_EQ(tap_value({1, 1, true}), -0.5);
}

TEST(ReferenceFir, Convolution) {
  const std::vector<DyadicTap> taps = {{1, 0, false}, {1, 1, true}};
  const std::vector<double> x = {1.0, 0.0, 2.0};
  const auto y = reference_fir(taps, x);
  EXPECT_DOUBLE_EQ(y[0], 1.0);
  EXPECT_DOUBLE_EQ(y[1], -0.5);
  EXPECT_DOUBLE_EQ(y[2], 2.0);
}

TEST(Fir, EmptyTapsRejected) {
  const std::vector<DyadicTap> none;
  EXPECT_THROW((void)make_fir(none), std::invalid_argument);
}

TEST(Fir, PositiveTapsCompileSingleRail) {
  const std::vector<DyadicTap> taps = {{1, 1, false}, {1, 1, false}};
  const Design design = make_fir(taps);
  EXPECT_NO_THROW((void)design.circuit.output("y"));
  EXPECT_THROW((void)design.circuit.output("y_p"), std::out_of_range);
}

TEST(Fir, NegativeTapsCompileDualRail) {
  const std::vector<DyadicTap> taps = {{1, 0, false}, {1, 0, true}};
  const Design design = make_fir(taps);
  EXPECT_NO_THROW((void)design.circuit.output("y_p"));
  EXPECT_NO_THROW((void)design.circuit.output("y_n"));
}

TEST(Fir, UnsignedThreeTapMatchesReference) {
  // y[n] = x[n]/2 + x[n-1]/4 + x[n-2]/4.
  const std::vector<DyadicTap> taps = {{1, 1, false},
                                       {1, 2, false},
                                       {1, 2, false}};
  const Design design = make_fir(taps);
  const std::vector<double> x = {1.0, 0.5, 2.0, 0.0, 1.0, 0.25};
  const auto outputs = run_unsigned_fir(design, x);
  EXPECT_LT(analysis::max_abs_error(outputs, reference_fir(taps, x)),
            0.02);
}

TEST(Fir, MovingAverageAsFirMatchesDedicatedDesign) {
  const std::vector<DyadicTap> taps = {{1, 1, false}, {1, 1, false}};
  const Design design = make_fir(taps);
  const std::vector<double> x = {1.0, 1.0, 2.0, 0.0};
  const auto outputs = run_unsigned_fir(design, x);
  EXPECT_LT(analysis::max_abs_error(outputs,
                                    reference_moving_average(x)),
            0.02);
}

TEST(Fir, SignedHighPassMatchesReference) {
  // y[n] = x[n] - x[n-1]/2 - x[n-2]/2: a signed three-tap high-pass.
  const std::vector<DyadicTap> taps = {{1, 0, false},
                                       {1, 1, true},
                                       {1, 1, true}};
  const Design design = make_fir(taps);
  const std::vector<double> x = {1.0, 1.0, 1.0, 0.0, 2.0};
  const auto y = run_signed_fir(design, x);
  EXPECT_LT(analysis::max_abs_error(y, reference_fir(taps, x)), 0.03);
}

TEST(SignedBiquad, OscillatoryImpulseResponse) {
  const Design design = make_signed_biquad();
  const std::vector<double> x = {1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  const auto y = run_signed_fir(design, x);
  const auto expected = reference_signed_biquad(x);
  // The impulse response rings with alternating sign: 1, -0.5, 0, 0.125 ...
  EXPECT_LT(expected[1], 0.0);
  EXPECT_LT(y[1], -0.3);
  EXPECT_LT(analysis::max_abs_error(y, expected), 0.03);
}

TEST(SignedBiquad, StepResponseSettlesToDcGain) {
  const Design design = make_signed_biquad();
  const std::vector<double> x(10, 1.0);
  const auto y = run_signed_fir(design, x);
  const auto expected = reference_signed_biquad(x);
  // DC gain = 1 / (1 + 1/2 + 1/4) = 4/7.
  EXPECT_NEAR(expected.back(), 4.0 / 7.0, 0.01);
  EXPECT_LT(analysis::max_abs_error(y, expected), 0.04);
}

}  // namespace
}  // namespace mrsc::dsp
