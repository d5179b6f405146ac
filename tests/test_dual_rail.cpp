#include "sync/dual_rail.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "analysis/decode.hpp"
#include "analysis/metrics.hpp"
#include "dsp/filters.hpp"

namespace mrsc::sync {
namespace {

using core::ReactionNetwork;

/// Drives a dual-rail circuit through `decoder`; dual-rail designs get
/// twice the usual horizon.
analysis::DecodedRun run_dual(const ReactionNetwork& net,
                              const analysis::Decoder& decoder,
                              const std::vector<double>& x) {
  sim::OdeOptions ode;
  ode.t_end = 2.0 * decoder.t_end(net.rate_policy(), x.size());
  return analysis::run_decoded(net, ode, decoder, x);
}

/// Injects a fixed amount into both input rails each cycle and reads both
/// output rails as two columns: the view the normalization test needs.
class BothRails final : public analysis::Decoder {
 public:
  explicit BothRails(const CompiledCircuit& circuit)
      : x_p_(circuit.input("x_p")),
        x_n_(circuit.input("x_n")),
        y_p_(circuit.output("y_p")),
        y_n_(circuit.output("y_n")) {
    inject_on = circuit.clock.phase_r;
    read_on = circuit.clock.phase_g;
    read_lag = 1;
    token = circuit.clock.token;
    columns = {"y_p", "y_n"};
  }
  void inject(std::span<double> state, double) const override {
    state[x_p_.index()] += 1.0;
    state[x_n_.index()] += 0.6;
  }
  void read(std::span<double> state, std::span<double> row) const override {
    row[0] = std::exchange(state[y_p_.index()], 0.0);
    row[1] = std::exchange(state[y_n_.index()], 0.0);
  }
  void discard(std::span<double> state) const override {
    state[y_p_.index()] = 0.0;
    state[y_n_.index()] = 0.0;
  }
  analysis::Columns reference(std::span<const double>) const override {
    return {};
  }

 private:
  core::SpeciesId x_p_, x_n_, y_p_, y_n_;
};

/// Compiles a signed pipeline `y = f(x)` and runs it on a signed input
/// stream (positive samples drive x_p, negative ones x_n).
std::vector<double> run_signed(
    const std::function<void(DualRailBuilder&)>& describe,
    const std::vector<double>& x) {
  CircuitBuilder base;
  DualRailBuilder builder(base);
  describe(builder);
  auto net = std::make_unique<ReactionNetwork>();
  const CompiledCircuit circuit = base.compile(*net, {}, "t");

  return run_dual(*net, analysis::CircuitDecoder::dual_rail(circuit, {}), x)
      .outputs[0];
}

TEST(DualRail, NegateIsExact) {
  const std::vector<double> x = {1.0, -0.5, 0.25};
  const auto y = run_signed(
      [](DualRailBuilder& b) { b.output("y", b.negate(b.input("x"))); }, x);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(y[i], -x[i], 0.01) << "i=" << i;
  }
}

TEST(DualRail, AddHandlesMixedSigns) {
  // y = x + c where c = -0.5 held in a register loop.
  const std::vector<double> x = {1.0, 0.25, -0.5, 2.0};
  const auto y = run_signed(
      [](DualRailBuilder& b) {
        const DSig in = b.input("x");
        const DReg constant = b.add_register("c", -0.5);
        const auto copies = b.fanout(b.read(constant), 2);
        b.write(constant, copies[1]);
        b.output("y", b.add(in, copies[0]));
      },
      x);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(y[i], x[i] - 0.5, 0.02) << "i=" << i;
  }
}

TEST(DualRail, SubtractProducesNegativeValues) {
  // y = 0 - x (explicit subtract through a lifted zero would need a
  // constant; use register-held zero minus input).
  const std::vector<double> x = {0.75, -0.25, 1.5};
  const auto y = run_signed(
      [](DualRailBuilder& b) {
        const DSig in = b.input("x");
        const DReg zero = b.add_register("z", 0.0);
        const auto copies = b.fanout(b.read(zero), 2);
        b.write(zero, copies[1]);
        b.output("y", b.subtract(copies[0], in));
      },
      x);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(y[i], -x[i], 0.02) << "i=" << i;
  }
}

TEST(DualRail, ScaleAppliesToBothRails) {
  const std::vector<double> x = {2.0, -2.0, 1.0};
  const auto y = run_signed(
      [](DualRailBuilder& b) {
        b.output("y", b.scale(b.input("x"), 3, 2));  // * 3/4
      },
      x);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(y[i], 0.75 * x[i], 0.02) << "i=" << i;
  }
}

TEST(DualRail, RegisterNormalizesParkedValue) {
  // Write (p, n) = (1.0, 0.6) into a register every cycle via railwise adds;
  // without normalization the rails would grow without bound. Read the
  // register's rails back out and check they stay bounded and their
  // difference stays correct.
  CircuitBuilder base;
  DualRailBuilder builder(base);
  const DSig in = builder.input("x");
  const DReg reg = builder.add_register("r", 0.0);
  const DSig held = builder.read(reg);
  builder.write(reg, in);
  builder.output("y", held);
  auto net = std::make_unique<ReactionNetwork>();
  const CompiledCircuit circuit = base.compile(*net, {}, "t");

  const std::size_t cycles = 6;
  const auto result = run_dual(*net, BothRails(circuit),
                               std::vector<double>(cycles, 1.0));
  const auto& pos = result.outputs[0];
  const auto& neg = result.outputs[1];
  for (std::size_t i = 1; i < cycles; ++i) {
    EXPECT_NEAR(pos[i] - neg[i], 0.4, 0.02) << "cycle " << i;
    // Normalized: the common part was annihilated in the register.
    EXPECT_LT(neg[i], 0.05) << "cycle " << i;
    EXPECT_LT(pos[i], 0.45 + 0.05) << "cycle " << i;
  }
}

TEST(DualRail, FirstDifferenceFilterMatchesReference) {
  auto design = dsp::make_first_difference();
  const std::vector<double> x = {1.0, 0.25, 1.5, 1.5, 0.0, 2.0};
  const auto result = run_dual(
      *design.network,
      analysis::CircuitDecoder::dual_rail(design.circuit,
                                          dsp::reference_first_difference),
      x);
  const auto& y = result.outputs[0];
  const auto& expected = result.expected[0];
  EXPECT_LT(analysis::max_abs_error(y, expected), 0.02);
  // The filter genuinely produces negative outputs.
  EXPECT_LT(expected[4], 0.0);
  EXPECT_LT(y[4], -1.0);
}

TEST(DualRail, DiscardDrainsBothRails) {
  const std::vector<double> x = {1.0, -1.0, 1.0};
  const auto y = run_signed(
      [](DualRailBuilder& b) {
        const DSig in = b.input("x");
        const auto copies = b.fanout(in, 2);
        b.discard(copies[1]);
        b.output("y", copies[0]);
      },
      x);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(y[i], x[i], 0.02) << "i=" << i;
  }
}

TEST(DualRail, AnnihilateRegistersValidation) {
  CircuitBuilder base;
  const Reg r = base.add_register("r");
  EXPECT_THROW(base.annihilate_registers(r, r), std::logic_error);
  EXPECT_THROW(base.annihilate_registers(r, Reg{5}), std::logic_error);
}

TEST(DualRailDecoder, ValidatesItsRails) {
  auto design = dsp::make_first_difference();
  const auto decoder = analysis::CircuitDecoder::dual_rail(
      design.circuit, dsp::reference_first_difference);
  EXPECT_THROW((void)run_dual(*design.network, decoder, {}),
               std::invalid_argument);
  // A rail pair needs both rails on both ends.
  EXPECT_THROW(analysis::CircuitDecoder({design.circuit.input("x_p"),
                                         design.circuit.input("x_n")},
                                        {design.circuit.output("y_p")}, {}),
               std::invalid_argument);
  // A single-rail circuit has no rails to decode.
  auto single = dsp::make_delay_line(1);
  EXPECT_THROW((void)analysis::CircuitDecoder::dual_rail(single.circuit, {}),
               std::out_of_range);
}

}  // namespace
}  // namespace mrsc::sync
