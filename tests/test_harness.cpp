#include "analysis/decode.hpp"

#include <gtest/gtest.h>

#include "dsp/filters.hpp"

namespace mrsc::analysis {
namespace {

/// The delay line's decoder and a run of `x` through it under `t_end`.
DecodedRun run_delay(const dsp::Design& design, const std::vector<double>& x,
                     double t_end, const DecodeOptions& options = {}) {
  sim::OdeOptions ode;
  ode.t_end = t_end;
  const auto decoder =
      CircuitDecoder::clocked(design.circuit, [](std::span<const double> s) {
        return dsp::reference_delay_line(s, 1);
      });
  return run_decoded(*design.network, ode, decoder, x, options);
}

/// The delay line's suggested horizon for `cycles` cycles.
double horizon(const dsp::Design& design, std::size_t cycles) {
  return CircuitDecoder::clocked(design.circuit, {})
      .t_end(design.network->rate_policy(), cycles);
}

TEST(Harness, TEndScalesWithCyclesAndStretch) {
  auto design = dsp::make_delay_line(1);
  auto decoder = CircuitDecoder::clocked(design.circuit, {});
  const core::RatePolicy policy;
  const double base = decoder.t_end(policy, 5);
  EXPECT_GT(decoder.t_end(policy, 20), base);
  decoder.clock_spec.phase_stretch = 8.0;
  EXPECT_GT(decoder.t_end(policy, 5), base);
}

TEST(Harness, TEndScalesWithSlowRate) {
  auto design = dsp::make_delay_line(1);
  const auto decoder = CircuitDecoder::clocked(design.circuit, {});
  core::RatePolicy fast_policy;
  fast_policy.k_slow = 10.0;
  EXPECT_LT(decoder.t_end(fast_policy, 5),
            decoder.t_end(core::RatePolicy{}, 5));
}

TEST(Harness, RunReturnsTimestampsAndPeriod) {
  auto design = dsp::make_delay_line(1);
  const std::vector<double> x = {1.0, 0.5, 0.25};
  const double t_end = horizon(design, x.size());
  const DecodedRun result = run_delay(design, x, t_end);
  ASSERT_EQ(result.outputs.size(), 1u);
  ASSERT_EQ(result.outputs[0].size(), 3u);
  ASSERT_EQ(result.inject_times.size(), 3u);
  ASSERT_EQ(result.read_times.size(), 3u);
  EXPECT_EQ(result.expected[0], dsp::reference_delay_line(x, 1));
  // Outputs are read after their cycle's injection.
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_GT(result.read_times[i], result.inject_times[i]);
  }
  EXPECT_GT(result.clock_period, 5.0);
  EXPECT_LT(result.clock_period, 100.0);
  // The run stops shortly after the last read, well before t_end.
  EXPECT_LT(result.ode.end_time, t_end);
}

TEST(Harness, ThrowsWhenBudgetTooShort) {
  auto design = dsp::make_delay_line(1);
  const std::vector<double> x = {1.0, 0.5, 0.25, 0.6, 0.7};
  try {
    (void)run_delay(design, x, 40.0);  // ~1 clock period: cannot fit 5
    FAIL() << "ran";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("run_clocked_circuit: simulation ended after"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("/5 outputs; increase OdeOptions::t_end"),
              std::string::npos)
        << what;
  }
}

TEST(Harness, AbortedRunSaysSo) {
  auto design = dsp::make_delay_line(1);
  const std::vector<double> x = {1.0, 0.5};
  sim::OdeOptions ode;
  ode.t_end = horizon(design, x.size());
  ode.abort = [] { return true; };
  try {
    (void)run_decoded(*design.network, ode,
                      CircuitDecoder::clocked(design.circuit, {}), x);
    FAIL() << "ran";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("aborted by deadline/cancellation after 0/2 outputs"),
              std::string::npos)
        << what;
    EXPECT_EQ(what.find("t_end"), std::string::npos) << what;
  }
}

TEST(Harness, EmptyStimulusThrows) {
  auto design = dsp::make_delay_line(1);
  EXPECT_THROW((void)run_delay(design, {}, 200.0), std::invalid_argument);
}

TEST(Harness, UnknownPortsThrow) {
  auto design = dsp::make_delay_line(1);
  EXPECT_THROW((void)CircuitDecoder::clocked(design.circuit, {}, "bogus"),
               std::out_of_range);
  EXPECT_THROW((void)CircuitDecoder::clocked(design.circuit, {}, "x", "bogus"),
               std::out_of_range);
}

TEST(Harness, CounterRunRejectsZeroIncrements) {
  core::ReactionNetwork net;
  const dsp::CounterSpec spec;
  const CounterDecoder decoder(spec, dsp::build_counter(net, spec));
  sim::OdeOptions ode;
  EXPECT_THROW((void)run_decoded(net, ode, decoder, {}),
               std::invalid_argument);
  // An increment is one token or none.
  const double two[] = {2.0};
  EXPECT_THROW((void)run_decoded(net, ode, decoder, two),
               std::invalid_argument);
}

TEST(Harness, WarmupShiftsAlignment) {
  // Regardless of warmup, the decoded outputs must line up with the same
  // reference sequence (the warmup cycles see zero input).
  auto run_with_warmup = [](std::size_t warmup) {
    auto design = dsp::make_delay_line(1);
    const std::vector<double> x = {0.7, 0.3};
    DecodeOptions options;
    options.warmup_edges = warmup;
    return run_delay(design, x, horizon(design, x.size() + warmup), options)
        .outputs[0];
  };
  const auto w1 = run_with_warmup(1);
  const auto w3 = run_with_warmup(3);
  ASSERT_EQ(w1.size(), w3.size());
  for (std::size_t i = 0; i < w1.size(); ++i) {
    EXPECT_NEAR(w1[i], w3[i], 0.01) << "sample " << i;
  }
}

/// Injects into the delay line's input port and reads that same species on
/// the same C_R edge, without clearing it.
class SameEdge final : public Decoder {
 public:
  explicit SameEdge(const sync::CompiledCircuit& circuit)
      : port_(circuit.input("x")) {
    inject_on = circuit.clock.phase_r;
    read_on = circuit.clock.phase_r;
    token = circuit.clock.token;
    columns = {"x"};
  }
  void inject(std::span<double> state, double sample) const override {
    state[port_.index()] += sample;
  }
  void read(std::span<double> state, std::span<double> row) const override {
    row[0] = state[port_.index()];
  }
  Columns reference(std::span<const double>) const override { return {}; }

 private:
  core::SpeciesId port_;
};

TEST(Harness, ReadOnAnInjectingEdgeSeesThePreInjectionState) {
  // At C_R edge k the red phase of edge k-1 has consumed sample k-1, and
  // sample k is not injected yet: the read must see an empty port. Were
  // the injection run first, the read would see the fresh sample.
  auto design = dsp::make_delay_line(1);
  const std::vector<double> x = {1.0, 1.0, 1.0};
  sim::OdeOptions ode;
  ode.t_end = horizon(design, x.size());
  DecodeOptions options;
  options.warmup_edges = 0;
  const DecodedRun run = run_decoded(*design.network, ode,
                                     SameEdge(design.circuit), x, options);
  ASSERT_EQ(run.outputs[0].size(), x.size());
  ASSERT_EQ(run.inject_times.size(), x.size());
  for (std::size_t k = 0; k < x.size(); ++k) {
    EXPECT_EQ(run.read_times[k], run.inject_times[k]) << "edge " << k;
    EXPECT_LT(run.outputs[0][k], 0.05) << "edge " << k;
  }
}

}  // namespace
}  // namespace mrsc::analysis
