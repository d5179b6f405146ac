// Experiment F8 (extension): self-timed computation pipelines.
//
// The companion paper's program completed: combinational computation *between*
// self-timed delay elements, with no clock anywhere. Completion is detected
// chemically — the in-flight wire species are members of the blue color
// category, so the handshake cannot advance until the arithmetic has
// finished. This bench runs the moving-average filter in the self-timed
// discipline and compares it, cycle for cycle, against the clocked version
// and the exact reference.
#include <cstdio>
#include <vector>

#include "analysis/decode.hpp"
#include "analysis/metrics.hpp"
#include "async/circuit.hpp"
#include "dsp/filters.hpp"

namespace {
using namespace mrsc;

struct AsyncMovingAverage {
  std::unique_ptr<core::ReactionNetwork> network;
  async::CompiledAsyncCircuit circuit;
};

AsyncMovingAverage make_async_moving_average() {
  async::AsyncCircuitBuilder builder;
  const sync::Sig x = builder.input("x");
  const auto copies = builder.fanout(x, 2);
  const sync::Reg reg = builder.add_register("d", 0.0);
  const sync::Sig prev = builder.read(reg);
  builder.write(reg, copies[1]);
  builder.output("y", builder.scale(builder.add(copies[0], prev), 1, 1));
  AsyncMovingAverage design;
  design.network = std::make_unique<core::ReactionNetwork>();
  design.circuit = builder.compile_async(*design.network, "ama");
  return design;
}

}  // namespace

int main() {
  std::printf("== F8: self-timed moving-average filter (no clock)\n\n");

  AsyncMovingAverage design = make_async_moving_average();
  std::printf("compiled: %zu species, %zu reactions (heartbeat register "
              "included)\n\n",
              design.network->species_count(),
              design.network->reaction_count());

  const std::vector<double> x = {1.0, 1.0, 2.0, 0.0, 0.5, 1.5, 0.0, 1.0};
  sim::OdeOptions ode;
  ode.t_end = 150.0 * static_cast<double>(x.size() + 3);
  const auto result = analysis::run_decoded(
      *design.network, ode,
      analysis::CircuitDecoder::self_timed(design.circuit,
                                           dsp::reference_moving_average),
      x);
  const std::vector<double>& y = result.outputs[0];
  const std::vector<double>& expected = result.expected[0];

  std::printf("measured handshake cycle: %.2f time units (data-dependent, "
              "no clock)\n\n",
              result.clock_period);
  std::printf("%-4s %-8s %-12s %-12s %-10s\n", "n", "x[n]", "y[n] (mol)",
              "y[n] (ref)", "error");
  for (std::size_t n = 0; n < x.size(); ++n) {
    std::printf("%-4zu %-8.2f %-12.4f %-12.4f %-10.2e\n", n, x[n], y[n],
                expected[n], y[n] - expected[n]);
  }
  std::printf("\nmax |error| = %.3e\n", analysis::max_abs_error(y, expected));

  std::printf("\n== F8b: clocked vs self-timed, same filter\n\n");
  auto clocked = dsp::make_moving_average();
  const auto clocked_decoder = analysis::CircuitDecoder::clocked(
      clocked.circuit, dsp::reference_moving_average);
  sim::OdeOptions clocked_ode;
  clocked_ode.t_end =
      clocked_decoder.t_end(clocked.network->rate_policy(), x.size());
  const auto clocked_result =
      analysis::run_decoded(*clocked.network, clocked_ode, clocked_decoder, x);

  std::printf("%-14s %-10s %-12s %-14s\n", "discipline", "species",
              "cycle", "max error");
  std::printf("%-14s %-10zu %-12.2f %-14.3e\n", "clocked",
              clocked.network->species_count(), clocked_result.clock_period,
              analysis::max_abs_error(clocked_result.outputs[0], expected));
  std::printf("%-14s %-10zu %-12.2f %-14.3e\n", "self-timed",
              design.network->species_count(), result.clock_period,
              analysis::max_abs_error(y, expected));
  std::printf(
      "\n(The self-timed pipeline needs no oscillator: the heartbeat's red\n"
      " pulse opens the release window and the global absence indicators\n"
      " close it only when every in-flight species has drained. Downstream\n"
      " must consume outputs: an unread red output stalls the handshake.)\n");

  std::printf("\n== F8c: data-dependent timing — the handshake stretches "
              "with the data\n\n");
  std::printf("%-12s %-16s\n", "amplitude", "handshake cycle");
  for (const double amplitude : {0.5, 1.0, 2.0, 4.0}) {
    AsyncMovingAverage swept = make_async_moving_average();
    const std::vector<double> xs(5, amplitude);
    sim::OdeOptions swept_ode;
    swept_ode.t_end = 300.0 * static_cast<double>(xs.size() + 3);
    const auto swept_result = analysis::run_decoded(
        *swept.network, swept_ode,
        analysis::CircuitDecoder::self_timed(swept.circuit,
                                             dsp::reference_moving_average),
        xs);
    std::printf("%-12.1f %-16.2f\n", amplitude, swept_result.clock_period);
  }
  std::printf(
      "\n(The handshake adapts to the data at both extremes: large values\n"
      " take longer to release, and small values crawl through the\n"
      " quadratic feedback transfers — in each case the phases simply wait.\n"
      " A fixed clock would instead fail once the data outgrew its period.)\n");
  return 0;
}
