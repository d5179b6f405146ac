// A clocked molecular DSP filter, end to end.
//
//   $ ./moving_average
//
// Builds the moving-average filter y[n] = (x[n] + x[n-1]) / 2 with the
// synchronous circuit compiler: a molecular clock, one delay element (a
// color-triple register), fan-out, addition, and halving reactions. The
// harness injects one input sample per clock cycle and samples the output
// port once per cycle — exactly how the paper's examples are driven.
#include <cstdio>
#include <vector>

#include "analysis/decode.hpp"
#include "analysis/metrics.hpp"
#include "dsp/filters.hpp"
#include "sync/circuit.hpp"

int main() {
  using namespace mrsc;

  // Build the filter via the circuit IR (this is what
  // dsp::make_moving_average does; spelled out here for the tour).
  sync::CircuitBuilder builder;
  const sync::Sig x = builder.input("x");
  const auto copies = builder.fanout(x, 2);
  const sync::Reg delay = builder.add_register("d", 0.0);
  const sync::Sig previous = builder.read(delay);
  builder.write(delay, copies[1]);
  const sync::Sig sum = builder.add(copies[0], previous);
  builder.output("y", builder.scale(sum, 1, 1));  // * 1/2

  core::ReactionNetwork net;
  const sync::CompiledCircuit circuit = builder.compile(net);
  std::printf("compiled: %zu species, %zu reactions (clock included)\n\n",
              net.species_count(), net.reaction_count());

  // Drive it for twelve clock cycles.
  const std::vector<double> samples = {1.0, 1.0, 2.0, 0.0, 0.5, 1.5,
                                       1.5, 0.0, 0.0, 1.0, 1.0, 1.0};
  const auto decoder = analysis::CircuitDecoder::clocked(
      circuit, dsp::reference_moving_average);
  sim::OdeOptions ode;
  ode.t_end = decoder.t_end(net.rate_policy(), samples.size());
  const auto run = analysis::run_decoded(net, ode, decoder, samples);
  const std::vector<double>& y = run.outputs[0];
  const std::vector<double>& expected = run.expected[0];

  std::printf("clock period: %.2f time units\n\n", run.clock_period);
  std::printf("%-4s %-8s %-12s %-12s\n", "n", "x[n]", "y[n]", "expected");
  for (std::size_t n = 0; n < samples.size(); ++n) {
    std::printf("%-4zu %-8.2f %-12.4f %-12.4f\n", n, samples[n], y[n],
                expected[n]);
  }
  std::printf("\nmax error: %.2e\n", analysis::max_abs_error(y, expected));
  return 0;
}
