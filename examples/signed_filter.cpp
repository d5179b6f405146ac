// Signed molecular DSP: the first-difference filter y[n] = x[n] - x[n-1].
//
//   $ ./signed_filter
//
// Concentrations cannot be negative, so signed values ride on dual-rail
// pairs (p, n) with v = p - n: railwise add/scale, free negation (rail
// swap), and normalization by annihilation inside registers and output
// ports. The filter's coefficient on x[n-1] is -1 — impossible without the
// encoding — and its output goes genuinely negative whenever the input
// falls.
#include <cstdio>
#include <vector>

#include "analysis/decode.hpp"
#include "analysis/metrics.hpp"
#include "dsp/filters.hpp"

int main() {
  using namespace mrsc;

  auto design = dsp::make_first_difference();
  std::printf("first-difference filter: %zu species, %zu reactions\n\n",
              design.network->species_count(),
              design.network->reaction_count());

  // The dual-rail decoder drives x_p with positive samples (x_n with
  // negative ones) and reads y_p - y_n once per cycle.
  const std::vector<double> x = {0.5, 1.5, 1.5, 0.25, 2.0, 0.0, 1.0};
  const auto decoder = analysis::CircuitDecoder::dual_rail(
      design.circuit, dsp::reference_first_difference);
  sim::OdeOptions ode;
  ode.t_end = decoder.t_end(design.network->rate_policy(), x.size());
  const auto run = analysis::run_decoded(*design.network, ode, decoder, x);
  const std::vector<double>& y = run.outputs[0];
  const std::vector<double>& expected = run.expected[0];

  std::printf("%-4s %-8s %-12s %-12s\n", "n", "x[n]", "y[n]", "expected");
  for (std::size_t n = 0; n < x.size(); ++n) {
    std::printf("%-4zu %-8.2f %-12.4f %-12.4f\n", n, x[n], y[n], expected[n]);
  }
  std::printf("\nmax error: %.2e — note the negative outputs carried by "
              "the n rail.\n",
              analysis::max_abs_error(y, expected));
  return 0;
}
