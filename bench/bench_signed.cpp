// Experiment F7 (extension): signed computation via dual-rail signals.
//
// Concentrations cannot be negative; a signed value rides on a rail pair
// (p, n) with v = p - n, normalized by annihilation while parked in
// registers and output ports. The first-difference filter
// y[n] = x[n] - x[n-1] — a *negative* filter coefficient — demonstrates it:
// the molecular output goes genuinely negative (its n-rail dominates) and
// tracks the reference.
#include <cstdio>
#include <vector>

#include "analysis/decode.hpp"
#include "analysis/metrics.hpp"
#include "analysis/plot.hpp"
#include "dsp/filters.hpp"

namespace {
using namespace mrsc;
}  // namespace

int main() {
  std::printf("== F7: first-difference filter y[n] = x[n] - x[n-1] "
              "(dual-rail)\n\n");

  auto design = dsp::make_first_difference();
  std::printf("compiled: %zu species, %zu reactions\n\n",
              design.network->species_count(),
              design.network->reaction_count());

  const std::vector<double> x = {1.0, 0.25, 1.5, 1.5, 0.0,
                                 2.0, 0.5,  0.5, 1.0, 0.0};
  const auto decoder = analysis::CircuitDecoder::dual_rail(
      design.circuit, dsp::reference_first_difference);
  sim::OdeOptions ode;
  ode.t_end = decoder.t_end(design.network->rate_policy(), x.size());
  const auto result = analysis::run_decoded(*design.network, ode, decoder, x);
  const std::vector<double>& y = result.outputs[0];
  const std::vector<double>& expected = result.expected[0];

  std::printf("%-4s %-8s %-12s %-12s %-10s\n", "n", "x[n]", "y[n] (mol)",
              "y[n] (ref)", "error");
  for (std::size_t n = 0; n < x.size(); ++n) {
    std::printf("%-4zu %-8.2f %-12.4f %-12.4f %-10.2e\n", n, x[n], y[n],
                expected[n], y[n] - expected[n]);
  }
  std::printf("\nmax |error| = %.3e\n",
              analysis::max_abs_error(y, expected));
  std::printf(
      "(Negative outputs appear as the n-rail dominating after in-place\n"
      " normalization; arithmetic on rails is railwise, negation is a free\n"
      " rail swap.)\n\n");

  std::printf("== F7b: signed vs unsigned compilation cost\n\n");
  auto unsigned_design = dsp::make_moving_average();
  std::printf("%-22s %-10s %-12s\n", "design", "species", "reactions");
  std::printf("%-22s %-10zu %-12zu\n", "moving avg (unsigned)",
              unsigned_design.network->species_count(),
              unsigned_design.network->reaction_count());
  std::printf("%-22s %-10zu %-12zu\n", "first diff (signed)",
              design.network->species_count(),
              design.network->reaction_count());
  std::printf("\n(Dual-rail roughly doubles the datapath: every signal is a\n"
              " pair and every op is emitted railwise.)\n");
  return 0;
}
