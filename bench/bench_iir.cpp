// Experiment F5: second-order recursive (IIR) filter
// y[n] = x[n] + y[n-1]/2 + y[n-2]/4 — the "biquad" of this reproduction.
// Recursive designs are the hard case for clocked molecular computation:
// per-cycle transfer residuals feed back into the state, so errors could in
// principle compound. The impulse and step responses below show they stay
// bounded.
#include <cstdio>
#include <vector>

#include "analysis/decode.hpp"
#include "analysis/metrics.hpp"
#include "analysis/plot.hpp"
#include "scenario/registry.hpp"

namespace {
using namespace mrsc;

void run_case(const char* title, const std::vector<double>& x) {
  scenario::ResolvedScenario resolved =
      scenario::ScenarioRegistry::global().resolve("iir");
  const core::ReactionNetwork& net = *resolved.design.network;
  const analysis::Decoder& decoder = *resolved.decoder;
  sim::OdeOptions ode;
  ode.t_end = decoder.t_end(net.rate_policy(), x.size());
  const auto result = analysis::run_decoded(net, ode, decoder, x);
  const std::vector<double>& y = result.outputs[0];
  const std::vector<double>& expected = result.expected[0];

  std::printf("-- %s\n", title);
  std::printf("%-5s %-8s %-12s %-12s %-10s\n", "n", "x[n]", "y[n] (mol)",
              "y[n] (ref)", "error");
  for (std::size_t n = 0; n < x.size(); ++n) {
    std::printf("%-5zu %-8.3f %-12.4f %-12.4f %-10.2e\n", n, x[n], y[n],
                expected[n], y[n] - expected[n]);
  }
  std::printf("max |error| = %.3e   RMSE = %.3e\n\n",
              analysis::max_abs_error(y, expected),
              analysis::rmse(y, expected));

  analysis::Series molecular;
  molecular.label = "molecular";
  molecular.glyph = '*';
  analysis::Series reference;
  reference.label = "reference";
  reference.glyph = 'o';
  for (std::size_t n = 0; n < x.size(); ++n) {
    molecular.x.push_back(static_cast<double>(n));
    molecular.y.push_back(y[n]);
    reference.x.push_back(static_cast<double>(n));
    reference.y.push_back(expected[n]);
  }
  const std::vector<analysis::Series> series = {molecular, reference};
  analysis::AsciiPlotOptions plot;
  plot.width = 90;
  plot.height = 12;
  std::printf("%s\n", analysis::ascii_plot(series, plot).c_str());
}

}  // namespace

int main() {
  std::printf("== F5: second-order IIR filter y[n] = x[n] + y[n-1]/2 + "
              "y[n-2]/4\n");
  std::printf("   (poles at 0.809 and -0.309; k_slow=1, k_fast=1000)\n\n");

  run_case("impulse response (x = delta)",
           {1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0});
  run_case("step response (x = 1 from n=0; steady state = 4)",
           {1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0,
            1.0});
  return 0;
}
