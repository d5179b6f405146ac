// Experiment F3: the moving-average filter, the flagship clocked-DSP example
// of this line of work (ICCAD'10 / DAC'11): y[n] = (x[n] + x[n-1]) / 2,
// computed by molecular reactions synchronized to the molecular clock, one
// input sample accepted and one output produced per clock cycle.
#include <cstdio>
#include <vector>

#include "analysis/decode.hpp"
#include "analysis/metrics.hpp"
#include "analysis/plot.hpp"
#include "dsp/filters.hpp"

namespace {
using namespace mrsc;

analysis::DecodedRun run_filter(const dsp::Design& design,
                                const sync::ClockSpec& clock,
                                const std::vector<double>& x) {
  auto decoder = analysis::CircuitDecoder::clocked(
      design.circuit, dsp::reference_moving_average);
  decoder.clock_spec = clock;
  sim::OdeOptions ode;
  ode.t_end = decoder.t_end(design.network->rate_policy(), x.size());
  return analysis::run_decoded(*design.network, ode, decoder, x);
}

}  // namespace

int main() {
  std::printf("== F3: moving-average filter y[n] = (x[n] + x[n-1]) / 2\n");
  std::printf("   (k_slow=1, k_fast=1000, clock stretch=4)\n\n");

  auto design = dsp::make_moving_average();
  const std::vector<double> x = {1.0, 1.0, 2.0, 0.0, 0.5, 1.5,
                                 1.5, 0.0, 0.0, 1.0, 1.0, 1.0};
  const auto result = run_filter(design, {}, x);
  const std::vector<double>& y = result.outputs[0];
  const std::vector<double>& expected = result.expected[0];

  std::printf("measured clock period: %.2f time units\n\n",
              result.clock_period);
  std::printf("%-5s %-10s %-12s %-12s %-10s\n", "n", "x[n]", "y[n] (mol)",
              "y[n] (ref)", "error");
  for (std::size_t n = 0; n < x.size(); ++n) {
    std::printf("%-5zu %-10.3f %-12.4f %-12.4f %-10.2e\n", n, x[n], y[n],
                expected[n], y[n] - expected[n]);
  }
  std::printf("\nmax |error| = %.3e   RMSE = %.3e\n",
              analysis::max_abs_error(y, expected),
              analysis::rmse(y, expected));

  // Figure: sampled output vs reference over the cycle index.
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
  std::printf("\n%s\n", analysis::ascii_plot(series, plot).c_str());

  std::printf("== F3b: accuracy vs clock stretch (timing closure)\n\n");
  std::printf("%-10s %-12s %-12s\n", "stretch", "max error", "period");
  for (const double stretch : {2.0, 3.0, 4.0, 6.0, 8.0}) {
    sync::ClockSpec clock;
    clock.phase_stretch = stretch;
    auto swept = dsp::make_moving_average(clock);
    const std::vector<double> xs = {1.0, 0.0, 1.0, 0.5, 1.5, 0.0};
    const auto swept_result = run_filter(swept, clock, xs);
    std::printf("%-10.1f %-12.3e %-12.2f\n", stretch,
                analysis::max_abs_error(swept_result.outputs[0],
                                        swept_result.expected[0]),
                swept_result.clock_period);
  }
  std::printf(
      "(Slower clock -> more settle time per phase -> smaller per-cycle\n"
      " transfer residual: the molecular analogue of fixing a setup-time\n"
      " violation by lowering the clock frequency.)\n");
  return 0;
}
