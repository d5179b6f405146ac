// Experiment F1 + T5: the molecular clock.
//
// F1 — regenerates the paper's clock figure: sustained three-phase
//      oscillation of the chemical concentrations, where a high
//      concentration is a logical 1 and a low concentration a logical 0.
// T5 — timing-closure table: measured period, phase durations, amplitude,
//      and mutual-exclusion margin as functions of the phase stretch and the
//      slow rate constant.
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/metrics.hpp"
#include "analysis/plot.hpp"
#include "core/network.hpp"
#include "sim/observer.hpp"
#include "sim/ode.hpp"
#include "sync/clock.hpp"

namespace {

using namespace mrsc;

struct ClockMeasurement {
  double period = 0.0;
  double period_stddev = 0.0;
  double amplitude = 0.0;
  double worst_overlap = 0.0;  // max of the 2nd-largest phase at any time
  std::size_t cycles = 0;
};

ClockMeasurement measure(const sync::ClockSpec& spec,
                         const core::RatePolicy& policy, double t_end) {
  core::ReactionNetwork net;
  net.set_rate_policy(policy);
  const sync::ClockHandles clock = sync::build_clock(net, spec);
  sim::EdgeDetector edges(clock.phase_g, 0.2 * spec.token, 0.6 * spec.token);
  sim::Observer* observers[] = {&edges};
  sim::OdeOptions options;
  options.t_end = t_end;
  options.record_interval = 0.05 / policy.k_slow;
  const sim::OdeResult run = sim::simulate_ode(
      net, options, net.initial_state(),
      std::span<sim::Observer* const>(observers, 1));

  ClockMeasurement m;
  const auto& rising = edges.rising_edges();
  m.cycles = rising.size();
  if (rising.size() >= 3) {
    std::vector<double> periods;
    for (std::size_t i = 2; i < rising.size(); ++i) {
      periods.push_back(rising[i] - rising[i - 1]);  // skip startup
    }
    m.period = analysis::mean(periods);
    m.period_stddev = periods.size() >= 2 ? analysis::stddev(periods) : 0.0;
  }
  const double settle = t_end * 0.3;
  for (std::size_t k = 0; k < run.trajectory.sample_count(); ++k) {
    if (run.trajectory.time(k) < settle) continue;
    double values[3] = {run.trajectory.value(k, clock.phase_r),
                        run.trajectory.value(k, clock.phase_g),
                        run.trajectory.value(k, clock.phase_b)};
    m.amplitude = std::max(m.amplitude, values[1]);
    std::sort(std::begin(values), std::end(values));
    m.worst_overlap = std::max(m.worst_overlap, values[1]);
  }
  return m;
}

void figure_waveform() {
  std::printf("== F1: molecular clock — sustained three-phase oscillation\n");
  std::printf("   (k_slow=1, k_fast=1000, token=1, stretch=4)\n\n");
  core::ReactionNetwork net;
  const sync::ClockSpec spec;
  const sync::ClockHandles clock = sync::build_clock(net, spec);
  sim::OdeOptions options;
  options.t_end = 150.0;
  options.record_interval = 0.4;
  const sim::OdeResult run = sim::simulate_ode(net, options);
  const std::vector<core::SpeciesId> ids = {clock.phase_r, clock.phase_g,
                                            clock.phase_b};
  analysis::AsciiPlotOptions plot;
  plot.width = 110;
  plot.height = 14;
  plot.y_min = 0.0;
  plot.y_max = 1.05;
  std::printf("%s\n", analysis::plot_trajectory(run.trajectory, net, ids,
                                                plot)
                          .c_str());
}

}  // namespace

int main() {
  figure_waveform();

  std::printf(
      "== T5a: period vs phase stretch (k_slow=1, k_fast=1000, token=1)\n\n");
  std::printf("%-10s %-10s %-12s %-11s %-10s %s\n", "stretch", "period",
              "period sd", "amplitude", "overlap", "cycles");
  for (const double stretch : {1.0, 2.0, 4.0, 8.0, 16.0}) {
    sync::ClockSpec spec;
    spec.phase_stretch = stretch;
    const ClockMeasurement m =
        measure(spec, core::RatePolicy{}, 180.0 * stretch);
    std::printf("%-10.1f %-10.2f %-12.3f %-11.3f %-10.3f %zu\n", stretch,
                m.period, m.period_stddev, m.amplitude, m.worst_overlap,
                m.cycles);
  }

  std::printf(
      "\n== T5b: period vs k_slow (stretch=4, ratio k_fast/k_slow=1000)\n\n");
  std::printf("%-10s %-12s %-10s\n", "k_slow", "period", "period*k_slow");
  for (const double k_slow : {0.25, 0.5, 1.0, 2.0, 4.0}) {
    core::RatePolicy policy;
    policy.k_slow = k_slow;
    policy.k_fast = 1000.0 * k_slow;
    const ClockMeasurement m = measure({}, policy, 700.0 / k_slow);
    std::printf("%-10.2f %-12.2f %-10.2f\n", k_slow, m.period,
                m.period * k_slow);
  }
  std::printf(
      "\n(The period scales as 1/k_slow: the clock frequency is set by the\n"
      " slow rate category alone, as the rate-independence claim requires.)\n");

  std::printf("\n== T5c: ablation — clock without positive feedback\n\n");
  sync::ClockSpec no_feedback;
  no_feedback.feedback = false;
  const ClockMeasurement m = measure(no_feedback, core::RatePolicy{}, 600.0);
  std::printf("cycles detected in 600 time units: %zu (with feedback: ~20)\n",
              m.cycles);
  std::printf(
      "-> without reactions (2)-(3) the oscillation collapses into a mixed\n"
      "   fixed point; the feedback dimers are what make the clock a\n"
      "   relaxation oscillator.\n");
  return 0;
}
