// Sequential logic with molecular reactions: a 3-bit binary counter.
//
//   $ ./counter
//
// Each bit is a dual-rail pair of species; once per clock cycle an increment
// token ripples through the bits, toggling and carrying exactly like a
// gate-level ripple counter — which is precisely what it is verified
// against, cycle by cycle.
#include <cstdio>
#include <vector>

#include "analysis/decode.hpp"
#include "dsp/counter.hpp"
#include "logic/netlist.hpp"

int main() {
  using namespace mrsc;

  core::ReactionNetwork net;
  dsp::CounterSpec spec;
  spec.bits = 3;
  spec.initial_value = 2;
  const analysis::CounterDecoder counter(spec, dsp::build_counter(net, spec));
  std::printf("3-bit molecular counter starting at %llu: %zu species, %zu "
              "reactions\n\n",
              static_cast<unsigned long long>(spec.initial_value),
              net.species_count(), net.reaction_count());

  // One increment token per clock cycle.
  const std::vector<double> increments(14, 1.0);
  sim::OdeOptions ode;
  ode.t_end = counter.t_end(net.rate_policy(), increments.size());
  const auto run = analysis::run_decoded(net, ode, counter, increments);
  const std::vector<double>& values = run.outputs[0];

  // Gate-level golden model for comparison.
  const logic::Netlist golden =
      logic::make_counter_netlist(spec.bits, spec.initial_value);
  logic::Simulation sim(golden);
  const logic::NetId enable = *golden.find("enable");

  std::printf("%-7s %-12s %-12s\n", "cycle", "molecular", "gate-level");
  for (std::size_t i = 0; i < increments.size(); ++i) {
    sim.set_input(enable, true);
    sim.evaluate();
    sim.clock_edge();
    sim.evaluate();
    const auto gate = static_cast<unsigned long long>(sim.output_word());
    std::printf("%-7zu %-12.0f %-12llu%s\n", i, values[i], gate,
                values[i] == static_cast<double>(gate) ? ""
                                                       : "   <-- MISMATCH");
  }
  return 0;
}
