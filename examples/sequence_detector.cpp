// General sequential computation: a finite state machine in chemistry.
//
//   $ ./sequence_detector
//
// Compiles the KMP automaton for the bit pattern "101" into a clocked
// reaction network. One input bit per clock cycle arrives as a molecular
// token; the machine's one-hot state species transition; a match emits an
// output token. Overlapping occurrences are counted correctly — it is a real
// automaton, not a pattern hack.
#include <cstdio>
#include <vector>

#include "analysis/decode.hpp"
#include "fsm/fsm.hpp"

int main() {
  using namespace mrsc;

  const fsm::FsmSpec spec = fsm::make_sequence_detector("101");
  core::ReactionNetwork net;
  const analysis::FsmDecoder machine(spec, fsm::build_fsm(net, spec));
  std::printf("'101' detector: %zu states, %zu species, %zu reactions\n\n",
              spec.num_states, net.species_count(), net.reaction_count());

  // One input bit per clock cycle; the decoder reads the state and the
  // output symbol (-1: none) each cycle.
  const std::vector<double> bits = {1, 0, 1, 0, 1, 1, 0, 1, 1, 0, 1};
  sim::OdeOptions ode;
  ode.t_end = machine.t_end(net.rate_policy(), bits.size());
  const auto run = analysis::run_decoded(net, ode, machine, bits);
  const std::vector<double>& states = run.outputs[0];
  const std::vector<double>& reference = run.expected[0];

  std::printf("%-6s %-5s %-10s %-10s %-8s\n", "cycle", "bit", "state(mol)",
              "state(ref)", "match?");
  std::size_t matches = 0;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    const bool match = run.outputs[1][i] >= 0.0;
    if (match) ++matches;
    std::printf("%-6zu %-5.0f %-10.0f %-10.0f %s%s\n", i, bits[i], states[i],
                reference[i], match ? "MATCH" : "-",
                states[i] == reference[i] ? "" : "  <-- MISMATCH");
  }
  std::printf("\n'101' occurred %zu times (expected 4, counting overlaps)\n",
              matches);
  return 0;
}
