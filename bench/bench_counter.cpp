// Experiment F4: the three-bit binary counter.
//
// Sequential logic (not just linear signal flow) on the synchronous
// machinery: dual-rail bits, a ripple-carry increment token injected once
// per clock cycle, and cycle-by-cycle comparison against the gate-level
// golden-model netlist.
#include <cstdio>
#include <vector>

#include "analysis/decode.hpp"
#include "analysis/plot.hpp"
#include "dsp/counter.hpp"
#include "logic/netlist.hpp"
#include "scenario/registry.hpp"

namespace {
using namespace mrsc;

std::vector<std::uint64_t> golden(std::size_t bits, std::uint64_t initial,
                                  std::size_t increments) {
  const logic::Netlist netlist = logic::make_counter_netlist(bits, initial);
  logic::Simulation sim(netlist);
  const logic::NetId enable = *netlist.find("enable");
  std::vector<std::uint64_t> values;
  for (std::size_t i = 0; i < increments; ++i) {
    sim.set_input(enable, true);
    sim.evaluate();
    sim.clock_edge();
    sim.evaluate();
    values.push_back(sim.output_word());
  }
  return values;
}

analysis::DecodedRun run_increments(const core::ReactionNetwork& net,
                                   const analysis::Decoder& decoder,
                                   std::size_t increments) {
  const std::vector<double> tokens(increments, 1.0);
  sim::OdeOptions ode;
  ode.t_end = decoder.t_end(net.rate_policy(), increments);
  return analysis::run_decoded(net, ode, decoder, tokens);
}

}  // namespace

int main() {
  std::printf("== F4: 3-bit dual-rail binary counter, 20 increments\n");
  std::printf("   (k_slow=1, k_fast=1000, clock stretch=4)\n\n");

  scenario::ResolvedScenario resolved =
      scenario::ScenarioRegistry::global().resolve("counter(3)");
  core::ReactionNetwork& net = *resolved.design.network;
  const auto& decoder =
      dynamic_cast<const analysis::CounterDecoder&>(*resolved.decoder);
  const dsp::CounterSpec& spec = decoder.spec;
  const dsp::CounterHandles& handles = decoder.handles;
  constexpr std::size_t kIncrements = 20;
  const auto result = run_increments(net, decoder, kIncrements);
  const auto reference = golden(spec.bits, spec.initial_value, kIncrements);

  std::printf("%-7s %-12s %-12s %-8s\n", "cycle", "molecular", "gate-level",
              "match");
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < kIncrements; ++i) {
    const bool ok = result.outputs[0][i] == static_cast<double>(reference[i]);
    if (!ok) ++mismatches;
    std::printf("%-7zu %-12.0f %-12llu %s\n", i, result.outputs[0][i],
                static_cast<unsigned long long>(reference[i]),
                ok ? "yes" : "NO");
  }
  std::printf("\nmismatches: %zu / %zu cycles\n", mismatches, kIncrements);

  // Figure: the analog one-rail of bit 0 and bit 2 over time (bit 0 toggles
  // every cycle, bit 2 every four).
  std::printf("\nanalog rails (O = concentration of the 'one' rail):\n\n");
  const std::vector<core::SpeciesId> ids = {handles.one_rail[0],
                                            handles.one_rail[2]};
  analysis::AsciiPlotOptions plot;
  plot.width = 110;
  plot.height = 10;
  plot.y_min = 0.0;
  plot.y_max = 1.1;
  std::printf("%s\n", analysis::plot_trajectory(result.ode.trajectory, net,
                                                ids, plot)
                          .c_str());

  std::printf("== F4b: width scaling (increments = 2^bits + 4, wraps)\n\n");
  std::printf("%-7s %-12s %-12s\n", "bits", "mismatches", "species");
  for (const std::size_t bits : {1u, 2u, 3u, 4u}) {
    scenario::ResolvedScenario wide =
        scenario::ScenarioRegistry::global().resolve(
            "counter(" + std::to_string(bits) + ")");
    core::ReactionNetwork& wide_net = *wide.design.network;
    const std::size_t increments = (std::size_t{1} << bits) + 4;
    const auto wide_result =
        run_increments(wide_net, *wide.decoder, increments);
    const auto wide_reference = golden(bits, 0, increments);
    std::size_t bad = 0;
    for (std::size_t i = 0; i < increments; ++i) {
      if (wide_result.outputs[0][i] != static_cast<double>(wide_reference[i])) {
        ++bad;
      }
    }
    std::printf("%-7zu %-12zu %-12zu\n", bits, bad,
                wide_net.species_count());
  }
  return 0;
}
