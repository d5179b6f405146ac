// Clock-phase race detection.
//
// The paper's synchronous discipline separates every produce/consume pair
// by a phase boundary: wires are filled under one clock phase and drained
// under another, registers hop colors between the phases that read and
// write them. Two structural violations are flagged:
//
//   LINT-RACE-01 (error)  a species produced by one slow phase-gated
//                         reaction and consumed by another *under the same
//                         gate*: the read can observe a half-deposited
//                         value, the exact race the three-phase clock
//                         exists to prevent. Needs valid emission tags.
//   LINT-RACE-02 (error)  a species on both sides of a reaction with
//                         unequal stoichiometry: a catalyst that creates
//                         or destroys itself. No tagged emission helper
//                         produces this shape, so it indicates a corrupted
//                         or hand-edited network. Runs without tags.
#include <map>

#include "lint/checks.hpp"

namespace mrsc::lint {

namespace {

using compile::ReactionTag;

bool is_phase_gated(ReactionTag tag) {
  return tag == ReactionTag::kGatedTransfer || tag == ReactionTag::kWriteback ||
         tag == ReactionTag::kDrain;
}

class PhaseRaceCheck final : public Check {
 public:
  [[nodiscard]] const char* name() const override { return "phase-race"; }
  [[nodiscard]] const char* summary() const override {
    return "same-phase produce/consume pairs and catalyst imbalance";
  }

  [[nodiscard]] std::string run(const LintInput& input,
                                LintReport& report) const override {
    const core::ReactionNetwork& network = *input.network;

    // RACE-02: catalysts must appear with equal stoichiometry on both
    // sides. Pure stoichiometric screening, independent of any metadata.
    for (std::size_t r = 0; r < network.reaction_count(); ++r) {
      const core::ReactionId id{
          static_cast<core::ReactionId::underlying_type>(r)};
      const core::Reaction& reaction = network.reaction(id);
      for (const core::Term& term : reaction.reactants()) {
        if (!reaction.produces(term.species)) continue;
        const int net = reaction.net_change(term.species);
        if (net == 0) continue;
        Diagnostic d;
        d.id = "LINT-RACE-02";
        d.severity = Severity::kError;
        d.check = name();
        d.message = "species '" + network.species_name(term.species) +
                    "' appears on both sides of a reaction with unequal "
                    "stoichiometry (net " + std::to_string(net) +
                    "): a catalyst that " +
                    (net > 0 ? "replicates" : "consumes") + " itself";
        d.notes.push_back(network.reaction_to_string(id));
        report.diagnostics.push_back(std::move(d));
      }
    }

    // RACE-01 needs the emission tags and the clock roots.
    if (!input.tags_valid) {
      report.checks_skipped.push_back(
          std::string(name()) +
          " (gated-phase analysis): no valid emission tags — only the "
          "stoichiometric screening ran");
      return {};
    }
    const std::vector<core::SpeciesId> clock_roots =
        input.roots_with(compile::PortRole::kClock);
    if (clock_roots.empty()) return {};

    // Group the slow phase-gated reactions by their gating clock species,
    // then look for a species filled and drained under the same gate.
    struct PhaseUse {
      std::vector<core::ReactionId> writes;
      std::vector<core::ReactionId> reads;
    };
    // (gate, species) -> uses
    std::map<std::pair<std::size_t, std::size_t>, PhaseUse> uses;
    for (std::size_t i = 0; i < input.tags.size(); ++i) {
      if (!is_phase_gated(input.tags[i])) continue;
      const core::ReactionId id{static_cast<core::ReactionId::underlying_type>(
          input.first_tagged + i)};
      const core::Reaction& reaction = network.reaction(id);
      core::SpeciesId gate = core::SpeciesId::invalid();
      for (const core::SpeciesId candidate : clock_roots) {
        if (reaction.consumes(candidate) && reaction.produces(candidate) &&
            reaction.net_change(candidate) == 0) {
          gate = candidate;
          break;
        }
      }
      if (gate == core::SpeciesId::invalid()) continue;
      for (const core::Term& term : reaction.reactants()) {
        if (term.species == gate) continue;
        if (reaction.net_change(term.species) < 0) {
          uses[{gate.index(), term.species.index()}].reads.push_back(id);
        }
      }
      for (const core::Term& term : reaction.products()) {
        if (term.species == gate) continue;
        if (reaction.net_change(term.species) > 0) {
          uses[{gate.index(), term.species.index()}].writes.push_back(id);
        }
      }
    }
    for (const auto& [key, use] : uses) {
      if (use.writes.empty() || use.reads.empty()) continue;
      const core::SpeciesId gate{
          static_cast<core::SpeciesId::underlying_type>(key.first)};
      const core::SpeciesId species{
          static_cast<core::SpeciesId::underlying_type>(key.second)};
      Diagnostic d;
      d.id = "LINT-RACE-01";
      d.severity = Severity::kError;
      d.check = name();
      d.message = "species '" + network.species_name(species) +
                  "' is produced and consumed by slow reactions gated on "
                  "the same clock phase '" + network.species_name(gate) +
                  "': the consumer can observe a half-deposited value";
      d.notes.push_back("produced by: " +
                        network.reaction_to_string(use.writes.front()));
      d.notes.push_back("consumed by: " +
                        network.reaction_to_string(use.reads.front()));
      report.diagnostics.push_back(std::move(d));
    }
    return {};
  }
};

}  // namespace

std::unique_ptr<Check> make_phase_race_check() {
  return std::make_unique<PhaseRaceCheck>();
}

}  // namespace mrsc::lint
