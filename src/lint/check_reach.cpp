// Dead/unreachable species and stuck reactions.
//
// Bipartite reachability over the species/reaction graph, seeded from the
// design's roots and every species with a nonzero initial condition — the
// same fixpoint dead-species elimination uses (compile/passes.cpp), run
// here in analysis-only mode:
//
//   LINT-DEAD-01 (warning)  species in no reaction at all: frozen at its
//                           initial value, almost always a design bug
//   LINT-DEAD-02 (warning)  species that can never hold a nonzero value
//   LINT-STUCK-01 (warning) reaction that can never fire because one of
//                           its reactants is unreachable: dead logic, or a
//                           state the machine can enter but never leave
#include "lint/checks.hpp"

namespace mrsc::lint {

namespace {

class ReachabilityCheck final : public Check {
 public:
  [[nodiscard]] const char* name() const override { return "reachability"; }
  [[nodiscard]] const char* summary() const override {
    return "untouched/unreachable species and stuck reactions";
  }

  [[nodiscard]] std::string run(const LintInput& input,
                                LintReport& report) const override {
    const core::ReactionNetwork& network = *input.network;

    for (const core::SpeciesId id : compile::untouched_species(network)) {
      Diagnostic d;
      d.id = "LINT-DEAD-01";
      d.severity = Severity::kWarning;
      d.check = name();
      d.message = "species '" + network.species_name(id) +
                  "' appears in no reaction: frozen at its initial value";
      report.diagnostics.push_back(std::move(d));
    }

    std::vector<core::SpeciesId> roots;
    roots.reserve(input.roots.size());
    for (const auto& [id, role] : input.roots) roots.push_back(id);
    const std::vector<core::SpeciesId> unreachable =
        compile::unreachable_species(network, roots);
    std::vector<bool> is_unreachable(network.species_count(), false);
    for (const core::SpeciesId id : unreachable) {
      is_unreachable[id.index()] = true;
      Diagnostic d;
      d.id = "LINT-DEAD-02";
      d.severity = Severity::kWarning;
      d.check = name();
      d.message = "species '" + network.species_name(id) +
                  "' can never hold a nonzero concentration";
      report.diagnostics.push_back(std::move(d));
    }

    for (std::size_t r = 0; r < network.reaction_count(); ++r) {
      const core::ReactionId id{
          static_cast<core::ReactionId::underlying_type>(r)};
      const core::Reaction& reaction = network.reaction(id);
      for (const core::Term& term : reaction.reactants()) {
        if (!is_unreachable[term.species.index()]) continue;
        Diagnostic d;
        d.id = "LINT-STUCK-01";
        d.severity = Severity::kWarning;
        d.check = name();
        d.message = "reaction can never fire: reactant '" +
                    network.species_name(term.species) +
                    "' is unreachable";
        d.notes.push_back(network.reaction_to_string(id));
        report.diagnostics.push_back(std::move(d));
        break;  // one diagnostic per stuck reaction
      }
    }
    return {};
  }
};

}  // namespace

std::unique_ptr<Check> make_reachability_check() {
  return std::make_unique<ReachabilityCheck>();
}

}  // namespace mrsc::lint
