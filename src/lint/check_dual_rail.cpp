// Dual-rail exclusivity.
//
// A signed value v rides on a rail pair (X_p, X_n) with v = p - n (see
// sync/dual_rail.hpp); the DualRailBuilder names every pair with the _p/_n
// suffix convention this check keys on. Railwise arithmetic may grow both
// rails, but no *single* reaction may deposit into both rails of one pair —
// that manufactures matched (+1, +1) garbage the annihilation normalizer
// then has to burn, and under stochastic semantics the two deposits are not
// atomic. The pair should also share a conserved total with the rest of its
// signal path, or normalization can silently lose value.
//
//   LINT-RAIL-01 (error)    one reaction produces both rails of a pair
//   LINT-RAIL-02 (warning)  a rail pair participates in no conservation law
#include <string_view>

#include "lint/checks.hpp"

namespace mrsc::lint {

namespace {

bool ends_with(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

struct RailPair {
  core::SpeciesId pos;
  core::SpeciesId neg;
  std::string stem;
};

std::vector<RailPair> find_rail_pairs(const core::ReactionNetwork& network) {
  std::vector<RailPair> pairs;
  for (std::size_t s = 0; s < network.species_count(); ++s) {
    const core::SpeciesId pos{
        static_cast<core::SpeciesId::underlying_type>(s)};
    const std::string& pos_name = network.species_name(pos);
    if (!ends_with(pos_name, "_p")) continue;
    const std::string stem = pos_name.substr(0, pos_name.size() - 2);
    const auto neg = network.find_species(stem + "_n");
    if (!neg) continue;
    pairs.push_back(RailPair{pos, *neg, stem});
  }
  return pairs;
}

class DualRailCheck final : public Check {
 public:
  [[nodiscard]] const char* name() const override { return "dual-rail"; }
  [[nodiscard]] const char* summary() const override {
    return "rail-pair co-production and shared conservation";
  }

  [[nodiscard]] std::string run(const LintInput& input,
                                LintReport& report) const override {
    const core::ReactionNetwork& network = *input.network;
    const std::vector<RailPair> pairs = find_rail_pairs(network);
    if (pairs.empty()) {
      return "no _p/_n rail pairs in this design";
    }

    for (const RailPair& pair : pairs) {
      for (std::size_t r = 0; r < network.reaction_count(); ++r) {
        const core::ReactionId id{
            static_cast<core::ReactionId::underlying_type>(r)};
        const core::Reaction& reaction = network.reaction(id);
        if (reaction.net_change(pair.pos) > 0 &&
            reaction.net_change(pair.neg) > 0) {
          Diagnostic d;
          d.id = "LINT-RAIL-01";
          d.severity = Severity::kError;
          d.check = name();
          d.message = "one reaction deposits into both rails of pair '" +
                      pair.stem + "' (" + network.species_name(pair.pos) +
                      ", " + network.species_name(pair.neg) +
                      "): rails must be fed by disjoint reactions";
          d.notes.push_back(network.reaction_to_string(id));
          report.diagnostics.push_back(std::move(d));
        }
      }
    }

    std::vector<std::string> basis_notes;
    const auto basis = detail::conservation_basis(network, &basis_notes);
    const auto covered =
        detail::conservation_coverage(basis, network.species_count());
    // Input-port rails are exempt: the harness injects into them from
    // outside, so their conserved total is completed by the environment,
    // not by the network.
    std::vector<bool> is_input(network.species_count(), false);
    for (const core::SpeciesId id :
         input.roots_with(compile::PortRole::kInput)) {
      is_input[id.index()] = true;
    }
    for (const RailPair& pair : pairs) {
      if (is_input[pair.pos.index()] || is_input[pair.neg.index()]) continue;
      if (covered[pair.pos.index()] && covered[pair.neg.index()]) continue;
      Diagnostic d;
      d.id = "LINT-RAIL-02";
      d.severity = Severity::kWarning;
      d.check = name();
      d.message = "rail pair '" + pair.stem +
                  "' is not fully covered by conservation laws (" +
                  network.species_name(pair.pos) + ": " +
                  (covered[pair.pos.index()] ? "covered" : "uncovered") +
                  ", " + network.species_name(pair.neg) + ": " +
                  (covered[pair.neg.index()] ? "covered" : "uncovered") +
                  "); rail imbalance can drift without bound";
      d.notes = basis_notes;
      report.diagnostics.push_back(std::move(d));
    }
    return {};
  }
};

}  // namespace

std::unique_ptr<Check> make_dual_rail_check() {
  return std::make_unique<DualRailCheck>();
}

}  // namespace mrsc::lint
