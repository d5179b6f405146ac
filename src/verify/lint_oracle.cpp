#include "verify/lint_oracle.hpp"

#include <span>
#include <string>
#include <utility>

#include "lint/lint.hpp"

namespace mrsc::verify {

namespace {

using compile::PortRole;
using core::ReactionNetwork;
using core::SpeciesId;

/// Rebuilds the analyzer's input from the case handles. Tags are not
/// carried by generated cases, so tag-indexed checks are skipped — the
/// stoichiometric screening (LINT-RACE-02) is the detector this oracle
/// relies on, and it needs no tags.
lint::LintInput lint_input_for(const GeneratedCase& c,
                               const ReactionNetwork& network) {
  lint::LintInput input;
  input.network = &network;
  input.design = std::string(to_string(c.kind)) + "/seed" +
                 std::to_string(c.seed);
  const auto add = [&](std::span<const SpeciesId> ids, PortRole role) {
    for (const SpeciesId id : ids) input.roots.emplace_back(id, role);
  };
  const auto* sync_case = std::get_if<SyncCase>(&c.payload);
  const auto* dual = std::get_if<DualRailCase>(&c.payload);
  if (sync_case != nullptr || dual != nullptr) {
    const sync::CompiledCircuit& circuit =
        sync_case != nullptr ? sync_case->circuit : dual->circuit;
    for (const auto& [name, id] : circuit.inputs) {
      input.roots.emplace_back(id, PortRole::kInput);
    }
    for (const auto& [name, id] : circuit.outputs) {
      input.roots.emplace_back(id, PortRole::kOutput);
    }
    for (const auto& [name, id] : circuit.register_state) {
      input.roots.emplace_back(id, PortRole::kState);
    }
  } else if (const auto* machine = std::get_if<FsmCase>(&c.payload)) {
    add(machine->handles.input, PortRole::kInput);
    add(machine->handles.output, PortRole::kOutput);
    add(machine->handles.state, PortRole::kState);
    add(machine->handles.state_primed, PortRole::kState);
  } else if (const auto* counter = std::get_if<CounterCase>(&c.payload)) {
    input.roots.emplace_back(counter->handles.increment, PortRole::kInput);
    add(counter->handles.zero_rail, PortRole::kState);
    add(counter->handles.one_rail, PortRole::kState);
  }
  if (c.clocked.decoder) {
    add(c.clocked.decoder->clock->species(), PortRole::kClock);
  }
  return input;
}

/// Local copy of the canonical stoichiometry fault (stress/ links verify/,
/// so verify/ cannot link back): the first product of `target` gains one
/// unit of stoichiometry.
ReactionNetwork duplicate_first_product(const ReactionNetwork& source,
                                        core::ReactionId target) {
  ReactionNetwork out;
  for (std::size_t s = 0; s < source.species_count(); ++s) {
    const SpeciesId id{static_cast<SpeciesId::underlying_type>(s)};
    out.add_species(source.species_name(id), source.initial(id));
  }
  out.set_rate_policy(source.rate_policy());
  for (std::size_t r = 0; r < source.reaction_count(); ++r) {
    const core::ReactionId id{
        static_cast<core::ReactionId::underlying_type>(r)};
    const core::Reaction& reaction = source.reaction(id);
    std::vector<core::Term> products = reaction.products();
    if (id == target && !products.empty()) products[0].stoich += 1;
    const core::ReactionId added =
        out.add(reaction.reactants(), std::move(products),
                reaction.category(), reaction.custom_rate(), reaction.label());
    out.reaction_mutable(added).set_rate_multiplier(
        reaction.rate_multiplier());
  }
  return out;
}

/// A reaction whose first product is a catalyst (equal stoichiometry on
/// both sides): duplicating that product breaks catalyst balance, which
/// LINT-RACE-02 detects without any metadata. Every clocked design has
/// such reactions (the clock's indicator absorptions at minimum). Rotated
/// by seed so a fuzz campaign covers many sites.
core::ReactionId pick_fault_site(const ReactionNetwork& network,
                                 std::uint64_t seed) {
  std::vector<core::ReactionId> candidates;
  for (std::size_t r = 0; r < network.reaction_count(); ++r) {
    const core::ReactionId id{
        static_cast<core::ReactionId::underlying_type>(r)};
    const core::Reaction& reaction = network.reaction(id);
    if (reaction.products().empty()) continue;
    const SpeciesId first = reaction.products()[0].species;
    if (reaction.consumes(first) && reaction.net_change(first) == 0) {
      candidates.push_back(id);
    }
  }
  if (candidates.empty()) return core::ReactionId::invalid();
  return candidates[seed % candidates.size()];
}

}  // namespace

std::vector<Violation> check_lint_cross(const GeneratedCase& c) {
  if (c.kind == CaseKind::kRawNetwork) return {};
  std::vector<Violation> out;
  const ReactionNetwork& network = c.network();
  const lint::LintInput input = lint_input_for(c, network);

  const lint::LintReport clean_report = lint::run_lint(input);
  if (clean_report.errors() > 0) {
    std::string detail =
        "static analyzer errors on a dynamically clean design:";
    for (const lint::Diagnostic& d : clean_report.diagnostics) {
      if (d.severity != lint::Severity::kError) continue;
      detail += " [" + d.id + "] " + d.message + ";";
    }
    out.push_back({"lint_cross", detail});
  }

  const core::ReactionId site = pick_fault_site(network, c.seed);
  if (site == core::ReactionId::invalid()) {
    out.push_back({"lint_cross",
                   "no catalytic-first-product fault site in a clocked "
                   "design (the clock indicators should provide one)"});
    return out;
  }
  const ReactionNetwork faulted = duplicate_first_product(network, site);
  lint::LintInput faulted_input = input;
  faulted_input.network = &faulted;
  const lint::LintReport faulted_report = lint::run_lint(faulted_input);
  if (!faulted_report.has("LINT-RACE-02")) {
    out.push_back({"lint_cross",
                   "stoichiometry fault on '" +
                       network.reaction_to_string(site) +
                       "' was not flagged with LINT-RACE-02"});
  }
  return out;
}

}  // namespace mrsc::verify
