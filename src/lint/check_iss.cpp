// ISS composition certificates.
//
// When a design is built as a cascade of layers (compile::CascadeComposer),
// input-to-state stability of the whole follows from ISS of the parts
// *provided the interconnection has the right structure*. This check
// verifies the structural sufficient conditions from the compositional-ISS
// literature for CRNs (arXiv:2506.12056 — scalable stability certificates
// for interconnected systems; arXiv:2512.07116 — ISS under cascade
// composition of reaction networks) per declared interface:
//
//   (a) every inter-layer channel is a declared fast unit-stoichiometry
//       transfer u -> d (the interconnection is a pure output-to-input map
//       with gain 1);
//   (b) no undeclared reaction couples two layers (no retroactivity: the
//       upstream layer's dynamics are independent of downstream state);
//   (c) the declared interface graph is acyclic (serial composition; a
//       cycle would need a small-gain argument this check cannot make
//       statically);
//   (d) every channel target is processed: consumed by its layer, covered
//       by a conservation law, or declared a terminal the harness samples.
//
//   LINT-ISS-00 (info)     per-interface certificate when (a)-(d) hold
//   LINT-ISS-01 (error)    undeclared cross-layer coupling or a cycle in
//                          the declared interface graph
//   LINT-ISS-02 (error)    malformed channel (not a fast 1:1 transfer)
//   LINT-ISS-03 (warning)  channel target accumulates without bound
#include <algorithm>
#include <optional>

#include "lint/checks.hpp"

namespace mrsc::lint {

namespace {

using compile::Composition;
using compile::InterfaceBinding;

bool has_cycle(const Composition& comp) {
  const std::size_t n = comp.layers.size();
  std::vector<std::vector<std::size_t>> adjacent(n);
  for (const InterfaceBinding& binding : comp.interfaces) {
    adjacent[binding.from_layer].push_back(binding.to_layer);
  }
  // 0 = unvisited, 1 = on stack, 2 = done.
  std::vector<int> state(n, 0);
  std::vector<std::size_t> stack;
  for (std::size_t start = 0; start < n; ++start) {
    if (state[start] != 0) continue;
    stack.push_back(start);
    while (!stack.empty()) {
      const std::size_t node = stack.back();
      if (state[node] == 0) {
        state[node] = 1;
        for (const std::size_t next : adjacent[node]) {
          if (state[next] == 1) return true;
          if (state[next] == 0) stack.push_back(next);
        }
      } else {
        if (state[node] == 1) state[node] = 2;
        stack.pop_back();
      }
    }
  }
  return false;
}

class IssCompositionCheck final : public Check {
 public:
  [[nodiscard]] const char* name() const override { return "iss-composition"; }
  [[nodiscard]] const char* summary() const override {
    return "structural ISS sufficient conditions per cascade interface";
  }

  [[nodiscard]] std::string run(const LintInput& input,
                                LintReport& report) const override {
    if (input.composition == nullptr || input.composition->layers.empty()) {
      return "no composition record (monolithic design)";
    }
    const core::ReactionNetwork& network = *input.network;
    const Composition& comp = *input.composition;

    std::vector<bool> declared(network.reaction_count(), false);
    for (const InterfaceBinding& binding : comp.interfaces) {
      if (binding.reaction.index() < declared.size()) {
        declared[binding.reaction.index()] = true;
      }
    }

    // (b) every reaction must live inside one layer unless declared.
    bool coupling_clean = true;
    for (std::size_t r = 0; r < network.reaction_count(); ++r) {
      if (declared[r]) continue;
      const core::ReactionId id{
          static_cast<core::ReactionId::underlying_type>(r)};
      const core::Reaction& reaction = network.reaction(id);
      std::optional<std::size_t> home;
      bool spans = false;
      auto visit = [&](const std::vector<core::Term>& terms) {
        for (const core::Term& term : terms) {
          const auto layer = comp.layer_of(term.species);
          if (!layer) continue;  // species outside every layer: ignored
          if (!home) home = *layer;
          else if (*home != *layer) spans = true;
        }
      };
      visit(reaction.reactants());
      visit(reaction.products());
      if (!spans) continue;
      coupling_clean = false;
      Diagnostic d;
      d.id = "LINT-ISS-01";
      d.severity = Severity::kError;
      d.check = name();
      d.message =
          "undeclared reaction couples two layers: the cascade structure "
          "(and with it the compositional ISS argument) is broken";
      d.notes.push_back(network.reaction_to_string(id));
      report.diagnostics.push_back(std::move(d));
    }

    // (c) the declared interconnection must be a DAG.
    bool acyclic = true;
    if (has_cycle(comp)) {
      acyclic = false;
      Diagnostic d;
      d.id = "LINT-ISS-01";
      d.severity = Severity::kError;
      d.check = name();
      d.message =
          "declared interfaces form a cycle between layers: serial ISS "
          "composition does not apply (a small-gain condition would have "
          "to be established dynamically)";
      report.diagnostics.push_back(std::move(d));
    }

    for (const InterfaceBinding& binding : comp.interfaces) {
      const core::Reaction& channel = network.reaction(binding.reaction);
      const std::string channel_text =
          network.species_name(binding.upstream) + " -> " +
          network.species_name(binding.downstream);

      // (a) channel shape: fast unit transfer u -> d.
      const bool unit_shape =
          channel.reactants().size() == 1 && channel.products().size() == 1 &&
          channel.reactants()[0].species == binding.upstream &&
          channel.reactants()[0].stoich == 1 &&
          channel.products()[0].species == binding.downstream &&
          channel.products()[0].stoich == 1 &&
          channel.category() == core::RateCategory::kFast;
      if (!unit_shape) {
        Diagnostic d;
        d.id = "LINT-ISS-02";
        d.severity = Severity::kError;
        d.check = name();
        d.message = "interface channel " + channel_text +
                    " is not a fast unit-stoichiometry transfer: the "
                    "interconnection gain is not 1";
        d.notes.push_back(network.reaction_to_string(binding.reaction));
        report.diagnostics.push_back(std::move(d));
        continue;
      }

      // (d) the channel target must not accumulate without bound.
      const bool terminal =
          std::find(comp.terminals.begin(), comp.terminals.end(),
                    binding.downstream) != comp.terminals.end();
      bool processed = terminal;
      if (!processed) {
        for (const core::ReactionId r :
             network.reactions_touching(binding.downstream)) {
          if (r != binding.reaction &&
              network.reaction(r).net_change(binding.downstream) < 0) {
            processed = true;
            break;
          }
        }
      }
      if (!processed) {
        std::vector<std::string> notes;
        const auto basis = detail::conservation_basis(network, &notes);
        const auto covered = detail::conservation_coverage(
            basis, network.species_count());
        processed = covered[binding.downstream.index()];
      }
      if (!processed) {
        Diagnostic d;
        d.id = "LINT-ISS-03";
        d.severity = Severity::kWarning;
        d.check = name();
        d.message = "channel target '" +
                    network.species_name(binding.downstream) +
                    "' of interface " + channel_text +
                    " is never consumed, conserved, or sampled: it "
                    "accumulates without bound";
        report.diagnostics.push_back(std::move(d));
        continue;
      }

      if (coupling_clean && acyclic) {
        Diagnostic d;
        d.id = "LINT-ISS-00";
        d.severity = Severity::kInfo;
        d.check = name();
        d.message = "interface " + channel_text + " (layer '" +
                    comp.layers[binding.from_layer].prefix + "' -> '" +
                    comp.layers[binding.to_layer].prefix +
                    "'): structural ISS composition certificate holds";
        d.notes.push_back(
            "fast unit-stoichiometry channel, no undeclared cross-layer "
            "coupling, acyclic interconnection, bounded channel target");
        d.notes.push_back(
            "sufficient conditions per arXiv:2506.12056, arXiv:2512.07116");
        report.diagnostics.push_back(std::move(d));
      }
    }
    return {};
  }
};

}  // namespace

std::unique_ptr<Check> make_iss_check() {
  return std::make_unique<IssCompositionCheck>();
}

}  // namespace mrsc::lint
