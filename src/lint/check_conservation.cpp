// Conservation analysis: exact rational left-nullspace of the
// stoichiometric matrix. Each basis vector w (w^T S = 0) is a proof that
// sum_i w_i x_i is invariant along every trajectory, deterministic or
// stochastic. Diagnostics:
//   LINT-CONS-00 (info)     the discovered law basis
//   LINT-CONS-01 (warning)  a declared state species covered by no law —
//                           the design's memory can leak or grow without
//                           bound, which the paper's register discipline
//                           (color-triple totals) never allows.
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "analysis/conservation.hpp"
#include "lint/checks.hpp"
#include "util/rational.hpp"

namespace mrsc::lint {

namespace detail {

std::vector<std::vector<double>> conservation_basis(
    const core::ReactionNetwork& network, std::vector<std::string>* notes) {
  try {
    const auto exact =
        util::integer_left_nullspace(network.stoichiometric_matrix());
    std::vector<std::vector<double>> basis;
    basis.reserve(exact.size());
    for (const auto& law : exact) {
      basis.emplace_back(law.begin(), law.end());
    }
    return basis;
  } catch (const std::overflow_error&) {
    if (notes != nullptr) {
      notes->push_back(
          "exact rational elimination overflowed int64; falling back to "
          "the floating-point nullspace (laws are approximate)");
    }
  }
  return analysis::conservation_laws(network);
}

std::vector<bool> conservation_coverage(
    const std::vector<std::vector<double>>& basis,
    std::size_t species_count) {
  std::vector<bool> covered(species_count, false);
  for (const auto& law : basis) {
    for (std::size_t s = 0; s < law.size() && s < species_count; ++s) {
      if (std::abs(law[s]) > 1e-9) covered[s] = true;
    }
  }
  return covered;
}

}  // namespace detail

namespace {

std::string render_law(const core::ReactionNetwork& network,
                       const std::vector<double>& law) {
  std::string out;
  std::size_t terms = 0;
  for (std::size_t s = 0; s < law.size(); ++s) {
    if (std::abs(law[s]) <= 1e-9) continue;
    if (terms >= 6) {
      out += " + ...";
      break;
    }
    if (terms > 0) out += law[s] < 0 ? " - " : " + ";
    else if (law[s] < 0) out += "-";
    const double magnitude = std::abs(law[s]);
    if (std::abs(magnitude - 1.0) > 1e-9) {
      char buffer[32];
      std::snprintf(buffer, sizeof(buffer), "%g ", magnitude);
      out += buffer;
    }
    out += network.species_name(
        core::SpeciesId{static_cast<core::SpeciesId::underlying_type>(s)});
    ++terms;
  }
  return out;
}

class ConservationCheck final : public Check {
 public:
  [[nodiscard]] const char* name() const override { return "conservation"; }
  [[nodiscard]] const char* summary() const override {
    return "exact conservation laws; state species covered by none";
  }

  [[nodiscard]] std::string run(const LintInput& input,
                                LintReport& report) const override {
    const core::ReactionNetwork& network = *input.network;
    std::vector<std::string> notes;
    const auto basis = detail::conservation_basis(network, &notes);

    Diagnostic info;
    info.id = "LINT-CONS-00";
    info.severity = Severity::kInfo;
    info.check = name();
    info.message = std::to_string(basis.size()) +
                   " independent conservation law(s) over " +
                   std::to_string(network.species_count()) + " species";
    for (std::size_t i = 0; i < basis.size() && i < 8; ++i) {
      info.notes.push_back(render_law(network, basis[i]) + " = const");
    }
    if (basis.size() > 8) {
      info.notes.push_back("(" + std::to_string(basis.size() - 8) +
                           " more law(s) omitted)");
    }
    info.notes.insert(info.notes.end(), notes.begin(), notes.end());
    report.diagnostics.push_back(std::move(info));

    const auto covered =
        detail::conservation_coverage(basis, network.species_count());
    for (const core::SpeciesId state :
         input.roots_with(compile::PortRole::kState)) {
      if (covered[state.index()]) continue;
      Diagnostic d;
      d.id = "LINT-CONS-01";
      d.severity = Severity::kWarning;
      d.check = name();
      d.message = "state species '" + network.species_name(state) +
                  "' is covered by no conservation law; its stored value "
                  "can drift without bound";
      for (const core::ReactionId r : network.reactions_touching(state)) {
        if (network.reaction(r).net_change(state) != 0) {
          d.notes.push_back("unbalanced by: " + network.reaction_to_string(r));
          if (d.notes.size() >= 4) break;
        }
      }
      report.diagnostics.push_back(std::move(d));
    }
    return {};
  }
};

}  // namespace

std::unique_ptr<Check> make_conservation_check() {
  return std::make_unique<ConservationCheck>();
}

}  // namespace mrsc::lint
