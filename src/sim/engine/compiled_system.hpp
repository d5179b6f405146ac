// Compiled sparse simulation engine.
//
// `CompiledSystem` is the flat, read-only form of a reaction network that
// every simulator runs against:
//  * CSR (compressed-sparse-row) reactant and net-change tables in parallel
//    structure-of-arrays layout, so derivative and propensity evaluation are
//    tight loops over contiguous index/coefficient arrays;
//  * a CSR next-reaction dependency graph and species->reaction incidence,
//    shared read-only across every replicate of an ensemble instead of being
//    re-derived per job;
//  * a per-reaction kernel tag specializing the dominant shapes the lowering
//    context emits (unimolecular gated transfer, bimolecular drain, dimeric
//    indicator feedback) with a generic mass-action fallback;
//  * hoisted propensity scale factors: `scaled_rates` precomputes
//    k_j * omega^(1-order_j) once per run instead of per event;
//  * RHS tables: each kernel's rates and reactant species for a
//    branch-free flux pass, and the net-change table transposed for a
//    species-major gather.
//
// The build is linear in the network size plus the dependency-graph edge
// count. Evaluation is deterministic: a kernel specialization performs the
// same floating-point operations in the same order as the generic loop
// (left-associated products over species-sorted reactant lists, early-exit
// zeros preserved), so specializing a reaction never changes a result bit.
// `test_engine.cpp` holds both lines against in-test reference builds.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/network.hpp"
#include "util/matrix.hpp"

namespace mrsc::sim {

/// Specialized evaluation shape of one reaction, chosen from its merged,
/// species-sorted reactant list.
enum class ReactionKernel : std::uint8_t {
  kUnimolecular,  ///< A -> ...      (gated transfer, decay, phase advance)
  kBimolecular,   ///< A + B -> ...  (drain pairs, clock absorbs)
  kDimer,         ///< 2A -> ...     (indicator feedback)
  kGeneric,       ///< anything else, incl. source reactions (0 -> ...)
};

[[nodiscard]] constexpr const char* to_string(ReactionKernel kernel) {
  switch (kernel) {
    case ReactionKernel::kUnimolecular:
      return "unimolecular";
    case ReactionKernel::kBimolecular:
      return "bimolecular";
    case ReactionKernel::kDimer:
      return "dimer";
    case ReactionKernel::kGeneric:
      return "generic";
  }
  return "unknown";
}

class CompiledSystem {
 public:
  /// Compiles `network` using its current rate policy and multipliers; this
  /// is how rate-policy changes (robustness sweeps) take effect. Duplicate
  /// reactant terms ("G + G") are merged. The compiled arrays are
  /// self-contained: `network` need not outlive this object.
  explicit CompiledSystem(const core::ReactionNetwork& network);

  [[nodiscard]] std::size_t species_count() const { return species_count_; }
  [[nodiscard]] std::size_t reaction_count() const { return rates_.size(); }

  [[nodiscard]] double rate(std::size_t j) const { return rates_[j]; }
  [[nodiscard]] std::uint32_t order(std::size_t j) const { return orders_[j]; }
  [[nodiscard]] ReactionKernel kernel(std::size_t j) const {
    return kernels_[j];
  }

  /// Species indices of reaction j's distinct reactants (sorted ascending).
  [[nodiscard]] std::span<const std::uint32_t> reactant_species(
      std::size_t j) const {
    return {reactant_species_.data() + reactant_offsets_[j],
            reactant_offsets_[j + 1] - reactant_offsets_[j]};
  }
  /// Stoichiometric coefficients parallel to `reactant_species(j)`.
  [[nodiscard]] std::span<const std::uint32_t> reactant_stoich(
      std::size_t j) const {
    return {reactant_stoich_.data() + reactant_offsets_[j],
            reactant_offsets_[j + 1] - reactant_offsets_[j]};
  }
  /// Species indices reaction j changes (sorted ascending, deltas nonzero).
  [[nodiscard]] std::span<const std::uint32_t> net_species(
      std::size_t j) const {
    return {net_species_.data() + net_offsets_[j],
            net_offsets_[j + 1] - net_offsets_[j]};
  }
  /// Net count changes parallel to `net_species(j)`.
  [[nodiscard]] std::span<const std::int32_t> net_delta(std::size_t j) const {
    return {net_delta_.data() + net_offsets_[j],
            net_offsets_[j + 1] - net_offsets_[j]};
  }

  /// Sorted reactions (including j) whose propensity can change when j fires.
  [[nodiscard]] std::span<const std::uint32_t> affected_reactions(
      std::size_t j) const {
    return {dep_reactions_.data() + dep_offsets_[j],
            dep_offsets_[j + 1] - dep_offsets_[j]};
  }

  /// Sorted reactions whose propensity reads species i.
  [[nodiscard]] std::span<const std::uint32_t> dependents_of_species(
      std::size_t i) const {
    return {species_dep_reactions_.data() + species_dep_offsets_[i],
            species_dep_offsets_[i + 1] - species_dep_offsets_[i]};
  }

  /// True when firing j changes the count of at least one of j's own
  /// reactants; false means j's propensity is invariant under its own firing
  /// (pure catalysis), so the next-reaction method may reuse the stored value.
  [[nodiscard]] bool affects_own_reactants(std::size_t j) const {
    return affects_own_[j] != 0;
  }

  /// Deterministic flux of reaction j at concentrations x:
  /// k_j * prod_i x_i^s_ij.
  [[nodiscard]] double flux(std::size_t j, std::span<const double> x) const;

  /// dx/dt at x; dxdt.size() must equal species_count() and flux.size()
  /// reaction_count(). Two passes: every reaction's flux into `flux` (the
  /// caller's scratch, so one system serves any number of concurrent
  /// integrators), then each dxdt[s] gathered from the fluxes of the
  /// reactions changing s in ascending reaction index. That adds the same
  /// products in the same order as a reaction-major scatter skipping zero
  /// fluxes: a sum that starts at +0.0 is never -0.0, and adding a ±0.0
  /// product leaves every other value, ±inf and NaN included, unchanged.
  void rhs(std::span<const double> x, std::span<double> dxdt,
           std::span<double> flux) const;

  /// Same, allocating the flux scratch (one-shot callers).
  void rhs(std::span<const double> x, std::span<double> dxdt) const;

  /// Analytic Jacobian d(dx/dt)/dx; jac is resized/overwritten to NxN.
  void jacobian(std::span<const double> x, util::Matrix& jac) const;

  /// Hoisted propensity scale factor k_j * omega^(1-order_j) for every
  /// reaction; `out.size()` must equal reaction_count(). Computing this once
  /// per run instead of per propensity call is the engine's main SSA win.
  void scaled_rates(double omega, std::span<double> out) const;

  /// Stochastic propensity of reaction j at counts n given its hoisted scale
  /// factor (an element of `scaled_rates` output):
  /// a_j = k_j * omega^(1 - order_j) * prod_i falling_factorial(n_i, s_ij).
  /// (The s_i! from the combinatorial count C(n, s) cancels against the s_i!
  /// of the deterministic<->stochastic rate conversion.)
  [[nodiscard]] double propensity_scaled(std::size_t j,
                                         std::span<const std::int64_t> n,
                                         double scaled) const {
    const std::uint32_t begin = reactant_offsets_[j];
    // Each specialization reproduces the generic falling-factorial loop
    // below for its shape: counts multiplied left-to-right in species-sorted
    // order, with the loop's exact early-out (<= 0 check before each
    // multiply) folded in.
    switch (kernels_[j]) {
      case ReactionKernel::kUnimolecular: {
        const std::int64_t c = n[reactant_species_[begin]];
        return c <= 0 ? 0.0 : scaled * static_cast<double>(c);
      }
      case ReactionKernel::kDimer: {
        const std::int64_t c = n[reactant_species_[begin]];
        if (c <= 1) return 0.0;
        return scaled * static_cast<double>(c) * static_cast<double>(c - 1);
      }
      case ReactionKernel::kBimolecular: {
        const std::int64_t c0 = n[reactant_species_[begin]];
        if (c0 <= 0) return 0.0;
        const std::int64_t c1 = n[reactant_species_[begin + 1]];
        if (c1 <= 0) return 0.0;
        return scaled * static_cast<double>(c0) * static_cast<double>(c1);
      }
      case ReactionKernel::kGeneric:
        break;
    }
    double a = scaled;
    const std::uint32_t end = reactant_offsets_[j + 1];
    for (std::uint32_t k = begin; k < end; ++k) {
      std::int64_t count = n[reactant_species_[k]];
      const std::uint32_t stoich = reactant_stoich_[k];
      for (std::uint32_t s = 0; s < stoich; ++s) {
        if (count <= 0) return 0.0;
        a *= static_cast<double>(count);
        --count;
      }
    }
    return a;
  }

  /// Same, recomputing the scale factor from `omega` (one-shot callers).
  [[nodiscard]] double propensity(std::size_t j,
                                  std::span<const std::int64_t> n,
                                  double omega) const;

  /// Applies one firing of reaction j to integer counts n.
  void apply(std::size_t j, std::span<std::int64_t> n) const {
    const std::uint32_t end = net_offsets_[j + 1];
    for (std::uint32_t k = net_offsets_[j]; k < end; ++k) {
      n[net_species_[k]] += net_delta_[k];
    }
  }

  /// Heap bytes held by the compiled arrays (vector capacities, every one
  /// shrunk to its size); what a cache of compiled systems charges against
  /// its byte budget. The dependency graph dominates on large designs.
  [[nodiscard]] std::size_t footprint_bytes() const;

 private:
  std::size_t species_count_ = 0;

  // Structure-of-arrays reaction data.
  std::vector<double> rates_;
  std::vector<std::uint32_t> orders_;
  std::vector<ReactionKernel> kernels_;
  std::vector<std::uint8_t> affects_own_;

  // CSR reactant table (merged duplicates, sorted by species index).
  std::vector<std::uint32_t> reactant_offsets_;
  std::vector<std::uint32_t> reactant_species_;
  std::vector<std::uint32_t> reactant_stoich_;

  // CSR net-change table (sorted by species index, zero deltas dropped).
  std::vector<std::uint32_t> net_offsets_;
  std::vector<std::uint32_t> net_species_;
  std::vector<std::int32_t> net_delta_;

  // CSR next-reaction dependency graph (sorted, self-edge included).
  std::vector<std::uint32_t> dep_offsets_;
  std::vector<std::uint32_t> dep_reactions_;

  // CSR species -> dependent reactions incidence.
  std::vector<std::uint32_t> species_dep_offsets_;
  std::vector<std::uint32_t> species_dep_reactions_;

  // RHS flux pass, one branch-free loop per kernel. The fluxes land in
  // loop order (unimolecular, bimolecular, dimer, source, other generic;
  // ascending reaction index within each), so each loop writes its slots in
  // sequence.
  std::vector<double> unimolecular_rates_;
  std::vector<std::uint32_t> unimolecular_species_;
  std::vector<double> bimolecular_rates_;
  std::vector<std::uint32_t> bimolecular_species_;  ///< two per reaction
  std::vector<double> dimer_rates_;
  std::vector<std::uint32_t> dimer_species_;
  std::vector<double> source_rates_;  ///< 0 -> ...: the flux is the rate
  std::vector<std::uint32_t> generic_reactions_;

  // RHS gather: the net-change table transposed to species -> (flux slot,
  // delta), reactions ascending within each species. Species are ordered by
  // row length, and each run of equal lengths is one group; rhs() runs a
  // group of up to 8 changers per row through a fixed-length loop.
  struct GatherGroup {
    std::uint32_t length;   ///< changers per species
    std::uint32_t species;  ///< species in the group
  };
  std::vector<std::uint32_t> gather_species_;
  std::vector<GatherGroup> gather_groups_;
  std::vector<std::uint32_t> gather_slots_;
  std::vector<double> gather_delta_;

  void build_rhs_tables(std::span<const std::uint32_t> changer_offsets,
                        std::span<const std::uint32_t> changers);
};

}  // namespace mrsc::sim
