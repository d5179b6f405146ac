// ReactionNetwork: the central container of the library.
//
// Append-only tables of species and reactions plus the rate policy. All
// simulators, compilers (sync/async/DSD), and analysis tools operate on this
// type; higher layers build networks through it and hand them to `mrsc::sim`.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/reaction.hpp"
#include "util/matrix.hpp"

namespace mrsc::core {

class ReactionNetwork {
 public:
  // --- species ------------------------------------------------------------

  /// Adds a species with a unique name; throws `std::invalid_argument` on a
  /// duplicate name or empty name.
  SpeciesId add_species(std::string name, double initial = 0.0);

  /// Returns the id for `name` if present.
  [[nodiscard]] std::optional<SpeciesId> find_species(
      std::string_view name) const;

  /// Returns the id for `name`, creating the species (initial 0) if missing.
  SpeciesId ensure_species(std::string_view name);

  [[nodiscard]] const Species& species(SpeciesId id) const;
  [[nodiscard]] const std::string& species_name(SpeciesId id) const;
  [[nodiscard]] std::size_t species_count() const { return species_.size(); }

  /// Overwrites the default initial condition of `id`.
  void set_initial(SpeciesId id, double value);
  [[nodiscard]] double initial(SpeciesId id) const;

  /// Vector of default initial concentrations, indexed by SpeciesId.
  [[nodiscard]] std::vector<double> initial_state() const;

  // --- reactions ----------------------------------------------------------

  /// Adds a reaction; validates that all species ids are in range, all
  /// stoichiometric coefficients are positive, and a custom rate is positive.
  ReactionId add_reaction(Reaction reaction);

  /// Convenience: builds and adds a reaction from term lists.
  ReactionId add(std::vector<Term> reactants, std::vector<Term> products,
                 RateCategory category, double custom_rate = 0.0,
                 std::string label = {});

  [[nodiscard]] const Reaction& reaction(ReactionId id) const;
  [[nodiscard]] Reaction& reaction_mutable(ReactionId id);
  [[nodiscard]] std::size_t reaction_count() const { return reactions_.size(); }
  [[nodiscard]] std::span<const Reaction> reactions() const {
    return reactions_;
  }

  // --- rates --------------------------------------------------------------

  [[nodiscard]] const RatePolicy& rate_policy() const { return rate_policy_; }
  void set_rate_policy(const RatePolicy& policy) { rate_policy_ = policy; }

  /// Numeric rate constant of `id` after resolving its category against the
  /// policy and applying the per-reaction multiplier.
  [[nodiscard]] double effective_rate(ReactionId id) const;
  [[nodiscard]] double effective_rate(const Reaction& reaction) const;

  // --- whole-network queries ----------------------------------------------

  /// Stoichiometric matrix S (species x reactions): S(i,j) = net change of
  /// species i when reaction j fires once.
  [[nodiscard]] util::Matrix stoichiometric_matrix() const;

  /// Maximum kinetic order over all reactions.
  [[nodiscard]] std::uint32_t max_order() const;

  /// Ids of reactions that consume or produce `species`.
  [[nodiscard]] std::vector<ReactionId> reactions_touching(
      SpeciesId species) const;

  /// Human-readable multi-line description ("X + 2 Y ->{fast} Z").
  [[nodiscard]] std::string to_string() const;

  /// One reaction rendered as text.
  [[nodiscard]] std::string reaction_to_string(ReactionId id) const;

 private:
  std::vector<Species> species_;
  std::vector<Reaction> reactions_;
  std::unordered_map<std::string, SpeciesId> name_index_;
  RatePolicy rate_policy_;
};

/// Summary statistics used by tests, benches, and the DSD blow-up table.
struct NetworkStats {
  std::size_t species = 0;
  std::size_t reactions = 0;
  std::size_t slow_reactions = 0;
  std::size_t fast_reactions = 0;
  std::size_t custom_reactions = 0;
  std::uint32_t max_order = 0;
  std::size_t zero_order_sources = 0;
};

[[nodiscard]] NetworkStats compute_stats(const ReactionNetwork& network);

}  // namespace mrsc::core
