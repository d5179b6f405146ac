#include "core/network.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace mrsc::core {

SpeciesId ReactionNetwork::add_species(std::string name, double initial) {
  if (name.empty()) {
    throw std::invalid_argument("add_species: empty species name");
  }
  if (name_index_.contains(name)) {
    throw std::invalid_argument("add_species: duplicate species name '" +
                                name + "'");
  }
  const SpeciesId id{static_cast<SpeciesId::underlying_type>(species_.size())};
  name_index_.emplace(name, id);
  species_.push_back(Species{std::move(name), initial});
  return id;
}

std::optional<SpeciesId> ReactionNetwork::find_species(
    std::string_view name) const {
  const auto it = name_index_.find(std::string(name));
  if (it == name_index_.end()) return std::nullopt;
  return it->second;
}

SpeciesId ReactionNetwork::ensure_species(std::string_view name) {
  if (const auto existing = find_species(name)) return *existing;
  return add_species(std::string(name));
}

const Species& ReactionNetwork::species(SpeciesId id) const {
  if (!id.valid() || id.index() >= species_.size()) {
    throw std::out_of_range("species: invalid SpeciesId");
  }
  return species_[id.index()];
}

const std::string& ReactionNetwork::species_name(SpeciesId id) const {
  return species(id).name;
}

void ReactionNetwork::set_initial(SpeciesId id, double value) {
  if (!id.valid() || id.index() >= species_.size()) {
    throw std::out_of_range("set_initial: invalid SpeciesId");
  }
  species_[id.index()].initial = value;
}

double ReactionNetwork::initial(SpeciesId id) const {
  return species(id).initial;
}

std::vector<double> ReactionNetwork::initial_state() const {
  std::vector<double> state(species_.size());
  for (std::size_t i = 0; i < species_.size(); ++i) {
    state[i] = species_[i].initial;
  }
  return state;
}

ReactionId ReactionNetwork::add_reaction(Reaction reaction) {
  auto check_terms = [&](const std::vector<Term>& terms, const char* side) {
    for (const Term& t : terms) {
      if (!t.species.valid() || t.species.index() >= species_.size()) {
        throw std::invalid_argument(std::string("add_reaction: unknown ") +
                                    side + " species id");
      }
      if (t.stoich == 0) {
        throw std::invalid_argument(
            std::string("add_reaction: zero stoichiometry on ") + side);
      }
    }
  };
  check_terms(reaction.reactants(), "reactant");
  check_terms(reaction.products(), "product");
  if (reaction.category() == RateCategory::kCustom &&
      reaction.custom_rate() <= 0.0) {
    throw std::invalid_argument(
        "add_reaction: custom-rate reaction needs a positive rate");
  }
  if (reaction.reactants().empty() && reaction.products().empty()) {
    throw std::invalid_argument("add_reaction: reaction with no terms");
  }
  const ReactionId id{
      static_cast<ReactionId::underlying_type>(reactions_.size())};
  reactions_.push_back(std::move(reaction));
  return id;
}

ReactionId ReactionNetwork::add(std::vector<Term> reactants,
                                std::vector<Term> products,
                                RateCategory category, double custom_rate,
                                std::string label) {
  return add_reaction(Reaction(std::move(reactants), std::move(products),
                               category, custom_rate, std::move(label)));
}

const Reaction& ReactionNetwork::reaction(ReactionId id) const {
  if (!id.valid() || id.index() >= reactions_.size()) {
    throw std::out_of_range("reaction: invalid ReactionId");
  }
  return reactions_[id.index()];
}

Reaction& ReactionNetwork::reaction_mutable(ReactionId id) {
  if (!id.valid() || id.index() >= reactions_.size()) {
    throw std::out_of_range("reaction_mutable: invalid ReactionId");
  }
  return reactions_[id.index()];
}

double ReactionNetwork::effective_rate(ReactionId id) const {
  return effective_rate(reaction(id));
}

double ReactionNetwork::effective_rate(const Reaction& reaction) const {
  return rate_policy_.value_of(reaction.category(), reaction.custom_rate()) *
         reaction.rate_multiplier();
}

util::Matrix ReactionNetwork::stoichiometric_matrix() const {
  util::Matrix s(species_.size(), reactions_.size());
  for (std::size_t j = 0; j < reactions_.size(); ++j) {
    for (const Term& t : reactions_[j].products()) {
      s(t.species.index(), j) += static_cast<double>(t.stoich);
    }
    for (const Term& t : reactions_[j].reactants()) {
      s(t.species.index(), j) -= static_cast<double>(t.stoich);
    }
  }
  return s;
}

std::uint32_t ReactionNetwork::max_order() const {
  std::uint32_t order = 0;
  for (const Reaction& r : reactions_) order = std::max(order, r.order());
  return order;
}

std::vector<ReactionId> ReactionNetwork::reactions_touching(
    SpeciesId species) const {
  std::vector<ReactionId> out;
  for (std::size_t j = 0; j < reactions_.size(); ++j) {
    const Reaction& r = reactions_[j];
    if (r.consumes(species) || r.produces(species)) {
      out.push_back(ReactionId{static_cast<ReactionId::underlying_type>(j)});
    }
  }
  return out;
}

std::string ReactionNetwork::reaction_to_string(ReactionId id) const {
  const Reaction& r = reaction(id);
  std::ostringstream out;
  auto print_side = [&](const std::vector<Term>& terms) {
    if (terms.empty()) {
      out << "0";
      return;
    }
    for (std::size_t i = 0; i < terms.size(); ++i) {
      if (i > 0) out << " + ";
      if (terms[i].stoich != 1) out << terms[i].stoich << " ";
      out << species_name(terms[i].species);
    }
  };
  print_side(r.reactants());
  out << " ->{" << core::to_string(r.category());
  if (r.category() == RateCategory::kCustom) out << " " << r.custom_rate();
  if (r.rate_multiplier() != 1.0) out << " x" << r.rate_multiplier();
  out << "} ";
  print_side(r.products());
  if (!r.label().empty()) out << "   # " << r.label();
  return out.str();
}

std::string ReactionNetwork::to_string() const {
  std::ostringstream out;
  out << "ReactionNetwork: " << species_.size() << " species, "
      << reactions_.size() << " reactions (k_slow=" << rate_policy_.k_slow
      << ", k_fast=" << rate_policy_.k_fast << ")\n";
  for (std::size_t i = 0; i < species_.size(); ++i) {
    if (species_[i].initial != 0.0) {
      out << "  init " << species_[i].name << " = " << species_[i].initial
          << "\n";
    }
  }
  for (std::size_t j = 0; j < reactions_.size(); ++j) {
    out << "  "
        << reaction_to_string(
               ReactionId{static_cast<ReactionId::underlying_type>(j)})
        << "\n";
  }
  return out.str();
}

NetworkStats compute_stats(const ReactionNetwork& network) {
  NetworkStats stats;
  stats.species = network.species_count();
  stats.reactions = network.reaction_count();
  for (const Reaction& r : network.reactions()) {
    switch (r.category()) {
      case RateCategory::kSlow:
        ++stats.slow_reactions;
        break;
      case RateCategory::kFast:
        ++stats.fast_reactions;
        break;
      case RateCategory::kCustom:
        ++stats.custom_reactions;
        break;
    }
    stats.max_order = std::max(stats.max_order, r.order());
    if (r.reactants().empty()) ++stats.zero_order_sources;
  }
  return stats;
}

}  // namespace mrsc::core
