#include "core/builder.hpp"

#include <cctype>
#include <stdexcept>

#include "util/strings.hpp"

namespace mrsc::core {

namespace {

using util::trim;

// Splits "A + 2 B" into terms. "0" (alone) or an empty side means no terms.
std::vector<ParsedTerm> parse_side(std::string_view side) {
  side = trim(side);
  std::vector<ParsedTerm> terms;
  if (side.empty() || side == "0") return terms;

  std::size_t pos = 0;
  while (pos <= side.size()) {
    const std::size_t plus = side.find('+', pos);
    std::string_view token = (plus == std::string_view::npos)
                                 ? side.substr(pos)
                                 : side.substr(pos, plus - pos);
    token = trim(token);
    if (token.empty()) {
      throw std::invalid_argument("parse_reaction: empty term in '" +
                                  std::string(side) + "'");
    }
    // Optional leading integer coefficient, then the species name.
    std::uint32_t stoich = 1;
    std::size_t i = 0;
    while (i < token.size() &&
           std::isdigit(static_cast<unsigned char>(token[i]))) {
      ++i;
    }
    if (i > 0) {
      stoich = static_cast<std::uint32_t>(
          std::stoul(std::string(token.substr(0, i))));
      if (stoich == 0) {
        throw std::invalid_argument(
            "parse_reaction: zero stoichiometric coefficient");
      }
    }
    std::string_view name = trim(token.substr(i));
    if (name.empty()) {
      throw std::invalid_argument("parse_reaction: missing species name in '" +
                                  std::string(token) + "'");
    }
    terms.push_back(ParsedTerm{std::string(name), stoich});

    if (plus == std::string_view::npos) break;
    pos = plus + 1;
  }
  return terms;
}

}  // namespace

ParsedReaction parse_reaction(std::string_view text) {
  const std::size_t arrow = text.find("->");
  if (arrow == std::string_view::npos) {
    throw std::invalid_argument("parse_reaction: missing '->' in '" +
                                std::string(text) + "'");
  }
  if (text.find("->", arrow + 2) != std::string_view::npos) {
    throw std::invalid_argument("parse_reaction: multiple '->' in '" +
                                std::string(text) + "'");
  }
  ParsedReaction parsed;
  parsed.reactants = parse_side(text.substr(0, arrow));
  parsed.products = parse_side(text.substr(arrow + 2));
  if (parsed.reactants.empty() && parsed.products.empty()) {
    throw std::invalid_argument("parse_reaction: reaction with no terms");
  }
  return parsed;
}

ReactionId NetworkBuilder::reaction(std::string_view text,
                                    RateCategory category, std::string label) {
  return add_parsed(parse_reaction(text), category, 0.0, std::move(label));
}

ReactionId NetworkBuilder::reaction(std::string_view text, double rate,
                                    std::string label) {
  return add_parsed(parse_reaction(text), RateCategory::kCustom, rate,
                    std::move(label));
}

SpeciesId NetworkBuilder::species(std::string_view name, double initial) {
  const SpeciesId id = network_->ensure_species(name);
  network_->set_initial(id, initial);
  return id;
}

SpeciesId NetworkBuilder::species(std::string_view name) {
  return network_->ensure_species(name);
}

ReactionId NetworkBuilder::add_parsed(const ParsedReaction& parsed,
                                      RateCategory category, double rate,
                                      std::string label) {
  auto resolve = [&](const std::vector<ParsedTerm>& in) {
    std::vector<Term> out;
    out.reserve(in.size());
    for (const ParsedTerm& t : in) {
      out.push_back(Term{network_->ensure_species(t.name), t.stoich});
    }
    return out;
  };
  std::string full_label =
      label.empty() ? label_prefix_ : label_prefix_ + label;
  // Resolve left side first so species ids follow textual order (argument
  // evaluation order inside a call is unspecified).
  std::vector<Term> reactants = resolve(parsed.reactants);
  std::vector<Term> products = resolve(parsed.products);
  return network_->add(std::move(reactants), std::move(products), category,
                       rate, std::move(full_label));
}

}  // namespace mrsc::core
