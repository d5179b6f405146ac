#include "core/io.hpp"

#include <sstream>
#include <stdexcept>

#include "core/builder.hpp"
#include "util/strings.hpp"

namespace mrsc::core {

namespace {

using util::trim;

void format_side(std::ostringstream& out, const ReactionNetwork& network,
                 const std::vector<Term>& terms) {
  if (terms.empty()) {
    out << "0";
    return;
  }
  for (std::size_t i = 0; i < terms.size(); ++i) {
    if (i > 0) out << " + ";
    if (terms[i].stoich != 1) out << terms[i].stoich << " ";
    out << network.species_name(terms[i].species);
  }
}

[[noreturn]] void fail(std::size_t line_number, const std::string& message) {
  throw std::invalid_argument("parse_network: line " +
                              std::to_string(line_number) + ": " + message);
}

}  // namespace

std::string serialize_network(const ReactionNetwork& network) {
  std::ostringstream out;
  out << "# mrsc reaction network\n";
  out << "@rates slow=" << network.rate_policy().k_slow
      << " fast=" << network.rate_policy().k_fast << "\n";
  for (std::size_t i = 0; i < network.species_count(); ++i) {
    const SpeciesId id{static_cast<SpeciesId::underlying_type>(i)};
    out << "@species " << network.species_name(id) << " "
        << network.initial(id) << "\n";
  }
  for (const Reaction& r : network.reactions()) {
    switch (r.category()) {
      case RateCategory::kSlow:
        out << "slow";
        break;
      case RateCategory::kFast:
        out << "fast";
        break;
      case RateCategory::kCustom:
        out << r.custom_rate();
        break;
    }
    // Rate multipliers ("slow*0.25 : ...") carry the clock's stretched hop
    // seeds and the coalescing pass's summed duplicates through a round-trip.
    if (r.rate_multiplier() != 1.0) out << "*" << r.rate_multiplier();
    out << " : ";
    format_side(out, network, r.reactants());
    out << " -> ";
    format_side(out, network, r.products());
    if (!r.label().empty()) out << " | " << r.label();
    out << "\n";
  }
  return out.str();
}

ReactionNetwork parse_network(std::string_view text) {
  ReactionNetwork network;
  NetworkBuilder builder(network);

  std::istringstream stream{std::string(text)};
  std::string raw_line;
  std::size_t line_number = 0;
  while (std::getline(stream, raw_line)) {
    ++line_number;
    std::string_view line = raw_line;
    if (const std::size_t hash = line.find('#');
        hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    line = trim(line);
    if (line.empty()) continue;

    if (line.starts_with("@rates")) {
      RatePolicy policy = network.rate_policy();
      std::istringstream fields{std::string(line.substr(6))};
      std::string field;
      while (fields >> field) {
        const std::size_t eq = field.find('=');
        if (eq == std::string::npos) fail(line_number, "bad @rates field");
        const std::string key = field.substr(0, eq);
        const double value = std::stod(field.substr(eq + 1));
        if (key == "slow") {
          policy.k_slow = value;
        } else if (key == "fast") {
          policy.k_fast = value;
        } else {
          fail(line_number, "unknown @rates key '" + key + "'");
        }
      }
      network.set_rate_policy(policy);
      continue;
    }

    if (line.starts_with("@species")) {
      std::istringstream fields{std::string(line.substr(8))};
      std::string name;
      double initial = 0.0;
      if (!(fields >> name)) fail(line_number, "missing species name");
      fields >> initial;  // optional; stays 0 if absent
      if (network.find_species(name)) {
        fail(line_number, "duplicate species '" + name + "'");
      }
      network.add_species(name, initial);
      continue;
    }

    // Reaction line: "<rate-spec> : <reaction>" with optional "| label".
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) {
      fail(line_number, "expected '<rate> : <reaction>'");
    }
    std::string rate_spec{trim(line.substr(0, colon))};
    std::string_view rest = trim(line.substr(colon + 1));
    std::string label;
    if (const std::size_t bar = rest.find('|');
        bar != std::string_view::npos) {
      label = std::string(trim(rest.substr(bar + 1)));
      rest = trim(rest.substr(0, bar));
    }
    // Optional "*<multiplier>" suffix on the rate spec.
    double multiplier = 1.0;
    if (const std::size_t star = rate_spec.find('*');
        star != std::string::npos) {
      try {
        multiplier = std::stod(rate_spec.substr(star + 1));
      } catch (const std::exception&) {
        fail(line_number, "bad rate multiplier '" + rate_spec + "'");
      }
      rate_spec = std::string(trim(
          std::string_view(rate_spec).substr(0, star)));
    }
    try {
      ReactionId id;
      if (rate_spec == "slow") {
        id = builder.reaction(rest, RateCategory::kSlow, label);
      } else if (rate_spec == "fast") {
        id = builder.reaction(rest, RateCategory::kFast, label);
      } else {
        id = builder.reaction(rest, std::stod(rate_spec), label);
      }
      if (multiplier != 1.0) {
        network.reaction_mutable(id).set_rate_multiplier(multiplier);
      }
    } catch (const std::exception& error) {
      fail(line_number, error.what());
    }
  }
  return network;
}

}  // namespace mrsc::core
