#include "stress/fault.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "util/rng.hpp"

namespace mrsc::stress {

namespace {

bool label_matches(const FaultSpec& spec, const core::Reaction& reaction) {
  switch (spec.kind) {
    case FaultKind::kRateJitter:
      return true;
    case FaultKind::kRateJitterCategory:
      return reaction.category() == spec.category;
    case FaultKind::kRateJitterReaction:
      return reaction.label() == spec.label;
    case FaultKind::kClockSkew:
      return reaction.label().starts_with(spec.label);
    default:
      return false;
  }
}

void apply_rate_jitter_spec(core::ReactionNetwork& network,
                            const FaultSpec& spec) {
  util::Rng rng(spec.seed);
  std::size_t touched = 0;
  for (std::size_t r = 0; r < network.reaction_count(); ++r) {
    const core::ReactionId id(static_cast<std::uint32_t>(r));
    core::Reaction& reaction = network.reaction_mutable(id);
    // Draw for every candidate, apply only to matches? No — draws must be a
    // pure function of (seed, match sequence) so adding unrelated reactions
    // elsewhere doesn't reshuffle a targeted fault. Draw only on match.
    if (!label_matches(spec, reaction)) continue;
    const double multiplier = std::exp(spec.intensity * rng.normal());
    reaction.set_rate_multiplier(reaction.rate_multiplier() * multiplier);
    ++touched;
  }
  if (touched == 0 && (spec.kind == FaultKind::kRateJitterReaction ||
                       spec.kind == FaultKind::kClockSkew)) {
    throw std::invalid_argument("apply_faults: no reaction matches label '" +
                                spec.label + "'");
  }
}

void apply_leak_spec(core::ReactionNetwork& network, const FaultSpec& spec) {
  const double rate = spec.intensity * network.rate_policy().k_slow;
  if (rate <= 0.0) return;
  // Species count is frozen first: the loop adds reactions, never species.
  const std::size_t count = network.species_count();
  std::size_t touched = 0;
  for (std::size_t s = 0; s < count; ++s) {
    const core::SpeciesId id(static_cast<std::uint32_t>(s));
    const std::string& name = network.species_name(id);
    if (!spec.species.empty() && !name.starts_with(spec.species)) continue;
    network.add({{id, 1}}, {}, core::RateCategory::kCustom, rate,
                "stress.leak." + name);
    ++touched;
  }
  if (touched == 0) {
    throw std::invalid_argument(
        "apply_faults: no species matches leak prefix '" + spec.species + "'");
  }
}

void apply_initial_noise_spec(core::ReactionNetwork& network,
                              const FaultSpec& spec) {
  util::Rng rng(spec.seed);
  for (std::size_t s = 0; s < network.species_count(); ++s) {
    const core::SpeciesId id(static_cast<std::uint32_t>(s));
    const double initial = network.initial(id);
    if (initial == 0.0) continue;
    network.set_initial(id, initial * std::exp(spec.intensity * rng.normal()));
  }
}

core::SpeciesId resolve_species(const core::ReactionNetwork& network,
                                const FaultSpec& spec) {
  const std::optional<core::SpeciesId> id = network.find_species(spec.species);
  if (!id) {
    throw std::invalid_argument("apply_faults: unknown species '" +
                                spec.species + "'");
  }
  return *id;
}

}  // namespace

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kRateJitter:
      return "rate-jitter";
    case FaultKind::kRateJitterCategory:
      return "category-jitter";
    case FaultKind::kRateJitterReaction:
      return "reaction-jitter";
    case FaultKind::kClockSkew:
      return "clock-skew";
    case FaultKind::kLeak:
      return "leak";
    case FaultKind::kInjection:
      return "injection";
    case FaultKind::kLoss:
      return "loss";
    case FaultKind::kInitialNoise:
      return "initial-noise";
    case FaultKind::kStoichiometry:
      return "stoichiometry";
  }
  return "unknown";
}

std::optional<FaultKind> parse_fault_kind(std::string_view name) {
  if (name == "rate-jitter") return FaultKind::kRateJitter;
  if (name == "category-jitter") return FaultKind::kRateJitterCategory;
  if (name == "reaction-jitter") return FaultKind::kRateJitterReaction;
  if (name == "clock-skew") return FaultKind::kClockSkew;
  if (name == "leak") return FaultKind::kLeak;
  if (name == "injection") return FaultKind::kInjection;
  if (name == "loss") return FaultKind::kLoss;
  if (name == "initial-noise") return FaultKind::kInitialNoise;
  if (name == "stoichiometry") return FaultKind::kStoichiometry;
  return std::nullopt;
}

FaultSpec FaultSpec::rate_jitter(double sigma, std::uint64_t seed) {
  FaultSpec spec;
  spec.kind = FaultKind::kRateJitter;
  spec.intensity = sigma;
  spec.seed = seed;
  return spec;
}

FaultSpec FaultSpec::category_jitter(core::RateCategory category, double sigma,
                                     std::uint64_t seed) {
  FaultSpec spec;
  spec.kind = FaultKind::kRateJitterCategory;
  spec.intensity = sigma;
  spec.seed = seed;
  spec.category = category;
  return spec;
}

FaultSpec FaultSpec::reaction_jitter(std::string label, double sigma,
                                     std::uint64_t seed) {
  FaultSpec spec;
  spec.kind = FaultKind::kRateJitterReaction;
  spec.intensity = sigma;
  spec.seed = seed;
  spec.label = std::move(label);
  return spec;
}

FaultSpec FaultSpec::clock_skew(double sigma, std::uint64_t seed,
                                std::string prefix) {
  FaultSpec spec;
  spec.kind = FaultKind::kClockSkew;
  spec.intensity = sigma;
  spec.seed = seed;
  spec.label = std::move(prefix);
  return spec;
}

FaultSpec FaultSpec::leak(double rate_fraction, std::string species_prefix) {
  FaultSpec spec;
  spec.kind = FaultKind::kLeak;
  spec.intensity = rate_fraction;
  spec.species = std::move(species_prefix);
  return spec;
}

FaultSpec FaultSpec::injection(std::string species, double amount,
                               double time) {
  FaultSpec spec;
  spec.kind = FaultKind::kInjection;
  spec.intensity = amount;
  spec.species = std::move(species);
  spec.time = time;
  return spec;
}

FaultSpec FaultSpec::loss(std::string species, double fraction, double time) {
  FaultSpec spec;
  spec.kind = FaultKind::kLoss;
  spec.intensity = fraction;
  spec.species = std::move(species);
  spec.time = time;
  return spec;
}

FaultSpec FaultSpec::initial_noise(double sigma, std::uint64_t seed) {
  FaultSpec spec;
  spec.kind = FaultKind::kInitialNoise;
  spec.intensity = sigma;
  spec.seed = seed;
  return spec;
}

FaultSpec FaultSpec::stoichiometry(std::string label) {
  FaultSpec spec;
  spec.kind = FaultKind::kStoichiometry;
  spec.label = std::move(label);
  return spec;
}

FaultedNetwork apply_faults(const core::ReactionNetwork& network,
                            std::span<const FaultSpec> specs) {
  FaultedNetwork out{network, {}};
  for (const FaultSpec& spec : specs) {
    switch (spec.kind) {
      case FaultKind::kRateJitter:
      case FaultKind::kRateJitterCategory:
      case FaultKind::kRateJitterReaction:
      case FaultKind::kClockSkew:
        apply_rate_jitter_spec(out.network, spec);
        break;
      case FaultKind::kLeak:
        apply_leak_spec(out.network, spec);
        break;
      case FaultKind::kInjection:
        out.events.push_back({spec.time, resolve_species(out.network, spec),
                              spec.intensity, 1.0});
        break;
      case FaultKind::kLoss:
        out.events.push_back({spec.time, resolve_species(out.network, spec),
                              0.0, 1.0 - std::clamp(spec.intensity, 0.0, 1.0)});
        break;
      case FaultKind::kInitialNoise:
        apply_initial_noise_spec(out.network, spec);
        break;
      case FaultKind::kStoichiometry:
        out.network = with_stoichiometry_fault(
            out.network, find_reaction_by_label(out.network, spec.label));
        break;
    }
  }
  return out;
}

core::ReactionNetwork with_stoichiometry_fault(
    const core::ReactionNetwork& network, core::ReactionId target) {
  if (target.index() >= network.reaction_count()) {
    throw std::out_of_range("with_stoichiometry_fault: bad reaction id");
  }
  core::ReactionNetwork out;
  for (std::size_t i = 0; i < network.species_count(); ++i) {
    const core::SpeciesId id(static_cast<std::uint32_t>(i));
    out.add_species(network.species_name(id), network.initial(id));
  }
  out.set_rate_policy(network.rate_policy());
  for (std::size_t r = 0; r < network.reaction_count(); ++r) {
    const core::Reaction& reaction =
        network.reaction(core::ReactionId(static_cast<std::uint32_t>(r)));
    if (r != target.index()) {
      out.add_reaction(reaction);
      continue;
    }
    std::vector<core::Term> products = reaction.products();
    if (products.empty() && reaction.reactants().empty()) {
      throw std::invalid_argument(
          "with_stoichiometry_fault: reaction has no terms to corrupt");
    }
    if (products.empty()) {
      products.push_back({reaction.reactants().front().species, 1});
    } else {
      products.front().stoich += 1;
    }
    core::Reaction faulty(reaction.reactants(), std::move(products),
                          reaction.category(), reaction.custom_rate(),
                          reaction.label());
    faulty.set_rate_multiplier(reaction.rate_multiplier());
    out.add_reaction(std::move(faulty));
  }
  return out;
}

core::ReactionId find_reaction_by_label(const core::ReactionNetwork& network,
                                        const std::string& label) {
  for (std::size_t r = 0; r < network.reaction_count(); ++r) {
    const core::ReactionId id(static_cast<std::uint32_t>(r));
    if (network.reaction(id).label() == label) return id;
  }
  throw std::invalid_argument("find_reaction_by_label: no reaction labelled '" +
                              label + "'");
}

}  // namespace mrsc::stress
