#include "verify/shrink.hpp"

#include <algorithm>

namespace mrsc::verify {
namespace {

std::size_t count_kept(const std::vector<bool>& keep) {
  return static_cast<std::size_t>(std::count(keep.begin(), keep.end(), true));
}

}  // namespace

core::ReactionNetwork subnetwork(const core::ReactionNetwork& network,
                                 const std::vector<bool>& keep) {
  core::ReactionNetwork out;
  for (std::size_t i = 0; i < network.species_count(); ++i) {
    const core::SpeciesId id(static_cast<std::uint32_t>(i));
    out.add_species(network.species_name(id), network.initial(id));
  }
  out.set_rate_policy(network.rate_policy());
  for (std::size_t r = 0; r < network.reaction_count(); ++r) {
    if (!keep[r]) continue;
    out.add_reaction(network.reaction(core::ReactionId(
        static_cast<std::uint32_t>(r))));
  }
  return out;
}

core::ReactionNetwork prune_unreferenced_species(
    const core::ReactionNetwork& network) {
  std::vector<bool> used(network.species_count(), false);
  for (const core::Reaction& reaction : network.reactions()) {
    for (const core::Term& term : reaction.reactants()) {
      used[term.species.index()] = true;
    }
    for (const core::Term& term : reaction.products()) {
      used[term.species.index()] = true;
    }
  }
  core::ReactionNetwork out;
  std::vector<core::SpeciesId> remap(network.species_count());
  for (std::size_t i = 0; i < network.species_count(); ++i) {
    const core::SpeciesId id(static_cast<std::uint32_t>(i));
    // A nonzero initial is observable (it contributes to conservation
    // totals), so only drop species that are both untouched and empty.
    if (!used[i] && network.initial(id) == 0.0) continue;
    remap[i] = out.add_species(network.species_name(id), network.initial(id));
  }
  out.set_rate_policy(network.rate_policy());
  for (const core::Reaction& reaction : network.reactions()) {
    std::vector<core::Term> reactants;
    std::vector<core::Term> products;
    for (const core::Term& term : reaction.reactants()) {
      reactants.push_back({remap[term.species.index()], term.stoich});
    }
    for (const core::Term& term : reaction.products()) {
      products.push_back({remap[term.species.index()], term.stoich});
    }
    core::Reaction rebuilt(std::move(reactants), std::move(products),
                           reaction.category(), reaction.custom_rate(),
                           reaction.label());
    rebuilt.set_rate_multiplier(reaction.rate_multiplier());
    out.add_reaction(std::move(rebuilt));
  }
  return out;
}

ShrinkResult shrink_network(const core::ReactionNetwork& network,
                            const ViolationPredicate& violates) {
  // Hard cap on predicate evaluations (each one is a simulation).
  constexpr std::size_t kMaxEvaluations = 200;
  ShrinkResult result;
  result.original_reactions = network.reaction_count();
  std::size_t evaluations = 0;
  auto still_fails = [&](const core::ReactionNetwork& candidate) {
    if (evaluations >= kMaxEvaluations) return false;
    ++evaluations;
    try {
      return violates(candidate);
    } catch (...) {
      // A candidate the harness cannot even run is not a repro.
      return false;
    }
  };

  if (!still_fails(network)) {
    result.network = network;
    result.final_reactions = network.reaction_count();
    result.evaluations = evaluations;
    result.reproduced = false;
    return result;
  }
  result.reproduced = true;

  std::vector<bool> keep(network.reaction_count(), true);
  std::size_t live = count_kept(keep);
  std::size_t chunk = std::max<std::size_t>(1, live / 2);
  while (evaluations < kMaxEvaluations) {
    bool progress = false;
    // Walk the currently-kept reactions in blocks of `chunk`, trying to drop
    // each block wholesale.
    std::vector<std::size_t> kept_indices;
    kept_indices.reserve(live);
    for (std::size_t i = 0; i < keep.size(); ++i) {
      if (keep[i]) kept_indices.push_back(i);
    }
    for (std::size_t start = 0; start < kept_indices.size(); start += chunk) {
      const std::size_t end = std::min(start + chunk, kept_indices.size());
      std::vector<bool> candidate = keep;
      bool any = false;
      for (std::size_t i = start; i < end; ++i) {
        if (candidate[kept_indices[i]]) {
          candidate[kept_indices[i]] = false;
          any = true;
        }
      }
      if (!any) continue;
      if (still_fails(subnetwork(network, candidate))) {
        keep = std::move(candidate);
        progress = true;
      }
    }
    live = count_kept(keep);
    if (!progress) {
      if (chunk == 1) break;
      chunk = std::max<std::size_t>(1, chunk / 2);
    } else {
      chunk = std::min(chunk, std::max<std::size_t>(1, live / 2));
    }
  }

  core::ReactionNetwork shrunk = subnetwork(network, keep);
  core::ReactionNetwork pruned = prune_unreferenced_species(shrunk);
  // Pruning remaps species ids; only keep it if the predicate still fires
  // (handle-based predicates will throw or pass, reverting the prune).
  if (pruned.species_count() < shrunk.species_count() && still_fails(pruned)) {
    shrunk = std::move(pruned);
  }
  result.final_reactions = shrunk.reaction_count();
  result.network = std::move(shrunk);
  result.evaluations = evaluations;
  return result;
}

}  // namespace mrsc::verify
