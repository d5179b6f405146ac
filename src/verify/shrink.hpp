// Failing-network minimization (delta debugging over reactions).
//
// When an oracle flags a generated network, the raw repro is dozens of
// reactions of compiled clock + datapath — unreadable. The shrinker removes
// reactions (ddmin-style chunks, then one at a time) while the violation
// keeps reproducing, then drops species no remaining reaction touches. The
// predicate re-runs the *same* simulation + oracle on each candidate, so the
// final network is a minimal repro by construction.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "core/network.hpp"

namespace mrsc::verify {

/// Returns true when the candidate network still exhibits the violation.
/// Predicates should treat "simulation refuses to run" (thrown exceptions)
/// as NOT violating; `shrink_network` also catches and treats throws as
/// non-reproducing, so removing a load-bearing reaction can never be
/// mistaken for keeping the bug.
using ViolationPredicate =
    std::function<bool(const core::ReactionNetwork&)>;

struct ShrinkResult {
  core::ReactionNetwork network;  ///< the minimized failing network
  std::size_t original_reactions = 0;
  std::size_t final_reactions = 0;
  std::size_t evaluations = 0;  ///< predicate runs spent
  bool reproduced = false;      ///< false: the input never failed (returned
                                ///< unchanged)
};

/// Copies `network` keeping only reactions whose index is flagged in `keep`
/// (species table and ids preserved verbatim).
[[nodiscard]] core::ReactionNetwork subnetwork(
    const core::ReactionNetwork& network, const std::vector<bool>& keep);

/// Copies `network` dropping species that no reaction touches and that have
/// zero initial value. Species ids are compacted (handles into the original
/// network become invalid).
[[nodiscard]] core::ReactionNetwork prune_unreferenced_species(
    const core::ReactionNetwork& network);

/// Minimizes `network` under `violates` within a fixed budget of predicate
/// evaluations (each one is a simulation). Finally drops species untouched
/// by any remaining reaction, re-verifying the predicate; species ids are
/// remapped, so the prune is reverted when the predicate relies on fixed
/// species handles and stops failing.
[[nodiscard]] ShrinkResult shrink_network(const core::ReactionNetwork& network,
                                          const ViolationPredicate& violates);

}  // namespace mrsc::verify
