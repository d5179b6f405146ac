// Optimized-vs-unoptimized equivalence oracle.
//
// The compile pipeline's passes (canonicalize, coalesce-duplicates,
// dead-species elimination) claim to be *exact*: the deterministic
// mass-action trajectory of every surviving species is unchanged, and every
// eliminated species provably never leaves zero. This oracle holds the
// pipeline to that claim on arbitrary networks: it optimizes a copy at kO1,
// then
//
//   1. structurally checks the pipeline only ever shrinks the network and
//      keeps every root alive with its name and initial value,
//   2. integrates both networks with the same fixed-step RK4 grid and
//      compares every surviving species pointwise, and checks every removed
//      species stays at zero in the *original* run, and
//   3. (optionally) runs matched SSA ensembles on both networks and requires
//      per-species final means to agree within a CLT band (z = kCltZ, no
//      bias) — the stochastic semantics must be preserved too, not just the
//      ODE limit.
//
// The fuzz driver applies it to every generated case, which is what the
// "optimizations are trajectory-preserving" guarantee in docs/COMPILE.md
// rests on.
#pragma once

#include <span>
#include <vector>

#include "core/network.hpp"
#include "verify/oracles.hpp"

namespace mrsc::verify {

struct OptEquivalenceOptions {
  /// Free-run ODE horizon and sampling grid (both networks use the same).
  double t_end = 2.0;
  double record_interval = 0.05;
  /// Run the SSA-ensemble leg (costs 2 * replicates short runs).
  bool ssa = false;
  double omega = 200.0;
  std::size_t replicates = 8;
  std::uint64_t base_seed = 1;
};

/// Optimizes a copy of `network` at kO1 with `roots` pinned and proves the
/// result equivalent as described above. Returns every discrepancy as a
/// violation with oracle "opt_equivalence"; empty means the proof went
/// through.
[[nodiscard]] std::vector<Violation> check_optimization_equivalence(
    const core::ReactionNetwork& network,
    std::span<const core::SpeciesId> roots,
    const OptEquivalenceOptions& options = {});

}  // namespace mrsc::verify
