// Exact stochastic simulation (SSA).
//
// The paper validates its designs with deterministic ODE simulation, which is
// the infinite-population limit of the chemistry. Real molecular systems have
// finite counts; these simulators reproduce that regime exactly:
//  * kDirect       — Gillespie's direct method. Propensities are evaluated
//                    once up front; after each firing only the fired
//                    reaction's dependents (the CSR dependency graph) are
//                    re-evaluated. Each event's total is the index-order
//                    sum, re-added only from the lowest propensity that
//                    changed, and the selection is still scanned in index
//                    order, both over the nonzero propensities only (an
//                    exact zero adds nothing), so results are bitwise those
//                    of recomputing everything.
//  * kNextReaction — Gibson & Bruck's next-reaction method with a dependency
//                    graph and an indexed priority queue; asymptotically
//                    faster for networks where each firing touches few
//                    propensities (true of the paper's constructions).
//
// Counts are related to ODE concentrations through the volume factor `omega`
// (molecules per unit concentration): n_i = round(omega * x_i).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/network.hpp"
#include "sim/engine/compiled_system.hpp"
#include "sim/trajectory.hpp"

namespace mrsc::sim {

enum class SsaMethod : std::uint8_t {
  kDirect,
  kNextReaction,
  /// Approximate accelerated method: fires Poisson-distributed batches of
  /// reactions over fixed leaps of length `SsaOptions::tau`. Orders of
  /// magnitude faster on dense populations at the cost of leap-size bias;
  /// each batch is capped by the available reactants so counts never go
  /// negative.
  kTauLeaping,
};

struct SsaOptions {
  double t_end = 100.0;
  SsaMethod method = SsaMethod::kNextReaction;
  std::uint64_t seed = 1;

  /// Volume scale: molecules per concentration unit.
  double omega = 1000.0;

  /// Sampling period of the recorded trajectory (in time units). Recorded
  /// values are counts divided by omega, i.e. concentration units, so SSA
  /// trajectories compare directly against ODE trajectories.
  double record_interval = 0.1;

  /// Hard cap on reaction events.
  std::uint64_t max_events = 500'000'000;

  /// Leap length for kTauLeaping (time units).
  double tau = 0.01;

  /// Cooperative cancellation hook. Polled every `abort_check_events` events
  /// (every leap for kTauLeaping), so an abort lands within microseconds
  /// without taxing the per-event hot path. When it returns true the run
  /// stops and the result carries `aborted = true`.
  std::function<bool()> abort;
  std::uint64_t abort_check_events = 1024;
};

struct SsaResult {
  Trajectory trajectory;  ///< concentration units (counts / omega)
  std::uint64_t events = 0;
  bool exhausted = false;  ///< all propensities hit zero before t_end
  bool hit_event_limit = false;
  bool aborted = false;  ///< SsaOptions::abort requested an early stop
  double end_time = 0.0;
  std::vector<std::int64_t> final_counts;
  /// Deterministic work counter: propensity evaluations performed by the
  /// direct and next-reaction methods, R up front plus the dependents
  /// refreshed per event (less the skipped pure-catalysis self-edges).
  /// Tau-leaping leaves it 0.
  std::uint64_t propensity_evaluations = 0;
  /// Deterministic work counter: propensity entries the direct method's
  /// per-event totals visited. A total re-adds the nonzero entries from the
  /// lowest one that changed since the previous total, and none when no
  /// propensity changed (about half of R per event on a fully active ring,
  /// none after the first total on an idle gated design). Other methods
  /// leave it 0.
  std::uint64_t selection_terms = 0;
};

/// Runs one stochastic realization starting from counts derived from
/// `initial_concentrations` (or the network defaults if empty). Compiles
/// the network for this one run.
[[nodiscard]] SsaResult simulate_ssa(
    const core::ReactionNetwork& network, const SsaOptions& options,
    std::vector<double> initial_concentrations = {});

/// Same, against an already-compiled network; `initial_counts` are raw
/// molecule counts. The `CompiledSystem` is read-only here and may be shared
/// across concurrent replicates (the ensemble runner builds it once per
/// design).
[[nodiscard]] SsaResult simulate_ssa(const CompiledSystem& system,
                                     const SsaOptions& options,
                                     std::vector<std::int64_t> initial_counts);

/// Direct-method selection: the first reaction at which the running sum of
/// `propensities` reaches `target` (a uniform draw times their sequential
/// sum). A reaction with zero propensity is never chosen: when rounding
/// leaves `target` above zero after the full scan, the last reaction with
/// positive propensity fires. At least one propensity must be positive.
/// This dense scan is the reference; the direct method runs the same scan
/// over its nonzero propensities only (`ActiveSet::select`), which picks
/// the same reaction.
[[nodiscard]] std::size_t select_reaction(std::span<const double> propensities,
                                          double target);

/// Converts concentrations to integer counts at volume omega: each product
/// rounded to the nearest count, negatives clamped to 0. Throws
/// std::invalid_argument naming the species index when a product is not
/// finite or is at least 2^63 (no int64 count holds it).
[[nodiscard]] std::vector<std::int64_t> to_counts(
    std::span<const double> concentrations, double omega);

}  // namespace mrsc::sim
