// Invariant and differential oracles over simulated trajectories.
//
// An oracle inspects a trajectory (or a pair of results) and either passes or
// returns a `Violation` describing what broke and where. Two families:
//
//   Invariant oracles — properties the paper guarantees for *every* correct
//   network: non-negativity, conservation totals, clock phase-token
//   uniqueness outside transfer windows, absence-indicator exclusivity, and
//   dual-rail rail exclusivity in parked registers.
//
//   Differential oracles — two ways of computing the same thing must agree:
//   a circuit vs its exact reference model, an ODE final state vs an
//   SSA-ensemble mean (within a CLT band), direct vs next-reaction SSA
//   ensembles, and serial vs multi-threaded batch execution (bitwise).
//
// Oracles are pure functions so both the fuzz driver and the shrinker can
// re-run them on candidate networks.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "analysis/decode.hpp"
#include "core/network.hpp"
#include "runtime/ensemble.hpp"
#include "sim/trajectory.hpp"
#include "sync/clock.hpp"

namespace mrsc::verify {

struct Violation {
  std::string oracle;  ///< short oracle name ("clock_phase_token", ...)
  std::string detail;  ///< human-readable description with numbers
};

using MaybeViolation = std::optional<Violation>;

/// Tolerances for the trajectory-shaped invariant oracles. Rationale for the
/// defaults lives in docs/VERIFY.md.
struct TrajectoryTolerances {
  /// ODE integration may undershoot zero by O(abs_tol); anything beyond this
  /// is a real negativity.
  double negativity = 1e-6;
  /// Conservation drift allowed, relative to the law's initial magnitude
  /// (plus `conservation_abs` absolute slack for laws starting near zero).
  double conservation_rel = 1e-3;
  double conservation_abs = 1e-6;
  /// A clock phase counts as "high" above this fraction of the token.
  double phase_high = 0.6;
  /// Fraction of the trajectory to skip before applying clock/rail checks
  /// (startup transient while the sharpened clock finds its limit cycle).
  double warmup_fraction = 0.15;
  /// Liveness floor: the fraction of post-warmup samples with exactly one
  /// phase high must be at least this (transfer windows are brief).
  double min_single_phase_duty = 0.3;
  /// A parked dual-rail pair is "unnormalized" when min(p, n) exceeds this;
  /// allowed only transiently (see `rail_overlap_duty`).
  double rail_overlap = 0.1;
  /// Max fraction of post-warmup samples where a rail pair may overlap
  /// (values legitimately co-exist mid-cycle before annihilation wins).
  double rail_overlap_duty = 0.6;
};

/// Fails if any species drops below -tolerances.negativity at any sample.
[[nodiscard]] MaybeViolation check_non_negative(
    const core::ReactionNetwork& network, const sim::Trajectory& trajectory,
    const TrajectoryTolerances& tol = {});

/// Recomputes the network's conservation laws and fails if any drifts along
/// the trajectory. This validates the *simulator* (a correct integrator
/// conserves every law of whatever network it was given); it cannot detect
/// stoichiometry faults, because the laws are derived from the same faulty
/// matrix the dynamics obey. `driven` lists species whose concentration the
/// harness sets or clears mid-run (input/output ports, increment tokens);
/// laws with support on a driven species drift by design and are skipped.
[[nodiscard]] MaybeViolation check_conservation(
    const core::ReactionNetwork& network, const sim::Trajectory& trajectory,
    const TrajectoryTolerances& tol = {},
    std::span<const core::SpeciesId> driven = {});

/// The paper's central clock invariant: outside the brief transfer windows,
/// exactly one of C_R / C_G / C_B holds the phase token. Fails if two or
/// more phases are simultaneously high (token duplication — what a
/// stoichiometry fault in the clock produces), or if the one-phase-high duty
/// cycle falls below the liveness floor (token lost / clock dead).
[[nodiscard]] MaybeViolation check_clock_phase_token(
    const sync::ClockHandles& clock, const sim::Trajectory& trajectory,
    const TrajectoryTolerances& tol = {});

/// Dual-rail exclusivity: a register's parked rail pair (p, n) must be
/// normalized — min(p, n) small — for most of the run; the common part is
/// annihilated fast while the value sits in the register.
[[nodiscard]] MaybeViolation check_dual_rail_exclusive(
    const core::ReactionNetwork& network, const sim::Trajectory& trajectory,
    std::span<const std::pair<core::SpeciesId, core::SpeciesId>> rail_pairs,
    const TrajectoryTolerances& tol = {});

/// Per-element tolerance for functional (circuit vs reference) comparison:
/// |a - e| <= abs + rel * |e|.
struct SeriesTolerance {
  double abs = 0.06;
  double rel = 0.06;
};

/// Compares a measured per-cycle series against its reference model.
[[nodiscard]] MaybeViolation check_series_match(const std::string& oracle,
                                                std::span<const double> actual,
                                                std::span<const double> expected,
                                                const SeriesTolerance& tol);

/// Compares every decoded column of a run with the decoder's reference:
/// exact for integer-valued decoders, within `tol` otherwise. The detail of
/// a multi-column decoder names the column.
[[nodiscard]] MaybeViolation check_decoded(const std::string& oracle,
                                           const analysis::DecodedRun& run,
                                           const analysis::Decoder& decoder,
                                           const SeriesTolerance& tol);

/// CLT tolerance band for ensemble-mean comparisons: the mean of n replicates
/// deviates from the true mean by ~ stddev/sqrt(n), so the band is
/// z * stddev / sqrt(n) + bias, where `bias` absorbs the O(1/omega)
/// systematic gap between the SSA mean and the deterministic ODE limit.
struct CltBand {
  double z = 6.0;
  double bias = 0.0;
};

/// ODE final state vs SSA-ensemble mean, per species, within the CLT band.
[[nodiscard]] MaybeViolation check_mean_in_band(
    const std::string& oracle, const runtime::EnsembleResult& ensemble,
    std::span<const double> reference, const CltBand& band);

/// Two SSA ensembles (e.g. direct vs next-reaction) must have compatible
/// per-species means: |m1 - m2| <= z * sqrt(s1^2/n1 + s2^2/n2) + bias.
[[nodiscard]] MaybeViolation check_ensembles_agree(
    const std::string& oracle, const runtime::EnsembleResult& a,
    const runtime::EnsembleResult& b, const CltBand& band);

/// Bitwise identity of two ensembles' final states (the BatchRunner
/// determinism contract: worker count must not change results).
[[nodiscard]] MaybeViolation check_results_bitwise_equal(
    const std::string& oracle, const runtime::EnsembleResult& a,
    const runtime::EnsembleResult& b);

}  // namespace mrsc::verify
