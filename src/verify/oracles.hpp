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

// The trajectory oracles' thresholds are named constants beside the code
// that reads them (oracles.cpp); docs/VERIFY.md records why each has its
// value.

/// Fails if any species drops below the negativity floor at any sample.
[[nodiscard]] MaybeViolation check_non_negative(
    const core::ReactionNetwork& network, const sim::Trajectory& trajectory);

/// Recomputes the network's conservation laws and fails if any drifts along
/// the trajectory beyond its band (relative to the law's initial magnitude,
/// plus an absolute slack for laws starting near zero). This validates the
/// *simulator* (a correct integrator conserves every law of whatever network
/// it was given); it cannot detect stoichiometry faults, because the laws
/// are derived from the same faulty matrix the dynamics obey. `driven` lists
/// species whose concentration the harness sets or clears mid-run
/// (input/output ports, increment tokens); laws with support on a driven
/// species drift by design and are skipped.
[[nodiscard]] MaybeViolation check_conservation(
    const core::ReactionNetwork& network, const sim::Trajectory& trajectory,
    std::span<const core::SpeciesId> driven = {});

/// The paper's central clock invariant: outside the brief transfer windows,
/// exactly one of C_R / C_G / C_B holds the phase token. Fails if two or
/// more phases are simultaneously high (token duplication — what a
/// stoichiometry fault in the clock produces), or if the one-phase-high duty
/// cycle falls below the liveness floor (token lost / clock dead). The
/// startup transient is skipped, here and by the rail check.
[[nodiscard]] MaybeViolation check_clock_phase_token(
    const sync::ClockHandles& clock, const sim::Trajectory& trajectory);

/// Dual-rail exclusivity: a register's parked rail pair (p, n) must be
/// normalized — min(p, n) small — for most of the run; the common part is
/// annihilated fast while the value sits in the register.
[[nodiscard]] MaybeViolation check_dual_rail_exclusive(
    const core::ReactionNetwork& network, const sim::Trajectory& trajectory,
    std::span<const std::pair<core::SpeciesId, core::SpeciesId>> rail_pairs);

/// Per-element tolerance of a single-rail circuit's decoded output against
/// its reference (docs/VERIFY.md explains the value).
inline constexpr double kFunctionalTolerance = 0.06;

/// Compares a measured per-cycle series against its reference model:
/// |a - e| <= tol + tol * |e| at every element.
[[nodiscard]] MaybeViolation check_series_match(const std::string& oracle,
                                                std::span<const double> actual,
                                                std::span<const double> expected,
                                                double tol);

/// Compares every decoded column of a run with the decoder's reference:
/// exact for integer-valued decoders, within `tol` otherwise. The detail of
/// a multi-column decoder names the column.
[[nodiscard]] MaybeViolation check_decoded(const std::string& oracle,
                                           const analysis::DecodedRun& run,
                                           const analysis::Decoder& decoder,
                                           double tol);

/// CLT z of every ensemble-mean comparison: the mean of n replicates
/// deviates from the true mean by ~ stddev/sqrt(n), so a band is
/// kCltZ * stddev / sqrt(n) + bias, where the caller's `bias` absorbs any
/// systematic gap between the two sides (e.g. the O(1/omega) gap between
/// the SSA mean and the deterministic ODE limit).
inline constexpr double kCltZ = 6.0;

/// ODE final state vs SSA-ensemble mean, per species, within the CLT band.
[[nodiscard]] MaybeViolation check_mean_in_band(
    const std::string& oracle, const runtime::EnsembleResult& ensemble,
    std::span<const double> reference, double bias);

/// Two SSA ensembles (e.g. direct vs next-reaction) must have compatible
/// per-species means: |m1 - m2| <= kCltZ * sqrt(s1^2/n1 + s2^2/n2) + bias.
[[nodiscard]] MaybeViolation check_ensembles_agree(
    const std::string& oracle, const runtime::EnsembleResult& a,
    const runtime::EnsembleResult& b, double bias);

/// Bitwise identity of two ensembles' final states (the BatchRunner
/// determinism contract: worker count must not change results).
[[nodiscard]] MaybeViolation check_results_bitwise_equal(
    const std::string& oracle, const runtime::EnsembleResult& a,
    const runtime::EnsembleResult& b);

}  // namespace mrsc::verify
