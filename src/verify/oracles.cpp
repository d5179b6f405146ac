#include "verify/oracles.hpp"

#include <algorithm>
#include <cmath>

#include "analysis/conservation.hpp"
#include "util/strings.hpp"

namespace mrsc::verify {
namespace {

using util::format;

// Thresholds of the trajectory-shaped invariant oracles; docs/VERIFY.md
// records the rationale for each value.

/// ODE integration may undershoot zero by O(abs_tol); anything beyond this
/// is a real negativity.
constexpr double kNegativity = 1e-6;
/// Conservation drift allowed, relative to the law's initial magnitude, plus
/// an absolute slack for laws starting near zero.
constexpr double kConservationRel = 1e-3;
constexpr double kConservationAbs = 1e-6;
/// A clock phase counts as "high" above this fraction of the token.
constexpr double kPhaseHigh = 0.6;
/// Fraction of the trajectory to skip before applying clock/rail checks
/// (startup transient while the sharpened clock finds its limit cycle).
constexpr double kWarmupFraction = 0.15;
/// Liveness floor: the fraction of post-warmup samples with exactly one
/// phase high must be at least this (transfer windows are brief).
constexpr double kMinSinglePhaseDuty = 0.3;
/// A parked dual-rail pair is "unnormalized" when min(p, n) exceeds this;
/// allowed only transiently (see kRailOverlapDuty).
constexpr double kRailOverlap = 0.1;
/// Max fraction of post-warmup samples where a rail pair may overlap
/// (values legitimately co-exist mid-cycle before annihilation wins).
constexpr double kRailOverlapDuty = 0.6;

/// First sample index past the startup transient.
std::size_t warmup_start(const sim::Trajectory& trajectory) {
  return static_cast<std::size_t>(
      static_cast<double>(trajectory.sample_count()) * kWarmupFraction);
}

}  // namespace

MaybeViolation check_non_negative(const core::ReactionNetwork& network,
                                  const sim::Trajectory& trajectory) {
  for (std::size_t k = 0; k < trajectory.sample_count(); ++k) {
    const auto state = trajectory.state(k);
    for (std::size_t i = 0; i < state.size(); ++i) {
      if (state[i] < -kNegativity) {
        return Violation{
            "non_negative",
            format("species %s = %.3e at t=%.3f (tolerance -%.0e)",
                   network
                       .species_name(
                           core::SpeciesId(static_cast<std::uint32_t>(i)))
                       .c_str(),
                   state[i],
                   trajectory.time(k), kNegativity)};
      }
    }
  }
  return std::nullopt;
}

MaybeViolation check_conservation(const core::ReactionNetwork& network,
                                  const sim::Trajectory& trajectory,
                                  std::span<const core::SpeciesId> driven) {
  if (trajectory.empty()) return std::nullopt;
  std::vector<bool> is_driven(network.species_count(), false);
  for (const core::SpeciesId id : driven) is_driven[id.index()] = true;
  const auto laws = analysis::conservation_laws(network);
  for (std::size_t li = 0; li < laws.size(); ++li) {
    bool touches_driven = false;
    for (std::size_t s = 0; s < laws[li].size(); ++s) {
      if (laws[li][s] != 0.0 && is_driven[s]) {
        touches_driven = true;
        break;
      }
    }
    if (touches_driven) continue;
    const double initial =
        analysis::conserved_quantity(laws[li], trajectory.state(0));
    const double band =
        kConservationRel * std::abs(initial) + kConservationAbs;
    for (std::size_t k = 1; k < trajectory.sample_count(); ++k) {
      const double q =
          analysis::conserved_quantity(laws[li], trajectory.state(k));
      if (std::abs(q - initial) > band) {
        return Violation{
            "conservation",
            format("law %zu drifted from %.6f to %.6f at t=%.3f (band %.1e)",
                   li, initial, q, trajectory.time(k), band)};
      }
    }
  }
  return std::nullopt;
}

MaybeViolation check_clock_phase_token(const sync::ClockHandles& clock,
                                       const sim::Trajectory& trajectory) {
  const double high = kPhaseHigh * clock.token;
  const std::size_t start = warmup_start(trajectory);
  std::size_t single = 0;
  std::size_t considered = 0;
  const core::SpeciesId phases[3] = {clock.phase_r, clock.phase_g,
                                     clock.phase_b};
  for (std::size_t k = start; k < trajectory.sample_count(); ++k) {
    int n_high = 0;
    for (const core::SpeciesId phase : phases) {
      if (trajectory.value(k, phase) > high) ++n_high;
    }
    if (n_high >= 2) {
      return Violation{
          "clock_phase_token",
          format("%d clock phases above %.2f simultaneously at t=%.3f "
                 "(R=%.3f G=%.3f B=%.3f) — phase token duplicated",
                 n_high, high, trajectory.time(k),
                 trajectory.value(k, clock.phase_r),
                 trajectory.value(k, clock.phase_g),
                 trajectory.value(k, clock.phase_b))};
    }
    single += n_high == 1 ? 1 : 0;
    ++considered;
  }
  if (considered > 0) {
    const double duty =
        static_cast<double>(single) / static_cast<double>(considered);
    if (duty < kMinSinglePhaseDuty) {
      return Violation{
          "clock_phase_token",
          format("exactly-one-phase-high duty %.2f below floor %.2f — "
                 "phase token lost or clock stalled",
                 duty, kMinSinglePhaseDuty)};
    }
  }
  return std::nullopt;
}

MaybeViolation check_dual_rail_exclusive(
    const core::ReactionNetwork& network, const sim::Trajectory& trajectory,
    std::span<const std::pair<core::SpeciesId, core::SpeciesId>> rail_pairs) {
  const std::size_t start = warmup_start(trajectory);
  for (const auto& [pos, neg] : rail_pairs) {
    std::size_t overlapping = 0;
    std::size_t considered = 0;
    double worst = 0.0;
    double worst_t = 0.0;
    for (std::size_t k = start; k < trajectory.sample_count(); ++k) {
      const double common =
          std::min(trajectory.value(k, pos), trajectory.value(k, neg));
      if (common > kRailOverlap) ++overlapping;
      if (common > worst) {
        worst = common;
        worst_t = trajectory.time(k);
      }
      ++considered;
    }
    if (considered == 0) continue;
    const double duty =
        static_cast<double>(overlapping) / static_cast<double>(considered);
    if (duty > kRailOverlapDuty) {
      return Violation{
          "dual_rail_exclusive",
          format("rail pair (%s, %s) unnormalized for %.0f%% of the run "
                 "(worst min(p,n)=%.3f at t=%.3f) — annihilation not winning",
                 network.species_name(pos).c_str(),
                 network.species_name(neg).c_str(), 100.0 * duty, worst,
                 worst_t)};
    }
  }
  return std::nullopt;
}

MaybeViolation check_series_match(const std::string& oracle,
                                  std::span<const double> actual,
                                  std::span<const double> expected,
                                  double tol) {
  if (actual.size() != expected.size()) {
    return Violation{oracle, format("series length %zu != reference %zu",
                                    actual.size(), expected.size())};
  }
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const double band = tol + tol * std::abs(expected[i]);
    if (std::abs(actual[i] - expected[i]) > band) {
      return Violation{
          oracle, format("cycle %zu: measured %.4f vs reference %.4f "
                         "(band %.4f)",
                         i, actual[i], expected[i], band)};
    }
  }
  return std::nullopt;
}

MaybeViolation check_decoded(const std::string& oracle,
                             const analysis::DecodedRun& run,
                             const analysis::Decoder& decoder,
                             double tol) {
  for (std::size_t c = 0; c < run.outputs.size(); ++c) {
    MaybeViolation v =
        check_series_match(oracle, run.outputs[c], run.expected[c],
                           decoder.exact ? 0.0 : tol);
    if (!v) continue;
    if (run.outputs.size() > 1) {
      v->detail = decoder.columns[c] + " " + v->detail;
    }
    return v;
  }
  return std::nullopt;
}

MaybeViolation check_mean_in_band(const std::string& oracle,
                                  const runtime::EnsembleResult& ensemble,
                                  std::span<const double> reference,
                                  double bias) {
  if (ensemble.ok == 0) {
    return Violation{oracle, "no successful replicates in ensemble"};
  }
  const double n = static_cast<double>(ensemble.ok);
  for (std::size_t i = 0;
       i < ensemble.final_stats.size() && i < reference.size(); ++i) {
    const auto& stats = ensemble.final_stats[i];
    const double tol = kCltZ * stats.stddev / std::sqrt(n) + bias;
    if (std::abs(stats.mean - reference[i]) > tol) {
      return Violation{
          oracle,
          format("species %s: ensemble mean %.4f vs reference %.4f "
                 "(band %.4f = %.1f*%.4f/sqrt(%zu)+%.3f)",
                 stats.name.c_str(), stats.mean, reference[i], tol, kCltZ,
                 stats.stddev, ensemble.ok, bias)};
    }
  }
  return std::nullopt;
}

MaybeViolation check_ensembles_agree(const std::string& oracle,
                                     const runtime::EnsembleResult& a,
                                     const runtime::EnsembleResult& b,
                                     double bias) {
  if (a.ok == 0 || b.ok == 0) {
    return Violation{oracle, "ensemble with no successful replicates"};
  }
  const std::size_t n = std::min(a.final_stats.size(), b.final_stats.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto& sa = a.final_stats[i];
    const auto& sb = b.final_stats[i];
    const double sem = std::sqrt(
        sa.stddev * sa.stddev / static_cast<double>(a.ok) +
        sb.stddev * sb.stddev / static_cast<double>(b.ok));
    const double tol = kCltZ * sem + bias;
    if (std::abs(sa.mean - sb.mean) > tol) {
      return Violation{
          oracle, format("species %s: means %.4f vs %.4f differ beyond "
                         "band %.4f",
                         sa.name.c_str(), sa.mean, sb.mean, tol)};
    }
  }
  return std::nullopt;
}

MaybeViolation check_results_bitwise_equal(const std::string& oracle,
                                           const runtime::EnsembleResult& a,
                                           const runtime::EnsembleResult& b) {
  if (a.replicates.size() != b.replicates.size()) {
    return Violation{oracle, format("replicate counts differ: %zu vs %zu",
                                    a.replicates.size(), b.replicates.size())};
  }
  for (std::size_t i = 0; i < a.replicates.size(); ++i) {
    const auto& ra = a.replicates[i];
    const auto& rb = b.replicates[i];
    if (ra.status != rb.status) {
      return Violation{oracle,
                       format("replicate %zu: status differs (%s vs %s)", i,
                              to_string(ra.status), to_string(rb.status))};
    }
    if (ra.final_state.size() != rb.final_state.size()) {
      return Violation{oracle,
                       format("replicate %zu: state sizes differ", i)};
    }
    for (std::size_t s = 0; s < ra.final_state.size(); ++s) {
      // Bitwise: the determinism contract promises identical doubles, not
      // merely close ones.
      if (ra.final_state[s] != rb.final_state[s]) {
        return Violation{
            oracle,
            format("replicate %zu species %zu: %.17g vs %.17g — results "
                   "depend on worker count",
                   i, s, ra.final_state[s], rb.final_state[s])};
      }
    }
  }
  return std::nullopt;
}

}  // namespace mrsc::verify
