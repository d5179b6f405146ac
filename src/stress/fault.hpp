// Structured fault models for compiled reaction networks.
//
// The paper's robustness argument is qualitative: any rate assignment works
// as long as every fast reaction is much faster than every slow one. This
// module makes the perturbations concrete so campaigns can measure how much
// of each kind a compiled design actually tolerates:
//
//   rate jitter      — multiplicative log-normal noise on rate constants,
//                      over all reactions, one rate category, or a single
//                      labelled reaction ("kinetic constants are not
//                      constant at all")
//   clock skew       — the same jitter restricted to reactions whose label
//                      carries the clock prefix, skewing phase rates against
//                      the datapath
//   leaks            — spurious decay reactions X ->(intensity * k_slow) 0
//                      on matching species (imperfect molecular parts)
//   injection / loss — a bolus of spurious molecules added to, or a fraction
//                      removed from, one species at a chosen time (realized
//                      by `sim::FaultEventObserver` during the run)
//   initial noise    — log-normal noise on nonzero initial conditions
//   stoichiometry    — one reaction's first product duplicated (the
//                      single-gate hardware defect; promoted from the
//                      verify-layer test hook)
//
// Every spec is seeded and deterministic: the same (network, specs) pair
// always yields the same faulted network, regardless of thread count.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/network.hpp"
#include "sim/observer.hpp"

namespace mrsc::stress {

enum class FaultKind : std::uint8_t {
  kRateJitter,          ///< every reaction
  kRateJitterCategory,  ///< reactions of `category` only
  kRateJitterReaction,  ///< the single reaction labelled `label`
  kClockSkew,           ///< reactions whose label starts with `label`
  kLeak,                ///< decay reactions on species matching `species`
  kInjection,           ///< add `intensity` of `species` at `time`
  kLoss,                ///< remove fraction `intensity` of `species` at `time`
  kInitialNoise,        ///< jitter nonzero initial conditions
  kStoichiometry,       ///< duplicate first product of reaction `label`
};

[[nodiscard]] const char* to_string(FaultKind kind);

/// Parses the CLI spelling ("rate-jitter", "clock-skew", "leak", ...).
[[nodiscard]] std::optional<FaultKind> parse_fault_kind(std::string_view name);

/// One composable, seeded perturbation. `intensity` is the knob the campaign
/// sweeps; its meaning per kind:
///   jitter kinds   sigma of ln(multiplier): each selected reaction's rate is
///                  multiplied by exp(sigma * N(0,1))
///   kLeak          leak rate as a fraction of k_slow
///   kInjection     amount added (concentration units)
///   kLoss          fraction removed, clamped to [0, 1]
///   kInitialNoise  sigma of ln(multiplier) on nonzero initials
///   kStoichiometry ignored (the fault is discrete)
struct FaultSpec {
  FaultKind kind = FaultKind::kRateJitter;
  double intensity = 0.0;
  std::uint64_t seed = 1;
  /// kRateJitterCategory: which category to jitter.
  core::RateCategory category = core::RateCategory::kSlow;
  /// kRateJitterReaction / kStoichiometry: exact reaction label.
  /// kClockSkew: label prefix (default "clk.").
  std::string label;
  /// kLeak: species-name prefix filter (empty leaks every species).
  /// kInjection / kLoss: exact species name.
  std::string species;
  /// kInjection / kLoss: event time.
  double time = 0.0;

  static FaultSpec rate_jitter(double sigma, std::uint64_t seed);
  static FaultSpec category_jitter(core::RateCategory category, double sigma,
                                   std::uint64_t seed);
  static FaultSpec reaction_jitter(std::string label, double sigma,
                                   std::uint64_t seed);
  static FaultSpec clock_skew(double sigma, std::uint64_t seed,
                              std::string prefix = "clk.");
  static FaultSpec leak(double rate_fraction, std::string species_prefix = {});
  static FaultSpec injection(std::string species, double amount, double time);
  static FaultSpec loss(std::string species, double fraction, double time);
  static FaultSpec initial_noise(double sigma, std::uint64_t seed);
  static FaultSpec stoichiometry(std::string label);
};

/// A faulted copy of a network plus the events that must be realized at run
/// time (empty unless injection/loss specs were present).
struct FaultedNetwork {
  core::ReactionNetwork network;
  std::vector<sim::FaultEvent> events;
};

/// Applies `specs` in order to a copy of `network`. Deterministic: reactions
/// and species are visited in id order with one generator per spec, seeded
/// from FaultSpec::seed. Throws std::invalid_argument for an unknown label
/// or species name.
[[nodiscard]] FaultedNetwork apply_faults(const core::ReactionNetwork& network,
                                          std::span<const FaultSpec> specs);

/// Returns a copy of `network` with reaction `target`'s first product
/// stoichiometry incremented by one (a product-duplication fault; a reaction
/// with no products gains its first reactant as a product instead, turning a
/// sink into a no-op). Throws `std::out_of_range` on a bad id. This is the
/// fault the verify layer uses to prove its oracles catch broken networks.
[[nodiscard]] core::ReactionNetwork with_stoichiometry_fault(
    const core::ReactionNetwork& network, core::ReactionId target);

/// Finds a reaction whose label matches `label` exactly; throws
/// `std::invalid_argument` if absent.
[[nodiscard]] core::ReactionId find_reaction_by_label(
    const core::ReactionNetwork& network, const std::string& label);

}  // namespace mrsc::stress
