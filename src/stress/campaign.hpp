// Fault-intensity sweep campaigns: how much perturbation does a design take?
//
// A campaign fixes one design and one fault kind, sweeps the fault intensity
// over a grid, and runs several seeded trials per grid point. The design is
// a scenario-registry spec ("counter(4)", "seqdet", "delay_chain(2)"),
// resolved once per campaign. Each trial applies its seeded `FaultSpec` to a
// copy of that network, drives the design's decoder stimulus through
// analysis::run_decoded, and compares the decoded output against the
// decoder's exact unperturbed reference (the same oracles verify/ uses).
// The *robustness margin* is the largest intensity for which every trial of
// every intensity up to and including it still matches the reference — the
// quantitative counterpart of the paper's "any rates work as long as fast >>
// slow" claim.
//
// Campaigns are built to degrade gracefully, not abort: a trial whose
// simulation misbehaves is retried down a two-rung ladder (as-requested ->
// tightened; see sim/fallback.hpp) with fresh observers per attempt, and a
// trial that still fails is *classified and quarantined* — counted, logged,
// and the sweep continues. Determinism: trial seeds derive from
// (base_seed, flat trial index), so results are identical at any thread
// count.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/reaction.hpp"
#include "sim/fallback.hpp"
#include "stress/fault.hpp"
#include "util/json.hpp"

namespace mrsc::stress {

struct CampaignConfig {
  /// Scenario-registry spec. Every registry design carries a decoder, and
  /// each trial drives the decoder's own stimulus.
  std::string design = "counter";
  FaultKind fault = FaultKind::kRateJitter;
  /// kRateJitterCategory only: which category to jitter.
  core::RateCategory category = core::RateCategory::kSlow;
  /// Intensity grid, ascending. Empty selects a per-kind default grid.
  std::vector<double> intensities;
  /// Seeded trials per grid point.
  std::size_t trials = 3;
  std::uint64_t base_seed = 42;
  std::size_t threads = 1;
  /// Trial-level ladder attempts (1 = no retry, 2 adds the tightened rung).
  std::size_t max_attempts = 2;
  /// Optional deadline/cancel hook, polled before each trial and by every
  /// trial's integrator. Once it returns true the campaign throws
  /// CampaignAborted: a wall-clock stop fails the whole campaign rather
  /// than being quarantined as a trial, so results never depend on time.
  std::function<bool()> abort;
};

/// Thrown by run_campaign when CampaignConfig::abort fired.
class CampaignAborted : public std::runtime_error {
 public:
  CampaignAborted() : std::runtime_error("run_campaign: aborted") {}
};

enum class TrialStatus : std::uint8_t {
  kOk,          ///< output matched the unperturbed reference
  kMismatch,    ///< run completed but the verify oracle found a deviation
  kSimFailure,  ///< simulation failed on every ladder rung; quarantined
};

[[nodiscard]] const char* to_string(TrialStatus status);

struct TrialResult {
  std::uint64_t seed = 0;
  TrialStatus status = TrialStatus::kOk;
  std::string detail;  ///< oracle violation or classified failure text
  std::size_t attempts = 1;
  sim::RecoveryLog recovery{};  ///< non-empty when the ladder was walked
};

struct IntensityResult {
  double intensity = 0.0;
  std::size_t ok = 0;
  std::size_t mismatch = 0;
  std::size_t sim_failure = 0;
  std::size_t recovered = 0;  ///< trials that needed a ladder retry to pass
  std::vector<TrialResult> trials;

  [[nodiscard]] bool all_ok() const { return ok == trials.size(); }
};

struct CampaignResult {
  std::string design;  ///< canonical registry spec
  FaultKind fault = FaultKind::kRateJitter;
  std::size_t trials_per_intensity = 0;
  std::uint64_t base_seed = 0;
  /// What the fault targeted (species name for injection/loss, label prefix
  /// for clock skew, empty otherwise) — echoed for reproducibility.
  std::string target;
  /// Largest intensity with every trial passing at it and below; 0 with
  /// margin_found == false when the smallest grid point already fails.
  double margin = 0.0;
  bool margin_found = false;
  std::vector<IntensityResult> intensities;

  [[nodiscard]] std::string to_table() const;
  /// The --json report (schema in docs/STRESS.md).
  [[nodiscard]] util::json::Value to_value() const;
};

/// Default intensity grid for a fault kind (ascending).
[[nodiscard]] std::vector<double> default_intensities(FaultKind kind);

/// False for the discrete kinds (kRateJitterReaction, kStoichiometry):
/// they have no intensity to sweep, and run_campaign rejects them.
[[nodiscard]] bool sweepable(FaultKind kind);

/// Runs the sweep. Throws std::invalid_argument, before any trial, for a
/// spec the registry rejects (the message names the spec) and for fault
/// kinds with no intensity knob (kRateJitterReaction, kStoichiometry: use
/// apply_faults directly). Throws CampaignAborted when config.abort fires.
[[nodiscard]] CampaignResult run_campaign(const CampaignConfig& config);

}  // namespace mrsc::stress
