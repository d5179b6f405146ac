#include "stress/campaign.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "analysis/decode.hpp"
#include "runtime/batch.hpp"
#include "scenario/registry.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "verify/oracles.hpp"

namespace mrsc::stress {

namespace {

using util::json::Value;

/// The design, resolved once before the sweep, plus what every trial
/// derives from it (species names for event faults, the clock-skew label
/// prefix, timing).
struct TrialPlan {
  scenario::ResolvedScenario resolved;
  std::string skew_prefix;
  std::string victim;  ///< species the injection/loss events hit
  double event_time = 0.0;
  double t_end = 0.0;
};

TrialPlan make_plan(const std::string& spec) {
  TrialPlan plan;
  plan.resolved = scenario::ScenarioRegistry::global().resolve(spec);
  core::ReactionNetwork& network = *plan.resolved.design.network;
  const analysis::Decoder& decoder = *plan.resolved.decoder;
  // A stimulus held from t = 0 (a delay chain's token) joins the initial
  // state before faulting, so initial-noise perturbs it too.
  decoder.prime(network, decoder.stimulus);
  plan.skew_prefix = decoder.skew_prefix(network);
  plan.victim = network.species_name(decoder.fault_target);
  plan.t_end =
      decoder.t_end(network.rate_policy(), decoder.stimulus.size() + 3);
  plan.event_time = 0.3 * plan.t_end;
  return plan;
}

FaultSpec make_spec(const CampaignConfig& config, const TrialPlan& plan,
                    double intensity, std::uint64_t seed) {
  switch (config.fault) {
    case FaultKind::kRateJitter:
      return FaultSpec::rate_jitter(intensity, seed);
    case FaultKind::kRateJitterCategory:
      return FaultSpec::category_jitter(config.category, intensity, seed);
    case FaultKind::kClockSkew:
      return FaultSpec::clock_skew(intensity, seed, plan.skew_prefix);
    case FaultKind::kLeak:
      return FaultSpec::leak(intensity);
    case FaultKind::kInjection:
      return FaultSpec::injection(plan.victim, intensity, plan.event_time);
    case FaultKind::kLoss:
      return FaultSpec::loss(plan.victim, intensity, plan.event_time);
    case FaultKind::kInitialNoise:
      return FaultSpec::initial_noise(intensity, seed);
    case FaultKind::kRateJitterReaction:
    case FaultKind::kStoichiometry:
      break;
  }
  throw std::invalid_argument(
      std::string("run_campaign: fault kind '") + to_string(config.fault) +
      "' has no intensity knob; apply it via apply_faults directly");
}

/// One complete simulation of the design under `spec`. Returns "" when the
/// decoded output matches the unperturbed reference, a violation
/// description otherwise. Throws (from the driver or stepper) on simulation
/// trouble.
std::string drive_trial(const TrialPlan& plan, const FaultSpec& spec,
                        const sim::OdeOptions& ode) {
  const FaultSpec specs[] = {spec};
  FaultedNetwork faulted = apply_faults(*plan.resolved.design.network, specs);
  sim::FaultEventObserver events(std::move(faulted.events));
  analysis::DecodeOptions options;
  options.extra_observers = {&events};
  const analysis::Decoder& decoder = *plan.resolved.decoder;
  const analysis::DecodedRun run = analysis::run_decoded(
      faulted.network, ode, decoder, decoder.stimulus, options);
  const verify::MaybeViolation violation =
      verify::check_decoded("stress", run, decoder,
                            verify::kFunctionalTolerance);
  return violation ? violation->detail : "";
}

bool aborted(const CampaignConfig& config) {
  return config.abort && config.abort();
}

TrialResult run_trial(const CampaignConfig& config, const TrialPlan& plan,
                      double intensity, std::uint64_t seed) {
  if (aborted(config)) throw CampaignAborted();
  TrialResult result;
  result.seed = seed;
  const FaultSpec spec = make_spec(config, plan, intensity, seed);

  sim::OdeOptions base;
  base.t_end = plan.t_end;
  // A fault can make the network arbitrarily stiff, and an unbudgeted trial
  // would grind for minutes inside the sweep. The step cap ends such a run
  // early; the driver reports the incomplete run, and the trial is
  // classified and quarantined instead of hanging the campaign.
  base.max_steps = 5'000'000;
  base.abort = config.abort;
  // Two rungs: the driver owns its observers, so deeper rungs (implicit
  // fixed-step, SSA) are left to the generic fallback path in sim/.
  static constexpr std::string_view kRungs[] = {"dp45", "tightened"};
  std::string mismatch;
  result.recovery = sim::walk_ladder(
      kRungs, config.max_attempts, {},
      [&](std::size_t rung) -> sim::SimFailure {
        try {
          mismatch = drive_trial(
              plan, spec, rung == 0 ? base : sim::tightened_options(base));
          return {};
        } catch (const std::exception& error) {
          // The integrator only aborts through config.abort, and a
          // wall-clock stop is the caller's, not the trial's: never record
          // it.
          if (aborted(config)) throw CampaignAborted();
          return {sim::SimFailureKind::kException, error.what()};
        }
      });
  const bool ok = result.recovery.succeeded();
  result.attempts = result.recovery.attempts.size() + (ok ? 1 : 0);
  if (!ok) {
    // Every rung failed: quarantine the trial, the sweep continues.
    const sim::SimFailure& failure = result.recovery.attempts.back().failure;
    result.status = TrialStatus::kSimFailure;
    result.detail = std::string(sim::to_string(failure.kind)) + ": " +
                    failure.detail;
  } else if (mismatch.empty()) {
    result.status = TrialStatus::kOk;
  } else {
    result.status = TrialStatus::kMismatch;
    result.detail = mismatch;
  }
  return result;
}

}  // namespace

const char* to_string(TrialStatus status) {
  switch (status) {
    case TrialStatus::kOk:
      return "ok";
    case TrialStatus::kMismatch:
      return "mismatch";
    case TrialStatus::kSimFailure:
      return "sim-failure";
  }
  return "unknown";
}

std::vector<double> default_intensities(FaultKind kind) {
  switch (kind) {
    case FaultKind::kLeak:
      // Leaks are by far the most damaging fault (every species decays,
      // clock phases included), so the grid starts well below the jitter
      // family's scale.
      return {0.0001, 0.0003, 0.001, 0.003, 0.01};
    case FaultKind::kInjection:
      return {0.1, 0.2, 0.4, 0.8, 1.6};
    case FaultKind::kLoss:
      return {0.1, 0.25, 0.5, 0.75, 0.9};
    default:
      // Jitter-family kinds: sigma of ln(rate multiplier).
      return {0.02, 0.05, 0.1, 0.2, 0.4};
  }
}

bool sweepable(FaultKind kind) {
  return kind != FaultKind::kRateJitterReaction &&
         kind != FaultKind::kStoichiometry;
}

std::string CampaignResult::to_table() const {
  char line[160];
  std::string out = "design=" + design +
                    " fault=" + stress::to_string(fault) +
                    " trials=" + std::to_string(trials_per_intensity) +
                    " base_seed=" + std::to_string(base_seed);
  if (!target.empty()) out += " target=" + target;
  out += "\n";
  std::snprintf(line, sizeof line, "%12s %4s %9s %8s %10s  %s\n", "intensity",
                "ok", "mismatch", "simfail", "recovered", "verdict");
  out += line;
  for (const IntensityResult& point : intensities) {
    std::snprintf(line, sizeof line, "%12g %4zu %9zu %8zu %10zu  %s\n",
                  point.intensity, point.ok, point.mismatch,
                  point.sim_failure, point.recovered,
                  point.all_ok() ? "pass" : "FAIL");
    out += line;
  }
  out += "robustness margin: ";
  // Human-facing: grid intensities are short decimals, so %g avoids the
  // %.17g round-trip noise (0.10000000000000001).
  out += margin_found ? util::format("%g", margin)
                      : "none (smallest intensity already fails)";
  out += "\n";
  return out;
}

Value CampaignResult::to_value() const {
  Value out;
  out.set("design", Value(design));
  out.set("fault", Value(stress::to_string(fault)));
  out.set("trials_per_intensity", Value(std::uint64_t{trials_per_intensity}));
  out.set("base_seed", Value(base_seed));
  out.set("target", Value(target));
  out.set("margin", Value(margin));
  out.set("margin_found", Value(margin_found));
  Value points;
  std::vector<Value>& point_array = points.array();
  for (const IntensityResult& point : intensities) {
    Value entry;
    entry.set("intensity", Value(point.intensity));
    entry.set("ok", Value(std::uint64_t{point.ok}));
    entry.set("mismatch", Value(std::uint64_t{point.mismatch}));
    entry.set("sim_failure", Value(std::uint64_t{point.sim_failure}));
    entry.set("recovered", Value(std::uint64_t{point.recovered}));
    Value trials;
    std::vector<Value>& trial_array = trials.array();
    for (const TrialResult& trial : point.trials) {
      Value row;
      row.set("seed", Value(trial.seed));
      row.set("status", Value(stress::to_string(trial.status)));
      row.set("detail", Value(trial.detail));
      row.set("attempts", Value(std::uint64_t{trial.attempts}));
      row.set("recovery", trial.recovery.to_value());
      trial_array.push_back(std::move(row));
    }
    entry.set("trials", std::move(trials));
    point_array.push_back(std::move(entry));
  }
  out.set("intensities", std::move(points));
  return out;
}

CampaignResult run_campaign(const CampaignConfig& config) {
  if (config.trials == 0) {
    throw std::invalid_argument("run_campaign: need >= 1 trial per intensity");
  }
  std::vector<double> grid = config.intensities.empty()
                                 ? default_intensities(config.fault)
                                 : config.intensities;
  std::sort(grid.begin(), grid.end());
  for (const double g : grid) {
    if (g <= 0.0) {
      throw std::invalid_argument("run_campaign: intensities must be > 0");
    }
  }
  const TrialPlan plan = make_plan(config.design);
  // Validates the fault kind up front (and fails fast on usage errors)
  // rather than inside every worker.
  (void)make_spec(config, plan, grid.front(), 1);

  CampaignResult result;
  result.design = plan.resolved.scenario.name;
  result.fault = config.fault;
  result.trials_per_intensity = config.trials;
  result.base_seed = config.base_seed;
  if (config.fault == FaultKind::kInjection ||
      config.fault == FaultKind::kLoss) {
    result.target = plan.victim;
  } else if (config.fault == FaultKind::kClockSkew) {
    result.target = plan.skew_prefix;
  }

  const std::size_t total = grid.size() * config.trials;
  std::vector<TrialResult> trials(total);
  runtime::BatchRunner runner({.threads = config.threads});
  runner.for_each_index(total, [&](std::size_t flat) {
    const std::size_t point = flat / config.trials;
    const std::uint64_t seed = util::Rng::stream_seed(config.base_seed, flat);
    trials[flat] = run_trial(config, plan, grid[point], seed);
  });

  result.intensities.resize(grid.size());
  for (std::size_t point = 0; point < grid.size(); ++point) {
    IntensityResult& summary = result.intensities[point];
    summary.intensity = grid[point];
    for (std::size_t t = 0; t < config.trials; ++t) {
      TrialResult& trial = trials[point * config.trials + t];
      switch (trial.status) {
        case TrialStatus::kOk:
          ++summary.ok;
          break;
        case TrialStatus::kMismatch:
          ++summary.mismatch;
          break;
        case TrialStatus::kSimFailure:
          ++summary.sim_failure;
          break;
      }
      if (trial.recovery.recovered) ++summary.recovered;
      summary.trials.push_back(std::move(trial));
    }
  }

  // Margin: the largest intensity of the maximal all-pass prefix.
  for (const IntensityResult& point : result.intensities) {
    if (!point.all_ok()) break;
    result.margin = point.intensity;
    result.margin_found = true;
  }
  return result;
}

}  // namespace mrsc::stress
