#include "stress/campaign.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <utility>

#include "analysis/harness.hpp"
#include "async/chain.hpp"
#include "dsp/counter.hpp"
#include "dsp/filters.hpp"
#include "fsm/fsm.hpp"
#include "runtime/batch.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "verify/oracles.hpp"

namespace mrsc::stress {

namespace {

using util::format_17g;
using util::json::quote;

// Fixed, deliberately small workloads: a campaign runs
// |intensities| * trials * attempts full simulations, so each trial is a
// short but complete exercise of the design's sequential logic.
constexpr std::size_t kCounterBits = 3;
constexpr std::uint64_t kCounterInitial = 2;
constexpr std::size_t kCounterIncrements = 6;
constexpr double kMaSamples[] = {1.0, 0.0, 1.0, 1.0, 0.0, 2.0};
constexpr std::size_t kFsmInputs[] = {1, 0, 1, 0, 1, 1};
constexpr std::size_t kChainElements = 2;
constexpr double kChainTEnd = 40.0 * (kChainElements + 1);

/// Design-specific constants resolved once before the sweep (species names
/// for event faults, the clock-skew label prefix, timing).
struct TrialPlan {
  std::string skew_prefix;
  std::string victim;  ///< species the injection/loss events hit
  double event_time = 0.0;
  double t_end = 0.0;
};

TrialPlan make_plan(Design design) {
  TrialPlan plan;
  const core::RatePolicy policy;  // every design builds with the defaults
  switch (design) {
    case Design::kCounter: {
      core::ReactionNetwork net;
      dsp::CounterSpec spec;
      spec.bits = kCounterBits;
      spec.initial_value = kCounterInitial;
      const dsp::CounterHandles handles = dsp::build_counter(net, spec);
      // Builders rewrite the default clock prefix to <design>_clk, and the
      // clock's reaction labels carry it ("ctr_clk.hop.r2g.seed", ...).
      plan.skew_prefix = "ctr_clk.";
      plan.victim = net.species_name(handles.one_rail[0]);
      plan.t_end =
          analysis::suggest_t_end(spec.clock, policy, kCounterIncrements + 3);
      break;
    }
    case Design::kMovingAverage: {
      const dsp::Design design_build = dsp::make_moving_average();
      plan.skew_prefix = "ma_clk.";
      plan.victim = design_build.network->species_name(
          design_build.circuit.output("y"));
      // make_moving_average compiles with the default clock spec.
      plan.t_end = analysis::suggest_t_end(sync::ClockSpec{}, policy,
                                           std::size(kMaSamples) + 3);
      break;
    }
    case Design::kSequenceDetector: {
      core::ReactionNetwork net;
      const fsm::FsmSpec spec = fsm::make_sequence_detector("101");
      const fsm::FsmHandles handles = fsm::build_fsm(net, spec);
      plan.skew_prefix = "seqdet_clk.";
      plan.victim = net.species_name(handles.state[0]);
      plan.t_end = analysis::suggest_t_end(spec.clock, policy,
                                           std::size(kFsmInputs) + 3);
      break;
    }
    case Design::kAsyncChain: {
      core::ReactionNetwork net;
      async::ChainSpec spec;
      spec.elements = kChainElements;
      const async::ChainHandles handles = async::build_delay_chain(net, spec);
      plan.skew_prefix = "dc.";
      plan.victim = net.species_name(handles.output);
      plan.t_end = kChainTEnd;
      break;
    }
  }
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
/// logic output matches the unperturbed reference, a violation description
/// otherwise. Throws (from the harness or stepper) on simulation trouble.
std::string drive_trial(Design design, const FaultSpec& spec,
                        const sim::OdeOptions& ode) {
  const FaultSpec specs[] = {spec};
  switch (design) {
    case Design::kCounter: {
      core::ReactionNetwork net;
      dsp::CounterSpec cspec;
      cspec.bits = kCounterBits;
      cspec.initial_value = kCounterInitial;
      const dsp::CounterHandles handles = dsp::build_counter(net, cspec);
      FaultedNetwork faulted = apply_faults(net, specs);
      FaultEventObserver events(std::move(faulted.events));
      analysis::ClockedRunOptions options;
      options.ode = ode;
      options.extra_observers = {&events};
      const analysis::CounterRunResult run = analysis::run_counter(
          faulted.network, handles, kCounterIncrements, options);
      const std::uint64_t modulo = 1ULL << kCounterBits;
      for (std::size_t k = 0; k < run.values.size(); ++k) {
        const std::uint64_t expected = (kCounterInitial + k + 1) % modulo;
        if (run.values[k] != expected) {
          return "counter read " + std::to_string(k) + ": got " +
                 std::to_string(run.values[k]) + " expected " +
                 std::to_string(expected);
        }
      }
      return "";
    }
    case Design::kMovingAverage: {
      const dsp::Design build = dsp::make_moving_average();
      FaultedNetwork faulted = apply_faults(*build.network, specs);
      FaultEventObserver events(std::move(faulted.events));
      analysis::ClockedRunOptions options;
      options.ode = ode;
      options.extra_observers = {&events};
      const analysis::ClockedRunResult run = analysis::run_clocked_circuit(
          faulted.network, build.circuit, "x", kMaSamples, "y", options);
      const std::vector<double> expected =
          dsp::reference_moving_average(kMaSamples);
      const verify::MaybeViolation violation = verify::check_series_match(
          "stress.moving_average", run.outputs, expected, {});
      return violation ? violation->detail : "";
    }
    case Design::kSequenceDetector: {
      core::ReactionNetwork net;
      const fsm::FsmSpec fspec = fsm::make_sequence_detector("101");
      const fsm::FsmHandles handles = fsm::build_fsm(net, fspec);
      FaultedNetwork faulted = apply_faults(net, specs);
      FaultEventObserver events(std::move(faulted.events));
      analysis::ClockedRunOptions options;
      options.ode = ode;
      options.extra_observers = {&events};
      const analysis::FsmRunResult run =
          analysis::run_fsm(faulted.network, handles, kFsmInputs, options);
      const fsm::FsmTrace expected =
          fsm::evaluate_reference(fspec, kFsmInputs);
      for (std::size_t k = 0; k < run.states.size(); ++k) {
        if (run.states[k] != expected.states[k]) {
          return "fsm step " + std::to_string(k) + ": state " +
                 std::to_string(run.states[k]) + " expected " +
                 std::to_string(expected.states[k]);
        }
        if (run.outputs[k] != expected.outputs[k]) {
          return "fsm step " + std::to_string(k) + ": output " +
                 std::to_string(run.outputs[k]) + " expected " +
                 std::to_string(expected.outputs[k]);
        }
      }
      return "";
    }
    case Design::kAsyncChain: {
      core::ReactionNetwork net;
      async::ChainSpec cspec;
      cspec.elements = kChainElements;
      const async::ChainHandles handles = async::build_delay_chain(net, cspec);
      net.set_initial(handles.input, 1.0);
      FaultedNetwork faulted = apply_faults(net, specs);
      FaultEventObserver events(std::move(faulted.events));
      sim::Observer* observers[] = {&events};
      const sim::OdeResult run = sim::simulate_ode(
          faulted.network, ode, faulted.network.initial_state(),
          std::span<sim::Observer* const>(observers, 1));
      const sim::SimFailure failure = sim::classify_failure(run);
      if (failure) {
        throw std::runtime_error("async chain: " + failure.detail);
      }
      const double got =
          run.trajectory.final_state()[handles.output.index()];
      const double expected[] = {1.0};
      const double actual[] = {got};
      const verify::MaybeViolation violation = verify::check_series_match(
          "stress.async_chain", actual, expected, {});
      return violation ? violation->detail : "";
    }
  }
  throw std::invalid_argument("drive_trial: unknown design");
}

sim::SimFailure classify_exception(const std::string& what) {
  if (what.find("aborted by deadline") != std::string::npos) {
    return {sim::SimFailureKind::kDeadline, what};
  }
  return {sim::SimFailureKind::kException, what};
}

TrialResult run_trial(const CampaignConfig& config, const TrialPlan& plan,
                      double intensity, std::uint64_t seed) {
  TrialResult result;
  result.seed = seed;
  const FaultSpec spec = make_spec(config, plan, intensity, seed);

  sim::OdeOptions base;
  base.t_end = plan.t_end;
  // A fault can make the network arbitrarily stiff, and an unbudgeted trial
  // would grind for minutes inside the sweep. The step cap ends such a run
  // early; the harness reports the incomplete run, and the trial is
  // classified and quarantined instead of hanging the campaign.
  base.max_steps = 5'000'000;
  // Two rungs: the harness owns its observers, so deeper rungs (implicit
  // fixed-step, SSA) are left to the generic fallback path in sim/.
  const std::size_t attempts_allowed =
      std::clamp<std::size_t>(config.max_attempts, 1, 2);
  for (std::size_t attempt = 0; attempt < attempts_allowed; ++attempt) {
    const char* rung = attempt == 0 ? "dp45" : "tightened";
    const sim::OdeOptions ode =
        attempt == 0 ? base : sim::tightened_options(base);
    result.recovery.final_rung = rung;
    try {
      const std::string mismatch = drive_trial(config.design, spec, ode);
      result.attempts = attempt + 1;
      result.recovery.recovered = !result.recovery.attempts.empty();
      if (mismatch.empty()) {
        result.status = TrialStatus::kOk;
        result.detail.clear();
      } else {
        result.status = TrialStatus::kMismatch;
        result.detail = mismatch;
      }
      return result;
    } catch (const std::exception& error) {
      const sim::SimFailure failure = classify_exception(error.what());
      result.recovery.attempts.push_back({attempt, rung, failure, 0.0});
      result.detail = std::string(sim::to_string(failure.kind)) + ": " +
                      failure.detail;
    }
  }
  // Every rung failed: quarantine the trial, the sweep continues.
  result.status = TrialStatus::kSimFailure;
  result.attempts = attempts_allowed;
  return result;
}

}  // namespace

const char* to_string(Design design) {
  switch (design) {
    case Design::kCounter:
      return "counter";
    case Design::kMovingAverage:
      return "moving_average";
    case Design::kSequenceDetector:
      return "sequence_detector";
    case Design::kAsyncChain:
      return "async_chain";
  }
  return "unknown";
}

std::optional<Design> parse_design(std::string_view name) {
  if (name == "counter") return Design::kCounter;
  if (name == "moving_average") return Design::kMovingAverage;
  if (name == "sequence_detector") return Design::kSequenceDetector;
  if (name == "async_chain") return Design::kAsyncChain;
  return std::nullopt;
}

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

std::string CampaignResult::to_table() const {
  char line[160];
  std::string out = "design=" + std::string(stress::to_string(design)) +
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

std::string CampaignResult::to_json() const {
  std::string out = "{\n";
  out += "  \"design\": " + quote(stress::to_string(design)) + ",\n";
  out += "  \"fault\": " + quote(stress::to_string(fault)) + ",\n";
  out += "  \"trials_per_intensity\": " +
         std::to_string(trials_per_intensity) + ",\n";
  out += "  \"base_seed\": " + std::to_string(base_seed) + ",\n";
  out += "  \"target\": " + quote(target) + ",\n";
  out += "  \"margin\": " + format_17g(margin) + ",\n";
  out += std::string("  \"margin_found\": ") +
         (margin_found ? "true" : "false") + ",\n";
  out += "  \"intensities\": [\n";
  for (std::size_t i = 0; i < intensities.size(); ++i) {
    const IntensityResult& point = intensities[i];
    out += "    {\"intensity\": " + format_17g(point.intensity);
    out += ", \"ok\": " + std::to_string(point.ok);
    out += ", \"mismatch\": " + std::to_string(point.mismatch);
    out += ", \"sim_failure\": " + std::to_string(point.sim_failure);
    out += ", \"recovered\": " + std::to_string(point.recovered);
    out += ", \"trials\": [";
    for (std::size_t t = 0; t < point.trials.size(); ++t) {
      const TrialResult& trial = point.trials[t];
      if (t > 0) out += ", ";
      out += "{\"seed\": " + std::to_string(trial.seed);
      out += ", \"status\": " + quote(stress::to_string(trial.status));
      out += ", \"detail\": " + quote(trial.detail);
      out += ", \"attempts\": " + std::to_string(trial.attempts);
      out += ", \"recovery\": " + trial.recovery.to_json();
      out += "}";
    }
    out += "]}";
    out += i + 1 < intensities.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
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
  result.design = config.design;
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
