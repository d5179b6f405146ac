#include "sim/fallback.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <utility>
#include <variant>

#include "util/json.hpp"

namespace mrsc::sim {

namespace {

/// Volume factor of the ODE ladder's exact stochastic rung.
constexpr double kSsaRungOmega = 1000.0;

const char* ode_method_name(OdeMethod method) {
  switch (method) {
    case OdeMethod::kRk4Fixed:
      return "rk4";
    case OdeMethod::kDormandPrince45:
      return "dp45";
    case OdeMethod::kBackwardEuler:
      return "be";
  }
  return "ode";
}

const char* ssa_method_name(SsaMethod method) {
  switch (method) {
    case SsaMethod::kDirect:
      return "direct";
    case SsaMethod::kNextReaction:
      return "nrm";
    case SsaMethod::kTauLeaping:
      return "tau-leap";
  }
  return "ssa";
}

/// L-stable last resort before SSA: backward Euler at a small fixed step.
OdeOptions implicit_fixed_options(const OdeOptions& base) {
  OdeOptions options = base;
  options.method = OdeMethod::kBackwardEuler;
  options.dt = std::min(options.dt, 1e-3);
  options.newton_max_iters = std::max<std::uint32_t>(options.newton_max_iters,
                                                     24);
  return options;
}

/// The ODE ladder's last rung: an exact next-reaction run of the same
/// horizon.
SsaOptions ssa_rung_options(const OdeOptions& base, std::uint64_t seed) {
  SsaOptions options;
  options.t_end = base.t_end;
  options.method = SsaMethod::kNextReaction;
  options.seed = seed;
  options.omega = kSsaRungOmega;
  options.record_interval =
      base.record_interval > 0.0 ? base.record_interval : 0.1;
  return options;
}

using RungOptions = std::variant<OdeOptions, SsaOptions>;

/// Runs one attempt with `rung` and, when the run finishes (aborted or
/// not), stores its outcome in `out`; a throw leaves `out` as it was.
SimFailure run_attempt(const CompiledSystem& system, RungOptions rung,
                       std::span<const double> initial,
                       const FallbackOptions& fallback, FallbackResult& out) {
  try {
    if (OdeOptions* ode = std::get_if<OdeOptions>(&rung)) {
      ode->abort = abort_hook(fallback.stop, fallback.timeout_seconds);
      OdeResult run = simulate_ode(
          system, *ode, std::vector<double>(initial.begin(), initial.end()));
      const std::span<const double> final = run.trajectory.final_state();
      out.final_state.assign(final.begin(), final.end());
      out.ode_steps = run.steps_accepted;
      out.ssa_events = 0;
      out.end_time = run.end_time;
      return classify_failure(run);  // reads only the result flags
    }
    SsaOptions& ssa = std::get<SsaOptions>(rung);
    ssa.abort = abort_hook(fallback.stop, fallback.timeout_seconds);
    SsaResult run = simulate_ssa(system, ssa, to_counts(initial, ssa.omega));
    out.final_state.resize(run.final_counts.size());
    for (std::size_t i = 0; i < run.final_counts.size(); ++i) {
      out.final_state[i] =
          static_cast<double>(run.final_counts[i]) / ssa.omega;
    }
    out.ode_steps = 0;
    out.ssa_events = run.events;
    out.end_time = run.end_time;
    return classify_failure(run);
  } catch (const std::exception& error) {
    return {SimFailureKind::kException, error.what()};
  }
}

/// Walks `rungs`, building rung i's options with `build(i)` only when that
/// rung runs.
template <class Build>
FallbackResult run_ladder(const CompiledSystem& system,
                          std::span<const std::string_view> rungs,
                          const FallbackOptions& fallback,
                          std::span<const double> initial, Build build) {
  FallbackResult out;
  out.log = walk_ladder(
      rungs, fallback.max_attempts, fallback.stop, [&](std::size_t rung) {
        return run_attempt(system, build(rung), initial, fallback, out);
      });
  return out;
}

}  // namespace

/// Progressively more conservative version of the same method.
OdeOptions tightened_options(const OdeOptions& base) {
  OdeOptions options = base;
  switch (options.method) {
    case OdeMethod::kDormandPrince45:
      options.rel_tol *= 1e-2;
      options.abs_tol *= 1e-2;
      options.min_step *= 1e-3;
      options.max_step *= 0.25;
      options.dt = std::min(options.dt, 1e-4);
      break;
    case OdeMethod::kRk4Fixed:
      options.dt *= 0.1;
      break;
    case OdeMethod::kBackwardEuler:
      options.dt *= 0.1;
      options.newton_max_iters *= 2;
      break;
  }
  return options;
}

const char* to_string(SimFailureKind kind) {
  switch (kind) {
    case SimFailureKind::kNone:
      return "none";
    case SimFailureKind::kStepUnderflow:
      return "step-underflow";
    case SimFailureKind::kNonFiniteState:
      return "non-finite-state";
    case SimFailureKind::kStepLimit:
      return "step-limit";
    case SimFailureKind::kEventLimit:
      return "event-limit";
    case SimFailureKind::kDeadline:
      return "deadline";
    case SimFailureKind::kException:
      return "exception";
  }
  return "unknown";
}

bool is_transient(SimFailureKind kind) {
  return kind == SimFailureKind::kDeadline;
}

SimFailure classify_failure(const OdeResult& result) {
  char detail[128];
  if (result.aborted) {
    std::snprintf(detail, sizeof detail,
                  "aborted after %zu accepted steps at t=%.6g",
                  result.steps_accepted, result.end_time);
    return {SimFailureKind::kDeadline, detail};
  }
  if (result.non_finite) {
    std::snprintf(detail, sizeof detail,
                  "state went non-finite after %zu accepted steps at t=%.6g",
                  result.steps_accepted, result.end_time);
    return {SimFailureKind::kNonFiniteState, detail};
  }
  if (result.hit_step_limit) {
    std::snprintf(detail, sizeof detail,
                  "accepted-step limit reached at t=%.6g", result.end_time);
    return {SimFailureKind::kStepLimit, detail};
  }
  if (result.steps_forced > 0) {
    std::snprintf(detail, sizeof detail,
                  "%zu steps forced at min_step with error estimate > 1",
                  result.steps_forced);
    return {SimFailureKind::kStepUnderflow, detail};
  }
  return {};
}

SimFailure classify_failure(const SsaResult& result) {
  char detail[128];
  if (result.aborted) {
    std::snprintf(detail, sizeof detail,
                  "aborted after %llu events at t=%.6g",
                  static_cast<unsigned long long>(result.events),
                  result.end_time);
    return {SimFailureKind::kDeadline, detail};
  }
  if (result.hit_event_limit) {
    std::snprintf(detail, sizeof detail,
                  "event limit of %llu reached at t=%.6g",
                  static_cast<unsigned long long>(result.events),
                  result.end_time);
    return {SimFailureKind::kEventLimit, detail};
  }
  return {};
}

std::string RecoveryLog::to_string() const {
  std::string out;
  for (const RecoveryAttempt& attempt : attempts) {
    if (!out.empty()) out += " -> ";
    out += attempt.rung;
    out += ':';
    out += sim::to_string(attempt.failure.kind);
  }
  // A trailing ":ok" marks where the ladder succeeded; a failed run ends on
  // its last failed attempt instead.
  if (succeeded()) {
    if (!out.empty()) out += " -> ";
    out += final_rung;
    out += ":ok";
  }
  return out;
}

util::json::Value RecoveryLog::to_value() const {
  using util::json::Value;
  Value out;
  out.set("recovered", Value(recovered));
  out.set("final_rung", Value(final_rung));
  Value list;
  list.make_array();
  for (const RecoveryAttempt& attempt : attempts) {
    Value entry;
    entry.set("attempt", Value(std::uint64_t{attempt.attempt}));
    entry.set("rung", Value(attempt.rung));
    entry.set("failure", Value(sim::to_string(attempt.failure.kind)));
    entry.set("detail", Value(attempt.failure.detail));
    entry.set("backoff_seconds", Value(std::uint64_t{0}));
    list.array().push_back(std::move(entry));
  }
  out.set("attempts", std::move(list));
  return out;
}

std::function<bool()> abort_hook(std::stop_token stop,
                                 double timeout_seconds) {
  using Clock = std::chrono::steady_clock;
  const bool has_deadline = timeout_seconds > 0.0;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_seconds));
  return [stop = std::move(stop), has_deadline, deadline] {
    return stop.stop_requested() ||
           (has_deadline && Clock::now() >= deadline);
  };
}

RecoveryLog walk_ladder(
    std::span<const std::string_view> rungs, std::size_t max_attempts,
    std::stop_token stop,
    const std::function<SimFailure(std::size_t rung_index)>& attempt) {
  RecoveryLog log;
  max_attempts = std::max<std::size_t>(1, max_attempts);
  std::size_t rung = 0;
  for (std::size_t index = 0; index < max_attempts && rung < rungs.size();
       ++index) {
    log.final_rung = rungs[rung];
    SimFailure failure = attempt(rung);
    if (!failure) {
      log.recovered = !log.attempts.empty();
      break;
    }
    const bool transient = is_transient(failure.kind);
    log.attempts.push_back({index, log.final_rung, std::move(failure)});
    if (!transient) {
      ++rung;
    } else if (stop.stop_requested()) {
      break;  // a stopped job is not worth another attempt
    }
  }
  return log;
}

FallbackResult simulate_with_fallback(const CompiledSystem& system,
                                      const OdeOptions& options,
                                      const FallbackOptions& fallback,
                                      std::span<const double> initial) {
  std::vector<std::string_view> rungs = {ode_method_name(options.method),
                                         "tightened"};
  if (options.method != OdeMethod::kBackwardEuler) {
    rungs.push_back("implicit-fixed");
  }
  rungs.push_back("ssa-nrm");
  return run_ladder(system, rungs, fallback, initial,
                    [&](std::size_t rung) -> RungOptions {
                      if (rung == 0) return options;
                      if (rungs[rung] == "tightened") {
                        return tightened_options(options);
                      }
                      if (rungs[rung] == "implicit-fixed") {
                        return implicit_fixed_options(options);
                      }
                      return ssa_rung_options(options, fallback.ssa_seed);
                    });
}

FallbackResult simulate_with_fallback(const CompiledSystem& system,
                                      const SsaOptions& options,
                                      const FallbackOptions& fallback,
                                      std::span<const double> initial) {
  std::vector<std::string_view> rungs = {ssa_method_name(options.method),
                                         "event-budget"};
  if (options.method != SsaMethod::kTauLeaping) rungs.push_back("tau-leap");
  return run_ladder(system, rungs, fallback, initial,
                    [&](std::size_t rung) -> RungOptions {
                      if (rung == 0) return options;
                      SsaOptions budget = options;
                      budget.max_events *= 16;
                      if (rungs[rung] == "tau-leap") {
                        budget.method = SsaMethod::kTauLeaping;
                      }
                      return budget;
                    });
}

}  // namespace mrsc::sim
