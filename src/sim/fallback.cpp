#include "sim/fallback.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <thread>
#include <utility>

#include "util/json.hpp"
#include "util/strings.hpp"

namespace mrsc::sim {

namespace {

using util::format_17g;
using util::json::quote;

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

struct OdeRung {
  std::string name;
  OdeOptions options;
  bool ssa = false;
};

void default_sleep(double seconds) {
  if (seconds <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
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

/// L-stable last resort before SSA: backward Euler at a small fixed step.
OdeOptions implicit_fixed_options(const OdeOptions& base) {
  OdeOptions options = base;
  options.method = OdeMethod::kBackwardEuler;
  options.dt = std::min(options.dt, 1e-3);
  options.newton_max_iters = std::max<std::uint32_t>(options.newton_max_iters,
                                                     24);
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
  const bool succeeded = recovered || attempts.empty();
  if (succeeded) {
    if (!out.empty()) out += " -> ";
    out += final_rung;
    out += ":ok";
  }
  return out;
}

std::string RecoveryLog::to_json() const {
  std::string out = "{\"recovered\":";
  out += recovered ? "true" : "false";
  out += ",\"final_rung\":" + quote(final_rung);
  out += ",\"attempts\":[";
  for (std::size_t i = 0; i < attempts.size(); ++i) {
    const RecoveryAttempt& attempt = attempts[i];
    if (i > 0) out += ',';
    out += "{\"attempt\":" + std::to_string(attempt.attempt);
    out += ",\"rung\":" + quote(attempt.rung);
    out += ",\"failure\":" + quote(sim::to_string(attempt.failure.kind));
    out += ",\"detail\":" + quote(attempt.failure.detail);
    out += ",\"backoff_seconds\":" + format_17g(attempt.backoff_seconds);
    out += "}";
  }
  out += "]}";
  return out;
}

FallbackResult simulate_ode_with_fallback(
    const core::ReactionNetwork& network, const OdeOptions& options,
    const FallbackOptions& fallback, std::vector<double> initial,
    std::span<Observer* const> observers) {
  std::vector<OdeRung> rungs;
  rungs.push_back({ode_method_name(options.method), options});
  rungs.push_back({"tightened", tightened_options(options)});
  if (options.method != OdeMethod::kBackwardEuler) {
    rungs.push_back({"implicit-fixed", implicit_fixed_options(options)});
  }
  if (fallback.allow_ssa_fallback && observers.empty()) {
    rungs.push_back({"ssa-nrm", options, /*ssa=*/true});
  }

  FallbackResult out;
  const std::size_t max_attempts = std::max<std::size_t>(1,
                                                         fallback.max_attempts);
  std::size_t rung_index = 0;
  std::size_t transient_retries = 0;
  for (std::size_t attempt = 0; attempt < max_attempts; ++attempt) {
    const OdeRung& rung = rungs[rung_index];
    if (attempt > 0 && fallback.reset_observers) fallback.reset_observers();

    SimFailure failure;
    try {
      if (!rung.ssa) {
        OdeOptions ode = rung.options;
        if (fallback.make_abort) ode.abort = fallback.make_abort();
        OdeResult run = simulate_ode(network, ode, initial, observers);
        failure = classify_failure(run);
        out.end_time = run.end_time;
        out.ode_steps = run.steps_accepted;
        out.ssa_events = 0;
        const std::span<const double> final = run.trajectory.final_state();
        out.final_state.assign(final.begin(), final.end());
        out.trajectory = std::move(run.trajectory);
        out.used_ssa = false;
      } else {
        SsaOptions ssa;
        ssa.t_end = rung.options.t_end;
        ssa.method = SsaMethod::kNextReaction;
        ssa.seed = fallback.ssa_seed;
        ssa.omega = fallback.ssa_omega;
        ssa.record_interval = rung.options.record_interval > 0.0
                                  ? rung.options.record_interval
                                  : 0.1;
        ssa.abort = fallback.make_abort ? fallback.make_abort()
                                        : rung.options.abort;
        SsaResult run = simulate_ssa(network, ssa, initial);
        failure = classify_failure(run);
        out.end_time = run.end_time;
        out.ode_steps = 0;
        out.ssa_events = run.events;
        out.final_state.resize(run.final_counts.size());
        for (std::size_t i = 0; i < run.final_counts.size(); ++i) {
          out.final_state[i] =
              static_cast<double>(run.final_counts[i]) / ssa.omega;
        }
        out.trajectory = std::move(run.trajectory);
        out.used_ssa = true;
      }
    } catch (const std::exception& error) {
      failure = {SimFailureKind::kException, error.what()};
    }

    out.log.final_rung = rung.name;
    if (!failure) {
      out.ok = true;
      out.failure = {};
      out.log.recovered = !out.log.attempts.empty();
      return out;
    }

    out.failure = failure;
    const bool last_attempt = attempt + 1 == max_attempts;
    double backoff = 0.0;
    if (is_transient(failure.kind)) {
      ++transient_retries;
      if (!last_attempt) {
        backoff = fallback.backoff_base_seconds *
                  std::pow(2.0, static_cast<double>(transient_retries - 1));
        backoff = std::min(backoff, fallback.backoff_cap_seconds);
      }
    } else {
      transient_retries = 0;
      ++rung_index;
    }
    out.log.attempts.push_back({attempt, rung.name, failure, backoff});
    if (last_attempt || rung_index >= rungs.size()) return out;
    if (backoff > 0.0) {
      (fallback.sleep ? fallback.sleep : default_sleep)(backoff);
    }
  }
  return out;
}

FallbackResult simulate_ssa_with_fallback(
    const core::ReactionNetwork& network, const SsaOptions& options,
    const FallbackOptions& fallback, std::vector<double> initial) {
  struct SsaRung {
    std::string name;
    SsaOptions options;
  };
  std::vector<SsaRung> rungs;
  rungs.push_back({ssa_method_name(options.method), options});
  SsaOptions budget = options;
  budget.max_events = options.max_events > 0
                          ? options.max_events * 16
                          : options.max_events;
  rungs.push_back({"event-budget", budget});
  if (options.method != SsaMethod::kTauLeaping) {
    SsaOptions leap = budget;
    leap.method = SsaMethod::kTauLeaping;
    rungs.push_back({"tau-leap", leap});
  }

  FallbackResult out;
  const std::size_t max_attempts = std::max<std::size_t>(1,
                                                         fallback.max_attempts);
  std::size_t rung_index = 0;
  std::size_t transient_retries = 0;
  for (std::size_t attempt = 0; attempt < max_attempts; ++attempt) {
    const SsaRung& rung = rungs[rung_index];

    SimFailure failure;
    try {
      SsaOptions ssa = rung.options;
      if (fallback.make_abort) ssa.abort = fallback.make_abort();
      SsaResult run = simulate_ssa(network, ssa, initial);
      failure = classify_failure(run);
      out.end_time = run.end_time;
      out.ssa_events = run.events;
      out.final_state.resize(run.final_counts.size());
      for (std::size_t i = 0; i < run.final_counts.size(); ++i) {
        out.final_state[i] =
            static_cast<double>(run.final_counts[i]) / ssa.omega;
      }
      out.trajectory = std::move(run.trajectory);
      out.used_ssa = true;
    } catch (const std::exception& error) {
      failure = {SimFailureKind::kException, error.what()};
    }

    out.log.final_rung = rung.name;
    if (!failure) {
      out.ok = true;
      out.failure = {};
      out.log.recovered = !out.log.attempts.empty();
      return out;
    }

    out.failure = failure;
    const bool last_attempt = attempt + 1 == max_attempts;
    double backoff = 0.0;
    if (is_transient(failure.kind)) {
      ++transient_retries;
      if (!last_attempt) {
        backoff = fallback.backoff_base_seconds *
                  std::pow(2.0, static_cast<double>(transient_retries - 1));
        backoff = std::min(backoff, fallback.backoff_cap_seconds);
      }
    } else {
      transient_retries = 0;
      ++rung_index;
    }
    out.log.attempts.push_back({attempt, rung.name, failure, backoff});
    if (last_attempt || rung_index >= rungs.size()) return out;
    if (backoff > 0.0) {
      (fallback.sleep ? fallback.sleep : default_sleep)(backoff);
    }
  }
  return out;
}

}  // namespace mrsc::sim
