#include "runtime/batch.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

namespace mrsc::runtime {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

const char* to_string(JobStatus status) {
  switch (status) {
    case JobStatus::kOk:
      return "ok";
    case JobStatus::kFailed:
      return "failed";
    case JobStatus::kTimeout:
      return "timeout";
    case JobStatus::kCancelled:
      return "cancelled";
    case JobStatus::kQuarantined:
      return "quarantined";
  }
  return "unknown";
}

BatchRunner::BatchRunner(BatchOptions options) : options_(options) {
  if (options_.threads == 0) {
    options_.threads =
        std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
  }
}

JobResult BatchRunner::execute(const SimJob& job,
                               const std::stop_token& stop) const {
  JobResult result;
  if (job.kind == SimKind::kSsa) result.seed = job.ssa.seed;
  if (job.network == nullptr) {
    result.status = JobStatus::kFailed;
    result.error = "SimJob has no network";
    return result;
  }
  if (stop.stop_requested()) {
    result.status = JobStatus::kCancelled;
    return result;
  }

  const Clock::time_point start = Clock::now();
  std::optional<sim::CompiledSystem> own;
  if (job.compiled == nullptr) own.emplace(*job.network);
  const sim::CompiledSystem& system = own ? *own : *job.compiled;
  const std::vector<double> initial =
      job.initial.empty() ? job.network->initial_state() : job.initial;
  const sim::FallbackOptions fallback{
      .max_attempts = options_.max_attempts,
      .ssa_seed = job.ssa.seed != 0 ? job.ssa.seed : 1,
      .stop = stop,
      .timeout_seconds = options_.timeout_seconds};
  sim::FallbackResult run =
      job.kind == SimKind::kOde
          ? sim::simulate_with_fallback(system, job.ode, fallback, initial)
          : sim::simulate_with_fallback(system, job.ssa, fallback, initial);
  result.wall_seconds = seconds_since(start);

  result.end_time = run.end_time;
  result.ode_steps = run.ode_steps;
  result.ssa_events = run.ssa_events;
  result.final_state = std::move(run.final_state);
  const bool ok = run.log.succeeded();
  result.attempts = run.log.attempts.size() + (ok ? 1 : 0);
  if (!ok) {
    result.failure = run.log.attempts.back().failure;
    const sim::SimFailureKind kind = result.failure.kind;
    if (kind == sim::SimFailureKind::kDeadline) {
      result.status = stop.stop_requested() ? JobStatus::kCancelled
                                            : JobStatus::kTimeout;
    } else if (kind == sim::SimFailureKind::kException) {
      result.status = JobStatus::kFailed;
      result.error = result.failure.detail;
    } else {
      // A deterministic failure on every rung it reached: set it aside.
      result.status = JobStatus::kQuarantined;
      result.error =
          std::string(sim::to_string(kind)) + ": " + result.failure.detail;
    }
  }
  result.recovery = std::move(run.log);
  return result;
}

util::json::Value JobResult::to_value(
    const core::ReactionNetwork& network,
    std::span<const core::SpeciesId> species) const {
  using util::json::Value;
  Value values;
  values.make_object();
  const std::size_t count =
      species.empty() ? network.species_count() : species.size();
  for (std::size_t i = 0; i < count; ++i) {
    const core::SpeciesId id =
        species.empty()
            ? core::SpeciesId{static_cast<core::SpeciesId::underlying_type>(i)}
            : species[i];
    const std::size_t s = id.index();
    values.set(network.species_name(id),
               Value(s < final_state.size() ? final_state[s] : 0.0));
  }
  Value out;
  out.set("end_time", Value(end_time));
  out.set("ssa_events", Value(ssa_events));
  out.set("ode_steps", Value(std::uint64_t{ode_steps}));
  out.set("final", std::move(values));
  return out;
}

std::vector<JobResult> BatchRunner::run(std::span<const SimJob> jobs,
                                        std::stop_token stop) {
  std::vector<JobResult> results(jobs.size());
  for_each_index(jobs.size(),
                 [&](std::size_t i) { results[i] = execute(jobs[i], stop); });
  return results;
}

void BatchRunner::for_each_index(std::size_t count,
                                 const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  auto drain = [&] {
    for (std::size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
      try {
        fn(i);
      } catch (...) {
        std::lock_guard lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        next.store(count);  // no index starts after a throw
        return;
      }
    }
  };
  {
    std::vector<std::jthread> helpers;
    for (std::size_t w = 1; w < std::min(options_.threads, count); ++w) {
      helpers.emplace_back(drain);
    }
    drain();
  }  // ~jthread joins the helpers
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace mrsc::runtime
