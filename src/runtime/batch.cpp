#include "runtime/batch.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "runtime/thread_pool.hpp"

namespace mrsc::runtime {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The steppers' abort hook: stop on request or, when `timeout_seconds` is
/// positive, once that long has passed from now. `stop` must outlive it.
std::function<bool()> abort_hook(const std::stop_token& stop,
                                 double timeout_seconds) {
  const bool has_deadline = timeout_seconds > 0.0;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_seconds));
  return [&stop, has_deadline, deadline] {
    return stop.stop_requested() ||
           (has_deadline && Clock::now() >= deadline);
  };
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
    options_.threads = ThreadPool::default_worker_count();
  }
}

JobResult BatchRunner::execute(const SimJob& job,
                               const std::stop_token& stop) const {
  JobResult result;
  result.label = job.label;
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
  if (options_.retry.max_attempts > 1) {
    execute_with_retry(job, stop, result);
    result.wall_seconds = seconds_since(start);
    return result;
  }

  bool aborted = false;
  try {
    if (job.kind == SimKind::kOde) {
      sim::OdeOptions ode = job.ode;
      ode.abort = abort_hook(stop, options_.timeout_seconds);
      std::vector<double> initial =
          job.initial.empty() ? job.network->initial_state() : job.initial;
      sim::OdeResult run =
          job.compiled != nullptr
              ? sim::simulate_ode(*job.compiled, ode, std::move(initial))
              : sim::simulate_ode(*job.network, ode, std::move(initial));
      aborted = run.aborted;
      result.end_time = run.end_time;
      result.ode_steps = run.steps_accepted;
      const std::span<const double> final = run.trajectory.final_state();
      result.final_state.assign(final.begin(), final.end());
      if (options_.keep_trajectories) {
        result.trajectory = std::move(run.trajectory);
      }
    } else {
      sim::SsaOptions ssa = job.ssa;
      ssa.abort = abort_hook(stop, options_.timeout_seconds);
      sim::SsaResult run;
      if (job.compiled != nullptr) {
        std::vector<double> initial =
            job.initial.empty() ? job.network->initial_state() : job.initial;
        run = sim::simulate_ssa(*job.compiled, ssa,
                                sim::to_counts(initial, ssa.omega));
      } else {
        run = sim::simulate_ssa(*job.network, ssa, job.initial);
      }
      aborted = run.aborted;
      result.end_time = run.end_time;
      result.ssa_events = run.events;
      result.final_state.resize(run.final_counts.size());
      for (std::size_t i = 0; i < run.final_counts.size(); ++i) {
        result.final_state[i] =
            static_cast<double>(run.final_counts[i]) / ssa.omega;
      }
      if (options_.keep_trajectories) {
        result.trajectory = std::move(run.trajectory);
      }
    }
  } catch (const std::exception& error) {
    result.status = JobStatus::kFailed;
    result.error = error.what();
  }
  result.wall_seconds = seconds_since(start);
  if (aborted) {
    result.status = stop.stop_requested() ? JobStatus::kCancelled
                                          : JobStatus::kTimeout;
  }
  return result;
}

void BatchRunner::execute_with_retry(const SimJob& job,
                                     const std::stop_token& stop,
                                     JobResult& result) const {
  const RetryPolicy& retry = options_.retry;
  sim::FallbackOptions fallback;
  fallback.max_attempts = retry.max_attempts;
  fallback.backoff_base_seconds = retry.backoff_base_seconds;
  fallback.backoff_cap_seconds = retry.backoff_cap_seconds;
  fallback.allow_ssa_fallback = retry.allow_ssa_fallback;
  fallback.ssa_omega = retry.ssa_omega;
  fallback.ssa_seed = job.ssa.seed != 0 ? job.ssa.seed : 1;
  fallback.sleep = retry.sleep;
  // Each attempt gets a fresh deadline so a transient timeout is actually
  // worth retrying; cancellation still lands at the next poll point.
  fallback.make_abort = [&stop, timeout = options_.timeout_seconds] {
    return abort_hook(stop, timeout);
  };

  sim::FallbackResult run;
  if (job.kind == SimKind::kOde) {
    std::vector<double> initial =
        job.initial.empty() ? job.network->initial_state() : job.initial;
    run = sim::simulate_ode_with_fallback(*job.network, job.ode, fallback,
                                          std::move(initial));
  } else {
    run = sim::simulate_ssa_with_fallback(*job.network, job.ssa, fallback,
                                          job.initial);
  }

  result.end_time = run.end_time;
  result.ode_steps = run.ode_steps;
  result.ssa_events = run.ssa_events;
  result.final_state = std::move(run.final_state);
  if (options_.keep_trajectories) {
    result.trajectory = std::move(run.trajectory);
  }
  result.failure = run.failure;
  result.recovery = std::move(run.log);
  result.attempts = result.recovery.attempts.size() + (run.ok ? 1 : 0);
  if (run.ok) {
    result.status = JobStatus::kOk;
    return;
  }
  if (run.failure.kind == sim::SimFailureKind::kDeadline) {
    result.status = stop.stop_requested() ? JobStatus::kCancelled
                                          : JobStatus::kTimeout;
  } else {
    // Deterministic failure on every rung it reached: set the job aside.
    result.status = JobStatus::kQuarantined;
  }
  result.error = std::string(sim::to_string(run.failure.kind)) + ": " +
                 run.failure.detail;
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
  if (count == 0) return;
  if (options_.threads == 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  std::mutex error_mutex;
  std::exception_ptr first_error;
  {
    ThreadPool pool(std::min(options_.threads, count));
    for (std::size_t i = 0; i < count; ++i) {
      pool.submit([&, i] {
        try {
          fn(i);
        } catch (...) {
          std::lock_guard lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
      });
    }
    pool.wait_idle();
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace mrsc::runtime
