// Batch execution of simulation jobs across worker threads.
//
// The paper's validation workload is embarrassingly parallel: robustness
// claims are backed by re-running the same network under swept rate ratios,
// jittered rate constants, and many SSA replicates. `BatchRunner` is the
// substrate for all of that: `for_each_index` is the one fan-out loop of the
// project (batch jobs, sweeps, stress trials, fleet slices and loadgen
// connections all run through it), and `run` maps a vector of `SimJob`s
// through it into one `JobResult` per job, indexed like the input.
//
// Determinism contract: a job's result is a pure function of the job
// description (network, options, seed). The runner never reorders seeds or
// shares generator state between jobs, so an 8-worker run is bitwise
// identical to a 1-worker run — scheduling only changes wall time. Derive
// per-job seeds with `util::Rng::stream_seed(base_seed, index)`.
//
// Cancellation contract: the `std::stop_token` passed to `run` (stopped
// from any thread) and per-job deadlines are cooperative. They are plumbed
// into the ODE/SSA steppers through the `abort` hook on their options; an
// in-flight job stops at the next poll point and reports kCancelled/kTimeout,
// jobs not yet started report kCancelled without running. Jobs that finish
// before the deadline are never retroactively failed.
//
// One path per job: every job runs through `sim::simulate_with_fallback` on
// one `CompiledSystem` (the job's own, or compiled once per job).
// `BatchOptions::max_attempts` sets how many ladder attempts it may make;
// every attempt is classified (sim/fallback.hpp) at any budget.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <stop_token>
#include <string>
#include <vector>

#include "core/network.hpp"
#include "sim/fallback.hpp"
#include "sim/ode.hpp"
#include "sim/ssa.hpp"
#include "util/json.hpp"

namespace mrsc::runtime {

enum class SimKind : std::uint8_t { kOde, kSsa };

/// One unit of work: a network simulated with one method and one seed.
struct SimJob {
  /// Non-owning; must outlive the `BatchRunner::run` call. Jobs may share a
  /// network — the steppers compile and mutate only private state.
  const core::ReactionNetwork* network = nullptr;
  /// Optional pre-compiled engine form of `network`, shared read-only across
  /// jobs so an ensemble compiles its design once instead of per replicate.
  /// Non-owning; must outlive the run and must have been compiled from
  /// `network`. Null compiles `network` once for the job; every ladder rung
  /// runs on that one compiled form.
  const sim::CompiledSystem* compiled = nullptr;
  SimKind kind = SimKind::kSsa;
  sim::OdeOptions ode;  ///< used when kind == kOde
  sim::SsaOptions ssa;  ///< used when kind == kSsa (including its seed)
  /// Initial concentrations; empty uses the network defaults.
  std::vector<double> initial;
};

enum class JobStatus : std::uint8_t {
  kOk,
  kFailed,       ///< the stepper threw; see `error`
  kTimeout,      ///< the per-job deadline fired
  kCancelled,    ///< the run's stop token stopped or skipped the job
  kQuarantined,  ///< the last attempt failed classification; the job is
                 ///< reported and set aside, the campaign continues
};

struct JobResult {
  JobStatus status = JobStatus::kOk;
  /// Failure reason: what() for kFailed, "<kind>: <detail>" for
  /// kQuarantined, empty otherwise.
  std::string error;
  /// The SSA seed the job ran with (0 for ODE jobs), echoed so failure
  /// reports can name the exact replicate to re-run.
  std::uint64_t seed = 0;
  double wall_seconds = 0.0;  ///< this job's execution time
  double end_time = 0.0;      ///< simulated time reached
  std::uint64_t ssa_events = 0;
  std::size_t ode_steps = 0;
  /// Final concentrations (SSA counts are divided by omega).
  std::vector<double> final_state;
  /// Attempts actually made (1 when the first try succeeded).
  std::size_t attempts = 1;
  /// Classified failure of the last attempt (kind == kNone on success).
  sim::SimFailure failure{};
  /// Ladder history of every job that ran. Deterministic: contains only
  /// attempt indices, rung names and classified failures, so per-job logs
  /// are identical at any thread count.
  sim::RecoveryLog recovery{};

  /// The run's deterministic fields, no wall time: `end_time`, `ssa_events`,
  /// `ode_steps` and `final` (species name -> concentration, 0 when the job
  /// never ran) for `species`, or every species of `network` when empty.
  [[nodiscard]] util::json::Value to_value(
      const core::ReactionNetwork& network,
      std::span<const core::SpeciesId> species = {}) const;
};

[[nodiscard]] const char* to_string(JobStatus status);

struct BatchOptions {
  std::size_t threads = 1;      ///< 0 selects the hardware concurrency
  double timeout_seconds = 0.0;  ///< per-attempt deadline; 0 disables
  /// Attempts per job across the solver fallback ladder (sim/fallback.hpp).
  /// Above 1, a failed attempt steps to a more conservative rung and a
  /// deadline retries the same rung. At any value the last attempt decides:
  /// a deadline is kTimeout (kCancelled once `stop` is requested), a throw
  /// is kFailed, any other classified failure is kQuarantined.
  std::size_t max_attempts = 1;
};

class BatchRunner {
 public:
  explicit BatchRunner(BatchOptions options = {});

  /// Executes every job and returns results in job order. Once `stop`
  /// is requested (from any thread), running jobs stop at their next poll
  /// point and the rest are skipped, all reporting kCancelled; the default
  /// token never stops.
  [[nodiscard]] std::vector<JobResult> run(std::span<const SimJob> jobs,
                                           std::stop_token stop = {});

  /// Parallel-for over `count` indices: the calling thread and
  /// `min(threads, count) - 1` helper threads take indices from one shared
  /// counter, so `fn(i)` runs at most once per index (exactly once when
  /// nothing throws) and `threads == 1` runs them in order on the caller.
  /// The first exception thrown by `fn` stops the loop: no index starts
  /// after it, running ones finish, and it is rethrown on the calling thread
  /// once every helper has joined.
  void for_each_index(std::size_t count,
                      const std::function<void(std::size_t)>& fn);

  [[nodiscard]] const BatchOptions& options() const { return options_; }

 private:
  JobResult execute(const SimJob& job, const std::stop_token& stop) const;

  BatchOptions options_;
};

}  // namespace mrsc::runtime
