// Failure classification and the solver fallback ladder: every failure kind
// is forced for real (not mocked), classified, and — where the ladder has a
// deeper rung — automatically recovered into a correct trajectory.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <stdexcept>
#include <stop_token>
#include <string_view>
#include <vector>

#include "core/network.hpp"
#include "runtime/batch.hpp"
#include "sim/fallback.hpp"
#include "sim/ode.hpp"
#include "sim/ssa.hpp"

namespace mrsc::sim {
namespace {

/// X -> 0 at a custom rate k: x(t) = exp(-k t). Stiff for explicit methods
/// once k * dt leaves their stability region.
core::ReactionNetwork decay_network(double k) {
  core::ReactionNetwork net;
  const core::SpeciesId x = net.add_species("X", 1.0);
  net.add({{x, 1}}, {}, core::RateCategory::kCustom, k, "decay");
  return net;
}

TEST(ClassifyOde, CleanRunIsNoFailure) {
  const core::ReactionNetwork net = decay_network(1.0);
  OdeOptions options;
  options.t_end = 1.0;
  const OdeResult result = simulate_ode(net, options);
  const SimFailure failure = classify_failure(result);
  EXPECT_FALSE(failure);
  EXPECT_EQ(failure.kind, SimFailureKind::kNone);
}

TEST(ClassifyOde, ExplosiveRk4GoesNonFinite) {
  // k * dt = 100: far outside the RK4 stability region; the iterate grows by
  // ~4e6 per step and overflows to inf within the horizon.
  const core::ReactionNetwork net = decay_network(100.0);
  OdeOptions options;
  options.method = OdeMethod::kRk4Fixed;
  options.dt = 1.0;
  options.t_end = 100.0;
  const OdeResult result = simulate_ode(net, options);
  EXPECT_TRUE(result.non_finite);
  const SimFailure failure = classify_failure(result);
  EXPECT_EQ(failure.kind, SimFailureKind::kNonFiniteState);
  // The recorded trajectory stops at the last finite state.
  for (const double v : result.trajectory.final_state()) {
    EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(ClassifyOde, ClampedMinStepIsStepUnderflow) {
  // dp45 pinned to a step the stiffness cannot tolerate: the controller
  // wants to shrink below min_step, cannot, and forces the step through.
  const core::ReactionNetwork net = decay_network(100.0);
  OdeOptions options;
  options.method = OdeMethod::kDormandPrince45;
  options.dt = 0.25;
  options.min_step = 0.25;
  options.max_step = 0.25;
  options.t_end = 1.0;
  const OdeResult result = simulate_ode(net, options);
  EXPECT_GT(result.steps_forced, 0u);
  const SimFailure failure = classify_failure(result);
  EXPECT_EQ(failure.kind, SimFailureKind::kStepUnderflow);
  EXPECT_TRUE(is_transient(SimFailureKind::kDeadline));
  EXPECT_FALSE(is_transient(failure.kind));
}

TEST(ClassifyOde, StepBudgetExhaustionIsStepLimit) {
  const core::ReactionNetwork net = decay_network(1.0);
  OdeOptions options;
  options.t_end = 100.0;
  options.max_steps = 10;
  const OdeResult result = simulate_ode(net, options);
  EXPECT_TRUE(result.hit_step_limit);
  EXPECT_EQ(classify_failure(result).kind, SimFailureKind::kStepLimit);
}

TEST(ClassifyOde, AbortHookIsDeadlineAndWinsPrecedence) {
  const core::ReactionNetwork net = decay_network(1.0);
  OdeOptions options;
  options.t_end = 100.0;
  options.abort = [] { return true; };
  const OdeResult result = simulate_ode(net, options);
  EXPECT_TRUE(result.aborted);
  EXPECT_EQ(classify_failure(result).kind, SimFailureKind::kDeadline);

  // Synthetic precedence check: a result carrying several flags classifies
  // as the most actionable one (deadline > non-finite > limit > underflow).
  OdeResult synthetic;
  synthetic.aborted = true;
  synthetic.non_finite = true;
  synthetic.hit_step_limit = true;
  synthetic.steps_forced = 3;
  EXPECT_EQ(classify_failure(synthetic).kind, SimFailureKind::kDeadline);
  synthetic.aborted = false;
  EXPECT_EQ(classify_failure(synthetic).kind, SimFailureKind::kNonFiniteState);
  synthetic.non_finite = false;
  EXPECT_EQ(classify_failure(synthetic).kind, SimFailureKind::kStepLimit);
  synthetic.hit_step_limit = false;
  EXPECT_EQ(classify_failure(synthetic).kind, SimFailureKind::kStepUnderflow);
}

TEST(ClassifySsa, EventBudgetExhaustionIsEventLimit) {
  const core::ReactionNetwork net = decay_network(1.0);
  SsaOptions options;
  options.t_end = 50.0;
  options.omega = 1000.0;
  options.max_events = 5;
  const SsaResult result = simulate_ssa(net, options);
  EXPECT_TRUE(result.hit_event_limit);
  EXPECT_EQ(classify_failure(result).kind, SimFailureKind::kEventLimit);
}

// --- the ladder itself ----------------------------------------------------

TEST(FallbackLadder, StepUnderflowRecoversOnTightenedRung) {
  // First attempt: dp45 pinned at a too-large min_step -> step underflow.
  // The tightened rung shrinks min_step by 1e3 and recovers; the result must
  // be the *correct* trajectory, x(1) = exp(-100) ~ 0, not merely "a" result.
  const core::ReactionNetwork net = decay_network(100.0);
  OdeOptions options;
  options.method = OdeMethod::kDormandPrince45;
  options.dt = 0.25;
  options.min_step = 0.25;
  options.max_step = 0.25;
  options.t_end = 1.0;
  FallbackOptions fallback;
  const FallbackResult result = simulate_with_fallback(
      CompiledSystem(net), options, fallback, net.initial_state());
  ASSERT_TRUE(result.log.succeeded());
  EXPECT_TRUE(result.log.recovered);
  EXPECT_EQ(result.log.final_rung, "tightened");
  ASSERT_EQ(result.log.attempts.size(), 1u);
  EXPECT_EQ(result.log.attempts[0].rung, "dp45");
  EXPECT_EQ(result.log.attempts[0].failure.kind,
            SimFailureKind::kStepUnderflow);
  ASSERT_EQ(result.final_state.size(), 1u);
  EXPECT_NEAR(result.final_state[0], std::exp(-100.0), 1e-6);
  EXPECT_EQ(result.log.to_string(), "dp45:step-underflow -> tightened:ok");
}

TEST(FallbackLadder, StiffRk4WalksToImplicitFixed) {
  // rk4 at dt=1 and the tightened dt=0.1 are both unstable for k=100; only
  // the L-stable backward-Euler rung integrates the decay.
  const core::ReactionNetwork net = decay_network(100.0);
  OdeOptions options;
  options.method = OdeMethod::kRk4Fixed;
  options.dt = 1.0;
  options.t_end = 100.0;
  FallbackOptions fallback;
  const FallbackResult result = simulate_with_fallback(
      CompiledSystem(net), options, fallback, net.initial_state());
  ASSERT_TRUE(result.log.succeeded());
  EXPECT_TRUE(result.log.recovered);
  EXPECT_EQ(result.log.final_rung, "implicit-fixed");
  ASSERT_EQ(result.log.attempts.size(), 2u);
  EXPECT_EQ(result.log.attempts[0].rung, "rk4");
  EXPECT_EQ(result.log.attempts[0].failure.kind,
            SimFailureKind::kNonFiniteState);
  EXPECT_EQ(result.log.attempts[1].rung, "tightened");
  EXPECT_EQ(result.log.attempts[1].failure.kind,
            SimFailureKind::kNonFiniteState);
  ASSERT_EQ(result.final_state.size(), 1u);
  EXPECT_NEAR(result.final_state[0], 0.0, 1e-9);  // exp(-10000)
}

TEST(FallbackLadder, AttemptBudgetExhaustionReportsLastFailure) {
  const core::ReactionNetwork net = decay_network(100.0);
  OdeOptions options;
  options.method = OdeMethod::kRk4Fixed;
  options.dt = 1.0;
  options.t_end = 100.0;
  FallbackOptions fallback;
  fallback.max_attempts = 2;  // rk4 + tightened, no implicit rung left
  const FallbackResult result = simulate_with_fallback(
      CompiledSystem(net), options, fallback, net.initial_state());
  EXPECT_FALSE(result.log.succeeded());
  EXPECT_FALSE(result.log.recovered);
  ASSERT_EQ(result.log.attempts.size(), 2u);
  EXPECT_EQ(result.log.attempts.back().failure.kind,
            SimFailureKind::kNonFiniteState);
  EXPECT_EQ(result.log.to_string(),
            "rk4:non-finite-state -> tightened:non-finite-state");
}

TEST(FallbackLadder, SsaEventLimitRecoversOnEventBudgetRung) {
  // ~omega events total; a cap of 20 fails, the 16x budget rung completes.
  const core::ReactionNetwork net = decay_network(1.0);
  SsaOptions options;
  options.t_end = 50.0;
  options.omega = 100.0;
  options.seed = 7;
  options.max_events = 20;
  FallbackOptions fallback;
  const FallbackResult result = simulate_with_fallback(
      CompiledSystem(net), options, fallback, net.initial_state());
  ASSERT_TRUE(result.log.succeeded());
  EXPECT_GT(result.ssa_events, 0u);
  EXPECT_TRUE(result.log.recovered);
  EXPECT_EQ(result.log.final_rung, "event-budget");
  ASSERT_EQ(result.log.attempts.size(), 1u);
  EXPECT_EQ(result.log.attempts[0].rung, "nrm");
  EXPECT_EQ(result.log.attempts[0].failure.kind, SimFailureKind::kEventLimit);
}

// --- the one retry policy, scripted ----------------------------------------

constexpr std::string_view kRungs[] = {"a", "b", "c"};

/// An attempt that fails with `kinds[i]` on its i-th call (kNone, or any
/// call past the end, succeeds) and records the rung of every call.
auto scripted(const std::vector<SimFailureKind>& kinds,
              std::vector<std::size_t>& rungs_run) {
  return [&kinds, &rungs_run](std::size_t rung) -> SimFailure {
    const std::size_t call = rungs_run.size();
    rungs_run.push_back(rung);
    if (call >= kinds.size()) return {};
    return {kinds[call], "scripted"};
  };
}

TEST(WalkLadder, DeadlineRetriesTheSameRung) {
  const std::vector<SimFailureKind> kinds = {SimFailureKind::kDeadline,
                                             SimFailureKind::kDeadline};
  std::vector<std::size_t> rungs_run;
  const RecoveryLog log =
      walk_ladder(kRungs, 4, {}, scripted(kinds, rungs_run));
  EXPECT_EQ(rungs_run, (std::vector<std::size_t>{0, 0, 0}));
  EXPECT_TRUE(log.succeeded());
  EXPECT_TRUE(log.recovered);
  EXPECT_EQ(log.final_rung, "a");
  EXPECT_EQ(log.to_string(), "a:deadline -> a:deadline -> a:ok");
  ASSERT_EQ(log.attempts.size(), 2u);
  EXPECT_EQ(log.attempts[1].attempt, 1u);
  EXPECT_EQ(log.attempts[1].failure.detail, "scripted");
}

TEST(WalkLadder, AnyOtherFailureMovesDownOneRung) {
  const std::vector<SimFailureKind> kinds = {SimFailureKind::kNonFiniteState,
                                             SimFailureKind::kDeadline,
                                             SimFailureKind::kStepUnderflow};
  std::vector<std::size_t> rungs_run;
  const RecoveryLog log =
      walk_ladder(kRungs, 4, {}, scripted(kinds, rungs_run));
  EXPECT_EQ(rungs_run, (std::vector<std::size_t>{0, 1, 1, 2}));
  EXPECT_TRUE(log.recovered);
  EXPECT_EQ(log.to_string(),
            "a:non-finite-state -> b:deadline -> b:step-underflow -> c:ok");
}

TEST(WalkLadder, FirstAttemptSuccessLogsNothing) {
  const std::vector<SimFailureKind> kinds;
  std::vector<std::size_t> rungs_run;
  const RecoveryLog log =
      walk_ladder(kRungs, 4, {}, scripted(kinds, rungs_run));
  EXPECT_EQ(rungs_run, (std::vector<std::size_t>{0}));
  EXPECT_TRUE(log.succeeded());
  EXPECT_FALSE(log.recovered);
  EXPECT_TRUE(log.attempts.empty());
  EXPECT_EQ(log.to_string(), "a:ok");
}

TEST(WalkLadder, MaxAttemptsCapsTheWalk) {
  const std::vector<SimFailureKind> kinds(8, SimFailureKind::kDeadline);
  std::vector<std::size_t> rungs_run;
  RecoveryLog log = walk_ladder(kRungs, 3, {}, scripted(kinds, rungs_run));
  EXPECT_EQ(rungs_run, (std::vector<std::size_t>{0, 0, 0}));
  EXPECT_FALSE(log.succeeded());
  EXPECT_EQ(log.to_string(), "a:deadline -> a:deadline -> a:deadline");

  // Zero attempts still runs one.
  rungs_run.clear();
  log = walk_ladder(kRungs, 0, {}, scripted(kinds, rungs_run));
  EXPECT_EQ(rungs_run, (std::vector<std::size_t>{0}));
  EXPECT_EQ(log.attempts.size(), 1u);
}

TEST(WalkLadder, RunningOutOfRungsEndsTheWalk) {
  const std::vector<SimFailureKind> kinds(8, SimFailureKind::kException);
  std::vector<std::size_t> rungs_run;
  const RecoveryLog log =
      walk_ladder(kRungs, 10, {}, scripted(kinds, rungs_run));
  EXPECT_EQ(rungs_run, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_FALSE(log.succeeded());
  EXPECT_EQ(log.final_rung, "c");
  EXPECT_EQ(log.to_string(), "a:exception -> b:exception -> c:exception");
}

TEST(WalkLadder, RequestedStopEndsTheWalkAtTheFirstDeadline) {
  std::stop_source stop;
  stop.request_stop();
  // A rung that finished still advances; the first deadline ends the walk.
  const std::vector<SimFailureKind> kinds = {SimFailureKind::kStepLimit,
                                             SimFailureKind::kDeadline};
  std::vector<std::size_t> rungs_run;
  const RecoveryLog log = walk_ladder(kRungs, 4, stop.get_token(),
                                      scripted(kinds, rungs_run));
  EXPECT_EQ(rungs_run, (std::vector<std::size_t>{0, 1}));
  EXPECT_FALSE(log.succeeded());
  EXPECT_EQ(log.to_string(), "a:step-limit -> b:deadline");
}

TEST(WalkLadder, ExceptionsFromTheAttemptPropagate) {
  std::size_t calls = 0;
  const auto attempt = [&calls](std::size_t) -> SimFailure {
    ++calls;
    throw std::runtime_error("campaign aborted");
  };
  EXPECT_THROW(static_cast<void>(walk_ladder(kRungs, 4, {}, attempt)),
               std::runtime_error);
  EXPECT_EQ(calls, 1u);
}

TEST(WalkLadder, ToValueKeepsTheBackoffKeyAtZero) {
  const std::vector<SimFailureKind> kinds = {SimFailureKind::kDeadline,
                                             SimFailureKind::kNonFiniteState};
  std::vector<std::size_t> rungs_run;
  const RecoveryLog log =
      walk_ladder(kRungs, 4, {}, scripted(kinds, rungs_run));
  EXPECT_EQ(log.to_value().dump(),
            "{\"recovered\":true,\"final_rung\":\"b\",\"attempts\":["
            "{\"attempt\":0,\"rung\":\"a\",\"failure\":\"deadline\","
            "\"detail\":\"scripted\",\"backoff_seconds\":0},"
            "{\"attempt\":1,\"rung\":\"a\",\"failure\":\"non-finite-state\","
            "\"detail\":\"scripted\",\"backoff_seconds\":0}]}");
}

TEST(AbortHook, FiresOnStopOrOnceAPositiveTimeoutPasses) {
  std::stop_source stop;
  const std::function<bool()> no_deadline = abort_hook(stop.get_token(), 0.0);
  EXPECT_FALSE(no_deadline());
  EXPECT_FALSE(abort_hook({}, 3600.0)());
  const std::function<bool()> expiring = abort_hook({}, 1e-6);
  while (!expiring()) {
  }
  stop.request_stop();
  EXPECT_TRUE(no_deadline());
}

// --- retrying batch runner ------------------------------------------------

runtime::SimJob stiff_ode_job(const core::ReactionNetwork& net) {
  runtime::SimJob job;
  job.network = &net;
  job.kind = runtime::SimKind::kOde;
  job.ode.method = OdeMethod::kRk4Fixed;
  job.ode.dt = 1.0;
  job.ode.t_end = 100.0;
  return job;
}

TEST(BatchRetry, SingleShotClassifiesItsRun) {
  // One attempt is still a classified attempt: the rk4 blowup is set aside
  // with the same verdict a longer ladder would give, never passed as kOk.
  const core::ReactionNetwork net = decay_network(100.0);
  runtime::BatchRunner runner(runtime::BatchOptions{});  // max_attempts == 1
  const std::vector<runtime::JobResult> results =
      runner.run(std::vector<runtime::SimJob>{stiff_ode_job(net)});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, runtime::JobStatus::kQuarantined);
  EXPECT_EQ(results[0].failure.kind, sim::SimFailureKind::kNonFiniteState);
  EXPECT_EQ(results[0].attempts, 1u);
  ASSERT_EQ(results[0].recovery.attempts.size(), 1u);
  EXPECT_EQ(results[0].recovery.attempts[0].rung, "rk4");
  EXPECT_EQ(results[0].recovery.final_rung, "rk4");
  EXPECT_EQ(results[0].error.rfind("non-finite-state: ", 0), 0u);
}

TEST(BatchRetry, AThrowFailsTheJobAtAnyAttemptBudget) {
  const core::ReactionNetwork net = decay_network(1.0);
  runtime::SimJob job = stiff_ode_job(net);
  job.initial = {1.0, 2.0};  // the network has one species: every rung throws
  for (const std::size_t max_attempts : {std::size_t{1}, std::size_t{4}}) {
    runtime::BatchOptions options;
    options.max_attempts = max_attempts;
    const std::vector<runtime::JobResult> results =
        runtime::BatchRunner(options).run(std::vector<runtime::SimJob>{job});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, runtime::JobStatus::kFailed) << max_attempts;
    EXPECT_EQ(results[0].failure.kind, SimFailureKind::kException);
    EXPECT_EQ(results[0].attempts, max_attempts);
    EXPECT_FALSE(results[0].error.empty());
    EXPECT_EQ(results[0].error, results[0].failure.detail);
  }
}

TEST(BatchRetry, LadderRecoversAndReportsAttempts) {
  const core::ReactionNetwork net = decay_network(100.0);
  runtime::BatchOptions options;
  options.max_attempts = 4;
  runtime::BatchRunner runner(options);
  const std::vector<runtime::JobResult> results =
      runner.run(std::vector<runtime::SimJob>{stiff_ode_job(net)});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, runtime::JobStatus::kOk);
  EXPECT_EQ(results[0].attempts, 3u);  // rk4, tightened, implicit-fixed
  EXPECT_TRUE(results[0].recovery.recovered);
  EXPECT_EQ(results[0].recovery.final_rung, "implicit-fixed");
  ASSERT_FALSE(results[0].final_state.empty());
  EXPECT_NEAR(results[0].final_state[0], 0.0, 1e-9);
}

TEST(BatchRetry, PersistentFailureIsQuarantinedNotFatal) {
  const core::ReactionNetwork stiff = decay_network(100.0);
  const core::ReactionNetwork healthy = decay_network(1.0);
  runtime::BatchOptions options;
  options.max_attempts = 2;  // exhausted before the implicit rung
  runtime::BatchRunner runner(options);
  runtime::SimJob ok_job;
  ok_job.network = &healthy;
  ok_job.kind = runtime::SimKind::kOde;
  ok_job.ode.t_end = 1.0;
  const std::vector<runtime::SimJob> jobs = {stiff_ode_job(stiff), ok_job};
  const std::vector<runtime::JobResult> results = runner.run(jobs);
  ASSERT_EQ(results.size(), 2u);
  // The hard job is set aside with its classified failure...
  EXPECT_EQ(results[0].status, runtime::JobStatus::kQuarantined);
  EXPECT_EQ(results[0].failure.kind, SimFailureKind::kNonFiniteState);
  EXPECT_EQ(results[0].attempts, 2u);
  EXPECT_NE(results[0].error.find("non-finite-state"), std::string::npos);
  // ...and the batch carries on.
  EXPECT_EQ(results[1].status, runtime::JobStatus::kOk);
}

TEST(BatchRetry, RecoveryLogsAreIdenticalAcrossThreadCounts) {
  // The determinism contract extended to the ladder: per-job RecoveryLogs
  // contain no wall-clock values, so an 8-worker run renders byte-identical
  // logs to a serial run.
  const core::ReactionNetwork net = decay_network(100.0);
  const std::vector<runtime::SimJob> jobs(8, stiff_ode_job(net));
  auto run_with = [&](std::size_t threads) {
    runtime::BatchOptions options;
    options.threads = threads;
    options.max_attempts = 4;
    runtime::BatchRunner runner(options);
    return runner.run(jobs);
  };
  const std::vector<runtime::JobResult> serial = run_with(1);
  const std::vector<runtime::JobResult> parallel = run_with(8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].status, parallel[i].status);
    EXPECT_EQ(serial[i].attempts, parallel[i].attempts);
    EXPECT_EQ(serial[i].recovery.to_value().dump(),
              parallel[i].recovery.to_value().dump());
    EXPECT_EQ(serial[i].recovery.to_string(),
              parallel[i].recovery.to_string());
  }
}

}  // namespace
}  // namespace mrsc::sim
