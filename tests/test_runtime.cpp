// Tests for the batch-execution runtime: the fan-out loop's contract,
// deterministic seeding, per-job deadlines, cooperative cancellation, and
// bitwise equality between serial and parallel execution.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <stop_token>
#include <thread>
#include <vector>

#include "analysis/sweep.hpp"
#include "async/chain.hpp"
#include "core/network.hpp"
#include "runtime/batch.hpp"
#include "runtime/ensemble.hpp"
#include "scenario/registry.hpp"
#include "sim/ode.hpp"
#include "sim/ssa.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace mrsc {
namespace {

/// A fast reversible pair that fires events for the whole horizon: the
/// workhorse for "this SSA run takes a while" tests.
core::ReactionNetwork busy_network(double initial = 50.0) {
  core::ReactionNetwork net;
  const core::SpeciesId x = net.add_species("X", initial);
  const core::SpeciesId y = net.add_species("Y", 0.0);
  net.add({{x, 1}}, {{y, 1}}, core::RateCategory::kFast);
  net.add({{y, 1}}, {{x, 1}}, core::RateCategory::kFast);
  return net;
}

// --- BatchRunner ---------------------------------------------------------

TEST(BatchRunner, OdeJobProducesFinalState) {
  const core::ReactionNetwork net = busy_network(1.0);
  runtime::SimJob job;
  job.network = &net;
  job.kind = runtime::SimKind::kOde;
  job.ode.t_end = 20.0;
  runtime::BatchRunner runner({.threads = 1});
  const auto results = runner.run(std::vector<runtime::SimJob>{job});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, runtime::JobStatus::kOk);
  ASSERT_EQ(results[0].final_state.size(), 2u);
  // X <-> Y at equal rates equilibrates to half the total mass each.
  EXPECT_NEAR(results[0].final_state[0], 0.5, 1e-3);
  EXPECT_NEAR(results[0].final_state[1], 0.5, 1e-3);
  EXPECT_GT(results[0].ode_steps, 0u);
}

TEST(BatchRunner, ResultValueRoundTripsThroughTheParser) {
  const core::ReactionNetwork net = busy_network(2.0);
  runtime::SimJob job;
  job.network = &net;
  job.kind = runtime::SimKind::kSsa;
  job.ssa.t_end = 1.0;
  job.ssa.omega = 100.0;
  job.ssa.seed = 5;
  runtime::BatchRunner runner({.threads = 1});
  const runtime::JobResult result =
      runner.run(std::vector<runtime::SimJob>{job}).front();
  ASSERT_EQ(result.status, runtime::JobStatus::kOk);
  ASSERT_GT(result.ssa_events, 0u);

  const std::string text = result.to_value(net).dump();
  const util::json::Value parsed = util::json::parse(text);
  EXPECT_EQ(parsed.dump(), text);
  const std::vector<util::json::Member>& members = parsed.as_object();
  ASSERT_EQ(members.size(), 4u);
  EXPECT_EQ(members[0].first, "end_time");
  EXPECT_EQ(members[1].first, "ssa_events");
  EXPECT_EQ(members[2].first, "ode_steps");
  EXPECT_EQ(members[3].first, "final");
  EXPECT_EQ(parsed.get_number("end_time", -1.0), result.end_time);
  EXPECT_EQ(parsed.get_u64("ssa_events", 0), result.ssa_events);
  EXPECT_EQ(parsed.get_u64("ode_steps", 1), 0u);
  const util::json::Value& values = *parsed.find("final");
  EXPECT_EQ(values.get_number("X", -1.0), result.final_state[0]);
  EXPECT_EQ(values.get_number("Y", -1.0), result.final_state[1]);

  // A species list picks and orders the final entries.
  const core::SpeciesId y = *net.find_species("Y");
  const util::json::Value only_y =
      util::json::parse(result.to_value(net, {&y, 1}).dump());
  ASSERT_EQ(only_y.find("final")->as_object().size(), 1u);
  EXPECT_EQ(only_y.find("final")->get_number("Y", -1.0),
            result.final_state[1]);
}

TEST(BatchRunner, FailedJobReportsError) {
  const core::ReactionNetwork net = busy_network();
  runtime::SimJob job;
  job.network = &net;
  job.kind = runtime::SimKind::kOde;
  job.ode.t_end = -1.0;  // simulate_ode rejects this
  runtime::BatchRunner runner({.threads = 1});
  const auto results = runner.run(std::vector<runtime::SimJob>{job});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, runtime::JobStatus::kFailed);
  EXPECT_FALSE(results[0].error.empty());
}

TEST(BatchRunner, JobTimeoutFires) {
  // 10k molecules of a fast reversible pair over a huge horizon: far more
  // events than fit in the deadline, so the job must come back kTimeout and
  // promptly (the abort poll runs every ~1024 events, i.e. microseconds).
  const core::ReactionNetwork net = busy_network(10.0);
  runtime::SimJob job;
  job.network = &net;
  job.kind = runtime::SimKind::kSsa;
  job.ssa.t_end = 1e12;
  job.ssa.omega = 1000.0;
  job.ssa.record_interval = 1e9;
  job.ssa.seed = 7;
  runtime::BatchRunner runner({.threads = 1, .timeout_seconds = 0.1});
  const auto start = std::chrono::steady_clock::now();
  const auto results = runner.run(std::vector<runtime::SimJob>{job});
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, runtime::JobStatus::kTimeout);
  EXPECT_LT(elapsed, 5.0);  // deadline 0.1s; generous slack for CI machines
  EXPECT_GT(results[0].ssa_events, 0u);
}

TEST(BatchRunner, TauLeapingJobHonoursTheDeadline) {
  // The deadline hook is polled once per leap in tau-leaping; a huge-horizon
  // tau run must come back kTimeout, not run to t_end.
  const core::ReactionNetwork net = busy_network(10.0);
  runtime::SimJob job;
  job.network = &net;
  job.kind = runtime::SimKind::kSsa;
  job.ssa.method = sim::SsaMethod::kTauLeaping;
  job.ssa.tau = 1e-5;
  job.ssa.t_end = 1e12;
  job.ssa.omega = 1000.0;
  job.ssa.record_interval = 1e9;
  job.ssa.seed = 13;
  runtime::BatchRunner runner({.threads = 1, .timeout_seconds = 0.1});
  const auto start = std::chrono::steady_clock::now();
  const auto results = runner.run(std::vector<runtime::SimJob>{job});
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, runtime::JobStatus::kTimeout);
  EXPECT_LT(elapsed, 5.0);
  EXPECT_LT(results[0].end_time, job.ssa.t_end);
}

TEST(BatchRunner, ResultEchoesTheJobSeed) {
  // Failure reports name the replicate's seed; the result must carry it even
  // when the job fails or times out.
  const core::ReactionNetwork net = busy_network();
  runtime::SimJob ssa_job;
  ssa_job.network = &net;
  ssa_job.kind = runtime::SimKind::kSsa;
  ssa_job.ssa.t_end = 0.1;
  ssa_job.ssa.seed = 424242;
  runtime::SimJob ode_job;
  ode_job.network = &net;
  ode_job.kind = runtime::SimKind::kOde;
  ode_job.ode.t_end = 0.1;
  runtime::BatchRunner runner({.threads = 1});
  const auto results =
      runner.run(std::vector<runtime::SimJob>{ssa_job, ode_job});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].seed, 424242u);
  EXPECT_EQ(results[1].seed, 0u);  // ODE jobs are seedless
}

TEST(BatchRunner, CancelAbortsLongSsaRunPromptly) {
  const core::ReactionNetwork net = busy_network(10.0);
  runtime::SimJob job;
  job.network = &net;
  job.kind = runtime::SimKind::kSsa;
  job.ssa.t_end = 1e12;
  job.ssa.omega = 1000.0;
  job.ssa.record_interval = 1e9;
  job.ssa.seed = 11;
  runtime::BatchRunner runner({.threads = 2});
  std::stop_source stop;
  std::thread canceller([&stop] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    stop.request_stop();
  });
  const auto start = std::chrono::steady_clock::now();
  const auto results =
      runner.run(std::vector<runtime::SimJob>{job, job}, stop.get_token());
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  canceller.join();
  ASSERT_EQ(results.size(), 2u);
  for (const runtime::JobResult& result : results) {
    EXPECT_EQ(result.status, runtime::JobStatus::kCancelled);
  }
  EXPECT_LT(elapsed, 5.0);
}

TEST(BatchRunner, CancelledBeforeRunSkipsJobs) {
  const core::ReactionNetwork net = busy_network();
  runtime::SimJob job;
  job.network = &net;
  runtime::BatchRunner runner({.threads = 1});
  std::stop_source stop;
  stop.request_stop();
  const auto results =
      runner.run(std::vector<runtime::SimJob>{job}, stop.get_token());
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, runtime::JobStatus::kCancelled);
  EXPECT_EQ(results[0].ssa_events, 0u);
}

// The retry ladder's per-attempt abort watches the same token: a stop
// lands as kCancelled after one attempt, not as a deadline to retry.
TEST(BatchRunner, StopCancelsTheRetryLadder) {
  const core::ReactionNetwork net = busy_network(10.0);
  runtime::SimJob job;
  job.network = &net;
  job.kind = runtime::SimKind::kSsa;
  job.ssa.t_end = 1e12;
  job.ssa.omega = 1000.0;
  job.ssa.record_interval = 1e9;
  job.ssa.seed = 11;
  runtime::BatchOptions options;
  options.max_attempts = 4;
  runtime::BatchRunner runner(options);
  std::stop_source stop;
  std::thread canceller([&stop] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    stop.request_stop();
  });
  const auto results =
      runner.run(std::vector<runtime::SimJob>{job}, stop.get_token());
  canceller.join();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, runtime::JobStatus::kCancelled);
  EXPECT_EQ(results[0].attempts, 1u);
  EXPECT_EQ(results[0].recovery.to_string(), "nrm:deadline");
}

// --- Deterministic parallel execution ------------------------------------

/// The error metric bench_rate_robustness uses for its T1a/T1b tables: the
/// undelivered output fraction of a 2-element async delay chain.
double chain_experiment(const core::RatePolicy& policy, double jitter,
                        std::uint64_t seed) {
  core::ReactionNetwork net;
  async::ChainSpec spec;
  spec.elements = 2;
  const async::ChainHandles chain = async::build_delay_chain(net, spec);
  net.set_initial(chain.input, 1.0);
  net.set_rate_policy(policy);
  if (jitter > 1.0) {
    util::Rng rng(seed);
    analysis::apply_rate_jitter(net, jitter, rng);
  }
  sim::OdeOptions options;
  options.t_end = 200.0 / policy.k_slow;
  const sim::OdeResult run = sim::simulate_ode(net, options);
  return 1.0 - run.trajectory.final_value(chain.output);
}

TEST(BatchRunner, EightThreadSweepBitwiseIdenticalToSerial) {
  analysis::RateSweepConfig config;
  config.ratios = {10.0, 100.0, 1000.0};
  config.jitter_factors = {1.0, 2.0};
  config.base_seed = 42;

  config.threads = 1;
  const std::vector<analysis::SweepPoint> serial =
      analysis::run_rate_sweep(config, chain_experiment);
  config.threads = 8;
  const std::vector<analysis::SweepPoint> parallel =
      analysis::run_rate_sweep(config, chain_experiment);

  ASSERT_EQ(serial.size(), parallel.size());
  ASSERT_EQ(serial.size(), 6u);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].ratio, parallel[i].ratio);
    EXPECT_EQ(serial[i].jitter_factor, parallel[i].jitter_factor);
    EXPECT_EQ(serial[i].seed, parallel[i].seed);
    EXPECT_EQ(serial[i].failed, parallel[i].failed);
    // Bitwise, not approximately: the parallel path must not perturb inputs.
    EXPECT_EQ(serial[i].error, parallel[i].error) << "point " << i;
  }
}

TEST(BatchRunner, ForEachIndexPropagatesException) {
  runtime::BatchRunner runner({.threads = 4});
  EXPECT_THROW(runner.for_each_index(
                   16,
                   [](std::size_t i) {
                     if (i == 7) throw std::runtime_error("boom");
                   }),
               std::runtime_error);
}

TEST(BatchRunner, ForEachIndexRunsEveryIndexOnce) {
  for (const std::size_t threads : {1u, 2u, 3u, 8u}) {
    for (const std::size_t count : {0u, 1u, 2u, 17u, 64u}) {
      std::vector<std::atomic<int>> runs(count);
      runtime::BatchRunner({.threads = threads})
          .for_each_index(count, [&](std::size_t i) { runs[i].fetch_add(1); });
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(runs[i].load(), 1)
            << "index " << i << " of " << count << " at " << threads
            << " threads";
      }
    }
  }
}

TEST(BatchRunner, ForEachIndexStartsNoIndexAfterAThrow) {
  // Serially the loop stops at the throwing index.
  std::vector<std::size_t> order;
  EXPECT_THROW(runtime::BatchRunner({.threads = 1})
                   .for_each_index(8,
                                   [&](std::size_t i) {
                                     order.push_back(i);
                                     if (i == 2) throw std::runtime_error("x");
                                   }),
               std::runtime_error);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2}));

  // In parallel the first index to start throws; every other index waits
  // for that throw and then holds its thread a while, so each thread
  // reaches for a second index only after the throw. None may start.
  for (const std::size_t threads : {2u, 4u}) {
    std::atomic<std::size_t> started{0};
    std::atomic<bool> thrown{false};
    EXPECT_THROW(
        runtime::BatchRunner({.threads = threads})
            .for_each_index(64,
                            [&](std::size_t) {
                              if (started.fetch_add(1) == 0) {
                                thrown.store(true);
                                throw std::runtime_error("first");
                              }
                              while (!thrown.load()) std::this_thread::yield();
                              std::this_thread::sleep_for(
                                  std::chrono::milliseconds(50));
                            }),
        std::runtime_error);
    EXPECT_LE(started.load(), threads) << threads << " threads";
  }
}

// --- Ensembles -----------------------------------------------------------

TEST(Ensemble, SeedsAreStreamDerivedAndDistinct) {
  const core::ReactionNetwork net = busy_network();
  sim::SsaOptions ssa;
  const auto jobs = runtime::make_ensemble_jobs(net, ssa, 64, 5);
  ASSERT_EQ(jobs.size(), 64u);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].ssa.seed, util::Rng::stream_seed(5, i));
    for (std::size_t j = i + 1; j < jobs.size(); ++j) {
      EXPECT_NE(jobs[i].ssa.seed, jobs[j].ssa.seed);
    }
  }
}

TEST(Ensemble, ResultsIndependentOfWorkerCount) {
  const core::ReactionNetwork net = busy_network(5.0);
  sim::SsaOptions ssa;
  ssa.t_end = 5.0;
  ssa.omega = 100.0;
  ssa.record_interval = 1.0;

  runtime::EnsembleOptions serial;
  serial.replicates = 16;
  serial.base_seed = 33;
  serial.batch.threads = 1;
  runtime::EnsembleOptions parallel = serial;
  parallel.batch.threads = 8;

  const runtime::EnsembleResult a = runtime::run_ssa_ensemble(net, ssa, serial);
  const runtime::EnsembleResult b =
      runtime::run_ssa_ensemble(net, ssa, parallel);
  ASSERT_EQ(a.replicates.size(), b.replicates.size());
  EXPECT_EQ(a.ok, 16u);
  EXPECT_EQ(b.ok, 16u);
  for (std::size_t i = 0; i < a.replicates.size(); ++i) {
    EXPECT_EQ(a.replicates[i].ssa_events, b.replicates[i].ssa_events);
    ASSERT_EQ(a.replicates[i].final_state.size(),
              b.replicates[i].final_state.size());
    for (std::size_t s = 0; s < a.replicates[i].final_state.size(); ++s) {
      EXPECT_EQ(a.replicates[i].final_state[s], b.replicates[i].final_state[s]);
    }
  }
  ASSERT_EQ(a.final_stats.size(), b.final_stats.size());
  for (std::size_t s = 0; s < a.final_stats.size(); ++s) {
    EXPECT_EQ(a.final_stats[s].mean, b.final_stats[s].mean);
    EXPECT_EQ(a.final_stats[s].stddev, b.final_stats[s].stddev);
    EXPECT_EQ(a.final_stats[s].q50, b.final_stats[s].q50);
  }
}

TEST(Ensemble, StatsAreOrderedAndMassConserving) {
  const core::ReactionNetwork net = busy_network(5.0);
  sim::SsaOptions ssa;
  ssa.t_end = 5.0;
  ssa.omega = 200.0;
  ssa.record_interval = 1.0;
  runtime::EnsembleOptions options;
  options.replicates = 32;
  options.base_seed = 9;
  options.batch.threads = 2;
  const runtime::EnsembleResult result =
      runtime::run_ssa_ensemble(net, ssa, options);
  EXPECT_EQ(result.ok, 32u);
  for (const runtime::SpeciesStats& stats : result.final_stats) {
    EXPECT_LE(stats.min, stats.q05);
    EXPECT_LE(stats.q05, stats.q50);
    EXPECT_LE(stats.q50, stats.q95);
    EXPECT_LE(stats.q95, stats.max);
    EXPECT_GE(stats.mean, stats.min);
    EXPECT_LE(stats.mean, stats.max);
  }
  // X + Y is conserved at 5.0 exactly (counts are integers / omega), so the
  // per-replicate final states must sum to it.
  for (const runtime::JobResult& job : result.replicates) {
    EXPECT_NEAR(job.final_state[0] + job.final_state[1], 5.0, 1e-9);
  }
}

// A retrying ensemble walks the same one path as a single-shot one; runs
// that never fail must not notice the extra attempts.
TEST(Ensemble, RetryingRunMatchesSingleShot) {
  sim::SsaOptions ssa;
  ssa.t_end = 5.0;
  ssa.omega = 200.0;
  ssa.method = sim::SsaMethod::kDirect;
  for (const char* design : {"delay_chain(16)", "cascade(4)"}) {
    SCOPED_TRACE(design);
    const scenario::BuiltDesign built =
        scenario::ScenarioRegistry::global().resolve(design).design;
    runtime::EnsembleOptions single;
    single.replicates = 8;
    single.base_seed = 3;
    single.batch.threads = 2;
    runtime::EnsembleOptions retrying = single;
    retrying.batch.max_attempts = 3;
    const runtime::EnsembleResult a =
        runtime::run_ssa_ensemble(*built.network, ssa, single);
    const runtime::EnsembleResult b =
        runtime::run_ssa_ensemble(*built.network, ssa, retrying);
    EXPECT_EQ(a.ok, 8u);
    EXPECT_EQ(b.ok, 8u);
    ASSERT_EQ(a.replicates.size(), b.replicates.size());
    for (std::size_t i = 0; i < a.replicates.size(); ++i) {
      EXPECT_EQ(a.replicates[i].ssa_events, b.replicates[i].ssa_events);
      EXPECT_EQ(b.replicates[i].attempts, 1u);
    }
    ASSERT_EQ(a.final_stats.size(), b.final_stats.size());
    for (std::size_t s = 0; s < a.final_stats.size(); ++s) {
      const runtime::SpeciesStats& x = a.final_stats[s];
      const runtime::SpeciesStats& y = b.final_stats[s];
      EXPECT_EQ(x.name, y.name);
      for (const auto field :
           {&runtime::SpeciesStats::mean, &runtime::SpeciesStats::stddev,
            &runtime::SpeciesStats::min, &runtime::SpeciesStats::max,
            &runtime::SpeciesStats::q05, &runtime::SpeciesStats::q50,
            &runtime::SpeciesStats::q95}) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(x.*field),
                  std::bit_cast<std::uint64_t>(y.*field));
      }
    }
  }
}

TEST(Ensemble, QuantileSortedInterpolates) {
  const std::vector<double> values = {1.0, 2.0, 3.0, 4.0};
  EXPECT_EQ(runtime::quantile_sorted(values, 0.0), 1.0);
  EXPECT_EQ(runtime::quantile_sorted(values, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(runtime::quantile_sorted(values, 0.5), 2.5);
  EXPECT_EQ(runtime::quantile_sorted({}, 0.5), 0.0);
  EXPECT_EQ(runtime::quantile_sorted({7.0}, 0.9), 7.0);
}

}  // namespace
}  // namespace mrsc
