// Tests for the distributor fleet: deterministic backoff schedules, the
// shard health state machine, hedging semantics, the seeded chaos proxy,
// and the headline oracle — the merged ensemble/sweep report is
// bitwise-identical to a single-shard run at any shard count, with a dead
// shard in the list, under injected proxy faults, with a drained shard,
// and with a shard killed mid-run.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fleet/chaos_proxy.hpp"
#include "fleet/fleet.hpp"
#include "fleet/policy.hpp"
#include "fleet/transport.hpp"
#include "runtime/ensemble.hpp"
#include "serve/dispatcher.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "tools/builtin_designs.hpp"
#include "util/rng.hpp"

namespace mrsc::fleet {
namespace {

// -------------------------------------------------------------- backoff --

TEST(FleetBackoff, ScheduleIsDeterministicPerSeedSliceAttempt) {
  BackoffPolicy policy;
  for (std::uint64_t slice = 0; slice < 4; ++slice) {
    for (std::uint64_t attempt = 0; attempt < 6; ++attempt) {
      EXPECT_DOUBLE_EQ(backoff_delay_ms(policy, slice, attempt),
                       backoff_delay_ms(policy, slice, attempt));
    }
  }
  BackoffPolicy reseeded = policy;
  reseeded.jitter_seed = 2;
  bool any_differs = false;
  for (std::uint64_t attempt = 0; attempt < 6; ++attempt) {
    if (backoff_delay_ms(policy, 0, attempt) !=
        backoff_delay_ms(reseeded, 0, attempt)) {
      any_differs = true;
    }
  }
  EXPECT_TRUE(any_differs) << "jitter seed must move the schedule";
}

TEST(FleetBackoff, DelaysAreJitteredExponentialsUnderTheCap) {
  BackoffPolicy policy;
  policy.base_ms = 10.0;
  policy.cap_ms = 80.0;
  for (std::uint64_t attempt = 0; attempt < 8; ++attempt) {
    const double ideal = std::min(80.0, 10.0 * std::pow(2.0, attempt));
    const double delay = backoff_delay_ms(policy, 3, attempt);
    EXPECT_GE(delay, 0.5 * ideal) << "attempt " << attempt;
    EXPECT_LE(delay, ideal) << "attempt " << attempt;
  }
}

TEST(FleetBackoff, SlicesDecorrelate) {
  BackoffPolicy policy;
  bool any_differs = false;
  for (std::uint64_t slice = 1; slice < 8; ++slice) {
    if (backoff_delay_ms(policy, slice, 0) !=
        backoff_delay_ms(policy, 0, 0)) {
      any_differs = true;
    }
  }
  EXPECT_TRUE(any_differs);
}

// --------------------------------------------------------------- health --

TEST(FleetHealth, TransitionsAtExactThresholdBoundaries) {
  // degrade_after=2, quarantine_after=4 (defaults): the table walks the
  // counter one event at a time and pins the state at every boundary.
  HealthTracker tracker;
  EXPECT_EQ(tracker.state(), ShardHealth::kHealthy);
  tracker.record_failure();  // bad=1: still healthy
  EXPECT_EQ(tracker.state(), ShardHealth::kHealthy);
  tracker.record_failure();  // bad=2: degraded, exactly at the threshold
  EXPECT_EQ(tracker.state(), ShardHealth::kDegraded);
  tracker.record_overload();  // bad=3: overloads count the same way
  EXPECT_EQ(tracker.state(), ShardHealth::kDegraded);
  tracker.record_failure();  // bad=4: quarantined, exactly at the threshold
  EXPECT_EQ(tracker.state(), ShardHealth::kQuarantined);

  // One success resets everything.
  tracker.record_success();
  EXPECT_EQ(tracker.state(), ShardHealth::kHealthy);
  tracker.record_failure();
  EXPECT_EQ(tracker.state(), ShardHealth::kHealthy)
      << "the consecutive-failure counter must reset on success";
}

TEST(FleetHealth, QuarantineEarnsAProbeAfterExactlyProbeAfterSkips) {
  HealthThresholds thresholds;
  thresholds.probe_after = 3;
  HealthTracker tracker(thresholds);
  for (std::uint32_t i = 0; i < thresholds.quarantine_after; ++i) {
    tracker.record_failure();
  }
  ASSERT_EQ(tracker.state(), ShardHealth::kQuarantined);
  EXPECT_FALSE(tracker.consider_probe());  // skip 1
  EXPECT_FALSE(tracker.consider_probe());  // skip 2
  EXPECT_TRUE(tracker.consider_probe());   // skip 3: probe granted
  EXPECT_EQ(tracker.state(), ShardHealth::kProbing);
  // While probing, no further probes are granted.
  EXPECT_FALSE(tracker.consider_probe());

  // Probe failure: straight back to quarantine, skip counter fresh.
  tracker.record_failure();
  EXPECT_EQ(tracker.state(), ShardHealth::kQuarantined);
  EXPECT_FALSE(tracker.consider_probe());
  EXPECT_FALSE(tracker.consider_probe());
  EXPECT_TRUE(tracker.consider_probe());
  // Probe success: healthy again.
  tracker.record_success();
  EXPECT_EQ(tracker.state(), ShardHealth::kHealthy);
}

TEST(FleetHealth, HealthyShardsNeverProbe) {
  HealthTracker tracker;
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(tracker.consider_probe());
  EXPECT_EQ(tracker.state(), ShardHealth::kHealthy);
}

// ---------------------------------------------------------- chaos proxy --

TEST(ChaosProxy, FaultDecisionsAreSeededAndReplayable) {
  ChaosFaults faults;
  faults.drop = 0.25;
  faults.delay = 0.25;
  faults.truncate = 0.25;
  faults.blackhole = 0.25;
  for (std::uint64_t index = 0; index < 64; ++index) {
    EXPECT_EQ(decide_fault(faults, 42, index),
              decide_fault(faults, 42, index));
  }
  bool any_differs = false;
  for (std::uint64_t index = 0; index < 64; ++index) {
    if (decide_fault(faults, 42, index) != decide_fault(faults, 43, index)) {
      any_differs = true;
    }
  }
  EXPECT_TRUE(any_differs) << "the seed must move the fault schedule";
}

TEST(ChaosProxy, ProbabilityOneSelectsTheFault) {
  const auto only = [](double ChaosFaults::*field) {
    ChaosFaults faults;
    faults.*field = 1.0;
    return faults;
  };
  for (std::uint64_t index = 0; index < 8; ++index) {
    EXPECT_EQ(decide_fault(only(&ChaosFaults::drop), index, index),
              FaultKind::kDrop);
    EXPECT_EQ(decide_fault(only(&ChaosFaults::delay), index, index),
              FaultKind::kDelay);
    EXPECT_EQ(decide_fault(only(&ChaosFaults::truncate), index, index),
              FaultKind::kTruncate);
    EXPECT_EQ(decide_fault(only(&ChaosFaults::blackhole), index, index),
              FaultKind::kBlackhole);
    EXPECT_EQ(decide_fault(ChaosFaults{}, index, index), FaultKind::kClean);
  }
}

// ----------------------------------------------------- in-process shards --

struct ShardProcess {
  std::unique_ptr<serve::Server> server;
  explicit ShardProcess(serve::ServerOptions options = {}) {
    if (options.workers == 0) options.workers = 2;
    server = std::make_unique<serve::Server>(options);
    server->start();
  }
  [[nodiscard]] Endpoint endpoint() const {
    return {"127.0.0.1", server->port()};
  }
};

FleetOptions fast_policy(std::vector<Endpoint> shards) {
  FleetOptions options;
  options.shards = std::move(shards);
  options.request_timeout_ms = 10'000.0;
  options.max_attempts = 6;
  options.backoff.base_ms = 1.0;
  options.backoff.cap_ms = 10.0;
  return options;
}

EnsembleSpec small_ensemble() {
  EnsembleSpec spec;
  spec.design = "counter";
  spec.replicates = 12;
  spec.base_seed = 7;
  spec.t_end = 2.0;
  spec.omega = 100.0;
  return spec;
}

// ------------------------------------------------- byte-identity oracle --

TEST(FleetMerge, EnsembleIsByteIdenticalAtAnyShardCount) {
  ShardProcess a;
  ShardProcess b;
  ShardProcess c;
  ShardProcess d;
  const EnsembleSpec spec = small_ensemble();

  FleetClient one(fast_policy({a.endpoint()}));
  const std::string golden = run_ensemble(one, spec);

  FleetClient two(fast_policy({a.endpoint(), b.endpoint()}));
  EXPECT_EQ(run_ensemble(two, spec), golden);

  FleetClient four(fast_policy(
      {a.endpoint(), b.endpoint(), c.endpoint(), d.endpoint()}));
  EXPECT_EQ(run_ensemble(four, spec), golden);
}

TEST(FleetMerge, SweepIsByteIdenticalAtAnyShardCount) {
  ShardProcess a;
  ShardProcess b;
  SweepSpec spec;
  spec.design = "cascade(3)";
  spec.omegas = {50.0, 100.0, 200.0};
  spec.base_seed = 3;
  spec.t_end = 2.0;

  FleetClient one(fast_policy({a.endpoint()}));
  const std::string golden = run_sweep(one, spec);
  FleetClient two(fast_policy({a.endpoint(), b.endpoint()}));
  EXPECT_EQ(run_sweep(two, spec), golden);
}

TEST(FleetMerge, StatsMatchAnIndependentReductionOfTheReplicates) {
  // Oracle for the merge math itself: fetch every replicate directly with a
  // plain client, reduce with runtime::reduce_species, and demand the
  // fleet's report carries exactly those doubles (via the shared %.17g
  // serializer — textual equality is bitwise equality).
  ShardProcess a;
  const EnsembleSpec spec = small_ensemble();
  FleetClient fleet(fast_policy({a.endpoint()}));
  const serve::json::Value report =
      serve::json::parse(run_ensemble(fleet, spec));

  std::vector<serve::json::Value> replies;
  for (std::size_t i = 0; i < spec.replicates; ++i) {
    const std::string request =
        R"({"op":"job","kind":"sim","design":"counter","method":"nrm",)"
        R"("seed":)" +
        std::to_string(util::Rng::stream_seed(spec.base_seed, i)) +
        R"(,"t_end":2,"omega":100})";
    serve::Client client("127.0.0.1", a.server->port());
    replies.push_back(serve::json::parse(client.request_raw(request)));
  }

  const serve::json::Value* species = report.find("species");
  ASSERT_NE(species, nullptr);
  double events_total = 0.0;
  for (const serve::json::Value& reply : replies) {
    events_total += reply.find("result")->get_number("ssa_events", 0.0);
  }
  EXPECT_EQ(report.get_number("ssa_events_total", -1.0), events_total);

  for (const serve::json::Value& entry : species->as_array()) {
    const std::string name = entry.get_string("name", "");
    std::vector<double> values;
    for (const serve::json::Value& reply : replies) {
      values.push_back(
          reply.find("result")->find("final")->get_number(name, -1.0));
    }
    const runtime::SpeciesStats stats =
        runtime::reduce_species(name, values);
    EXPECT_EQ(entry.get_number("mean", -1.0), stats.mean) << name;
    EXPECT_EQ(entry.get_number("stddev", -1.0), stats.stddev) << name;
    EXPECT_EQ(entry.get_number("min", -1.0), stats.min) << name;
    EXPECT_EQ(entry.get_number("max", -1.0), stats.max) << name;
    EXPECT_EQ(entry.get_number("q05", -1.0), stats.q05) << name;
    EXPECT_EQ(entry.get_number("q50", -1.0), stats.q50) << name;
    EXPECT_EQ(entry.get_number("q95", -1.0), stats.q95) << name;
  }
}

TEST(FleetMerge, FullWidthSeedsMatchTheLocalEnsemble) {
  // Replicate seeds are Rng::stream_seed(base, i): 64-bit values a double
  // would round. The shard must run the exact seed, so the merged stats
  // equal an in-process run_ssa_ensemble over the same seeds.
  ShardProcess a;
  const EnsembleSpec spec = small_ensemble();
  std::size_t wide = 0;
  for (std::size_t i = 0; i < spec.replicates; ++i) {
    if (util::Rng::stream_seed(spec.base_seed, i) > (1ull << 53)) ++wide;
  }
  ASSERT_GT(wide, spec.replicates / 2);

  FleetClient fleet(fast_policy({a.endpoint()}));
  const serve::json::Value report =
      serve::json::parse(run_ensemble(fleet, spec));

  const tools::BuiltDesign design = tools::build_design(spec.design, {});
  sim::SsaOptions ssa;
  ssa.method = sim::SsaMethod::kNextReaction;
  ssa.t_end = spec.t_end;
  ssa.omega = spec.omega;
  ssa.record_interval = spec.t_end / 50.0;  // the server's default
  runtime::EnsembleOptions options;
  options.replicates = spec.replicates;
  options.base_seed = spec.base_seed;
  const runtime::EnsembleResult local =
      runtime::run_ssa_ensemble(*design.network, ssa, options);
  ASSERT_EQ(local.ok, spec.replicates);

  const serve::json::Value* species = report.find("species");
  ASSERT_NE(species, nullptr);
  ASSERT_EQ(species->as_array().size(), local.final_stats.size());
  for (std::size_t k = 0; k < local.final_stats.size(); ++k) {
    const serve::json::Value& entry = species->as_array()[k];
    const runtime::SpeciesStats& stats = local.final_stats[k];
    EXPECT_EQ(entry.get_string("name", ""), stats.name);
    EXPECT_EQ(entry.get_number("mean", -1.0), stats.mean) << stats.name;
    EXPECT_EQ(entry.get_number("stddev", -1.0), stats.stddev) << stats.name;
    EXPECT_EQ(entry.get_number("min", -1.0), stats.min) << stats.name;
    EXPECT_EQ(entry.get_number("max", -1.0), stats.max) << stats.name;
    EXPECT_EQ(entry.get_number("q05", -1.0), stats.q05) << stats.name;
    EXPECT_EQ(entry.get_number("q50", -1.0), stats.q50) << stats.name;
    EXPECT_EQ(entry.get_number("q95", -1.0), stats.q95) << stats.name;
  }
}

TEST(FleetResilience, DeadShardInTheListDoesNotChangeTheBytes) {
  ShardProcess a;
  // Reserve a port that refuses connections by binding-and-closing it.
  std::uint16_t dead_port = 0;
  {
    const serve::Socket listener =
        serve::listen_on("127.0.0.1", 0, dead_port);
  }
  const EnsembleSpec spec = small_ensemble();

  FleetClient one(fast_policy({a.endpoint()}));
  const std::string golden = run_ensemble(one, spec);

  FleetClient with_dead(
      fast_policy({{"127.0.0.1", dead_port}, a.endpoint()}));
  EXPECT_EQ(run_ensemble(with_dead, spec), golden);
  const FleetCounters counters = with_dead.counters();
  EXPECT_GE(counters.failures, 1u) << "the dead shard must have been tried";
  EXPECT_GE(counters.retries, 1u);
}

TEST(FleetResilience, DrainedShardIsBackpressureNotFailure) {
  ShardProcess a;
  ShardProcess b;
  {
    serve::Client client("127.0.0.1", a.server->port());
    EXPECT_EQ(client.request_raw(R"({"op":"drain"})"),
              R"({"status":"ok","op":"drain","draining":true})");
  }
  const EnsembleSpec spec = small_ensemble();
  FleetClient one(fast_policy({b.endpoint()}));
  const std::string golden = run_ensemble(one, spec);

  FleetClient with_drained(fast_policy({a.endpoint(), b.endpoint()}));
  EXPECT_EQ(run_ensemble(with_drained, spec), golden);
  EXPECT_GE(with_drained.counters().rejections, 1u)
      << "the drained shard must have answered with backpressure";
}

TEST(FleetResilience, ShardKilledMidRunDoesNotChangeTheBytes) {
  ShardProcess a;
  auto doomed = std::make_unique<ShardProcess>();
  const EnsembleSpec spec = small_ensemble();

  FleetClient one(fast_policy({a.endpoint()}));
  const std::string golden = run_ensemble(one, spec);

  FleetClient pair(fast_policy({doomed->endpoint(), a.endpoint()}));
  std::thread killer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    doomed->server->stop();
  });
  const std::string report = run_ensemble(pair, spec);
  killer.join();
  EXPECT_EQ(report, golden);
}

TEST(FleetChaos, ProxyFaultsDoNotChangeTheBytes) {
  ShardProcess a;
  ShardProcess b;
  const EnsembleSpec spec = small_ensemble();
  FleetClient one(fast_policy({a.endpoint()}));
  const std::string golden = run_ensemble(one, spec);

  // Both shards behind misbehaving proxies: drops, delays, and mid-frame
  // truncations on a seeded schedule. No blackholes here — they only cost
  // wall-clock (timeout) without adding a new failure mode on this path.
  ChaosFaults faults;
  faults.drop = 0.2;
  faults.truncate = 0.2;
  faults.delay = 0.2;
  faults.delay_ms = 5.0;
  ChaosProxy proxy_a({"127.0.0.1", a.server->port()}, faults, 11);
  ChaosProxy proxy_b({"127.0.0.1", b.server->port()}, faults, 12);
  proxy_a.start();
  proxy_b.start();

  FleetOptions options = fast_policy(
      {{"127.0.0.1", proxy_a.port()}, {"127.0.0.1", proxy_b.port()}});
  options.max_attempts = 10;  // the schedule can be unlucky several times
  FleetClient chaotic(options);
  EXPECT_EQ(run_ensemble(chaotic, spec), golden);
  EXPECT_GE(proxy_a.connections() + proxy_b.connections(),
            spec.replicates);
}

TEST(FleetChaos, TruncatedResponseFailsTheRequestCleanly) {
  ShardProcess a;
  ChaosFaults faults;
  faults.truncate = 1.0;
  ChaosProxy proxy({"127.0.0.1", a.server->port()}, faults, 1);
  proxy.start();

  PendingRequest request({"127.0.0.1", proxy.port()},
                         R"({"op":"ping"})");
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (request.state() == PendingRequest::State::kPending &&
         std::chrono::steady_clock::now() < deadline) {
    wait_any({&request}, 50.0);
  }
  ASSERT_EQ(request.state(), PendingRequest::State::kFailed);
  EXPECT_NE(request.error().find("mid-frame"), std::string::npos)
      << request.error();
}

// -------------------------------------------------------------- hedging --

TEST(FleetResilience, HedgeFiresOnceAndTakesTheFasterShard) {
  ShardProcess live;
  // Shard 0 is a pure black hole: accepts, swallows, never answers. The
  // primary always routes there (lowest index among equally idle healthy
  // shards), so every answer must come from the hedge.
  ChaosFaults faults;
  faults.blackhole = 1.0;
  ChaosProxy hole({"127.0.0.1", live.server->port()}, faults, 1);
  hole.start();

  FleetOptions options = fast_policy(
      {{"127.0.0.1", hole.port()}, live.endpoint()});
  options.hedge_ms = 25.0;
  FleetClient fleet(options);

  const std::string response = fleet.request_once(R"({"op":"ping"})");
  EXPECT_EQ(response, R"({"status":"ok","op":"ping"})");
  const FleetCounters counters = fleet.counters();
  EXPECT_EQ(counters.hedges, 1u) << "exactly one hedge per slice";
  EXPECT_EQ(counters.attempts, 2u) << "primary + hedge, no retries";
  EXPECT_EQ(counters.retries, 0u);
}

// ------------------------------------------------------ catalog / drain --

TEST(FleetOps, CatalogOverTheWireMatchesTheLocalRegistry) {
  ShardProcess a;
  FleetClient fleet(fast_policy({a.endpoint()}));
  EXPECT_EQ(fetch_catalog(fleet), serve::catalog_response());
}

TEST(FleetOps, DrainFlipsEveryShardAndJobsBounce) {
  ShardProcess a;
  ShardProcess b;
  FleetClient fleet(fast_policy({a.endpoint(), b.endpoint()}));
  const std::vector<std::string> answers =
      fleet.request_all(R"({"op":"drain"})");
  ASSERT_EQ(answers.size(), 2u);
  for (const std::string& answer : answers) {
    EXPECT_EQ(answer, R"({"status":"ok","op":"drain","draining":true})");
  }
  serve::Client client("127.0.0.1", a.server->port());
  EXPECT_EQ(
      client.request_raw(
          R"({"op":"job","kind":"sim","design":"counter","t_end":1})"),
      serve::draining_response());
  // Introspection ops stay available on a draining shard.
  const serve::json::Value health =
      client.request(R"({"op":"health"})");
  EXPECT_FALSE(health.get_bool("accepting", true));
  EXPECT_TRUE(health.get_bool("draining", false));
}

// -------------------------------------------------------------- routing --

TEST(FleetRouting, BadSpecsFailLocallyBeforeAnyBytesMove) {
  // No listener anywhere near: a bad design must throw invalid_argument
  // from the local registry without a single connect.
  FleetClient fleet(fast_policy({{"127.0.0.1", 1}}));
  EnsembleSpec spec = small_ensemble();
  spec.design = "banana";
  EXPECT_THROW((void)run_ensemble(fleet, spec), std::invalid_argument);
  EXPECT_EQ(fleet.counters().attempts, 0u);
}

TEST(FleetRouting, AllShardsDownExhaustsAttemptsWithBoundedRetries) {
  std::uint16_t dead_port = 0;
  {
    const serve::Socket listener =
        serve::listen_on("127.0.0.1", 0, dead_port);
  }
  FleetOptions options = fast_policy({{"127.0.0.1", dead_port}});
  options.max_attempts = 3;
  FleetClient fleet(options);
  EXPECT_THROW((void)fleet.request_once(R"({"op":"ping"})"),
               std::runtime_error);
  const FleetCounters counters = fleet.counters();
  EXPECT_EQ(counters.attempts, 3u);
  EXPECT_EQ(counters.retries, 2u);
  EXPECT_EQ(counters.failures, 3u);
}

}  // namespace
}  // namespace mrsc::fleet
