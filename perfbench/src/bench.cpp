#include "bench.hpp"

#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cmath>
#include <cstring>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "host.hpp"
#include "runtime/ensemble.hpp"
#include "scenario/registry.hpp"
#include "serve/dispatcher.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sim/engine/compiled_system.hpp"
#include "sim/ode.hpp"
#include "sim/ssa.hpp"
#include "tools/builtin_designs.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace mrsc;
namespace json = serve::json;

// Set-up runs this many times per process; setup_s is the median.
constexpr std::size_t kSetupRepeats = 9;
constexpr std::size_t kServeClients = 2;
constexpr std::size_t kServeWorkers = 2;
// serve_cold: sampled requests re-run in-process after the timed loop.
constexpr std::uint64_t kColdSampleEvery = 32;
constexpr std::size_t kColdSampleCap = 32;
// ensemble_local keeps the reduced stats of its first ops for the checks.
constexpr std::uint64_t kKeptEnsembles = 12;
// Latency samples kept per closed-loop client (reservoir sampling beyond).
constexpr std::size_t kLatencySamples = std::size_t{1} << 18;
// Traced replays stop after this many operations even with time left, so
// the span list stays a few MiB.
constexpr std::uint64_t kTraceOpCap = 5000;

const std::string kStatsRequest = R"({"op":"stats"})";

// Taken during static initialization, before main: the start of the
// one-time set-up the report prints as setup_cold_s.
const Clock::time_point kProgramStart = Clock::now();

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return runtime::quantile_sorted(values, 0.5);
}

std::string fmt(double value) { return json::number_to_string(value); }

bool starts_ok(const std::string& payload) {
  return payload.rfind(R"({"status":"ok")", 0) == 0;
}

/// Reads a numeric field by path from a parsed JSON object.
double number_at(const json::Value& root,
                 std::initializer_list<const char*> path) {
  const json::Value* v = &root;
  for (const char* key : path) {
    v = v->find(key);
    if (v == nullptr) {
      throw std::runtime_error(std::string("stats payload lacks '") + key +
                               "'");
    }
  }
  return v->as_number();
}

// ---------------------------------------------------------------------------
// Closed loop
// ---------------------------------------------------------------------------

struct LoopResult {
  /// Latencies of successful operations: all of them, or a uniform sample
  /// of kLatencySamples per client when a client completes more.
  std::vector<double> latencies_s;
  Clock::time_point start;  ///< when the first timed operation began
  double elapsed_s = 0.0;   ///< until the last client finished
  std::uint64_t completed = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// One closed-loop caller's record. Its memory is allocated and touched
/// before the loop starts, so peak RSS does not grow with the number of
/// operations a faster program completes.
struct ClientLog {
  explicit ClientLog(std::uint64_t seed)
      : reservoir(kLatencySamples, 0.0), rng(seed) {}

  void record(double latency_s) {
    // Reservoir sampling (Algorithm R) keeps a uniform sample of latencies.
    if (completed < reservoir.size()) {
      reservoir[completed] = latency_s;
    } else {
      const std::uint64_t slot = rng.uniform_below(completed + 1);
      if (slot < reservoir.size()) reservoir[slot] = latency_s;
    }
    ++completed;
  }

  std::vector<double> reservoir;
  util::Rng rng;
  std::uint64_t completed = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Runs `clients` closed-loop callers until `seconds` elapse. Each caller
/// takes the next operation index and calls fn(client, index, latency_s),
/// which times its own request (excluding input generation and output
/// checks) and returns whether the operation succeeded.
template <typename Fn>
LoopResult closed_loop(std::size_t clients, double seconds, Fn&& fn) {
  std::vector<ClientLog> logs;
  for (std::size_t c = 0; c < clients; ++c) logs.emplace_back(c + 1);
  std::atomic<std::uint64_t> next{0};
  LoopResult merged;
  merged.start = Clock::now();
  auto body = [&](std::size_t c) {
    ClientLog& log = logs[c];
    while (seconds_since(merged.start) < seconds) {
      const std::uint64_t i = next.fetch_add(1);
      ++log.attempted;
      double latency = 0.0;
      bool ok = false;
      try {
        ok = fn(c, i, latency);
      } catch (const std::exception&) {
        // A transport failure leaves this client's connection unusable.
        ++log.failed;
        return;
      }
      if (ok) {
        log.record(latency);
      } else {
        ++log.failed;
      }
    }
  };
  if (clients == 1) {
    body(0);
  } else {
    std::vector<std::jthread> threads;
    for (std::size_t c = 0; c < clients; ++c) threads.emplace_back(body, c);
  }
  merged.elapsed_s = seconds_since(merged.start);
  for (const ClientLog& log : logs) {
    const std::size_t kept = std::min<std::uint64_t>(log.completed,
                                                     log.reservoir.size());
    merged.latencies_s.insert(merged.latencies_s.end(), log.reservoir.begin(),
                              log.reservoir.begin() +
                                  static_cast<std::ptrdiff_t>(kept));
    merged.completed += log.completed;
    merged.attempted += log.attempted;
    merged.failed += log.failed;
  }
  return merged;
}

/// Builds `make()` kSetupRepeats times, records each build time, and keeps
/// the last one (earlier ones are torn down).
template <typename Make>
auto timed_setup(std::vector<double>& times, Make&& make) {
  for (std::size_t k = 0;; ++k) {
    const Clock::time_point start = Clock::now();
    auto fixture = make();
    times.push_back(seconds_since(start));
    if (k + 1 == kSetupRepeats) return fixture;
  }
}

// ---------------------------------------------------------------------------
// Serve fixtures
// ---------------------------------------------------------------------------

struct ServeFixture {
  std::unique_ptr<serve::Server> server;  // destroyed after the clients
  std::vector<serve::Client> clients;
  std::vector<std::string> setup_bytes;  ///< responses to the set-up requests
};

ServeFixture make_serve_fixture(const std::vector<ServeOp>& setup_ops) {
  ServeFixture fixture;
  serve::ServerOptions options;
  options.workers = kServeWorkers;
  fixture.server = std::make_unique<serve::Server>(options);
  fixture.server->start();
  for (std::size_t c = 0; c < kServeClients; ++c) {
    fixture.clients.emplace_back(
        serve::connect_to("127.0.0.1", fixture.server->port()));
  }
  for (const ServeOp& op : setup_ops) {
    std::string bytes = fixture.clients.front().request_raw(op.request);
    if (!starts_ok(bytes)) {
      throw std::runtime_error("set-up request failed: " + op.request +
                               " -> " + bytes);
    }
    fixture.setup_bytes.push_back(std::move(bytes));
  }
  return fixture;
}

struct CacheCounters {
  double hits = 0.0;
  double misses = 0.0;
  double evictions = 0.0;
  double overload = 0.0;
};

CacheCounters read_counters(serve::Client& client) {
  const json::Value stats = json::parse(client.request_raw(kStatsRequest));
  return {number_at(stats, {"cache", "hits"}),
          number_at(stats, {"cache", "misses"}),
          number_at(stats, {"cache", "evictions"}),
          number_at(stats, {"requests", "overload_rejected"})};
}

std::string rerun_in_process(const std::string& request) {
  return serve::run_job(serve::parse_job(json::parse(request)), {}).payload;
}

// ---------------------------------------------------------------------------
// Untraced phase: one closed loop per workload
// ---------------------------------------------------------------------------

/// What an untraced phase leaves for the report and the traced phase.
struct Phase {
  LoopResult loop;
  std::vector<double> setup_s;
  std::uint64_t mismatches = 0;
  std::vector<std::string> report;
  // serve: counters over the timed loop only (set-up excluded)
  double hit_ratio = 0.0;
  double evictions = 0.0;
  double overload = 0.0;
  std::vector<std::string> hot_bytes;  ///< serve_hot: cold bytes per corpus
  // ensemble_local: reduced stats and event totals per operation
  std::vector<std::vector<runtime::SpeciesStats>> ensemble_stats;
  std::vector<std::uint64_t> ensemble_events;
};

Phase run_serve_cold(std::uint64_t seed, double seconds) {
  const ColdGenerator gen(seed);
  Phase phase;
  ServeFixture fixture = timed_setup(
      phase.setup_s, [&] { return make_serve_fixture(gen.warmup()); });
  const CacheCounters before = read_counters(fixture.clients.front());

  struct Sample {
    std::uint64_t index;
    std::string bytes;
  };
  std::vector<std::vector<Sample>> samples(kServeClients);
  phase.loop = closed_loop(
      kServeClients, seconds,
      [&](std::size_t c, std::uint64_t i, double& latency) {
        const ServeOp op = gen.op(i);
        const Clock::time_point start = Clock::now();
        std::string bytes = fixture.clients[c].request_raw(op.request);
        latency = seconds_since(start);
        const bool sampled =
            util::Rng::stream_seed(seed ^ 0x5A3D, i) % kColdSampleEvery == 0;
        if (sampled && samples[c].size() < kColdSampleCap) {
          samples[c].push_back({i, bytes});
        }
        return starts_ok(bytes);
      });

  // Regime guard: every timed request must have missed the cache.
  const CacheCounters after = read_counters(fixture.clients.front());
  if (after.hits != 0.0) {
    throw RegimeError("serve_cold saw " + fmt(after.hits) +
                      " cache hits; every key must be unique");
  }
  phase.hit_ratio = 0.0;
  phase.evictions = after.evictions - before.evictions;
  phase.overload = after.overload - before.overload;

  std::size_t checked = 0;
  for (const std::vector<Sample>& mine : samples) {
    for (const Sample& s : mine) {
      ++checked;
      if (rerun_in_process(gen.op(s.index).request) != s.bytes) {
        ++phase.mismatches;
      }
    }
  }
  phase.report.push_back("check: " + std::to_string(checked) +
                         " sampled responses re-run in-process, " +
                         std::to_string(phase.mismatches) + " mismatched");
  return phase;
}

Phase run_serve_hot(std::uint64_t seed, double seconds) {
  const HotGenerator gen(seed);
  Phase phase;
  ServeFixture fixture = timed_setup(
      phase.setup_s, [&] { return make_serve_fixture(gen.corpus()); });
  phase.hot_bytes = fixture.setup_bytes;
  const CacheCounters before = read_counters(fixture.clients.front());

  std::vector<std::uint64_t> mismatches(kServeClients, 0);
  phase.loop = closed_loop(
      kServeClients, seconds,
      [&](std::size_t c, std::uint64_t i, double& latency) {
        const std::size_t k = gen.corpus_index(i);
        const std::string& request = gen.corpus()[k].request;
        const Clock::time_point start = Clock::now();
        const std::string bytes = fixture.clients[c].request_raw(request);
        latency = seconds_since(start);
        if (bytes != phase.hot_bytes[k]) {
          ++mismatches[c];
          return false;
        }
        return true;
      });

  const CacheCounters after = read_counters(fixture.clients.front());
  const double hits = after.hits - before.hits;
  const double lookups = hits + (after.misses - before.misses);
  phase.hit_ratio = lookups == 0.0 ? 0.0 : hits / lookups;
  if (phase.hit_ratio < 0.99) {
    throw RegimeError("serve_hot hit ratio " + fmt(phase.hit_ratio) +
                      " after warm-up; expected >= 0.99");
  }
  phase.evictions = after.evictions - before.evictions;
  phase.overload = after.overload - before.overload;
  for (const std::uint64_t m : mismatches) phase.mismatches += m;
  phase.report.push_back("check: " + std::to_string(phase.loop.attempted) +
                         " hit responses compared with set-up bytes, " +
                         std::to_string(phase.mismatches) + " mismatched");
  return phase;
}

struct EnsembleFixture {
  std::vector<tools::BuiltDesign> designs;  ///< indexed like kEnsembleDesigns
};

sim::SsaOptions ensemble_ssa() {
  sim::SsaOptions ssa;
  ssa.t_end = kEnsembleTEnd;
  ssa.method = sim::SsaMethod::kDirect;
  ssa.omega = kEnsembleOmega;
  return ssa;
}

runtime::EnsembleResult run_ensemble(const EnsembleFixture& fixture,
                                     const EnsembleOp& op,
                                     std::size_t threads) {
  runtime::EnsembleOptions options;
  options.replicates = op.replicates;
  options.base_seed = op.base_seed;
  options.batch.threads = threads;
  return runtime::run_ssa_ensemble(*fixture.designs[op.design].network,
                                   ensemble_ssa(), options);
}

bool same_stats(const std::vector<runtime::SpeciesStats>& a,
                const std::vector<runtime::SpeciesStats>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double x[] = {a[i].mean, a[i].stddev, a[i].min, a[i].max,
                        a[i].q05,  a[i].q50,    a[i].q95};
    const double y[] = {b[i].mean, b[i].stddev, b[i].min, b[i].max,
                        b[i].q05,  b[i].q50,    b[i].q95};
    if (a[i].name != b[i].name || std::memcmp(x, y, sizeof x) != 0) {
      return false;
    }
  }
  return true;
}

Phase run_ensemble_local(std::uint64_t seed, double seconds,
                         EnsembleFixture& kept) {
  Phase phase;
  kept = timed_setup(phase.setup_s, [&] {
    EnsembleFixture fixture;
    for (std::size_t d = 0; d < kEnsembleDesigns.size(); ++d) {
      fixture.designs.push_back(
          tools::build_design(kEnsembleDesigns[d], compile::CompileOptions{}));
      // Warm-up: a small ensemble per design (thread pool, allocator).
      EnsembleOp warm{d, 4, util::Rng::stream_seed(seed, 0xBEEF + d)};
      if (run_ensemble(fixture, warm, kEnsembleThreads).ok != 4) {
        throw RegimeError("ensemble warm-up replicate failed");
      }
    }
    return fixture;
  });

  bool all_ok = true;
  phase.loop = closed_loop(
      1, seconds, [&](std::size_t, std::uint64_t i, double& latency) {
        const EnsembleOp op = ensemble_op(seed, i);
        const Clock::time_point start = Clock::now();
        runtime::EnsembleResult result =
            run_ensemble(kept, op, kEnsembleThreads);
        latency = seconds_since(start);
        std::uint64_t events = 0;
        for (const runtime::JobResult& r : result.replicates) {
          events += r.ssa_events;
        }
        phase.ensemble_events.push_back(events);
        if (i < kKeptEnsembles) {
          phase.ensemble_stats.push_back(std::move(result.final_stats));
        }
        if (result.ok != op.replicates) all_ok = false;
        return result.ok == op.replicates;
      });
  if (!all_ok) {
    throw RegimeError("ensemble_local: a replicate did not finish ok");
  }

  // Check: one sampled ensemble per design against a 1-thread re-run. The
  // sample starts at a seeded index 3k < kKeptEnsembles - 1, so it covers
  // ops 3k (cascade) and 3k+1 (delay_chain).
  const std::uint64_t kept_ops = phase.ensemble_stats.size();
  const std::uint64_t first =
      3 * (util::Rng::stream_seed(seed, 0x5A3D) % (kKeptEnsembles / 3));
  std::size_t checked = 0;
  for (std::uint64_t i = first; i < std::min(kept_ops, first + 2); ++i) {
    ++checked;
    const runtime::EnsembleResult serial =
        run_ensemble(kept, ensemble_op(seed, i), 1);
    if (!same_stats(serial.final_stats, phase.ensemble_stats[i])) {
      ++phase.mismatches;
    }
  }
  phase.report.push_back("check: " + std::to_string(checked) +
                         " sampled ensembles re-run on 1 thread, " +
                         std::to_string(phase.mismatches) + " mismatched");
  const std::uint64_t ops = phase.ensemble_events.size();
  for (std::uint64_t i = 0; i < std::min<std::uint64_t>(ops, 2); ++i) {
    phase.report.push_back(
        std::string("events: op ") + std::to_string(i) + " " +
        kEnsembleDesigns[ensemble_op(seed, i).design] + " fired " +
        std::to_string(phase.ensemble_events[i]) + " SSA events");
  }
  return phase;
}

// ---------------------------------------------------------------------------
// Traced phase
// ---------------------------------------------------------------------------

/// Per-operation totals the ledger needs beyond span times.
struct OpCounts {
  double reactions = 0.0;
  double dep_edges = 0.0;
  double ssa_events = 0.0;
  double ode_accepted = 0.0;
  double ode_rejected = 0.0;
  bool used_engine = false;
  bool used_ssa = false;
  bool used_ode = false;
};

struct TraceRun {
  Tracer tracer;
  std::vector<OpCounts> counts;  ///< indexed by op
  std::vector<std::string> labels;  ///< per op: "design method" row key
  std::uint64_t mismatches = 0;
};

void count_engine(const sim::CompiledSystem& compiled, OpCounts& counts) {
  counts.used_engine = true;
  counts.reactions += static_cast<double>(compiled.reaction_count());
  for (std::size_t j = 0; j < compiled.reaction_count(); ++j) {
    counts.dep_edges +=
        static_cast<double>(compiled.affected_reactions(j).size());
  }
}

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

/// A connected AF_UNIX stream pair for timing frame writes and reads.
std::pair<serve::Socket, serve::Socket> socket_pair() {
  int fds[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    throw std::runtime_error("socketpair failed");
  }
  return {serve::Socket(fds[0]), serve::Socket(fds[1])};
}

void trace_serve(Workload workload, std::uint64_t seed, double seconds,
                 const Phase& untraced, TraceRun& run) {
  const bool hot = workload == Workload::kServeHot;
  const ColdGenerator cold_gen(seed);
  const HotGenerator hot_gen(seed);
  const scenario::ScenarioRegistry& registry =
      scenario::ScenarioRegistry::global();
  const serve::ServerOptions defaults;
  serve::ResultCache cache(defaults.cache_entries, defaults.cache_bytes);
  auto [client_end, server_end] = socket_pair();

  if (hot) {
    // The server's cold bytes from set-up fill the traced cache; a fresh
    // in-process run must reproduce them.
    for (std::size_t k = 0; k < hot_gen.corpus().size(); ++k) {
      const std::string& request = hot_gen.corpus()[k].request;
      if (rerun_in_process(request) != untraced.hot_bytes[k]) ++run.mismatches;
      cache.put(serve::canonical_key(serve::parse_job(json::parse(request))),
                untraced.hot_bytes[k]);
    }
  }

  Tracer& tracer = run.tracer;
  const Clock::time_point start = Clock::now();
  for (std::uint64_t i = 0; i < kTraceOpCap && seconds_since(start) < seconds;
       ++i) {
    const ServeOp op = hot ? hot_gen.corpus()[hot_gen.corpus_index(i)]
                           : cold_gen.op(i);
    OpCounts counts;
    run.labels.push_back(op.design + " " + (hot ? op.kind : op.method));

    // The request path, stage by stage, as the server runs it.
    const std::int64_t root = tracer.open("op", i);
    std::string received;
    traced(tracer, "serve.frame", i, root, [&] {
      serve::write_frame(client_end.fd(), op.request);
      (void)serve::read_frame(server_end.fd(), received);
    });
    const json::Value value = traced(tracer, "serve.json_parse", i, root,
                                     [&] { return json::parse(received); });
    const serve::JobRequest job = traced(
        tracer, "serve.parse_job", i, root,
        [&] { return serve::parse_job(value); });
    const std::string key = traced(tracer, "serve.canonical_key", i, root,
                                   [&] { return serve::canonical_key(job); });
    const std::optional<std::string> cached = traced(
        tracer, "serve.cache_get", i, root, [&] { return cache.get(key); });
    std::string payload;
    if (hot) {
      if (!cached || *cached != untraced.hot_bytes[hot_gen.corpus_index(i)]) {
        ++run.mismatches;
      }
      payload = cached.value_or("");
    } else {
      if (cached) ++run.mismatches;  // keys are unique: a hit is a bug
      serve::DispatchResult result = traced(
          tracer, "serve.run_job", i, root,
          [&] { return serve::run_job(job, {}); });
      if (!result.ok) ++run.mismatches;
      payload = std::move(result.payload);
      traced(tracer, "serve.cache_put", i, root,
             [&] { cache.put(key, payload); });
    }
    std::string response;
    traced(tracer, "serve.frame", i, root, [&] {
      serve::write_frame(server_end.fd(), payload);
      (void)serve::read_frame(client_end.fd(), response);
    });
    tracer.close(root);
    if (response != payload) ++run.mismatches;

    // The layers inside parse_job and run_job, called one by one.
    const std::int64_t parts = tracer.open("decompose", i);
    (void)traced(tracer, "scenario.canonicalize", i, parts,
                 [&] { return registry.canonicalize(op.design); });
    if (!hot) {
      compile::CompileOptions compile_options;
      compile_options.opt =
          job.opt == 1 ? compile::OptLevel::kO1 : compile::OptLevel::kO0;
      const tools::BuiltDesign design =
          traced(tracer, "scenario.resolve", i, parts, [&] {
            return tools::build_design(job.design, compile_options);
          });
      const sim::CompiledSystem compiled =
          traced(tracer, "sim.engine.build", i, parts,
                 [&] { return sim::CompiledSystem(*design.network); });
      count_engine(compiled, counts);
      const std::vector<double> initial = design.network->initial_state();
      if (job.method == "dp45") {
        sim::OdeOptions ode;
        ode.t_end = job.t_end;
        ode.record_interval = job.record;
        ode.method = sim::OdeMethod::kDormandPrince45;
        const sim::OdeResult result =
            traced(tracer, "sim.ode", i, parts, [&] {
              return sim::simulate_ode(compiled, ode, initial);
            });
        counts.used_ode = true;
        counts.ode_accepted = static_cast<double>(result.steps_accepted);
        counts.ode_rejected = static_cast<double>(result.steps_rejected);
        if (!contains(payload, "\"ode_steps\":" +
                                   std::to_string(result.steps_accepted) +
                                   ",")) {
          ++run.mismatches;
        }
      } else {
        sim::SsaOptions ssa;
        ssa.t_end = job.t_end;
        ssa.seed = job.seed;
        ssa.omega = job.omega;
        ssa.record_interval = job.record;
        ssa.method = job.method == "ssa" ? sim::SsaMethod::kDirect
                                         : sim::SsaMethod::kNextReaction;
        const sim::SsaResult result =
            traced(tracer, "sim.ssa", i, parts, [&] {
              return sim::simulate_ssa(compiled, ssa,
                                       sim::to_counts(initial, ssa.omega));
            });
        counts.used_ssa = true;
        counts.ssa_events = static_cast<double>(result.events);
        if (!contains(payload, "\"ssa_events\":" +
                                   std::to_string(result.events) + ",")) {
          ++run.mismatches;
        }
      }
    }
    tracer.close(parts);
    run.counts.push_back(counts);
  }
}

void trace_ensemble(std::uint64_t seed, double seconds,
                    const EnsembleFixture& fixture, const Phase& untraced,
                    TraceRun& run) {
  Tracer& tracer = run.tracer;
  const sim::SsaOptions ssa = ensemble_ssa();
  const Clock::time_point start = Clock::now();
  for (std::uint64_t i = 0; i < kTraceOpCap && seconds_since(start) < seconds;
       ++i) {
    const EnsembleOp op = ensemble_op(seed, i);
    const core::ReactionNetwork& network =
        *fixture.designs[op.design].network;
    OpCounts counts;
    run.labels.emplace_back(kEnsembleDesigns[op.design]);

    const std::int64_t root = tracer.open("op", i);
    const sim::CompiledSystem compiled =
        traced(tracer, "sim.engine.build", i, root,
               [&] { return sim::CompiledSystem(network); });
    const std::vector<runtime::SimJob> jobs =
        runtime::make_ensemble_jobs(network, ssa, op.replicates, op.base_seed);
    const std::vector<std::int64_t> initial =
        sim::to_counts(network.initial_state(), ssa.omega);
    std::vector<sim::SsaResult> results(op.replicates);
    const std::int64_t batch = tracer.open("runtime.batch", i, root);
    runtime::BatchOptions batch_options;
    batch_options.threads = kEnsembleThreads;
    runtime::BatchRunner runner(batch_options);
    runner.for_each_index(op.replicates, [&](std::size_t k) {
      results[k] = traced(tracer, "sim.ssa", i, batch, [&] {
        return sim::simulate_ssa(compiled, jobs[k].ssa, initial);
      });
    });
    tracer.close(batch);
    const std::vector<runtime::SpeciesStats> stats =
        traced(tracer, "runtime.reduce", i, root, [&] {
          std::vector<runtime::SpeciesStats> out;
          std::vector<double> values(op.replicates);
          for (std::size_t s = 0; s < network.species_count(); ++s) {
            for (std::size_t k = 0; k < op.replicates; ++k) {
              values[k] =
                  static_cast<double>(results[k].final_counts[s]) / ssa.omega;
            }
            out.push_back(runtime::reduce_species(
                network.species_name(core::SpeciesId{
                    static_cast<core::SpeciesId::underlying_type>(s)}),
                values));
          }
          return out;
        });
    tracer.close(root);

    count_engine(compiled, counts);
    counts.used_ssa = true;
    for (const sim::SsaResult& r : results) {
      counts.ssa_events += static_cast<double>(r.events);
    }
    // The layer-by-layer replay must reproduce run_ssa_ensemble bitwise.
    if ((i < untraced.ensemble_stats.size() &&
         !same_stats(stats, untraced.ensemble_stats[i])) ||
        (i < untraced.ensemble_events.size() &&
         counts.ssa_events !=
             static_cast<double>(untraced.ensemble_events[i]))) {
      ++run.mismatches;
    }
    run.counts.push_back(counts);
  }
}

// ---------------------------------------------------------------------------
// Ledger
// ---------------------------------------------------------------------------

const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"scenario.canonicalize_us", "us"},
    {"scenario.resolve_us", "us"},
    {"sim.engine.build_us", "us"},
    {"sim.engine.reactions", "count"},
    {"sim.engine.dep_edges", "count"},
    {"sim.ssa_us", "us"},
    {"sim.ssa_events", "count"},
    {"sim.ssa_events_per_s", "1/s"},
    {"sim.ode_us", "us"},
    {"sim.ode_steps_accepted", "count"},
    {"sim.ode_steps_rejected", "count"},
    {"sim.ode_accept_ratio", "ratio"},
    {"runtime.worker_utilization", "ratio"},
    {"runtime.batch_overhead_us", "us"},
    {"runtime.reduce_us", "us"},
    {"serve.json_parse_us", "us"},
    {"serve.parse_job_us", "us"},
    {"serve.canonical_key_us", "us"},
    {"serve.cache_get_us", "us"},
    {"serve.frame_us", "us"},
    {"serve.run_job_us", "us"},
    {"serve.cache_put_us", "us"},
    {"serve.cache_evictions", "count"},
    {"serve.dispatch_residual_us", "us"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.overload_rejections", "count"},
    {"trace.explained_ratio", "ratio"},
    {"error_ratio", "ratio"},
};

/// Per-op, per-span-name sums of self time (ns) and durations (ns).
struct OpTimes {
  std::map<std::string, double> self_ns;
  std::map<std::string, double> duration_ns;
  double op_covered_ns = 0.0;  ///< part of the "op" span its stages cover
};

std::vector<OpTimes> op_times(const std::vector<Span>& spans,
                              const std::vector<std::int64_t>& self,
                              std::size_t ops) {
  std::vector<OpTimes> out(ops);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.op >= ops) continue;
    OpTimes& t = out[s.op];
    const double duration = static_cast<double>(s.end_ns - s.start_ns);
    if (std::strcmp(s.name, "op") == 0) {
      t.op_covered_ns += duration - static_cast<double>(self[i]);
    }
    t.self_ns[s.name] += static_cast<double>(self[i]);
    t.duration_ns[s.name] += duration;
  }
  return out;
}

/// Mean over the ops that recorded `name` of that op's summed self time,
/// in microseconds; 0 when no op recorded it.
double mean_self_us(const std::vector<OpTimes>& ops, const std::string& name) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const OpTimes& t : ops) {
    const auto it = t.self_ns.find(name);
    if (it == t.self_ns.end()) continue;
    sum += it->second;
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n) / 1e3;
}

double duration_ns(const OpTimes& t, const std::string& name) {
  const auto it = t.duration_ns.find(name);
  return it == t.duration_ns.end() ? 0.0 : it->second;
}

std::vector<Metric> ledger(Workload workload, const Phase& untraced,
                           const TraceRun& run, const std::string& spans_path,
                           double untraced_p50_s,
                           std::vector<std::string>& report) {
  const std::vector<Span> spans = run.tracer.spans();
  const std::vector<std::int64_t> self = self_times_ns(spans);
  if (!spans_path.empty()) write_spans(spans_path, spans, self);
  const std::vector<OpTimes> ops = op_times(spans, self, run.counts.size());

  std::map<std::string, double> m;
  for (const auto& [name, unit] : kLayerMetrics) m[name] = 0.0;
  m["scenario.canonicalize_us"] = mean_self_us(ops, "scenario.canonicalize");
  m["scenario.resolve_us"] = mean_self_us(ops, "scenario.resolve");
  m["sim.engine.build_us"] = mean_self_us(ops, "sim.engine.build");
  m["sim.ssa_us"] = mean_self_us(ops, "sim.ssa");
  m["sim.ode_us"] = mean_self_us(ops, "sim.ode");
  m["runtime.reduce_us"] = mean_self_us(ops, "runtime.reduce");
  m["serve.json_parse_us"] = mean_self_us(ops, "serve.json_parse");
  m["serve.parse_job_us"] = mean_self_us(ops, "serve.parse_job");
  m["serve.canonical_key_us"] = mean_self_us(ops, "serve.canonical_key");
  m["serve.cache_get_us"] = mean_self_us(ops, "serve.cache_get");
  m["serve.frame_us"] = mean_self_us(ops, "serve.frame");
  m["serve.run_job_us"] = mean_self_us(ops, "serve.run_job");
  m["serve.cache_put_us"] = mean_self_us(ops, "serve.cache_put");

  double engine_ops = 0.0;
  double ssa_ops = 0.0;
  double ode_ops = 0.0;
  double events = 0.0;
  double ssa_ns = 0.0;
  double accepted = 0.0;
  double rejected = 0.0;
  double replicate_ns = 0.0;
  double batch_ns = 0.0;
  double residual_ns = 0.0;
  double residual_ops = 0.0;
  std::vector<double> covered;
  for (std::size_t i = 0; i < run.counts.size(); ++i) {
    const OpCounts& c = run.counts[i];
    const OpTimes& t = ops[i];
    if (c.used_engine) {
      ++engine_ops;
      m["sim.engine.reactions"] += c.reactions;
      m["sim.engine.dep_edges"] += c.dep_edges;
    }
    if (c.used_ssa) {
      ++ssa_ops;
      events += c.ssa_events;
      ssa_ns += duration_ns(t, "sim.ssa");
    }
    if (c.used_ode) {
      ++ode_ops;
      accepted += c.ode_accepted;
      rejected += c.ode_rejected;
    }
    replicate_ns += duration_ns(t, "sim.ssa");
    batch_ns += duration_ns(t, "runtime.batch");
    if (t.duration_ns.count("serve.run_job") != 0) {
      ++residual_ops;
      residual_ns += duration_ns(t, "serve.run_job") -
                     duration_ns(t, "scenario.resolve") -
                     duration_ns(t, "sim.engine.build") -
                     duration_ns(t, "sim.ssa") - duration_ns(t, "sim.ode");
    }
    covered.push_back(t.op_covered_ns);
  }
  if (engine_ops > 0) {
    m["sim.engine.reactions"] /= engine_ops;
    m["sim.engine.dep_edges"] /= engine_ops;
  }
  if (ssa_ops > 0) m["sim.ssa_events"] = events / ssa_ops;
  if (ssa_ns > 0) m["sim.ssa_events_per_s"] = events / (ssa_ns / 1e9);
  if (ode_ops > 0) {
    m["sim.ode_steps_accepted"] = accepted / ode_ops;
    m["sim.ode_steps_rejected"] = rejected / ode_ops;
    m["sim.ode_accept_ratio"] = accepted / (accepted + rejected);
  }
  if (batch_ns > 0) {
    const double threads = static_cast<double>(kEnsembleThreads);
    m["runtime.worker_utilization"] = replicate_ns / (threads * batch_ns);
    m["runtime.batch_overhead_us"] =
        (batch_ns - replicate_ns / threads) /
        static_cast<double>(run.counts.size()) / 1e3;
  }
  if (residual_ops > 0) {
    m["serve.dispatch_residual_us"] = residual_ns / residual_ops / 1e3;
  }
  if (workload != Workload::kEnsembleLocal) {
    m["serve.cache_hit_ratio"] = untraced.hit_ratio;
    m["serve.cache_evictions"] = untraced.evictions;
    m["serve.overload_rejections"] = untraced.overload;
  }
  if (!covered.empty() && untraced_p50_s > 0) {
    m["trace.explained_ratio"] = median(covered) / 1e9 / untraced_p50_s;
  }

  // Per-row breakdown: mean µs per (design, method) for the stages that
  // make up a request.
  struct Row {
    double n = 0;
    std::map<std::string, double> ns;
  };
  std::map<std::string, Row> rows;
  const char* row_stages[] = {"scenario.resolve", "sim.engine.build",
                              "sim.ssa",          "sim.ode",
                              "runtime.batch",    "runtime.reduce",
                              "serve.run_job",    "serve.frame",
                              "serve.parse_job",  "serve.cache_get"};
  for (std::size_t i = 0; i < run.counts.size(); ++i) {
    Row& row = rows[run.labels[i]];
    ++row.n;
    for (const char* stage : row_stages) {
      row.ns[stage] += duration_ns(ops[i], stage);
    }
    row.ns["op"] += ops[i].op_covered_ns;
  }
  for (const auto& [label, row] : rows) {
    std::string line = "row " + label + " n=" + fmt(row.n);
    for (const auto& [stage, ns] : row.ns) {
      if (ns == 0.0) continue;
      char mean_us[32];
      std::snprintf(mean_us, sizeof mean_us, "%.1f", ns / row.n / 1e3);
      line += " " + stage + "_us=" + mean_us;
    }
    report.push_back(line);
  }

  std::vector<Metric> metrics;
  for (const auto& [name, unit] : kLayerMetrics) {
    metrics.push_back({name, m[name], unit});
  }
  return metrics;
}

double percentile_ms(const std::vector<double>& sorted_s, double q) {
  return runtime::quantile_sorted(sorted_s, q) * 1e3;
}

}  // namespace

const std::vector<std::pair<const char*, const char*>>& layer_metric_names() {
  return kLayerMetrics;
}

RunResult run_benchmark(const RunOptions& options) {
  RunResult result;
  const HostRecord host = host_record(options.git_sha);
  result.report.push_back("host " + to_json(host));
  result.report.push_back(
      std::string("run {\"workload\":\"") + to_string(options.workload) +
      "\",\"seed\":" + std::to_string(options.seed) +
      ",\"seconds\":" + fmt(options.seconds) +
      ",\"trace\":" + (options.trace ? "1" : "0") + "}");

  const double loop_seconds =
      options.trace ? options.seconds / 2.0 : options.seconds;
  EnsembleFixture ensemble;
  Phase phase;
  switch (options.workload) {
    case Workload::kServeCold:
      phase = run_serve_cold(options.seed, loop_seconds);
      break;
    case Workload::kServeHot:
      phase = run_serve_hot(options.seed, loop_seconds);
      break;
    case Workload::kEnsembleLocal:
      phase = run_ensemble_local(options.seed, loop_seconds, ensemble);
      break;
  }

  std::vector<double>& latencies = phase.loop.latencies_s;
  std::sort(latencies.begin(), latencies.end());
  const double samples = static_cast<double>(latencies.size());
  const double p50 = percentile_ms(latencies, 0.50);
  const double p90 = percentile_ms(latencies, 0.90);
  const double p99 = percentile_ms(latencies, 0.99);
  result.attempted = phase.loop.attempted;
  result.failed = phase.loop.failed + phase.mismatches;
  result.report.insert(result.report.end(), phase.report.begin(),
                       phase.report.end());

  std::string setup_list;
  for (const double s : phase.setup_s) {
    if (!setup_list.empty()) setup_list += ',';
    setup_list += fmt(s);
  }
  result.report.push_back("setup_s samples [" + setup_list + "]");
  // The issue-defined cold set-up: program start to the first timed
  // operation, with every one-time cost and all kSetupRepeats set-ups.
  result.report.push_back(
      "setup_cold_s=" +
      fmt(std::chrono::duration<double>(phase.loop.start - kProgramStart)
              .count()) +
      " (program start to first timed op, not gated)");
  result.report.push_back(
      "latency completed=" + std::to_string(phase.loop.completed) +
      " samples=" + fmt(samples) + " p50_ms=" + fmt(p50) +
      " p90_ms=" + fmt(p90) + " (n_above=" + fmt(std::floor(samples * 0.1)) +
      ") p99_ms=" + fmt(p99) + " (n_above=" +
      fmt(std::floor(samples * 0.01)) + ", not gated)");

  if (options.trace) {
    TraceRun run;
    if (options.workload == Workload::kEnsembleLocal) {
      trace_ensemble(options.seed, options.seconds / 2.0, ensemble, phase,
                     run);
    } else {
      trace_serve(options.workload, options.seed, options.seconds / 2.0,
                  phase, run);
    }
    result.attempted += run.counts.size();
    result.failed += run.mismatches;
    result.report.push_back("trace ops=" + std::to_string(run.counts.size()) +
                            " mismatches=" + std::to_string(run.mismatches));
    result.metrics = ledger(options.workload, phase, run, options.spans_path,
                            p50 / 1e3, result.report);
  }

  const double error_ratio = static_cast<double>(result.failed) /
                             static_cast<double>(std::max<std::uint64_t>(
                                 1, result.attempted));
  result.report.push_back("ops attempted=" + std::to_string(result.attempted) +
                          " failed=" + std::to_string(result.failed) +
                          " error_ratio=" + fmt(error_ratio));
  if (options.trace) {
    for (Metric& metric : result.metrics) {
      if (metric.name == "error_ratio") metric.value = error_ratio;
    }
  } else {
    result.metrics = {
        {"throughput_ops_s",
         static_cast<double>(phase.loop.completed) / phase.loop.elapsed_s,
         "ops/s"},
        {"latency_p50_ms", p50, "ms"},
        {"latency_p90_ms", p90, "ms"},
        {"setup_s", median(phase.setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
  }
  result.correct = result.failed == 0 && result.attempted > 0;
  return result;
}

std::string result_json(const RunResult& result) {
  std::string out = "{\"correct\":";
  out += result.correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(result.attempted);
  out += ",\"failed\":" + std::to_string(result.failed);
  out += ",\"metrics\":{";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& metric = result.metrics[i];
    if (i != 0) out += ',';
    const double value = std::isfinite(metric.value) ? metric.value : 0.0;
    out += json::quote(metric.name) + ":{\"value\":" + fmt(value) +
           ",\"unit\":" + json::quote(metric.unit) + "}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
