// Distributor-fleet benchmark: merged-ensemble wall clock vs shard count,
// plus one chaos configuration (both shards behind a seeded fault-injecting
// proxy) to price the retry/backoff overhead.
//
// Every row re-proves the fleet's headline contract while it measures: the
// merged report must be byte-identical to the single-shard golden run
// (`byte_identical` is part of the snapshot, so CI trips if the oracle ever
// goes false). Timings and attempt counts drift with the runner and the
// fault schedule; the value gate ignores them.
//
// Writes BENCH_fleet.json (path overridable via MRSC_BENCH_FLEET_JSON).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "fleet/chaos_proxy.hpp"
#include "fleet/fleet.hpp"
#include "serve/server.hpp"
#include "tools/cli_flags.hpp"
#include "util/json.hpp"

namespace {

using namespace mrsc;
using util::json::Value;

struct Row {
  std::string label;
  std::size_t shards = 0;
  double wall_ms = 0.0;
  double slices_per_s = 0.0;
  std::uint64_t attempts = 0;
  std::uint64_t retries = 0;
  std::uint64_t failures = 0;
  bool byte_identical = false;
};

double elapsed_ms(std::chrono::steady_clock::time_point start) {
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - start).count();
}

fleet::EnsembleSpec bench_spec() {
  fleet::EnsembleSpec spec;
  spec.design = "counter";
  spec.replicates = 32;
  spec.base_seed = 7;
  spec.t_end = 2.0;
  spec.omega = 100.0;
  return spec;
}

Row measure(const std::string& label,
            const std::vector<fleet::Endpoint>& shards,
            const std::string& golden, std::size_t max_attempts) {
  fleet::FleetOptions options;
  options.shards = shards;
  options.max_attempts = max_attempts;
  options.backoff.base_ms = 2.0;
  options.backoff.cap_ms = 50.0;
  fleet::FleetClient client(options);

  const auto start = std::chrono::steady_clock::now();
  const std::string report = fleet::run_ensemble(client, bench_spec());
  Row row;
  row.label = label;
  row.shards = shards.size();
  row.wall_ms = elapsed_ms(start);
  row.slices_per_s =
      static_cast<double>(bench_spec().replicates) / (row.wall_ms / 1000.0);
  const fleet::FleetCounters counters = client.counters();
  row.attempts = counters.attempts;
  row.retries = counters.retries;
  row.failures = counters.failures;
  row.byte_identical = golden.empty() || report == golden;
  return row;
}

}  // namespace

int main() {
  std::printf("== fleet: merged ensemble vs shard count (%zu replicates)\n\n",
              bench_spec().replicates);

  // Four in-process shards; each configuration uses a prefix of them. The
  // processes stay warm across rows, so the sweep prices distribution, not
  // server startup — but the golden row runs against a cold cache like
  // every other row would on a fresh fleet.
  std::vector<std::unique_ptr<serve::Server>> servers;
  std::vector<fleet::Endpoint> endpoints;
  for (int i = 0; i < 4; ++i) {
    serve::ServerOptions options;
    options.workers = 2;
    servers.push_back(std::make_unique<serve::Server>(options));
    servers.back()->start();
    endpoints.push_back({"127.0.0.1", servers.back()->port()});
  }

  // Golden bytes from one shard (this is also the 1-shard timing row).
  fleet::FleetOptions golden_options;
  golden_options.shards = {endpoints[0]};
  fleet::FleetClient golden_client(golden_options);
  const auto golden_start = std::chrono::steady_clock::now();
  const std::string golden =
      fleet::run_ensemble(golden_client, bench_spec());
  Row one;
  one.label = "clean";
  one.shards = 1;
  one.wall_ms = elapsed_ms(golden_start);
  one.slices_per_s =
      static_cast<double>(bench_spec().replicates) / (one.wall_ms / 1000.0);
  one.attempts = golden_client.counters().attempts;
  one.byte_identical = true;

  std::vector<Row> rows;
  rows.push_back(one);
  rows.push_back(measure("clean", {endpoints[0], endpoints[1]}, golden, 4));
  rows.push_back(measure(
      "clean", {endpoints[0], endpoints[1], endpoints[2], endpoints[3]},
      golden, 4));

  // Chaos row: two shards, both behind proxies that drop, delay, and
  // truncate on a seeded schedule.
  fleet::ChaosFaults faults;
  faults.drop = 0.15;
  faults.truncate = 0.15;
  faults.delay = 0.1;
  faults.delay_ms = 5.0;
  fleet::ChaosProxy proxy_a(endpoints[0], faults, 11);
  fleet::ChaosProxy proxy_b(endpoints[1], faults, 12);
  proxy_a.start();
  proxy_b.start();
  rows.push_back(measure("chaos",
                         {{"127.0.0.1", proxy_a.port()},
                          {"127.0.0.1", proxy_b.port()}},
                         golden, 10));
  proxy_a.stop();
  proxy_b.stop();

  std::printf("%-8s %7s %9s %13s %9s %8s %9s %6s\n", "label", "shards",
              "wall_ms", "slices_per_s", "attempts", "retries", "failures",
              "bytes");
  bool all_identical = true;
  for (const Row& row : rows) {
    std::printf("%-8s %7zu %9.2f %13.1f %9llu %8llu %9llu %6s\n",
                row.label.c_str(), row.shards, row.wall_ms, row.slices_per_s,
                static_cast<unsigned long long>(row.attempts),
                static_cast<unsigned long long>(row.retries),
                static_cast<unsigned long long>(row.failures),
                row.byte_identical ? "same" : "DIFF");
    all_identical = all_identical && row.byte_identical;
  }
  std::printf("\n");

  const char* path_env = std::getenv("MRSC_BENCH_FLEET_JSON");
  const std::string path = path_env ? path_env : "BENCH_fleet.json";
  Value json_rows;
  for (const Row& row : rows) {
    Value entry;
    entry.set("label", Value(row.label));
    entry.set("shards", Value(std::uint64_t{row.shards}));
    entry.set("wall_ms", Value(row.wall_ms));
    entry.set("slices_per_s", Value(row.slices_per_s));
    entry.set("attempts", Value(row.attempts));
    entry.set("retries", Value(row.retries));
    entry.set("failures", Value(row.failures));
    entry.set("byte_identical", Value(row.byte_identical));
    json_rows.array().push_back(std::move(entry));
  }
  Value json;
  json.set("benchmark", Value("fleet_ensemble"));
  json.set("design", Value(bench_spec().design));
  json.set("replicates",
           Value(std::uint64_t{bench_spec().replicates}));
  json.set("rows", std::move(json_rows));
  const bool written =
      tools::write_file("bench_fleet", path, json.dump() + "\n", "report");

  for (const auto& server : servers) server->stop();
  if (!written) return 1;
  if (!all_identical) {
    std::fprintf(stderr, "FAIL: a merged report diverged from the golden "
                         "single-shard bytes\n");
    return 1;
  }
  return 0;
}
