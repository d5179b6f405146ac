// mrsc_loadgen — open-loop load generator for mrsc_serve.
//
//   mrsc_loadgen --port P [options]
//
// Drives the service at a *fixed request rate* from a replayable corpus
// built out of the builtin designs, nighthawk-style: request i has the
// fixed scheduled start time `i / rate`, regardless of how fast the server
// answers, and its latency is measured from that scheduled start — so
// server-side queueing delay is part of the number instead of the
// closed-loop coordinated-omission blind spot. Concurrency is bounded by
// the connection count; when every connection is busy past a request's
// scheduled start, the wait shows up as latency, which is exactly what an
// overloaded open-loop client should report.
//
//   --host A           server address              (default 127.0.0.1)
//   --port P           server port                 (required)
//   --rate R           requests per second         (default 50)
//   --duration S       run length, seconds         (default 2)
//   --connections C    parallel connections        (default 4)
//   --designs A,B,C    corpus designs: registry specs, fixed or parametric
//                      ("counter", "cascade(3)"); validated and
//                      canonicalized through the scenario registry before
//                      any request is sent (default counter,
//                      moving_average,delay). The special value @catalog
//                      asks the server for its smoke catalog over the wire
//                      ({"op":"catalog"}) and uses that as the design list.
//   --kinds A,B        corpus job kinds: sim|lint  (default sim,lint)
//   --corpus FILE      replay a scenario corpus file instead of the
//                      designs x kinds grid: one "<kind> <spec>" pair per
//                      line (kind sim|lint, spec a registry design spec),
//                      '#' comments and blank lines ignored
//   --seed S           sim seed (fixed per request so replays hit the
//                      cache; default 1)
//   --t-end T          sim horizon                 (default 3)
//   --omega W          sim volume scale            (default 200)
//   --json PATH        write the report ( - = stdout)
//
// The corpus is cycled in order, so any run longer than one cycle
// resubmits byte-identical requests and must produce server cache hits;
// the final report embeds the server's stats payload for exactly that
// kind of assertion.
//
// Connections are opened with bounded retry (serve::connect_with_retry):
// scripts that launch the loadgen the instant the server's --port-file
// appears no longer race the listener coming up, while a genuinely absent
// server still fails within a couple of seconds.
//
// Exit codes:
//   0  every request answered ok
//   1  any overload rejection, error response, or transport failure
//   2  bad CLI usage
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "runtime/batch.hpp"
#include "runtime/ensemble.hpp"
#include "scenario/registry.hpp"
#include "serve/dispatcher.hpp"
#include "serve/protocol.hpp"
#include "tools/cli_flags.hpp"
#include "util/json.hpp"

namespace {

using namespace mrsc;

using tools::parse_u64;
using tools::write_file;
constexpr char kTool[] = "mrsc_loadgen";
using Clock = std::chrono::steady_clock;
using util::json::Value;

struct CliOptions {
  std::string host = "127.0.0.1";
  int port = -1;
  double rate = 50.0;
  double duration = 2.0;
  std::size_t connections = 4;
  std::vector<std::string> designs = {"counter", "moving_average", "delay"};
  std::vector<std::string> kinds = {"sim", "lint"};
  std::string corpus_file;
  std::uint64_t seed = 1;
  double t_end = 3.0;
  double omega = 200.0;
  std::string json;
};

void usage() {
  std::fprintf(
      stderr,
      "usage: mrsc_loadgen --port P [--host A] [--rate R] [--duration S]\n"
      "       [--connections C] [--designs A,B,C] [--kinds sim,lint]\n"
      "       [--corpus FILE] [--seed S] [--t-end T] [--omega W]\n"
      "       [--json PATH]\n");
}

bool parse_cli(int argc, char** argv, CliOptions& options) {
  tools::FlagParser flags(kTool, {
      {"--host", options.host},
      {"--port",
       [&](const char* value) {
         std::uint64_t port = 0;
         if (!parse_u64(kTool, "--port", value, port) || port == 0 ||
             port > 65535) {
           std::fprintf(stderr, "mrsc_loadgen: --port must be 1..65535\n");
           return false;
         }
         options.port = static_cast<int>(port);
         return true;
       }},
      {"--rate", options.rate},
      {"--duration", options.duration},
      {"--connections", options.connections},
      {"--designs", options.designs},
      {"--kinds", options.kinds},
      {"--corpus", options.corpus_file},
      {"--seed", options.seed},
      {"--t-end", options.t_end},
      {"--omega", options.omega},
      {"--json", options.json},
  });
  flags.usage_on_unknown(usage);
  if (!flags.parse(argc, argv)) return false;
  if (options.connections == 0) {
    std::fprintf(stderr, "mrsc_loadgen: --connections must be >= 1\n");
    return false;
  }
  if (options.port < 0) {
    usage();
    return false;
  }
  if (!(options.rate > 0.0) || !(options.duration > 0.0) ||
      !(options.t_end > 0.0) || options.omega < 1.0) {
    std::fprintf(stderr,
                 "mrsc_loadgen: --rate, --duration, --t-end must be > 0 and "
                 "--omega >= 1\n");
    return false;
  }
  if (options.designs.empty() || options.kinds.empty()) {
    std::fprintf(stderr,
                 "mrsc_loadgen: --designs and --kinds must be non-empty\n");
    return false;
  }
  for (const std::string& kind : options.kinds) {
    if (kind != "sim" && kind != "lint") {
      std::fprintf(stderr,
                   "mrsc_loadgen: --kinds must be drawn from sim,lint\n");
      return false;
    }
  }
  return true;
}

/// One corpus entry: a job kind plus the registry design spec it targets.
struct CorpusEntry {
  std::string kind;
  std::string design;
};

/// Parses a scenario corpus file: one "<kind> <spec>" per line, '#'
/// comments and blank lines ignored. Throws std::invalid_argument naming
/// the offending line, std::runtime_error when the file is unreadable.
std::vector<CorpusEntry> load_corpus_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read corpus file " + path);
  std::vector<CorpusEntry> entries;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    const std::size_t last = line.find_last_not_of(" \t\r");
    line = line.substr(first, last - first + 1);
    const std::size_t space = line.find_first_of(" \t");
    if (space == std::string::npos) {
      throw std::invalid_argument(path + ": line " +
                                  std::to_string(line_number) +
                                  ": expected '<kind> <spec>'");
    }
    CorpusEntry entry;
    entry.kind = line.substr(0, space);
    const std::size_t spec_start = line.find_first_not_of(" \t", space);
    entry.design = line.substr(spec_start);
    if (entry.kind != "sim" && entry.kind != "lint") {
      throw std::invalid_argument(
          path + ": line " + std::to_string(line_number) + ": kind '" +
          entry.kind + "' must be sim or lint");
    }
    entries.push_back(std::move(entry));
  }
  if (entries.empty()) {
    throw std::invalid_argument(path + ": corpus file has no entries");
  }
  return entries;
}

/// The replayable request corpus, fixed seeds/options, so cycle 2 onward
/// replays byte-identical requests.
std::vector<std::string> build_corpus(const std::vector<CorpusEntry>& entries,
                                      const CliOptions& options) {
  std::vector<std::string> corpus;
  for (const CorpusEntry& entry : entries) {
    Value request;
    request.set("op", Value("job"));
    request.set("kind", Value(entry.kind));
    request.set("design", Value(entry.design));
    if (entry.kind == "sim") {
      request.set("method", Value("nrm"));
      request.set("seed", Value(options.seed));
      request.set("t_end", Value(options.t_end));
      request.set("omega", Value(options.omega));
    } else {
      request.set("opt", Value(std::uint64_t{1}));
    }
    corpus.push_back(request.dump());
  }
  return corpus;
}

struct Tally {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t overload = 0;
  std::uint64_t errors = 0;
  std::vector<double> latencies_ms;
};

/// Resolves `--designs @catalog`: asks the server for its smoke catalog
/// over the wire so the corpus can be discovered without consulting the
/// local registry. Throws on transport failure or a malformed response.
std::vector<std::string> fetch_catalog_designs(const CliOptions& options) {
  serve::Client client(serve::connect_with_retry(
      options.host, static_cast<std::uint16_t>(options.port)));
  const util::json::Value response = client.request(R"({"op":"catalog"})");
  if (response.get_string("status", "") != "ok") {
    throw std::runtime_error("catalog op failed: " + response.dump());
  }
  const util::json::Value* smoke = response.find("smoke");
  if (smoke == nullptr ||
      smoke->type() != util::json::Value::Type::kArray) {
    throw std::runtime_error("catalog response has no smoke array");
  }
  std::vector<std::string> designs;
  designs.reserve(smoke->as_array().size());
  for (const util::json::Value& spec : smoke->as_array()) {
    designs.push_back(spec.as_string());
  }
  if (designs.empty()) {
    throw std::runtime_error("catalog smoke list is empty");
  }
  return designs;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  if (!parse_cli(argc, argv, cli)) return 2;

  // Assemble the corpus entries (from --corpus or the designs x kinds
  // grid), then validate and canonicalize every spec through the registry
  // before a single request leaves: a typo'd design is bad usage here, not
  // a stream of server-side error responses.
  if (cli.designs.size() == 1 && cli.designs[0] == "@catalog") {
    try {
      cli.designs = fetch_catalog_designs(cli);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "mrsc_loadgen: %s\n", error.what());
      return 1;
    }
  }

  std::vector<CorpusEntry> entries;
  if (!cli.corpus_file.empty()) {
    try {
      entries = load_corpus_file(cli.corpus_file);
    } catch (const std::exception& error) {
      return tools::exit_code(kTool, error);
    }
  } else {
    for (const std::string& design : cli.designs) {
      for (const std::string& kind : cli.kinds) {
        entries.push_back({kind, design});
      }
    }
  }
  for (CorpusEntry& entry : entries) {
    try {
      entry.design =
          scenario::ScenarioRegistry::global().canonicalize(entry.design);
    } catch (const std::invalid_argument& error) {
      std::fprintf(stderr, "mrsc_loadgen: %s\n", error.what());
      return 2;
    }
  }

  const std::vector<std::string> corpus = build_corpus(entries, cli);
  const auto total_requests = static_cast<std::uint64_t>(
      std::floor(cli.rate * cli.duration));
  if (total_requests == 0) {
    std::fprintf(stderr,
                 "mrsc_loadgen: rate x duration yields zero requests\n");
    return 2;
  }

  std::atomic<std::uint64_t> next_index{0};
  std::mutex tally_mutex;
  Tally tally;
  const Clock::time_point start = Clock::now();

  // One index per connection, each on its own thread of the fan-out loop.
  auto connection = [&](std::size_t) {
    util::json::Value parsed;
    Tally local;
    try {
      serve::Client client(serve::connect_with_retry(
          cli.host, static_cast<std::uint16_t>(cli.port)));
      while (true) {
        const std::uint64_t i = next_index.fetch_add(1);
        if (i >= total_requests) break;
        // Open-loop pacing: request i is *due* at start + i/rate no matter
        // what; a late pickup is measured, not skipped.
        const Clock::time_point scheduled =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            static_cast<double>(i) / cli.rate));
        std::this_thread::sleep_until(scheduled);
        const std::string& request = corpus[i % corpus.size()];
        ++local.sent;
        const std::string response = client.request_raw(request);
        const double latency_ms =
            std::chrono::duration<double, std::milli>(Clock::now() -
                                                      scheduled)
                .count();
        local.latencies_ms.push_back(latency_ms);
        parsed = util::json::parse(response);
        const std::string status = parsed.get_string("status", "");
        if (status == "ok") {
          ++local.ok;
        } else if (status == "rejected") {
          ++local.overload;
        } else {
          ++local.errors;
        }
      }
    } catch (const std::exception& error) {
      // Transport/parse failure: this connection is done; count one error
      // (the request that died) and surface the reason once.
      ++local.errors;
      std::fprintf(stderr, "mrsc_loadgen: connection failed: %s\n",
                   error.what());
    }
    std::lock_guard lock(tally_mutex);
    tally.sent += local.sent;
    tally.ok += local.ok;
    tally.overload += local.overload;
    tally.errors += local.errors;
    tally.latencies_ms.insert(tally.latencies_ms.end(),
                              local.latencies_ms.begin(),
                              local.latencies_ms.end());
  };

  runtime::BatchRunner({.threads = cli.connections})
      .for_each_index(cli.connections, connection);
  const double wall =
      std::chrono::duration<double>(Clock::now() - start).count();

  // Pull the server's stats payload so the report carries queue depth,
  // cache hit/miss counters, and server-side latency histograms.
  Value server_stats;
  try {
    serve::Client client(serve::connect_with_retry(
        cli.host, static_cast<std::uint16_t>(cli.port)));
    server_stats = client.request(R"({"op":"stats"})");
  } catch (const std::exception& error) {
    std::fprintf(stderr, "mrsc_loadgen: stats fetch failed: %s\n",
                 error.what());
  }

  std::vector<double>& lat = tally.latencies_ms;
  std::sort(lat.begin(), lat.end());
  const double mean =
      lat.empty() ? 0.0
                  : std::accumulate(lat.begin(), lat.end(), 0.0) /
                        static_cast<double>(lat.size());
  const double p50 = runtime::quantile_sorted(lat, 0.50);
  const double p90 = runtime::quantile_sorted(lat, 0.90);
  const double p99 = runtime::quantile_sorted(lat, 0.99);
  const double achieved =
      wall > 0.0 ? static_cast<double>(tally.sent) / wall : 0.0;

  std::printf(
      "loadgen: %llu requests over %.2fs (target %.1f rps, achieved %.1f "
      "rps) on %zu connection(s)\n"
      "         %llu ok, %llu overload-rejected, %llu errors\n"
      "         latency p50 %.3fms p90 %.3fms p99 %.3fms mean %.3fms "
      "(open-loop, from scheduled start)\n",
      static_cast<unsigned long long>(tally.sent), wall, cli.rate, achieved,
      cli.connections, static_cast<unsigned long long>(tally.ok),
      static_cast<unsigned long long>(tally.overload),
      static_cast<unsigned long long>(tally.errors), p50, p90, p99, mean);

  if (!cli.json.empty()) {
    Value latency;
    latency.set("p50", Value(p50));
    latency.set("p90", Value(p90));
    latency.set("p99", Value(p99));
    latency.set("mean", Value(mean));
    latency.set("max", Value(lat.empty() ? 0.0 : lat.back()));
    Value json;
    json.set("rate_target", Value(cli.rate));
    json.set("rate_achieved", Value(achieved));
    json.set("duration_seconds", Value(wall));
    json.set("connections", Value(std::uint64_t{cli.connections}));
    json.set("corpus_size", Value(std::uint64_t{corpus.size()}));
    json.set("requests", Value(tally.sent));
    json.set("ok", Value(tally.ok));
    json.set("overload", Value(tally.overload));
    json.set("errors", Value(tally.errors));
    json.set("latency_ms", std::move(latency));
    json.set("server", std::move(server_stats));
    if (!write_file(kTool, cli.json, json.dump() + "\n", "report")) return 1;
  }

  return tally.errors == 0 && tally.overload == 0 && tally.sent > 0 ? 0 : 1;
}
