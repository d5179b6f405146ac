// mrsc_fleet — distributor CLI: shards fleet-level work across running
// mrsc_serve processes and writes one deterministic merged report
// (docs/FLEET.md).
//
//   mrsc_fleet --shards P1,P2,... [options]
//
//   --shards LIST      comma-separated shard addresses, each "PORT" or
//                      "HOST:PORT" (required)
//   --mode M           ensemble | sweep | catalog | drain  (default ensemble)
//
// Work unit (ensemble / sweep):
//   --design D         registry design spec            (default counter)
//   --replicates N     ensemble replicates             (default 8)
//   --seed S           base seed; slice i uses stream_seed(S, i) (default 1)
//   --method M         sim method                      (default nrm)
//   --t-end T          sim horizon                     (default 3)
//   --omega W          ensemble volume scale           (default 200)
//   --omegas W1,W2,..  sweep points (sweep mode; required there)
//   --record R         sampling interval; 0 = server default (default 0)
//   --opt L            compile level 0|1               (default 0)
//
// Resilience policy:
//   --timeout-ms MS    per-attempt timeout             (default 10000)
//   --attempts N       attempts per slice              (default 4)
//   --hedge-ms MS      hedge delay; 0 disables        (default 0)
//   --backoff-base-ms MS / --backoff-cap-ms MS / --jitter-seed S
//                      backoff schedule (defaults 10 / 500 / 1)
//   --concurrency N    in-flight slices; 0 = 2/shard  (default 0)
//
//   --json PATH        write the merged report ( - = stdout). The report is
//                      byte-identical at any shard count and under any
//                      fault pattern that still lets every slice succeed;
//                      transport diagnostics go to stdout instead.
//
// Exit codes:
//   0  merged report produced (or catalog/drain answered)
//   1  fleet-level failure (a slice exhausted its attempts, shard down)
//   2  bad CLI usage (including specs the local registry rejects)
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "fleet/fleet.hpp"
#include "tools/cli_flags.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace {

using namespace mrsc;

using tools::need_value;
using tools::parse_double;
using tools::parse_u64;
using tools::write_file;
constexpr char kTool[] = "mrsc_fleet";

struct CliOptions {
  fleet::FleetOptions fleet;
  std::string mode = "ensemble";
  fleet::EnsembleSpec ensemble;
  std::vector<double> omegas;
  std::string json;
};

void usage() {
  std::fprintf(
      stderr,
      "usage: mrsc_fleet --shards P1,P2,... [--mode ensemble|sweep|catalog|"
      "drain]\n"
      "       [--design D] [--replicates N] [--seed S] [--method M]\n"
      "       [--t-end T] [--omega W] [--omegas W1,W2,...] [--record R]\n"
      "       [--opt 0|1] [--timeout-ms MS] [--attempts N] [--hedge-ms MS]\n"
      "       [--backoff-base-ms MS] [--backoff-cap-ms MS] [--jitter-seed S]\n"
      "       [--concurrency N] [--json PATH]\n");
}

bool parse_shards(const std::string& list,
                  std::vector<fleet::Endpoint>& shards) {
  for (const std::string& entry : util::split_commas(list)) {
    fleet::Endpoint endpoint;
    std::string port_text = entry;
    const std::size_t colon = entry.rfind(':');
    if (colon != std::string::npos) {
      endpoint.host = entry.substr(0, colon);
      port_text = entry.substr(colon + 1);
    }
    std::uint64_t port = 0;
    if (!parse_u64(kTool, "--shards", port_text.c_str(), port) || port == 0 ||
        port > 65535 || endpoint.host.empty()) {
      std::fprintf(stderr,
                   "mrsc_fleet: --shards entry '%s' must be PORT or "
                   "HOST:PORT\n",
                   entry.c_str());
      return false;
    }
    endpoint.port = static_cast<std::uint16_t>(port);
    shards.push_back(std::move(endpoint));
  }
  if (shards.empty()) {
    std::fprintf(stderr, "mrsc_fleet: --shards must be non-empty\n");
    return false;
  }
  return true;
}

bool parse_cli(int argc, char** argv, CliOptions& options) {
  std::string omegas_text;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = need_value(kTool, argc, argv, i);
    if (value == nullptr) return false;
    std::uint64_t number = 0;
    if (std::strcmp(arg, "--shards") == 0) {
      if (!parse_shards(value, options.fleet.shards)) return false;
    } else if (std::strcmp(arg, "--mode") == 0) {
      options.mode = value;
    } else if (std::strcmp(arg, "--design") == 0) {
      options.ensemble.design = value;
    } else if (std::strcmp(arg, "--replicates") == 0) {
      if (!parse_u64(kTool, arg, value, number) || number == 0) return false;
      options.ensemble.replicates = static_cast<std::size_t>(number);
    } else if (std::strcmp(arg, "--seed") == 0) {
      if (!parse_u64(kTool, arg, value, options.ensemble.base_seed)) {
        return false;
      }
    } else if (std::strcmp(arg, "--method") == 0) {
      options.ensemble.method = value;
    } else if (std::strcmp(arg, "--t-end") == 0) {
      if (!parse_double(kTool, arg, value, options.ensemble.t_end)) {
        return false;
      }
    } else if (std::strcmp(arg, "--omega") == 0) {
      if (!parse_double(kTool, arg, value, options.ensemble.omega)) {
        return false;
      }
    } else if (std::strcmp(arg, "--omegas") == 0) {
      omegas_text = value;
    } else if (std::strcmp(arg, "--record") == 0) {
      if (!parse_double(kTool, arg, value, options.ensemble.record)) {
        return false;
      }
    } else if (std::strcmp(arg, "--opt") == 0) {
      if (!parse_u64(kTool, arg, value, number) || number > 1) return false;
      options.ensemble.opt = static_cast<int>(number);
    } else if (std::strcmp(arg, "--timeout-ms") == 0) {
      if (!parse_double(kTool, arg, value, options.fleet.request_timeout_ms)) {
        return false;
      }
    } else if (std::strcmp(arg, "--attempts") == 0) {
      if (!parse_u64(kTool, arg, value, number) || number == 0) return false;
      options.fleet.max_attempts = static_cast<std::size_t>(number);
    } else if (std::strcmp(arg, "--hedge-ms") == 0) {
      if (!parse_double(kTool, arg, value, options.fleet.hedge_ms)) {
        return false;
      }
    } else if (std::strcmp(arg, "--backoff-base-ms") == 0) {
      if (!parse_double(kTool, arg, value, options.fleet.backoff.base_ms)) {
        return false;
      }
    } else if (std::strcmp(arg, "--backoff-cap-ms") == 0) {
      if (!parse_double(kTool, arg, value, options.fleet.backoff.cap_ms)) {
        return false;
      }
    } else if (std::strcmp(arg, "--jitter-seed") == 0) {
      if (!parse_u64(kTool, arg, value, options.fleet.backoff.jitter_seed)) {
        return false;
      }
    } else if (std::strcmp(arg, "--concurrency") == 0) {
      if (!parse_u64(kTool, arg, value, number)) return false;
      options.fleet.concurrency = static_cast<std::size_t>(number);
    } else if (std::strcmp(arg, "--json") == 0) {
      options.json = value;
    } else {
      std::fprintf(stderr, "mrsc_fleet: unknown option %s\n", arg);
      usage();
      return false;
    }
  }
  if (options.fleet.shards.empty()) {
    usage();
    return false;
  }
  if (options.mode != "ensemble" && options.mode != "sweep" &&
      options.mode != "catalog" && options.mode != "drain") {
    std::fprintf(stderr,
                 "mrsc_fleet: --mode must be ensemble|sweep|catalog|drain\n");
    return false;
  }
  if (!omegas_text.empty()) {
    for (const std::string& point : util::split_commas(omegas_text)) {
      double omega = 0.0;
      if (!parse_double(kTool, "--omegas", point.c_str(), omega)) return false;
      options.omegas.push_back(omega);
    }
  }
  if (options.mode == "sweep" && options.omegas.empty()) {
    std::fprintf(stderr, "mrsc_fleet: sweep mode needs --omegas\n");
    return false;
  }
  return true;
}

void print_diagnostics(const fleet::FleetClient& client) {
  const fleet::FleetCounters counters = client.counters();
  std::printf(
      "fleet: %llu attempt(s), %llu retried, %llu hedged, %llu rejected, "
      "%llu failed, %llu timed out, %llu probe(s)\n",
      static_cast<unsigned long long>(counters.attempts),
      static_cast<unsigned long long>(counters.retries),
      static_cast<unsigned long long>(counters.hedges),
      static_cast<unsigned long long>(counters.rejections),
      static_cast<unsigned long long>(counters.failures),
      static_cast<unsigned long long>(counters.timeouts),
      static_cast<unsigned long long>(counters.probes));
  for (std::size_t s = 0; s < client.shard_count(); ++s) {
    std::printf("fleet: shard %zu is %s\n", s,
                to_string(client.shard_state(s)));
  }
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  if (!parse_cli(argc, argv, cli)) return 2;
  try {
    fleet::FleetClient client(cli.fleet);
    std::string report;
    if (cli.mode == "ensemble") {
      report = fleet::run_ensemble(client, cli.ensemble);
    } else if (cli.mode == "sweep") {
      fleet::SweepSpec sweep;
      sweep.design = cli.ensemble.design;
      sweep.omegas = cli.omegas;
      sweep.base_seed = cli.ensemble.base_seed;
      sweep.method = cli.ensemble.method;
      sweep.t_end = cli.ensemble.t_end;
      sweep.record = cli.ensemble.record;
      sweep.opt = cli.ensemble.opt;
      report = fleet::run_sweep(client, sweep);
    } else if (cli.mode == "catalog") {
      report = fleet::fetch_catalog(client);
    } else {
      // drain: flip every shard; the "report" lists the per-shard answers
      // in shard order.
      util::json::Value answers;
      answers.make_array();
      for (const std::string& answer :
           client.request_all(R"({"op":"drain"})")) {
        answers.array().push_back(util::json::parse(answer));
      }
      report = answers.dump();
    }
    print_diagnostics(client);
    if (!write_file(kTool, cli.json.empty() ? "-" : cli.json, report + "\n",
                    "report")) {
      return 1;
    }
    return 0;
  } catch (const std::invalid_argument& error) {
    // Specs the local registry/validator rejects are bad usage, same
    // contract as the other CLIs.
    std::fprintf(stderr, "mrsc_fleet: %s\n", error.what());
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "mrsc_fleet: %s\n", error.what());
    return 1;
  }
}
