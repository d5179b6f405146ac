// mrsc_chaosproxy — fault-injecting TCP proxy for chaos-testing the fleet
// (src/fleet/chaos_proxy.hpp; usage in docs/FLEET.md).
//
//   mrsc_chaosproxy --upstream-port P [options]
//
//   --upstream-port P  shard to proxy to (required)
//   --upstream-host A  shard address               (default 127.0.0.1)
//   --listen-host A    address to bind             (default 127.0.0.1)
//   --listen-port P    port to bind; 0 = ephemeral (default 0)
//   --port-file PATH   write the bound port to PATH
//   --seed S           fault-schedule seed         (default 1)
//   --drop X           P(close on accept)          (default 0)
//   --delay X          P(delay the response)       (default 0)
//   --delay-ms MS      delay length                (default 50)
//   --truncate X       P(cut the response mid-frame) (default 0)
//   --blackhole X      P(swallow everything, hold the connection) (default 0)
//
// Connection k (accept order) draws its fault from Rng(stream_seed(seed,k)),
// so a given (seed, probabilities) pair is a replayable fault schedule.
// Runs until SIGTERM/SIGINT.
//
// Exit codes:
//   0  clean shutdown on signal
//   1  runtime error (bind failure, unwritable --port-file)
//   2  bad CLI usage
#include <csignal>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "fleet/chaos_proxy.hpp"
#include "tools/cli_flags.hpp"

namespace {

using namespace mrsc;

using tools::write_file;
constexpr char kTool[] = "mrsc_chaosproxy";

volatile std::sig_atomic_t g_signal = 0;

void handle_signal(int signum) { g_signal = signum; }

struct CliOptions {
  fleet::Endpoint upstream;
  std::string listen_host = "127.0.0.1";
  std::uint16_t listen_port = 0;
  std::string port_file;
  std::uint64_t seed = 1;
  fleet::ChaosFaults faults;
};

void usage() {
  std::fprintf(
      stderr,
      "usage: mrsc_chaosproxy --upstream-port P [--upstream-host A]\n"
      "       [--listen-host A] [--listen-port P] [--port-file PATH]\n"
      "       [--seed S] [--drop X] [--delay X] [--delay-ms MS]\n"
      "       [--truncate X] [--blackhole X]\n");
}

bool parse_cli(int argc, char** argv, CliOptions& options) {
  fleet::ChaosFaults& faults = options.faults;
  std::uint64_t upstream_port = 0;
  std::uint64_t listen_port = 0;
  tools::FlagParser flags(kTool, {
      {"--upstream-port", upstream_port},
      {"--upstream-host", options.upstream.host},
      {"--listen-host", options.listen_host},
      {"--listen-port", listen_port},
      {"--port-file", options.port_file},
      {"--seed", options.seed},
      {"--drop", faults.drop},
      {"--delay", faults.delay},
      {"--delay-ms", faults.delay_ms},
      {"--truncate", faults.truncate},
      {"--blackhole", faults.blackhole},
  });
  flags.usage_on_unknown(usage);
  if (!flags.parse(argc, argv)) return false;
  for (const auto& [flag, probability] :
       {std::pair{"--drop", faults.drop}, std::pair{"--delay", faults.delay},
        std::pair{"--truncate", faults.truncate},
        std::pair{"--blackhole", faults.blackhole}}) {
    if (probability < 0.0 || probability > 1.0) {
      std::fprintf(stderr, "mrsc_chaosproxy: %s must be in [0, 1]\n", flag);
      return false;
    }
  }
  if (!flags.given().contains("--upstream-port")) {
    usage();
    return false;
  }
  if (upstream_port == 0 || upstream_port > 65535) {
    std::fprintf(stderr,
                 "mrsc_chaosproxy: --upstream-port must be 1..65535\n");
    return false;
  }
  if (listen_port > 65535) {
    std::fprintf(stderr, "mrsc_chaosproxy: --listen-port must be 0..65535\n");
    return false;
  }
  options.upstream.port = static_cast<std::uint16_t>(upstream_port);
  options.listen_port = static_cast<std::uint16_t>(listen_port);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  if (!parse_cli(argc, argv, cli)) return 2;
  try {
    fleet::ChaosProxy proxy(cli.upstream, cli.faults, cli.seed);
    proxy.start(cli.listen_host, cli.listen_port);
    std::printf(
        "mrsc_chaosproxy: %s:%u -> %s:%u (seed=%llu drop=%.2f delay=%.2f "
        "truncate=%.2f blackhole=%.2f)\n",
        cli.listen_host.c_str(), proxy.port(), cli.upstream.host.c_str(),
        cli.upstream.port, static_cast<unsigned long long>(cli.seed),
        cli.faults.drop, cli.faults.delay, cli.faults.truncate,
        cli.faults.blackhole);
    std::fflush(stdout);
    if (!cli.port_file.empty() &&
        !write_file(kTool, cli.port_file,
                    std::to_string(proxy.port()) + "\n")) {
      return 1;
    }

    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    while (g_signal == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    std::printf("mrsc_chaosproxy: signal %d, %llu connection(s) proxied\n",
                static_cast<int>(g_signal),
                static_cast<unsigned long long>(proxy.connections()));
    proxy.stop();
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "mrsc_chaosproxy: %s\n", error.what());
    return 1;
  }
}
