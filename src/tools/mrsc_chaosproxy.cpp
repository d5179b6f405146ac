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
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>

#include "fleet/chaos_proxy.hpp"
#include "tools/cli_flags.hpp"

namespace {

using namespace mrsc;

using tools::need_value;
using tools::parse_double;
using tools::parse_u64;
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

bool parse_probability(const char* flag, const char* text, double& out) {
  if (!parse_double(kTool, flag, text, out)) return false;
  if (out < 0.0 || out > 1.0) {
    std::fprintf(stderr, "mrsc_chaosproxy: %s must be in [0, 1]\n", flag);
    return false;
  }
  return true;
}

bool parse_cli(int argc, char** argv, CliOptions& options) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = need_value(kTool, argc, argv, i);
    if (value == nullptr) return false;
    std::uint64_t number = 0;
    if (std::strcmp(arg, "--upstream-port") == 0) {
      if (!parse_u64(kTool, arg, value, number) ||
          number == 0 || number > 65535) {
        return false;
      }
      options.upstream.port = static_cast<std::uint16_t>(number);
    } else if (std::strcmp(arg, "--upstream-host") == 0) {
      options.upstream.host = value;
    } else if (std::strcmp(arg, "--listen-host") == 0) {
      options.listen_host = value;
    } else if (std::strcmp(arg, "--listen-port") == 0) {
      if (!parse_u64(kTool, arg, value, number) || number > 65535) return false;
      options.listen_port = static_cast<std::uint16_t>(number);
    } else if (std::strcmp(arg, "--port-file") == 0) {
      options.port_file = value;
    } else if (std::strcmp(arg, "--seed") == 0) {
      if (!parse_u64(kTool, arg, value, options.seed)) return false;
    } else if (std::strcmp(arg, "--drop") == 0) {
      if (!parse_probability(arg, value, options.faults.drop)) return false;
    } else if (std::strcmp(arg, "--delay") == 0) {
      if (!parse_probability(arg, value, options.faults.delay)) return false;
    } else if (std::strcmp(arg, "--delay-ms") == 0) {
      if (!parse_double(kTool, arg, value, options.faults.delay_ms)) {
        return false;
      }
    } else if (std::strcmp(arg, "--truncate") == 0) {
      if (!parse_probability(arg, value, options.faults.truncate)) {
        return false;
      }
    } else if (std::strcmp(arg, "--blackhole") == 0) {
      if (!parse_probability(arg, value, options.faults.blackhole)) {
        return false;
      }
    } else {
      std::fprintf(stderr, "mrsc_chaosproxy: unknown option %s\n", arg);
      usage();
      return false;
    }
  }
  if (options.upstream.port == 0) {
    usage();
    return false;
  }
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
