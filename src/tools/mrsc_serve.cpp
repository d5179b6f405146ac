// mrsc_serve — long-running simulation service over the length-prefixed
// JSON protocol (docs/SERVE.md).
//
//   mrsc_serve [options]
//
//   --host A           IPv4 address to bind        (default 127.0.0.1)
//   --port P           TCP port; 0 = ephemeral     (default 0)
//   --port-file PATH   write the bound port to PATH (for scripts/CI that
//                      start the server on an ephemeral port)
//   --workers N        jobs run at once            (default: hardware)
//   --queue N          admitted jobs waiting beyond the running ones before
//                      requests are rejected with "overload" (default 64)
//   --cache N          result-cache capacity, entries; 0 disables (default 256)
//   --cache-mb MB      result-cache capacity, payload megabytes (default 64)
//   --max-conns N      concurrent client connections (default 64)
//   --shard-id S       operator-assigned shard name echoed by the
//                      stats/health ops (fleet deployments; default "")
//
// The server runs until SIGTERM/SIGINT, then shuts down cooperatively
// (in-flight jobs are cancelled at their next poll point) and prints the
// final stats payload so every run ends with a machine-readable summary.
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

#include "serve/server.hpp"
#include "tools/cli_flags.hpp"

namespace {

using namespace mrsc;

using tools::need_value;
using tools::parse_mebibytes;
using tools::parse_u64;
using tools::write_file;
constexpr char kTool[] = "mrsc_serve";

volatile std::sig_atomic_t g_signal = 0;

void handle_signal(int signum) { g_signal = signum; }

struct CliOptions {
  serve::ServerOptions server;
  std::string port_file;
};

void usage() {
  std::fprintf(stderr,
               "usage: mrsc_serve [--host A] [--port P] [--port-file PATH]\n"
               "       [--workers N] [--queue N] [--cache N] [--cache-mb MB]\n"
               "       [--max-conns N] [--shard-id S]\n");
}

bool parse_cli(int argc, char** argv, CliOptions& options) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = need_value(kTool, argc, argv, i);
    if (value == nullptr) return false;
    std::uint64_t number = 0;
    if (std::strcmp(arg, "--host") == 0) {
      options.server.host = value;
    } else if (std::strcmp(arg, "--port") == 0) {
      if (!parse_u64(kTool, arg, value, number) || number > 65535) return false;
      options.server.port = static_cast<std::uint16_t>(number);
    } else if (std::strcmp(arg, "--port-file") == 0) {
      options.port_file = value;
    } else if (std::strcmp(arg, "--workers") == 0) {
      if (!parse_u64(kTool, arg, value, number)) return false;
      options.server.workers = static_cast<std::size_t>(number);
    } else if (std::strcmp(arg, "--queue") == 0) {
      if (!parse_u64(kTool, arg, value, number)) return false;
      options.server.queue_capacity = static_cast<std::size_t>(number);
    } else if (std::strcmp(arg, "--cache") == 0) {
      if (!parse_u64(kTool, arg, value, number)) return false;
      options.server.cache_entries = static_cast<std::size_t>(number);
    } else if (std::strcmp(arg, "--cache-mb") == 0) {
      if (!parse_mebibytes(kTool, arg, value, options.server.cache_bytes)) {
        return false;
      }
    } else if (std::strcmp(arg, "--max-conns") == 0) {
      if (!parse_u64(kTool, arg, value, number) || number == 0) return false;
      options.server.max_connections = static_cast<std::size_t>(number);
    } else if (std::strcmp(arg, "--shard-id") == 0) {
      options.server.shard_id = value;
    } else {
      std::fprintf(stderr, "mrsc_serve: unknown option %s\n", arg);
      usage();
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  if (!parse_cli(argc, argv, cli)) return 2;
  try {
    serve::Server server(cli.server);
    server.start();
    std::printf("mrsc_serve: listening on %s:%u (workers=%zu queue=%zu "
                "cache=%zu)\n",
                cli.server.host.c_str(), server.port(),
                server.workers(),
                cli.server.queue_capacity, cli.server.cache_entries);
    std::fflush(stdout);
    if (!cli.port_file.empty() &&
        !write_file(kTool, cli.port_file,
                    std::to_string(server.port()) + "\n")) {
      return 1;
    }

    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    while (g_signal == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    std::printf("mrsc_serve: signal %d, shutting down\n",
                static_cast<int>(g_signal));
    server.stop();
    std::printf("%s\n", server.stats_payload().c_str());
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "mrsc_serve: %s\n", error.what());
    return 1;
  }
}
