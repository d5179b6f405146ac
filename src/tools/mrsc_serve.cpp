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
#include <stdexcept>
#include <string>
#include <thread>

#include "serve/server.hpp"
#include "tools/cli_flags.hpp"

namespace {

using namespace mrsc;

using tools::parse_mebibytes;
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
  serve::ServerOptions& server = options.server;
  std::uint64_t port = server.port;
  tools::FlagParser flags(kTool, {
      {"--host", server.host},
      {"--port", port},
      {"--port-file", options.port_file},
      {"--workers", server.workers},
      {"--queue", server.queue_capacity},
      {"--cache", server.cache_entries},
      {"--cache-mb",
       [&](const char* value) {
         return parse_mebibytes(kTool, "--cache-mb", value,
                                server.cache_bytes);
       }},
      {"--max-conns", server.max_connections},
      {"--shard-id", server.shard_id},
  });
  flags.usage_on_unknown(usage);
  if (!flags.parse(argc, argv)) return false;
  if (port > 65535) {
    std::fprintf(stderr, "mrsc_serve: --port must be 0..65535\n");
    return false;
  }
  if (server.max_connections == 0) {
    std::fprintf(stderr, "mrsc_serve: --max-conns must be >= 1\n");
    return false;
  }
  server.port = static_cast<std::uint16_t>(port);
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
