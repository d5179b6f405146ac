// Wire protocol for the simulation service: length-prefixed JSON frames.
//
// One frame = a 4-byte big-endian unsigned payload length followed by that
// many bytes of UTF-8 JSON. Requests and responses are single frames; a
// connection carries any number of request/response pairs, strictly in
// order (no pipelining ids — a client that wants concurrency opens more
// connections, which is also what the load generator does). The full
// request/response schema lives in docs/SERVE.md.
//
// This header also carries the small POSIX socket layer: everything the
// server, the client class, and the load generator need, so no other file
// touches <sys/socket.h>.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "serve/json.hpp"  // serve::json alias kept for perfbench/
#include "util/json.hpp"

namespace mrsc::serve {

/// Frames larger than this are a protocol error on both sides (a lint
/// report for the biggest builtin design is ~10 KiB; 16 MiB is headroom,
/// not a target).
constexpr std::uint32_t kMaxFrameBytes = 16u << 20;

/// A framing violation on one connection: a peer that closed mid-frame, an
/// oversized or garbage length prefix, or a send into a vanished peer. The
/// server catches this per connection (drops that connection, counts it in
/// `requests.connection_errors`, keeps accepting); it must never tear down
/// the accept loop.
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// RAII socket fd. Closes on destruction; movable, not copyable.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  [[nodiscard]] int fd() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  /// shutdown(SHUT_RDWR): unblocks a peer thread stuck in read/write
  /// without racing fd reuse the way close() would.
  void shutdown_both() const;
  /// shutdown(SHUT_RD): a peer thread blocked in read sees EOF, and the
  /// write side stays open.
  void shutdown_read() const;
  void close();

 private:
  int fd_ = -1;
};

/// Binds and listens on host:port (port 0 picks an ephemeral port).
/// `bound_port` receives the actual port. Throws std::runtime_error.
[[nodiscard]] Socket listen_on(const std::string& host, std::uint16_t port,
                               std::uint16_t& bound_port);

/// Blocking connect. Throws std::runtime_error on failure.
[[nodiscard]] Socket connect_to(const std::string& host, std::uint16_t port);

/// connect_to with bounded retries: attempt k sleeps
/// min(initial_backoff_ms * 2^k, 400 ms) before trying again. Absorbs the
/// startup race where a client launches the instant a server's --port-file
/// appears but before its listener accepts (loaded CI runners); a server
/// that is genuinely absent still fails, after roughly two seconds at the
/// defaults. Throws the final connect error.
[[nodiscard]] Socket connect_with_retry(const std::string& host,
                                        std::uint16_t port,
                                        std::size_t attempts = 8,
                                        double initial_backoff_ms = 25.0);

/// Blocking accept. Returns an invalid Socket once the listener has been
/// shut down or closed — the server's accept loop treats that as "stop".
[[nodiscard]] Socket accept_on(int listener_fd);

/// Writes one frame as one sendmsg of prefix and payload, looping over
/// partial writes. Throws std::runtime_error on a closed/failed socket or an
/// oversized payload.
void write_frame(int fd, const std::string& payload);

/// The payload length a frame's 4-byte big-endian prefix at `header`
/// announces. Throws ProtocolError ("oversized frame (N bytes)") above
/// kMaxFrameBytes. The one decoder of the prefix: read_frame and the fleet's
/// non-blocking reader both call it.
[[nodiscard]] std::uint32_t frame_length(const char* header);

/// Reads one frame. Returns false on clean EOF at a frame boundary; throws
/// std::runtime_error on mid-frame EOF, socket errors, or oversized lengths.
/// Polls the socket for a short fixed window (kPollWindow in protocol.cpp)
/// before it blocks; docs/SERVE.md, "Waiting for a frame", says why.
[[nodiscard]] bool read_frame(int fd, std::string& payload);

/// Convenience synchronous client: one connection, request/response.
class Client {
 public:
  Client(const std::string& host, std::uint16_t port)
      : socket_(connect_to(host, port)) {}

  /// Wraps an already-connected socket (e.g. from connect_with_retry).
  explicit Client(Socket socket) : socket_(std::move(socket)) {}

  /// Sends `payload` and returns the raw response bytes (the byte-identical
  /// contract is asserted on this form).
  std::string request_raw(const std::string& payload);

  /// request_raw + parse.
  util::json::Value request(const std::string& payload);

 private:
  Socket socket_;
};

}  // namespace mrsc::serve
