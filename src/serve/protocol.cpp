#include "serve/protocol.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

namespace mrsc::serve {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

sockaddr_in make_address(const std::string& host, std::uint16_t port) {
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &address.sin_addr) != 1) {
    throw std::runtime_error("bad IPv4 address '" + host + "'");
  }
  return address;
}

}  // namespace

Socket::~Socket() { close(); }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::shutdown_both() const {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::shutdown_read() const {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RD);
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Socket listen_on(const std::string& host, std::uint16_t port,
                 std::uint16_t& bound_port) {
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) throw_errno("socket");
  const int yes = 1;
  ::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &yes, sizeof yes);
  sockaddr_in address = make_address(host, port);
  if (::bind(sock.fd(), reinterpret_cast<sockaddr*>(&address),
             sizeof address) != 0) {
    throw_errno("bind " + host + ":" + std::to_string(port));
  }
  if (::listen(sock.fd(), 128) != 0) throw_errno("listen");
  socklen_t length = sizeof address;
  if (::getsockname(sock.fd(), reinterpret_cast<sockaddr*>(&address),
                    &length) != 0) {
    throw_errno("getsockname");
  }
  bound_port = ntohs(address.sin_port);
  return sock;
}

Socket connect_to(const std::string& host, std::uint16_t port) {
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) throw_errno("socket");
  const int yes = 1;
  ::setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &yes, sizeof yes);
  sockaddr_in address = make_address(host, port);
  if (::connect(sock.fd(), reinterpret_cast<sockaddr*>(&address),
                sizeof address) != 0) {
    throw_errno("connect " + host + ":" + std::to_string(port));
  }
  return sock;
}

Socket connect_with_retry(const std::string& host, std::uint16_t port,
                          std::size_t attempts, double initial_backoff_ms) {
  constexpr double kBackoffCapMs = 400.0;
  double backoff_ms = initial_backoff_ms;
  for (std::size_t attempt = 0;; ++attempt) {
    try {
      return connect_to(host, port);
    } catch (const std::runtime_error&) {
      if (attempt + 1 >= attempts) throw;
    }
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(backoff_ms));
    backoff_ms = std::min(backoff_ms * 2.0, kBackoffCapMs);
  }
}

Socket accept_on(int listener_fd) {
  while (true) {
    const int fd = ::accept(listener_fd, nullptr, nullptr);
    if (fd >= 0) {
      const int yes = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &yes, sizeof yes);
      return Socket(fd);
    }
    if (errno == EINTR) continue;
    return Socket();
  }
}

void write_frame(int fd, const std::string& payload) {
  if (payload.size() > kMaxFrameBytes) {
    throw ProtocolError("frame too large (" +
                        std::to_string(payload.size()) + " bytes)");
  }
  const auto length = static_cast<std::uint32_t>(payload.size());
  unsigned char header[4] = {
      static_cast<unsigned char>(length >> 24),
      static_cast<unsigned char>(length >> 16),
      static_cast<unsigned char>(length >> 8),
      static_cast<unsigned char>(length),
  };
  // Prefix and payload leave in one sendmsg, without copying the payload.
  iovec parts[2] = {{header, sizeof header},
                    {const_cast<char*>(payload.data()), payload.size()}};
  msghdr message{};
  message.msg_iov = parts;
  message.msg_iovlen = 2;
  while (message.msg_iovlen > 0) {
    const ssize_t n = ::sendmsg(fd, &message, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw ProtocolError(std::string("send: ") + std::strerror(errno));
    }
    // Step past what a partial write took.
    auto sent = static_cast<std::size_t>(n);
    while (message.msg_iovlen > 0 && sent >= message.msg_iov->iov_len) {
      sent -= message.msg_iov->iov_len;
      ++message.msg_iov;
      --message.msg_iovlen;
    }
    if (message.msg_iovlen > 0) {
      message.msg_iov->iov_base =
          static_cast<char*>(message.msg_iov->iov_base) + sent;
      message.msg_iov->iov_len -= sent;
    }
  }
}

namespace {

/// How long a frame read polls its socket before it blocks in recv. On
/// loopback a blocked recv costs a sleep and a wake-up, most of a cached
/// answer's latency; a peer that answers within the window is read without
/// either. A silent peer costs at most one window of CPU per frame read.
constexpr std::chrono::microseconds kPollWindow{50};

/// The poll window of one frame read, opened by its first empty poll.
struct PollWindow {
  std::chrono::steady_clock::time_point end{};
  bool open = true;  ///< false once the window has passed: recv blocks
};

/// Reads exactly `count` bytes. Returns false on EOF before the first byte
/// when `eof_ok`; throws on mid-read EOF or errors.
bool read_exact(int fd, char* buffer, std::size_t count, bool eof_ok,
                PollWindow& window) {
  std::size_t got = 0;
  while (got < count) {
    const ssize_t n = ::recv(fd, buffer + got, count - got,
                             window.open ? MSG_DONTWAIT : 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (window.open && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        const auto now = std::chrono::steady_clock::now();
        if (window.end == std::chrono::steady_clock::time_point{}) {
          window.end = now + kPollWindow;
        } else if (now >= window.end) {
          window.open = false;
          continue;
        }
        // A yield, not a pause: on one CPU it hands the core to the peer
        // this thread waits for.
        std::this_thread::yield();
        continue;
      }
      throw ProtocolError(std::string("recv: ") + std::strerror(errno));
    }
    if (n == 0) {
      if (got == 0 && eof_ok) return false;
      throw ProtocolError("connection closed mid-frame");
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

std::uint32_t frame_length(const char* header) {
  const std::uint32_t length =
      (static_cast<std::uint32_t>(static_cast<unsigned char>(header[0]))
       << 24) |
      (static_cast<std::uint32_t>(static_cast<unsigned char>(header[1]))
       << 16) |
      (static_cast<std::uint32_t>(static_cast<unsigned char>(header[2]))
       << 8) |
      static_cast<std::uint32_t>(static_cast<unsigned char>(header[3]));
  if (length > kMaxFrameBytes) {
    throw ProtocolError("oversized frame (" + std::to_string(length) +
                        " bytes)");
  }
  return length;
}

bool read_frame(int fd, std::string& payload) {
  PollWindow window;
  char header[4];
  if (!read_exact(fd, header, 4, /*eof_ok=*/true, window)) return false;
  const std::uint32_t length = frame_length(header);
  payload.resize(length);
  if (length != 0) {
    read_exact(fd, payload.data(), length, /*eof_ok=*/false, window);
  }
  return true;
}

std::string Client::request_raw(const std::string& payload) {
  write_frame(socket_.fd(), payload);
  std::string response;
  if (!read_frame(socket_.fd(), response)) {
    throw std::runtime_error("server closed the connection");
  }
  return response;
}

util::json::Value Client::request(const std::string& payload) {
  return util::json::parse(request_raw(payload));
}

}  // namespace mrsc::serve
