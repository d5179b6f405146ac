#include "fleet/chaos_proxy.hpp"

#include <sys/socket.h>

#include <cerrno>
#include <chrono>
#include <cstddef>

#include "util/rng.hpp"

namespace mrsc::fleet {

namespace {

/// Cut the downstream relay after this many bytes: 4-byte header + 2
/// payload bytes, guaranteed mid-frame for any non-empty response.
constexpr std::size_t kTruncateAfterBytes = 6;

/// Relays bytes fd_from → fd_to until EOF/error. `budget` caps the bytes
/// forwarded (SIZE_MAX = unlimited); once spent, both directions die with
/// the connection. Returns on any terminal condition.
void pump_bytes(int fd_from, int fd_to, std::size_t budget) {
  char chunk[16384];
  while (budget > 0) {
    const ssize_t n = ::recv(fd_from, chunk, sizeof chunk, 0);
    if (n == 0) return;
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    std::size_t send_bytes = static_cast<std::size_t>(n);
    if (send_bytes > budget) send_bytes = budget;
    std::size_t sent = 0;
    while (sent < send_bytes) {
      const ssize_t w = ::send(fd_to, chunk + sent, send_bytes - sent,
                               MSG_NOSIGNAL);
      if (w <= 0) {
        if (w < 0 && errno == EINTR) continue;
        return;
      }
      sent += static_cast<std::size_t>(w);
    }
    budget -= send_bytes;
  }
}

/// Reads and discards everything from fd until EOF/error (black hole).
void drain_bytes(int fd) {
  char chunk[16384];
  while (true) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n == 0) return;
    if (n < 0 && errno != EINTR) return;
  }
}

}  // namespace

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kClean:
      return "clean";
    case FaultKind::kDrop:
      return "drop";
    case FaultKind::kDelay:
      return "delay";
    case FaultKind::kTruncate:
      return "truncate";
    case FaultKind::kBlackhole:
      return "blackhole";
  }
  return "unknown";
}

FaultKind decide_fault(const ChaosFaults& faults, std::uint64_t seed,
                       std::uint64_t index) {
  util::Rng rng(util::Rng::stream_seed(seed, index));
  const double u = rng.uniform();
  double edge = faults.drop;
  if (u < edge) return FaultKind::kDrop;
  edge += faults.delay;
  if (u < edge) return FaultKind::kDelay;
  edge += faults.truncate;
  if (u < edge) return FaultKind::kTruncate;
  edge += faults.blackhole;
  if (u < edge) return FaultKind::kBlackhole;
  return FaultKind::kClean;
}

struct ChaosProxy::Link {
  serve::Socket client;
  serve::Socket upstream;
  std::thread forward;  ///< client → upstream
  std::thread reverse;  ///< upstream → client (faults apply here)
  std::atomic<bool> done{false};
};

ChaosProxy::ChaosProxy(Endpoint upstream, ChaosFaults faults,
                       std::uint64_t seed)
    : upstream_(std::move(upstream)), faults_(faults), seed_(seed) {}

ChaosProxy::~ChaosProxy() { stop(); }

void ChaosProxy::start(const std::string& host, std::uint16_t port) {
  stopped_.store(false);
  listener_ = serve::listen_on(host, port, port_);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void ChaosProxy::stop() {
  if (stopped_.exchange(true)) return;
  // shutdown_both() wakes the blocked accept without touching fd_; close()
  // must wait until the accept thread is joined because accept_loop reads
  // listener_.fd() concurrently.
  listener_.shutdown_both();
  {
    std::lock_guard lock(links_mutex_);
    for (const auto& link : links_) {
      link->client.shutdown_both();
      link->upstream.shutdown_both();
    }
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.close();
  std::lock_guard lock(links_mutex_);
  for (const auto& link : links_) {
    if (link->forward.joinable()) link->forward.join();
    if (link->reverse.joinable()) link->reverse.join();
  }
  links_.clear();
}

void ChaosProxy::accept_loop() {
  while (!stopped_.load()) {
    serve::Socket accepted = serve::accept_on(listener_.fd());
    if (!accepted.valid()) break;  // listener shut down
    const std::uint64_t index = connections_.fetch_add(1);
    const FaultKind fault = decide_fault(faults_, seed_, index);
    if (fault == FaultKind::kDrop) continue;  // closes on scope exit

    auto link = std::make_unique<Link>();
    link->client = std::move(accepted);
    if (fault != FaultKind::kBlackhole) {
      try {
        link->upstream = serve::connect_to(upstream_.host, upstream_.port);
      } catch (const std::exception&) {
        continue;  // upstream gone: behaves like a drop
      }
    }
    Link* raw = link.get();
    raw->forward = std::thread([raw, fault] {
      if (fault == FaultKind::kBlackhole) {
        drain_bytes(raw->client.fd());
      } else {
        pump_bytes(raw->client.fd(), raw->upstream.fd(), SIZE_MAX);
        raw->upstream.shutdown_both();
      }
    });
    raw->reverse = std::thread([this, raw, fault] { relay(*raw, fault); });

    std::lock_guard lock(links_mutex_);
    // Reap finished links so a long-lived proxy does not accumulate
    // joined-out threads.
    for (auto it = links_.begin(); it != links_.end();) {
      if ((*it)->done.load()) {
        if ((*it)->forward.joinable()) (*it)->forward.join();
        if ((*it)->reverse.joinable()) (*it)->reverse.join();
        it = links_.erase(it);
      } else {
        ++it;
      }
    }
    links_.push_back(std::move(link));
  }
}

void ChaosProxy::relay(Link& link, FaultKind fault) {
  switch (fault) {
    case FaultKind::kBlackhole:
      // Nothing ever flows back; the forward thread owns the drain. Park
      // until stop() shuts the sockets down.
      break;
    case FaultKind::kDelay:
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(faults_.delay_ms));
      pump_bytes(link.upstream.fd(), link.client.fd(), SIZE_MAX);
      link.client.shutdown_both();
      break;
    case FaultKind::kTruncate:
      pump_bytes(link.upstream.fd(), link.client.fd(), kTruncateAfterBytes);
      link.client.shutdown_both();
      link.upstream.shutdown_both();
      break;
    case FaultKind::kClean:
    case FaultKind::kDrop:
      pump_bytes(link.upstream.fd(), link.client.fd(), SIZE_MAX);
      link.client.shutdown_both();
      break;
  }
  if (fault != FaultKind::kBlackhole) link.done.store(true);
}

}  // namespace mrsc::fleet
