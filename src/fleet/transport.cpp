#include "fleet/transport.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>

#include <cerrno>
#include <cmath>
#include <cstring>

namespace mrsc::fleet {

PendingRequest::PendingRequest(const Endpoint& endpoint,
                               const std::string& request) {
  try {
    socket_ = serve::connect_to(endpoint.host, endpoint.port);
    serve::write_frame(socket_.fd(), request);
  } catch (const std::exception& error) {
    fail(error.what());
    return;
  }
  const int flags = ::fcntl(socket_.fd(), F_GETFL, 0);
  if (flags < 0 ||
      ::fcntl(socket_.fd(), F_SETFL, flags | O_NONBLOCK) < 0) {
    fail(std::string("fcntl: ") + std::strerror(errno));
  }
}

void PendingRequest::fail(std::string why) {
  state_ = State::kFailed;
  error_ = std::move(why);
  socket_.close();
}

void PendingRequest::pump() {
  while (state_ == State::kPending) {
    char chunk[4096];
    const ssize_t n = ::recv(socket_.fd(), chunk, sizeof chunk, 0);
    if (n > 0) {
      buffer_.append(chunk, static_cast<std::size_t>(n));
      if (!have_header_ && buffer_.size() >= 4) {
        try {
          expected_ = serve::frame_length(buffer_.data());
        } catch (const serve::ProtocolError&) {
          fail("oversized response frame");
          return;
        }
        have_header_ = true;
      }
      if (have_header_ && buffer_.size() >= 4 + expected_) {
        response_ = buffer_.substr(4, expected_);
        state_ = State::kDone;
        socket_.close();
      }
      continue;
    }
    if (n == 0) {
      fail("connection closed mid-frame");
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    fail(std::string("recv: ") + std::strerror(errno));
    return;
  }
}

void wait_any(const std::vector<PendingRequest*>& requests,
              double timeout_ms) {
  std::vector<pollfd> fds;
  std::vector<PendingRequest*> pending;
  for (PendingRequest* request : requests) {
    if (request->state() != PendingRequest::State::kPending) continue;
    fds.push_back({request->fd(), POLLIN, 0});
    pending.push_back(request);
  }
  if (fds.empty()) return;
  const int timeout =
      timeout_ms <= 0.0
          ? 0
          : static_cast<int>(std::min(timeout_ms, 3.6e6) + 0.999);
  const int ready = ::poll(fds.data(), fds.size(), timeout);
  if (ready <= 0) return;  // timeout or EINTR: caller re-checks the clock
  for (std::size_t i = 0; i < fds.size(); ++i) {
    if ((fds[i].revents & (POLLIN | POLLERR | POLLHUP)) != 0) {
      pending[i]->pump();
    }
  }
}

}  // namespace mrsc::fleet
