#include "serve/socket_server.hpp"

#include <errno.h>
#include <stdio.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <vector>

#include "serve/job_server.hpp"
#include "serve/protocol.hpp"
#include "util/check.hpp"

namespace rips::serve {

namespace {

/// Writes the whole buffer, retrying on EINTR / short writes. Returns
/// false when the peer is gone (the connection is then dropped).
/// MSG_NOSIGNAL: a client that closed before reading its replies must
/// cost its connection (EPIPE), not kill the daemon with SIGPIPE.
bool write_all(int fd, const char* data, size_t len) {
  while (len > 0) {
    const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    len -= static_cast<size_t>(n);
  }
  return true;
}

bool send_line(int fd, std::string line) {
  line.push_back('\n');
  return write_all(fd, line.data(), line.size());
}

struct Connection {
  int fd = -1;
  std::string buffer;  ///< bytes received, not yet terminated by '\n'
};

}  // namespace

SocketServer::SocketServer(JobServer& server, std::string socket_path)
    : server_(server), socket_path_(std::move(socket_path)) {
  RIPS_CHECK_MSG(!socket_path_.empty(), "socket path must not be empty");
  sockaddr_un addr;
  ::memset(&addr, 0, sizeof addr);
  addr.sun_family = AF_UNIX;
  RIPS_CHECK_MSG(socket_path_.size() < sizeof addr.sun_path,
                 "socket path too long for sockaddr_un");
  ::memcpy(addr.sun_path, socket_path_.c_str(), socket_path_.size() + 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  RIPS_CHECK_MSG(listen_fd_ >= 0, "socket(AF_UNIX) failed");
  ::unlink(socket_path_.c_str());  // stale socket from a previous run
  const int bound =
      ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
  if (bound != 0) {
    std::fprintf(stderr, "rips_served: bind(%s) failed: %s\n",
                 socket_path_.c_str(), ::strerror(errno));
  }
  RIPS_CHECK_MSG(bound == 0, "bind failed");
  RIPS_CHECK_MSG(::listen(listen_fd_, 64) == 0, "listen failed");
}

SocketServer::~SocketServer() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
  ::unlink(socket_path_.c_str());
}

u64 SocketServer::serve_forever() {
  std::vector<Connection> conns;
  u64 accepted = 0;
  bool shutting_down = false;
  char rbuf[4096];

  while (!shutting_down) {
    std::vector<pollfd> fds;
    fds.push_back(pollfd{listen_fd_, POLLIN, 0});
    for (const Connection& c : conns) fds.push_back(pollfd{c.fd, POLLIN, 0});
    const int ready = ::poll(fds.data(), fds.size(), -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      RIPS_CHECK_MSG(false, "poll failed");
    }

    if ((fds[0].revents & POLLIN) != 0) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd >= 0) {
        conns.push_back(Connection{fd, {}});
        accepted += 1;
      }
    }

    // Iterate over a snapshot of the fd list; conns may shrink as peers
    // disconnect. fds[i + 1] corresponds to the pre-accept conns[i].
    for (size_t i = fds.size() - 1; i >= 1; --i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      // Find the connection by fd (the accept above may have appended).
      size_t ci = 0;
      while (ci < conns.size() && conns[ci].fd != fds[i].fd) ++ci;
      if (ci == conns.size()) continue;
      Connection& conn = conns[ci];

      const ssize_t n = ::read(conn.fd, rbuf, sizeof rbuf);
      bool drop = false;
      if (n <= 0) {
        drop = n == 0 || (errno != EINTR && errno != EAGAIN);
      } else {
        conn.buffer.append(rbuf, static_cast<size_t>(n));
        size_t start = 0;
        for (size_t pos = conn.buffer.find('\n', start);
             pos != std::string::npos && !drop;
             pos = conn.buffer.find('\n', start)) {
          std::string_view line(conn.buffer.data() + start, pos - start);
          // Tolerate CRLF clients.
          if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
          start = pos + 1;
          if (line.empty()) continue;
          bool shutdown_requested = false;
          const std::string reply =
              server_.handle_line(line, &shutdown_requested);
          if (!send_line(conn.fd, reply)) drop = true;
          if (shutdown_requested) {
            shutting_down = true;
            break;
          }
        }
        conn.buffer.erase(0, start);
        if (conn.buffer.size() > kMaxFrame) {
          // The client lost framing; reply once (handle_line's oversized
          // path also counts the incident) and cut the connection.
          send_line(conn.fd, server_.handle_line(conn.buffer, nullptr));
          drop = true;
        }
      }
      if (drop) {
        ::close(conn.fd);
        conns.erase(conns.begin() + static_cast<ptrdiff_t>(ci));
      }
      if (shutting_down) break;
    }
  }

  for (const Connection& c : conns) ::close(c.fd);
  return accepted;
}

}  // namespace rips::serve
