// Deadline-aware TCP socket helpers (loopback-first).
//
// The fleet wire tier needs exactly four things from the OS: listen,
// connect-with-timeout, and send/recv loops that respect a per-call
// deadline instead of blocking forever on a stalled peer.  Everything here
// returns Status/Expected — a torn connection or an overrun deadline is a
// routine, reportable condition, never an exception or a crash.
//
// Deadlines are *relative* nanosecond budgets (<= 0 means block forever);
// callers derive them from a LatencyBudget EWMA and pass the remaining
// slice to each I/O call.  All sockets are blocking-mode with poll() gating
// each syscall, so a deadline of N never waits meaningfully past N.
#pragma once

#include <cstddef>
#include <string>

#include "util/clock.hpp"
#include "util/status.hpp"

namespace pmove::net {

/// Move-only owner of a socket file descriptor.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] int fd() const { return fd_; }

  /// Releases ownership without closing.
  int release();
  void close();

  /// shutdown(SHUT_RD): wakes a peer-blocked recv with EOF while letting
  /// in-flight sends drain — the server's graceful-stop signal.
  void shutdown_read() const;
  /// shutdown(SHUT_RDWR): hard-stops both directions.
  void shutdown_both() const;

 private:
  int fd_ = -1;
};

/// Binds + listens on host:port (port 0 = kernel-assigned ephemeral port;
/// read it back with local_port).  SO_REUSEADDR is set so chaos drills can
/// restart a listener on the same port immediately.
Expected<Socket> tcp_listen(const std::string& host, int port,
                            int backlog = 16);

/// The port a bound socket actually listens on.
Expected<int> local_port(const Socket& listener);

/// Accepts one connection, waiting at most `timeout_ns` (<= 0 blocks until
/// a peer connects or the listener is shut down, which fails the accept).
/// kDeadlineExceeded on timeout.  TCP_NODELAY is set on the accepted
/// socket.
Expected<Socket> tcp_accept(const Socket& listener, TimeNs timeout_ns);

/// Non-blocking connect with a hard timeout, returned in blocking mode
/// with TCP_NODELAY set.  kDeadlineExceeded when the peer does not answer
/// in time; kUnavailable when it refuses.
Expected<Socket> tcp_connect(const std::string& host, int port,
                             TimeNs timeout_ns);

/// Writes all `len` bytes within the relative `deadline_ns` budget
/// (<= 0 blocks).  MSG_NOSIGNAL: a vanished peer is a Status, not SIGPIPE.
Status send_all(const Socket& sock, const void* data, std::size_t len,
                TimeNs deadline_ns);

/// Reads exactly `len` bytes within the budget.  On EOF returns
/// kUnavailable; `received` (optional) reports how many bytes had arrived,
/// so framing code can tell a clean close (0) from a torn frame (> 0).
Status recv_all(const Socket& sock, void* data, std::size_t len,
                TimeNs deadline_ns, std::size_t* received = nullptr);

}  // namespace pmove::net
