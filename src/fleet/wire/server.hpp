// FleetServer: one FleetNode behind a TCP listener.
//
// The wire half of a fleet member.  An acceptor thread blocks in accept
// (stop() shuts the listener down to wake it); each accepted connection
// gets a worker thread running a serial request loop — read frame,
// dispatch to the node, write the response.  Loopback-first: the default
// bind is 127.0.0.1 with a kernel-assigned port, which is what the chaos
// drills, the CLI --wire demo, and the benchmarks use.
//
// Robustness contract: hostile bytes (bad magic, bad CRC, forged lengths,
// unknown versions) produce a best-effort error response and a closed
// connection, never a crash; stop() drains gracefully (shutdown(SHUT_RD) on
// live connections so in-flight responses finish, then join) and the
// server can be restarted — the chaos drill's node kill/revive switch.
#pragma once

#include <atomic>
#include <cstddef>
#include <list>
#include <mutex>
#include <string>
#include <thread>

#include "fleet/node.hpp"
#include "fleet/wire/codec.hpp"
#include "util/socket.hpp"
#include "util/status.hpp"

namespace pmove::fleet::wire {

struct FleetServerOptions {
  std::string host = "127.0.0.1";
  int port = 0;  ///< 0 = kernel-assigned; read back with port()
  int backlog = 16;
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Budget for writing one response; a peer that stops reading for this
  /// long is dropped instead of wedging a worker.
  TimeNs write_deadline_ns = 30 * kNsPerSec;
};

class FleetServer {
 public:
  /// `node` must outlive the server.
  FleetServer(FleetNode* node, FleetServerOptions options = {});
  ~FleetServer();

  FleetServer(const FleetServer&) = delete;
  FleetServer& operator=(const FleetServer&) = delete;

  /// Binds + starts the accept loop.  Restartable after stop(); a restart
  /// with options.port == 0 gets a fresh ephemeral port.
  Status start();

  /// Graceful drain: stop accepting, half-close live connections so
  /// in-flight responses complete, join every thread.  Idempotent.
  void stop();

  [[nodiscard]] bool running() const {
    return running_.load(std::memory_order_acquire);
  }
  /// Bound port (-1 before the first successful start()).
  [[nodiscard]] int port() const { return port_; }
  [[nodiscard]] const std::string& host() const { return options_.host; }

 private:
  struct Conn {
    net::Socket sock;
    std::thread worker;
    std::atomic<bool> done{false};
  };

  void accept_loop();
  void serve(Conn* conn);
  /// Request -> response; decode failures become kStatusResp frames.
  Frame dispatch(const Frame& request);
  /// Joins finished connection workers (called from the accept loop).
  void reap_finished();

  FleetNode* node_;
  FleetServerOptions options_;
  net::Socket listener_;
  int port_ = -1;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::thread acceptor_;
  std::mutex conns_mutex_;
  std::list<Conn> conns_;
};

}  // namespace pmove::fleet::wire
