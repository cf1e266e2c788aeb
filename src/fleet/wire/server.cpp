#include "fleet/wire/server.hpp"

#include <utility>

#include "metrics/names.hpp"
#include "metrics/registry.hpp"

namespace pmove::fleet::wire {

namespace {

constexpr char kInstance[] = "server";

metrics::Counter& server_counter(const char* field) {
  return metrics::Registry::global().counter(metrics::kMeasurementWire,
                                             kInstance, field);
}

Frame status_frame(const Status& status) {
  Writer w;
  encode_status(status, w);
  return Frame{MsgType::kStatusResp, w.take()};
}

}  // namespace

FleetServer::FleetServer(FleetNode* node, FleetServerOptions options)
    : node_(node), options_(std::move(options)) {}

FleetServer::~FleetServer() { stop(); }

Status FleetServer::start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::already_exists("wire: server already running");
  }
  auto listener = net::tcp_listen(options_.host, options_.port,
                                  options_.backlog);
  if (!listener) return listener.status();
  auto port = net::local_port(*listener);
  if (!port) return port.status();
  listener_ = std::move(*listener);
  port_ = *port;
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  acceptor_ = std::thread([this] { accept_loop(); });
  return Status::ok();
}

void FleetServer::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);
  // Wakes the acceptor's blocking accept at once; the listener is closed
  // only after the acceptor is gone, so its fd cannot be reused by a
  // concurrent connect while the accept loop still waits on it.
  listener_.shutdown_read();
  if (acceptor_.joinable()) acceptor_.join();
  listener_.close();
  std::lock_guard<std::mutex> lock(conns_mutex_);
  for (auto& conn : conns_) conn.sock.shutdown_read();
  for (auto& conn : conns_) {
    if (conn.worker.joinable()) conn.worker.join();
  }
  conns_.clear();
}

void FleetServer::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    auto sock = net::tcp_accept(listener_, /*timeout_ns=*/0);
    reap_finished();
    if (!sock) {
      if (sock.status().code() == ErrorCode::kDeadlineExceeded) continue;
      break;  // listener torn down
    }
    server_counter("connections").inc();
    std::lock_guard<std::mutex> lock(conns_mutex_);
    Conn& conn = conns_.emplace_back();
    conn.sock = std::move(*sock);
    conn.worker = std::thread([this, c = &conn] { serve(c); });
  }
}

void FleetServer::reap_finished() {
  std::lock_guard<std::mutex> lock(conns_mutex_);
  for (auto it = conns_.begin(); it != conns_.end();) {
    if (it->done.load(std::memory_order_acquire)) {
      if (it->worker.joinable()) it->worker.join();
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void FleetServer::serve(Conn* conn) {
  for (;;) {
    // Block until the next request; stop() half-closes the socket, which
    // surfaces here as a clean close at the next frame boundary.
    auto request = read_frame(conn->sock, /*deadline_ns=*/0,
                              options_.max_frame_bytes, kInstance);
    if (!request) {
      if (!is_clean_close(request.status()) &&
          request.status().code() != ErrorCode::kDeadlineExceeded) {
        server_counter("decode_errors").inc();
        // Best-effort error reply; the stream cannot be trusted for
        // re-framing after corrupt bytes, so the connection ends here.
        (void)write_frame(conn->sock, MsgType::kStatusResp,
                          status_frame(request.status()).payload,
                          options_.write_deadline_ns, kInstance);
      }
      break;
    }
    const Frame response = dispatch(*request);
    if (Status s = write_frame(conn->sock, response.type, response.payload,
                               options_.write_deadline_ns, kInstance);
        !s.is_ok()) {
      break;
    }
  }
  conn->done.store(true, std::memory_order_release);
}

Frame FleetServer::dispatch(const Frame& request) {
  auto decode_failed = [](const Status& status) {
    server_counter("decode_errors").inc();
    return status_frame(status);
  };
  Reader r(request.payload);
  switch (request.type) {
    case MsgType::kDeliverReq: {
      std::vector<tsdb::Point> batch;
      if (Status s = decode_points(r, batch); !s.is_ok()) {
        return decode_failed(s);
      }
      if (Status s = r.expect_done(); !s.is_ok()) return decode_failed(s);
      // The ok() ack means the batch is accepted into the node's ingest
      // tier — the zero-acked-loss accounting hangs off this reply.
      return status_frame(node_->write_batch(std::move(batch)));
    }
    case MsgType::kCollectReq: {
      query::Query q;
      if (Status s = decode_query(r, q); !s.is_ok()) return decode_failed(s);
      if (Status s = r.expect_done(); !s.is_ok()) return decode_failed(s);
      auto points = node_->collect(q);
      if (!points) return status_frame(points.status());
      Writer w;
      encode_points(*points, w);
      return Frame{MsgType::kPointsResp, w.take()};
    }
    case MsgType::kExecuteReq: {
      query::Query q;
      if (Status s = decode_query(r, q); !s.is_ok()) return decode_failed(s);
      if (Status s = r.expect_done(); !s.is_ok()) return decode_failed(s);
      auto partial = node_->execute(q);
      if (!partial) return status_frame(partial.status());
      Writer w;
      encode_partial(*partial, w);
      return Frame{MsgType::kPartialResp, w.take()};
    }
    case MsgType::kExchangeReq: {
      std::string from;
      std::vector<NodeDigest> offered;
      if (Status s = r.str(from); !s.is_ok()) return decode_failed(s);
      if (Status s = decode_digests(r, offered); !s.is_ok()) {
        return decode_failed(s);
      }
      if (Status s = r.expect_done(); !s.is_ok()) return decode_failed(s);
      Writer w;
      encode_digests(node_->exchange(offered), w);
      return Frame{MsgType::kDigestsResp, w.take()};
    }
    case MsgType::kFlushReq: {
      if (Status s = r.expect_done(); !s.is_ok()) return decode_failed(s);
      return status_frame(node_->flush());
    }
    default:
      return decode_failed(Status::invalid_argument(
          "wire: frame type " +
          std::to_string(static_cast<int>(request.type)) +
          " is not a request"));
  }
}

}  // namespace pmove::fleet::wire
