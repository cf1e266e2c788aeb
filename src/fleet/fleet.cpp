#include "fleet/fleet.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <utility>

#include "util/log.hpp"
#include "util/strings.hpp"

namespace pmove::fleet {

namespace {

constexpr TimeNs kTimeMin = std::numeric_limits<TimeNs>::min();
constexpr TimeNs kTimeMax = std::numeric_limits<TimeNs>::max();

/// The daemon's from_env convention: malformed values warn and keep the
/// default, parseable-but-out-of-range values clamp with a warning.
std::int64_t env_int_clamped(const char* name, std::int64_t fallback,
                             std::int64_t lo, std::int64_t hi) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  auto n = strings::parse_int(raw);
  if (!n) {
    log_warn("fleet") << "ignoring " << name << "='" << raw
                      << "' (want an integer in [" << lo << "," << hi
                      << "]), keeping " << fallback;
    return fallback;
  }
  const std::int64_t clamped = std::clamp(*n, lo, hi);
  if (clamped != *n) {
    log_warn("fleet") << name << "='" << raw << "' out of range [" << lo
                      << "," << hi << "], clamping to " << clamped;
  }
  return clamped;
}

double env_double_clamped(const char* name, double fallback, double lo,
                          double hi) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  auto v = strings::parse_double(raw);
  if (!v) {
    log_warn("fleet") << "ignoring " << name << "='" << raw
                      << "' (want a number in [" << lo << "," << hi
                      << "]), keeping " << fallback;
    return fallback;
  }
  const double clamped = std::clamp(*v, lo, hi);
  if (clamped != *v) {
    log_warn("fleet") << name << "='" << raw << "' out of range [" << lo
                      << "," << hi << "], clamping to " << clamped;
  }
  return clamped;
}

}  // namespace

FleetOptions FleetOptions::from_env() {
  FleetOptions o;
  o.default_nodes = static_cast<int>(
      env_int_clamped("PMOVE_FLEET_NODES", o.default_nodes, 1, 1024));
  o.vnodes = static_cast<int>(
      env_int_clamped("PMOVE_FLEET_VNODES", o.vnodes, 1, 4096));
  o.gossip.fanout = static_cast<int>(
      env_int_clamped("PMOVE_FLEET_FANOUT", o.gossip.fanout, 1, 64));
  o.gossip.suspect_after_ns =
      env_int_clamped("PMOVE_FLEET_SUSPECT_AFTER_MS",
                      o.gossip.suspect_after_ns / 1'000'000, 1, 3'600'000) *
      1'000'000;
  o.query.budget.floor_ns =
      env_int_clamped("PMOVE_FLEET_DEADLINE_FLOOR_MS",
                      o.query.budget.floor_ns / 1'000'000, 1, 600'000) *
      1'000'000;
  o.query.budget.multiplier = env_double_clamped(
      "PMOVE_FLEET_DEADLINE_MULT", o.query.budget.multiplier, 1.0, 1000.0);
  o.query.pushdown = env_int_clamped("PMOVE_FLEET_PUSHDOWN", 1, 0, 1) != 0;
  o.wire.enabled = env_int_clamped("PMOVE_FLEET_WIRE", 0, 0, 1) != 0;
  o.wire.port_base = static_cast<int>(
      env_int_clamped("PMOVE_FLEET_WIRE_PORT_BASE", o.wire.port_base, 0,
                      65000));
  o.wire.transport.pool_size = static_cast<std::size_t>(env_int_clamped(
      "PMOVE_FLEET_WIRE_POOL",
      static_cast<std::int64_t>(o.wire.transport.pool_size), 1, 64));
  o.wire.transport.connect_timeout_ns =
      env_int_clamped("PMOVE_FLEET_WIRE_CONNECT_TIMEOUT_MS",
                      o.wire.transport.connect_timeout_ns / 1'000'000, 1,
                      60'000) *
      1'000'000;
  o.wire.transport.connect_retry.deadline_ns =
      4 * o.wire.transport.connect_timeout_ns;
  o.wire.transport.max_frame_bytes = static_cast<std::size_t>(
      env_int_clamped(
          "PMOVE_FLEET_WIRE_MAX_FRAME_MB",
          static_cast<std::int64_t>(o.wire.transport.max_frame_bytes >> 20),
          1, 1024)
      << 20);
  // The scatter engine's latency budget doubles as the wire call budget,
  // so one pair of knobs tunes both layers consistently.
  o.wire.transport.budget = o.query.budget;
  return o;
}

Fleet::Fleet(FleetOptions options)
    : options_(std::move(options)),
      wire_transport_(options_.wire.enabled
                          ? std::make_unique<wire::SocketTransport>(
                                options_.wire.transport)
                          : nullptr),
      active_(wire_transport_ != nullptr
                  ? static_cast<Transport*>(wire_transport_.get())
                  : &transport_),
      router_(active_, options_.vnodes),
      gossip_(active_, options_.gossip) {
  // Each node owns its registry: a single borrowed registry shared by every
  // node would fold all per-node component health into one namespace.
  options_.node.health = nullptr;
  engine_ = std::make_unique<FleetQueryEngine>(active_, options_.query);
}

Fleet::~Fleet() = default;

void Fleet::refresh_gossip_members() {
  std::vector<FleetNode*> members;
  members.reserve(nodes_.size());
  for (auto& [name, node] : nodes_) members.push_back(node.get());
  gossip_.set_nodes(std::move(members));
}

Status Fleet::add_node(const std::string& name) {
  if (name.empty() || name == kHeadNode) {
    return Status::invalid_argument("fleet: reserved node name: " + name);
  }
  if (nodes_.count(name) != 0) {
    return Status::already_exists("fleet: node already joined: " + name);
  }
  auto node = std::make_unique<FleetNode>(name, options_.node);
  if (Status s = node->open(); !s.is_ok()) return s;
  if (wire_transport_ != nullptr) {
    wire::FleetServerOptions server_options;
    server_options.host = options_.wire.host;
    server_options.port = options_.wire.port_base == 0
                              ? 0
                              : options_.wire.port_base + next_port_offset_++;
    server_options.max_frame_bytes = options_.wire.transport.max_frame_bytes;
    auto server =
        std::make_unique<wire::FleetServer>(node.get(), server_options);
    if (Status s = server->start(); !s.is_ok()) return s;
    wire_transport_->add_node(name, server->host(), server->port());
    servers_[name] = std::move(server);
  } else {
    transport_.attach(node.get());
  }
  nodes_[name] = std::move(node);
  if (Status s = router_.add_node(name); !s.is_ok()) return s;
  refresh_gossip_members();
  return migrate_after_change();
}

Status Fleet::remove_node(const std::string& name) {
  auto it = nodes_.find(name);
  if (it == nodes_.end()) {
    return Status::not_found("fleet: unknown node: " + name);
  }
  if (nodes_.size() == 1 && it->second->point_count() > 0) {
    return Status::unavailable(
        "fleet: cannot remove the last node while it holds data");
  }
  // Drain: everything queued becomes storage, then everything stored moves.
  if (Status s = it->second->flush(); !s.is_ok()) return s;
  std::vector<tsdb::Point> moved;
  for (const std::string& m : it->second->db().measurements()) {
    auto rows = it->second->db().collect(m, kTimeMin, kTimeMax, {});
    for (tsdb::Point& p : rows) moved.push_back(std::move(p));
  }
  if (Status s = router_.remove_node(name); !s.is_ok()) return s;
  if (wire_transport_ != nullptr) {
    if (auto server = servers_.find(name); server != servers_.end()) {
      server->second->stop();
      servers_.erase(server);
    }
    wire_transport_->remove_node(name);
  } else {
    transport_.detach(name);
  }
  it->second->close();
  nodes_.erase(it);
  refresh_gossip_members();
  if (!moved.empty()) {
    // Per-series order is preserved: a series lived wholly on the removed
    // node, rows were collected in (time, arrival) order, and the router
    // keeps sub-batch order on delivery.
    if (Status s = router_.write_batch(std::move(moved)); !s.is_ok()) {
      return s;
    }
    return router_.flush();
  }
  return Status::ok();
}

Status Fleet::migrate_after_change() {
  if (Status s = flush(); !s.is_ok()) return s;
  std::vector<tsdb::Point> moved;
  for (auto& [name, node] : nodes_) {
    for (const std::string& m : node->db().measurements()) {
      // Placement is per series, so one scan routes each tag set once and
      // materializes only the series whose ring position moved — staying
      // series are never copied or rewritten.  Moving rows are emitted in
      // merged (time, seq) order across the moving series, the same order
      // the old collect-everything path produced.
      Status route_status = Status::ok();
      std::vector<std::map<std::string, std::string>> moving_tags;
      node->db().scan(
          m, kTimeMin, kTimeMax, {},
          [&](std::span<const tsdb::SeriesView> views) {
            std::vector<tsdb::SeriesView> moving;
            for (const tsdb::SeriesView& view : views) {
              auto tags = view.decode_tags();
              auto owner = router_.route_series(m, tags);
              if (!owner) {
                route_status = owner.status();
                return;
              }
              if (*owner == name) continue;
              moving.push_back(view);
              moving_tags.push_back(std::move(tags));
            }
            for (const tsdb::ViewRow& ref : tsdb::merged_view_rows(moving)) {
              const tsdb::SeriesView& view = moving[ref.view];
              tsdb::Point p;
              p.measurement = m;
              p.tags = moving_tags[ref.view];
              p.time = ref.time;
              for (std::size_t f = 0; f < view.field_count(); ++f) {
                if (!view.has_value(f, ref.loc)) continue;
                p.fields.emplace_hint(p.fields.end(),
                                      std::string(view.field_name(f)),
                                      view.value_at(f, ref.loc));
              }
              moved.push_back(std::move(p));
            }
          });
      if (!route_status.is_ok()) return route_status;
      for (const auto& tags : moving_tags) {
        node->db().drop_series(m, tags);
      }
    }
  }
  if (moved.empty()) return Status::ok();
  if (Status s = router_.write_batch(std::move(moved)); !s.is_ok()) return s;
  return flush();
}

std::vector<std::string> Fleet::nodes() const { return router_.nodes(); }

Status Fleet::write_batch(std::vector<tsdb::Point> batch) {
  return router_.write_batch(std::move(batch));
}

Status Fleet::flush() { return router_.flush(); }

Expected<FleetQueryResult> Fleet::query(const query::Query& q) {
  return engine_->query(q, router_.nodes());
}

Expected<FleetQueryResult> Fleet::query(std::string_view text) {
  auto q = query::Query::parse(text);
  if (!q) return q.status();
  return query(*q);
}

GossipRound Fleet::tick(TimeNs now) { return gossip_.tick(now); }

std::string Fleet::render_health(TimeNs now) const {
  return gossip_.head_table().render(now, gossip_.suspect_after_ns());
}

HealthState Fleet::overall(TimeNs now) const {
  return gossip_.head_table().overall(now, gossip_.suspect_after_ns());
}

Status Fleet::kill_node(const std::string& name) {
  if (nodes_.count(name) == 0) {
    return Status::not_found("fleet: unknown node: " + name);
  }
  if (wire_transport_ != nullptr) {
    // Process-kill shape: the listener dies (reconnects refused, pooled
    // connections torn) and the node stops initiating gossip.  Its state
    // survives for revive_node, like a machine that lost power.
    if (auto it = servers_.find(name); it != servers_.end()) {
      it->second->stop();
    }
    wire_transport_->set_node_down(name, true);
  } else {
    transport_.set_node_down(name, true);
  }
  return Status::ok();
}

Status Fleet::revive_node(const std::string& name) {
  if (nodes_.count(name) == 0) {
    return Status::not_found("fleet: unknown node: " + name);
  }
  if (wire_transport_ != nullptr) {
    auto it = servers_.find(name);
    if (it == servers_.end()) {
      return Status::internal("fleet: no server for node: " + name);
    }
    if (Status s = it->second->start(); !s.is_ok()) return s;
    // A restart with ephemeral ports lands elsewhere: repoint the
    // transport (which also drops stale pooled connections).
    wire_transport_->set_endpoint(name, it->second->host(),
                                  it->second->port());
    wire_transport_->set_node_down(name, false);
  } else {
    transport_.set_node_down(name, false);
  }
  return Status::ok();
}

Expected<wire::FleetServer*> Fleet::server(const std::string& name) {
  auto it = servers_.find(name);
  if (it == servers_.end()) {
    return Status::not_found("fleet: no wire server for node: " + name);
  }
  return it->second.get();
}

Expected<FleetNode*> Fleet::node(const std::string& name) {
  auto it = nodes_.find(name);
  if (it == nodes_.end()) {
    return Status::not_found("fleet: unknown node: " + name);
  }
  return it->second.get();
}

std::size_t Fleet::point_count() const {
  std::size_t total = 0;
  for (const auto& [name, node] : nodes_) total += node->point_count();
  return total;
}

}  // namespace pmove::fleet
