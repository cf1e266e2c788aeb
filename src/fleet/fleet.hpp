// Fleet: the execution-tier facade over placement, scatter/gather, and
// gossiped health.
//
// One Fleet object is a simulated multi-node P-MoVE deployment in a single
// process: N FleetNodes (each a real ingest engine over its own columnar
// TimeSeriesDb), a consistent-hash FleetRouter deciding which node owns
// each series, a FleetQueryEngine fanning typed queries out and merging
// answers bit-for-bit, and a GossipCoordinator keeping every participant's
// view of fleet health converging.  The pieces only talk through the
// Transport seam, so swapping InProcessTransport for an RPC transport
// turns the simulation into a deployment without touching this tier.
//
// Membership changes are deterministic and lossless: add_node/remove_node
// rebalance exactly the series whose ring segments changed — flush, carve
// the moving series out of their old owner, and re-route them — so a query
// before and after a join/leave sees the same rows.
//
// The fleet runs over one of two transports, selected at construction:
// the default InProcessTransport (method calls, per-link chaos switches) or
// the wire tier (FleetWireOptions::enabled) — every node behind its own
// loopback FleetServer with a SocketTransport dialing real TCP connections.
// Either way the tiers above the seam are identical, which is what makes
// the bit-for-bit wire/in-process parity gate meaningful.
//
// Environment knobs (FleetOptions::from_env, all PMOVE_FLEET_*; malformed
// values warn and keep the default, out-of-range values clamp with a
// warning — the daemon's from_env convention):
//   PMOVE_FLEET_NODES          default node count for the CLI verb (4)
//   PMOVE_FLEET_VNODES         virtual nodes per member on the ring (64)
//   PMOVE_FLEET_FANOUT         gossip peers per node per round (2)
//   PMOVE_FLEET_SUSPECT_AFTER_MS  heartbeat age before suspicion (5000)
//   PMOVE_FLEET_DEADLINE_FLOOR_MS scatter deadline floor (250)
//   PMOVE_FLEET_DEADLINE_MULT  scatter deadline = mult x latency EWMA (8)
//   PMOVE_FLEET_PUSHDOWN       0 disables aggregate pushdown (1)
//   PMOVE_FLEET_WIRE           1 runs the fleet over loopback sockets (0)
//   PMOVE_FLEET_WIRE_PORT_BASE first listener port; 0 = ephemeral (0)
//   PMOVE_FLEET_WIRE_POOL      idle connections kept per node (2)
//   PMOVE_FLEET_WIRE_CONNECT_TIMEOUT_MS  per-attempt connect timeout (250)
//   PMOVE_FLEET_WIRE_MAX_FRAME_MB        frame payload cap (64)
#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "fleet/engine.hpp"
#include "fleet/gossip.hpp"
#include "fleet/node.hpp"
#include "fleet/router.hpp"
#include "fleet/transport.hpp"
#include "fleet/wire/server.hpp"
#include "fleet/wire/socket_transport.hpp"
#include "query/query.hpp"
#include "tsdb/point.hpp"
#include "util/clock.hpp"
#include "util/status.hpp"

namespace pmove::fleet {

/// Wire-mode selection + endpoints; transport tuning rides in `transport`.
struct FleetWireOptions {
  bool enabled = false;
  std::string host = "127.0.0.1";
  /// First listener port; node i gets port_base + i.  0 = kernel-assigned
  /// ephemeral ports (the loopback test/bench default).
  int port_base = 0;
  wire::SocketTransportOptions transport;
};

struct FleetOptions {
  int vnodes = 64;
  /// CLI default fleet size (PMOVE_FLEET_NODES); not used by the library.
  int default_nodes = 4;
  NodeOptions node;
  FleetQueryOptions query;
  GossipOptions gossip;
  FleetWireOptions wire;

  /// Reads the PMOVE_FLEET_* knobs over the built-in defaults.
  static FleetOptions from_env();
};

class Fleet {
 public:
  explicit Fleet(FleetOptions options = {});
  ~Fleet();

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  // ---------------------------------------------------------- membership
  /// Joins `name` and migrates the series the ring now assigns to it.
  Status add_node(const std::string& name);
  /// Drains `name`'s series to the surviving owners, then removes it.
  /// Refuses to remove the last node while it still holds points.
  Status remove_node(const std::string& name);

  [[nodiscard]] std::vector<std::string> nodes() const;
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }

  // ----------------------------------------------------------- data path
  Status write_batch(std::vector<tsdb::Point> batch);
  /// Fleet-wide flush barrier: every node's ingest queues drained.
  Status flush();

  Expected<FleetQueryResult> query(const query::Query& q);
  Expected<FleetQueryResult> query(std::string_view text);

  // --------------------------------------------------------------- health
  /// One gossip round at fleet time `now` (heartbeats, peer exchange,
  /// head aggregation).
  GossipRound tick(TimeNs now);

  /// Head's rendered view of fleet health at `now`.
  [[nodiscard]] std::string render_health(TimeNs now) const;
  /// Worst state across the fleet as the head sees it (suspected = failed).
  [[nodiscard]] HealthState overall(TimeNs now) const;

  // ------------------------------------------- seams for tests and chaos
  /// Kills a node in whichever transport is active: wire mode stops its
  /// server (connections die, reconnects are refused) and flips the down
  /// switch; in-process mode flips the down switch.  Node state survives.
  Status kill_node(const std::string& name);
  /// Reverses kill_node.  In wire mode the server restarts (fresh
  /// ephemeral port when port_base is 0) and the transport is repointed.
  Status revive_node(const std::string& name);

  /// The in-process chaos transport (inert when the wire tier is active).
  [[nodiscard]] InProcessTransport& transport() { return transport_; }
  [[nodiscard]] bool wire_enabled() const { return wire_transport_ != nullptr; }
  /// Wire-mode seams; only valid when wire_enabled().
  [[nodiscard]] wire::SocketTransport& wire_transport() {
    return *wire_transport_;
  }
  [[nodiscard]] Expected<wire::FleetServer*> server(const std::string& name);
  /// Whichever transport the router/engine/gossip actually use.
  [[nodiscard]] Transport& active_transport() { return *active_; }
  [[nodiscard]] FleetRouter& router() { return router_; }
  [[nodiscard]] FleetQueryEngine& engine() { return *engine_; }
  [[nodiscard]] GossipCoordinator& gossip() { return gossip_; }
  [[nodiscard]] Expected<FleetNode*> node(const std::string& name);
  /// Stored points across all nodes (post-flush ground truth).
  [[nodiscard]] std::size_t point_count() const;

 private:
  void refresh_gossip_members();
  /// Rebalances after a ring change: carves out every series whose owner
  /// moved and re-routes it.  Lossless by construction (collect before
  /// drop, rewrite before deliver).
  Status migrate_after_change();

  FleetOptions options_;
  std::map<std::string, std::unique_ptr<FleetNode>> nodes_;
  InProcessTransport transport_;
  std::unique_ptr<wire::SocketTransport> wire_transport_;  ///< wire mode only
  /// Destroyed before nodes_ (declared after): server threads touch nodes.
  std::map<std::string, std::unique_ptr<wire::FleetServer>> servers_;
  Transport* active_ = nullptr;  ///< wire_transport_ when enabled else inproc
  int next_port_offset_ = 0;     ///< for explicit port_base assignment
  FleetRouter router_;
  GossipCoordinator gossip_;
  /// Declared last: its destructor joins scatter workers that may still
  /// touch the transport, servers_ and nodes_.
  std::unique_ptr<FleetQueryEngine> engine_;
};

}  // namespace pmove::fleet
