#pragma once
// Middleware-computed routing (the MiLAN approach, §4): the middleware has
// a view of the network and configures routes directly, rather than
// sitting above an existing routing protocol. The shared GlobalRoutingTable
// computes per-source shortest paths under a pluggable link metric:
//
//   * kHopCount    — classic shortest path (the "existing routing
//                    algorithm" baseline in E6)
//   * kEnergyAware — link cost = transmit energy / residual battery
//                    fraction, which steers traffic away from nearly-dead
//                    relays and raises network lifetime (§4: "increase the
//                    lifetime of a network").
//
// Route computation walks a CSR snapshot of World::neighbors() for every
// alive node, rebuilt only when World::topology_version() moves, so a
// burst of per-source recomputations between topology changes costs no
// spatial-grid queries. Per-source results are dense vectors indexed by
// NodeId. kHopCount runs a level-synchronous BFS that expands each level
// in NodeId order: with unit costs that is exactly the order Dijkstra pops
// in, so routes and costs are the same as Dijkstra's, without the heap or
// a per-edge cost call. kEnergyAware keeps the heap Dijkstra, since its
// link costs read live battery levels.

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "net/world.hpp"
#include "routing/router.hpp"

namespace ndsm::routing {

enum class Metric { kHopCount, kEnergyAware };

// Sim-only: needs the omniscient network view (reached through
// Stack::world_ptr()), which a real backend cannot provide.
class GlobalRoutingTable {
 public:
  GlobalRoutingTable(net::World& world, Metric metric,
                     std::size_t reference_payload_bytes = 64,
                     Time refresh_interval = duration::seconds(10));

  // Next hop on the current best path from `from` toward `to`; invalid()
  // if unreachable.
  [[nodiscard]] NodeId next_hop(NodeId from, NodeId to);
  [[nodiscard]] double path_cost(NodeId from, NodeId to);
  [[nodiscard]] bool reachable(NodeId from, NodeId to);

  // Drop all cached paths (call on topology change; battery drift is
  // handled by the refresh interval). O(1): bumps an epoch that every
  // cached source compares against, keeping the tables' storage for reuse.
  // Without it a cached source keeps its answers until the refresh
  // interval, even across topology changes.
  void invalidate();

  [[nodiscard]] Metric metric() const { return metric_; }
  void set_metric(Metric metric) {
    metric_ = metric;
    invalidate();
  }

  [[nodiscard]] std::uint64_t recomputations() const { return recomputations_; }

 private:
  // Indexed by destination NodeId::value(); sized to the node count at
  // computation time (later nodes read as unreachable).
  struct SourceRoutes {
    Time computed_at = -1;
    std::uint64_t epoch = 0;       // valid only while equal to epoch_
    std::vector<NodeId> next_hop;  // invalid(): no path
    std::vector<double> cost;      // infinity: unreachable
  };

  [[nodiscard]] double link_cost(NodeId a, NodeId b) const;
  const SourceRoutes& routes_for(NodeId from);
  // Fill one source's rows (pre-set to invalid()/infinity) from the
  // snapshot: heap Dijkstra under link_cost, or the id-ordered BFS that
  // gives the same rows when every link costs 1.0.
  void dijkstra_routes(NodeId from, std::vector<NodeId>& first_hop, std::vector<double>& cost);
  void hop_count_routes(NodeId from, std::vector<NodeId>& first_hop, std::vector<double>& cost);
  // Rebuild the adjacency snapshot if the world's topology moved.
  void refresh_adjacency();
  // NDSM_AUDIT cross-checks: the snapshot against the live world, and a
  // hop-count BFS row against Dijkstra on the same snapshot.
  void audit_adjacency(NodeId row) const;
  void audit_hop_count(NodeId from, const SourceRoutes& routes);

  net::World& world_;
  Metric metric_;
  std::size_t reference_payload_;
  Time refresh_interval_;
  std::vector<SourceRoutes> sources_;  // indexed by source NodeId::value()
  std::uint64_t epoch_ = 1;
  // CSR adjacency: neighbours of u are adj_[adj_offsets_[u], adj_offsets_[u+1]).
  std::vector<std::size_t> adj_offsets_;
  std::vector<NodeId> adj_;
  std::uint64_t adj_version_ = ~std::uint64_t{0};  // never built
  std::vector<std::pair<double, NodeId>> heap_;     // Dijkstra scratch
  std::vector<NodeId> frontier_;                    // BFS scratch: this level
  std::vector<NodeId> next_frontier_;               // BFS scratch: next level
  std::uint64_t audit_recomputes_ = 0;              // sampling counter (NDSM_AUDIT)
  std::uint64_t recomputations_ = 0;
  std::uint64_t invalidations_ = 0;
  obs::MetricGroup metrics_;
};

class GlobalRouter : public Router {
 public:
  GlobalRouter(net::Stack& stack, std::shared_ptr<GlobalRoutingTable> table);

  [[nodiscard]] GlobalRoutingTable& table() { return *table_; }

 private:
  // kUnreachable when the table has no path (send() reports it).
  Status forward(const RoutingHeader& header, const Bytes& payload) override;

  std::shared_ptr<GlobalRoutingTable> table_;
};

}  // namespace ndsm::routing
