#include "routing/global.hpp"

#include <algorithm>
#include <functional>
#include <limits>

#include "common/audit.hpp"

namespace ndsm::routing {

GlobalRoutingTable::GlobalRoutingTable(net::World& world, Metric metric,
                                       std::size_t reference_payload_bytes,
                                       Time refresh_interval)
    : world_(world),
      metric_(metric),
      reference_payload_(reference_payload_bytes),
      refresh_interval_(refresh_interval) {
  metrics_.set_labels("routing.global");
  metrics_.counter("routing.global.recomputations", &recomputations_);
  metrics_.counter("routing.global.invalidations", &invalidations_);
}

double GlobalRoutingTable::link_cost(NodeId a, NodeId b) const {
  switch (metric_) {
    case Metric::kHopCount:
      return 1.0;
    case Metric::kEnergyAware: {
      const double tx = world_.link_tx_cost(a, b, reference_payload_);
      const double residual = std::max(world_.battery(a).fraction(), 0.02);
      // Wired (zero-energy) links still need a small positive cost so
      // Dijkstra terminates with hop-bounded paths.
      return (tx + 1e-12) / residual;
    }
  }
  return 1.0;
}

void GlobalRoutingTable::refresh_adjacency() {
  if (adj_version_ == world_.topology_version()) return;
  adj_version_ = world_.topology_version();
  const std::size_t n = world_.node_count();
  adj_offsets_.assign(n + 1, 0);
  adj_.clear();
  for (std::size_t u = 0; u < n; ++u) {
    adj_offsets_[u] = adj_.size();
    const NodeId id{u};
    if (!world_.alive(id)) continue;
    const std::vector<NodeId> row = world_.neighbors(id);
    adj_.insert(adj_.end(), row.begin(), row.end());
  }
  adj_offsets_[n] = adj_.size();
}

// The snapshot must be current and each row must equal a brute-force scan
// of the world (pure queries only, so counters match an unaudited run).
void GlobalRoutingTable::audit_adjacency(NodeId row) const {
  NDSM_INVARIANT(adj_version_ == world_.topology_version(),
                 "adjacency snapshot is stale against the world topology");
  NDSM_INVARIANT(adj_offsets_.size() == world_.node_count() + 1,
                 "adjacency snapshot does not cover every node");
  std::vector<NodeId> expect;
  if (world_.alive(row)) {
    for (std::size_t v = 0; v < world_.node_count(); ++v) {
      const NodeId peer{v};
      if (peer != row && world_.alive(peer) && world_.in_link_range(row, peer)) {
        expect.push_back(peer);
      }
    }
  }
  const auto begin = adj_.begin() + static_cast<std::ptrdiff_t>(adj_offsets_[row.value()]);
  const auto end = adj_.begin() + static_cast<std::ptrdiff_t>(adj_offsets_[row.value() + 1]);
  NDSM_INVARIANT(std::equal(begin, end, expect.begin(), expect.end()),
                 "adjacency snapshot row disagrees with a brute-force range scan");
}

// Dijkstra from `from` over the snapshot, popping in (cost, NodeId) order
// and relaxing only on strict improvement.
void GlobalRoutingTable::dijkstra_routes(NodeId from, std::vector<NodeId>& first_hop,
                                         std::vector<double>& cost) {
  heap_.clear();
  cost[from.value()] = 0.0;
  heap_.emplace_back(0.0, from);
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    const auto [d, u] = heap_.back();
    heap_.pop_back();
    if (d > cost[u.value()]) continue;
    for (std::size_t i = adj_offsets_[u.value()]; i < adj_offsets_[u.value() + 1]; ++i) {
      const NodeId v = adj_[i];
      const double nd = d + link_cost(u, v);
      if (nd < cost[v.value()]) {
        cost[v.value()] = nd;
        first_hop[v.value()] = (u == from) ? v : first_hop[u.value()];
        heap_.emplace_back(nd, v);
        std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
      }
    }
  }
}

// Unit link costs: a level-synchronous BFS gives the same answers as
// dijkstra_routes(). With every link costing 1.0, Dijkstra settles a whole
// level before the next and pops each level in NodeId order, so a node's
// first finite cost comes from its lowest-id neighbour one level closer.
// Expanding each frontier sorted by NodeId, under the same strict-
// improvement test, picks that same neighbour; the costs are the level
// numbers as exact doubles.
void GlobalRoutingTable::hop_count_routes(NodeId from, std::vector<NodeId>& first_hop,
                                          std::vector<double>& cost) {
  cost[from.value()] = 0.0;
  frontier_.assign(1, from);
  double level = 0.0;
  while (!frontier_.empty()) {
    level += 1.0;
    next_frontier_.clear();
    for (const NodeId u : frontier_) {
      for (std::size_t i = adj_offsets_[u.value()]; i < adj_offsets_[u.value() + 1]; ++i) {
        const NodeId v = adj_[i];
        if (level < cost[v.value()]) {
          cost[v.value()] = level;
          first_hop[v.value()] = (u == from) ? v : first_hop[u.value()];
          next_frontier_.push_back(v);
        }
      }
    }
    std::sort(next_frontier_.begin(), next_frontier_.end());
    frontier_.swap(next_frontier_);
  }
}

// The BFS row must equal Dijkstra's over the same snapshot (pure queries
// only, so counters match an unaudited run).
void GlobalRoutingTable::audit_hop_count(NodeId from, const SourceRoutes& routes) {
  std::vector<NodeId> first_hop(routes.next_hop.size(), NodeId::invalid());
  std::vector<double> cost(routes.cost.size(), std::numeric_limits<double>::infinity());
  dijkstra_routes(from, first_hop, cost);
  NDSM_INVARIANT(first_hop == routes.next_hop,
                 "hop-count BFS next hops disagree with Dijkstra on the same snapshot");
  NDSM_INVARIANT(cost == routes.cost,
                 "hop-count BFS costs disagree with Dijkstra on the same snapshot");
}

const GlobalRoutingTable::SourceRoutes& GlobalRoutingTable::routes_for(NodeId from) {
  if (from.value() >= sources_.size()) sources_.resize(from.value() + 1);
  auto& entry = sources_[from.value()];
  const Time now = world_.sim().now();
  if (entry.epoch == epoch_ && now - entry.computed_at < refresh_interval_) return entry;

  entry.computed_at = now;
  entry.epoch = epoch_;
  recomputations_++;
  const std::size_t n = world_.node_count();
  entry.next_hop.assign(n, NodeId::invalid());
  entry.cost.assign(n, std::numeric_limits<double>::infinity());

  if (!world_.alive(from)) return entry;

  refresh_adjacency();
  if (metric_ == Metric::kHopCount) {
    hop_count_routes(from, entry.next_hop, entry.cost);
  } else {
    dijkstra_routes(from, entry.next_hop, entry.cost);
  }
#if NDSM_AUDIT_ENABLED
  if (++audit_recomputes_ % net::World::kGridAuditSample == 0) {
    audit_adjacency(from);
    if (metric_ == Metric::kHopCount) audit_hop_count(from, entry);
  }
#endif
  return entry;
}

NodeId GlobalRoutingTable::next_hop(NodeId from, NodeId to) {
  const auto& hops = routes_for(from).next_hop;
  return to.value() < hops.size() ? hops[to.value()] : NodeId::invalid();
}

double GlobalRoutingTable::path_cost(NodeId from, NodeId to) {
  const auto& cost = routes_for(from).cost;
  return to.value() < cost.size() ? cost[to.value()]
                                  : std::numeric_limits<double>::infinity();
}

bool GlobalRoutingTable::reachable(NodeId from, NodeId to) {
  return from == to || next_hop(from, to).valid();
}

void GlobalRoutingTable::invalidate() {
  invalidations_++;
  epoch_++;
}

GlobalRouter::GlobalRouter(net::Stack& stack, std::shared_ptr<GlobalRoutingTable> table)
    : Router(stack), table_(std::move(table)) {
  listen();
}

Status GlobalRouter::forward(const RoutingHeader& header, const Bytes& payload) {
  const NodeId hop = table_->next_hop(self_, header.dst);
  if (!hop.valid()) {
    stats_.drops++;
    return Status{ErrorCode::kUnreachable, "no path"};
  }
  const Status s =
      stack_.send_frame(hop, Proto::kRouting, encode_routing(header, payload));
  if (!s.is_ok()) {
    // Stale route (e.g. the hop just died): recompute once and retry.
    table_->invalidate();
    const NodeId retry = table_->next_hop(self_, header.dst);
    if (!retry.valid() || retry == hop ||
        !stack_.send_frame(retry, Proto::kRouting, encode_routing(header, payload))
             .is_ok()) {
      stats_.drops++;
    }
  }
  return Status::ok();
}

}  // namespace ndsm::routing
