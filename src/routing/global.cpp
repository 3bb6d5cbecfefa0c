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
#if NDSM_AUDIT_ENABLED
  if (++audit_recomputes_ % net::World::kGridAuditSample == 0) audit_adjacency(from);
#endif

  // Dijkstra from `from` over alive nodes, popping in (cost, NodeId) order
  // and relaxing only on strict improvement.
  auto& cost = entry.cost;
  auto& first_hop = entry.next_hop;
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
