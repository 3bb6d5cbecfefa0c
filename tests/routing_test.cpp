#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <queue>
#include <unordered_map>

#include "common/rng.hpp"
#include "net/faults.hpp"
#include "routing/distance_vector.hpp"
#include "routing/flooding.hpp"
#include "routing/geographic.hpp"
#include "routing/global.hpp"
#include "routing/location.hpp"
#include "test_helpers.hpp"

namespace ndsm::routing {
namespace {

using testing::WirelessGrid;

TEST(RoutingHeader, CodecRoundTrip) {
  RoutingHeader h;
  h.kind = RoutingKind::kData;
  h.origin = NodeId{3};
  h.dst = NodeId{9};
  h.seq = 12345;
  h.ttl = 7;
  h.upper = Proto::kDiscovery;
  const Bytes payload = to_bytes("payload");
  const Bytes frame = encode_routing(h, payload);

  RoutingHeader out;
  Bytes out_payload;
  ASSERT_TRUE(decode_routing(frame, out, out_payload));
  EXPECT_EQ(out.kind, h.kind);
  EXPECT_EQ(out.origin, h.origin);
  EXPECT_EQ(out.dst, h.dst);
  EXPECT_EQ(out.seq, h.seq);
  EXPECT_EQ(out.ttl, h.ttl);
  EXPECT_EQ(out.upper, h.upper);
  EXPECT_EQ(out_payload, payload);
}

TEST(RoutingHeader, CorruptFrameRejected) {
  RoutingHeader h;
  Bytes payload;
  EXPECT_FALSE(decode_routing(Bytes{1, 2, 3}, h, payload));
  EXPECT_FALSE(decode_routing(Bytes{}, h, payload));
}

TEST(Flooding, MultiHopDelivery) {
  WirelessGrid grid{9};  // 3x3, range covers one hop
  grid.with_routers<FloodingRouter>();
  Bytes got;
  NodeId origin;
  grid.router(8).set_delivery_handler(Proto::kApp, [&](NodeId o, const Bytes& b) {
    got = b;
    origin = o;
  });
  // Corner to opposite corner: needs >= 4 hops.
  ASSERT_TRUE(grid.router(0).send(grid.nodes[8], Proto::kApp, to_bytes("across")).is_ok());
  grid.sim.run_until(duration::seconds(1));
  EXPECT_EQ(to_string(got), "across");
  EXPECT_EQ(origin, grid.nodes[0]);
}

TEST(Flooding, FloodReachesEveryone) {
  WirelessGrid grid{16};
  grid.with_routers<FloodingRouter>();
  int received = 0;
  for (std::size_t i = 0; i < 16; ++i) {
    grid.router(i).set_delivery_handler(Proto::kApp,
                                        [&](NodeId, const Bytes&) { received++; });
  }
  ASSERT_TRUE(grid.router(5).flood(Proto::kApp, to_bytes("all")).is_ok());
  grid.sim.run_until(duration::seconds(1));
  EXPECT_EQ(received, 16);  // including the originator
}

TEST(Flooding, DuplicatesSuppressed) {
  WirelessGrid grid{9};
  grid.with_routers<FloodingRouter>();
  int deliveries = 0;
  grid.router(4).set_delivery_handler(Proto::kApp,
                                      [&](NodeId, const Bytes&) { deliveries++; });
  ASSERT_TRUE(grid.router(0).flood(Proto::kApp, to_bytes("x")).is_ok());
  grid.sim.run_until(duration::seconds(1));
  EXPECT_EQ(deliveries, 1);  // many paths, one delivery
}

TEST(Flooding, TtlLimitsPropagation) {
  // A 1x9 line: TTL 2 reaches only nodes 1..3 hops... TTL counts rebroadcasts.
  WirelessGrid grid{9, 20.0};
  // Re-position into a line.
  for (std::size_t i = 0; i < 9; ++i) {
    grid.world.set_position(grid.nodes[i], Vec2{static_cast<double>(i) * 20.0, 0});
  }
  grid.with_routers<FloodingRouter>();
  std::vector<int> got(9, 0);
  for (std::size_t i = 0; i < 9; ++i) {
    grid.router(i).set_delivery_handler(Proto::kApp,
                                        [&got, i](NodeId, const Bytes&) { got[i]++; });
  }
  ASSERT_TRUE(grid.router(0).flood(Proto::kApp, to_bytes("x"), /*ttl=*/2).is_ok());
  grid.sim.run_until(duration::seconds(1));
  EXPECT_EQ(got[1], 1);
  EXPECT_EQ(got[2], 1);
  EXPECT_EQ(got[3], 1);  // delivered by node 2's last rebroadcast (ttl hit 0)
  EXPECT_EQ(got[4], 0);
}

TEST(Flooding, UnicastStopsAtTarget) {
  WirelessGrid grid{9};
  for (std::size_t i = 0; i < 9; ++i) {
    grid.world.set_position(grid.nodes[i], Vec2{static_cast<double>(i) * 20.0, 0});
  }
  grid.with_routers<FloodingRouter>();
  int target_got = 0;
  int beyond_got = 0;
  grid.router(3).set_delivery_handler(Proto::kApp,
                                      [&](NodeId, const Bytes&) { target_got++; });
  grid.router(5).set_delivery_handler(Proto::kApp,
                                      [&](NodeId, const Bytes&) { beyond_got++; });
  ASSERT_TRUE(grid.router(0).send(grid.nodes[3], Proto::kApp, to_bytes("x")).is_ok());
  grid.sim.run_until(duration::seconds(1));
  EXPECT_EQ(target_got, 1);
  EXPECT_EQ(beyond_got, 0);  // flood not forwarded past its unicast target
}

// --- the shared forwarding plane, over every strategy ----------------------

enum class Strategy { kFlooding, kDistanceVector, kGlobal, kGeo };

class EveryStrategy : public ::testing::TestWithParam<Strategy> {
 protected:
  EveryStrategy() : grid(16) {}

  // Bring the strategy up on a 4x4 lattice or on a 16-node line.
  void start(bool line) {
    if (line) {
      for (std::size_t i = 0; i < grid.nodes.size(); ++i) {
        grid.world.set_position(grid.nodes[i], Vec2{static_cast<double>(i) * 20.0, 0});
      }
    }
    const Time period = duration::seconds(1);  // DV update / geo hello period
    switch (GetParam()) {
      case Strategy::kFlooding:
        grid.with_routers<FloodingRouter>();
        break;
      case Strategy::kDistanceVector:
        grid.with_routers<DistanceVectorRouter>(period);
        break;
      case Strategy::kGlobal:
        grid.with_routers<GlobalRouter>(
            std::make_shared<GlobalRoutingTable>(grid.world, Metric::kHopCount));
        break;
      case Strategy::kGeo:
        grid.with_routers<GeoRouter>(period);
        break;
    }
    got.assign(grid.nodes.size(), 0);
    for (std::size_t i = 0; i < grid.nodes.size(); ++i) {
      grid.router(i).set_delivery_handler(Proto::kApp,
                                          [this, i](NodeId, const Bytes&) { got[i]++; });
    }
  }

  std::uint64_t total(std::uint64_t RouterStats::*field) {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < grid.nodes.size(); ++i) sum += grid.router(i).stats().*field;
    return sum;
  }

  WirelessGrid grid;
  std::vector<int> got;
};

// Names the parameter in test listings (".../Flooding").
const char* strategy_name(Strategy strategy) {
  switch (strategy) {
    case Strategy::kFlooding:
      return "Flooding";
    case Strategy::kDistanceVector:
      return "DistanceVector";
    case Strategy::kGlobal:
      return "Global";
    case Strategy::kGeo:
      return "Geo";
  }
  return "?";
}
void PrintTo(Strategy strategy, std::ostream* os) { *os << strategy_name(strategy); }

INSTANTIATE_TEST_SUITE_P(Routers, EveryStrategy,
                         ::testing::Values(Strategy::kFlooding, Strategy::kDistanceVector,
                                           Strategy::kGlobal, Strategy::kGeo));

TEST_P(EveryStrategy, FloodDeliveredOncePerNodeAndNotReforwardedByOrigin) {
  start(/*line=*/false);
  ASSERT_TRUE(grid.router(5).flood(Proto::kApp, to_bytes("all")).is_ok());
  grid.sim.run_until(duration::seconds(1));
  EXPECT_EQ(got, std::vector<int>(16, 1));
  EXPECT_EQ(grid.router(5).stats().data_forwarded, 0u);
  EXPECT_EQ(total(&RouterStats::data_forwarded), 15u);  // one rebroadcast each
  EXPECT_EQ(total(&RouterStats::drops), 0u);
}

TEST_P(EveryStrategy, ExpiredFloodTtlCountsOneDrop) {
  start(/*line=*/true);
  ASSERT_TRUE(grid.router(0).flood(Proto::kApp, to_bytes("x"), /*ttl=*/2).is_ok());
  grid.sim.run_until(duration::seconds(1));
  EXPECT_EQ(got[3], 1);  // delivered by node 2's last rebroadcast (ttl hit 0)
  EXPECT_EQ(got[4], 0);
  EXPECT_EQ(grid.router(3).stats().drops, 1u);
  EXPECT_EQ(total(&RouterStats::drops), 1u);
}

TEST_P(EveryStrategy, UnicastStopsAtTarget) {
  start(/*line=*/true);
  grid.sim.run_until(duration::seconds(10));  // DV converged, geo hellos heard
  ASSERT_TRUE(grid.router(0).send(grid.nodes[3], Proto::kApp, to_bytes("x")).is_ok());
  grid.sim.run_until(duration::seconds(11));
  EXPECT_EQ(got, (std::vector<int>{0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}));
  for (std::size_t i = 3; i < 16; ++i) {
    EXPECT_EQ(grid.router(i).stats().data_forwarded, 0u) << i;
  }
}

struct DvGrid : WirelessGrid {
  explicit DvGrid(std::size_t n) : WirelessGrid(n) {
    with_routers<DistanceVectorRouter>(duration::seconds(1));
  }
  DistanceVectorRouter& dv(std::size_t i) {
    return static_cast<DistanceVectorRouter&>(router(i));
  }
};

TEST(DistanceVector, ConvergesToAllDestinations) {
  DvGrid grid{9};
  grid.sim.run_until(duration::seconds(10));
  for (std::size_t i = 0; i < 9; ++i) {
    for (std::size_t j = 0; j < 9; ++j) {
      EXPECT_LT(grid.dv(i).route_metric(grid.nodes[j]), DistanceVectorRouter::kInfinity)
          << i << "->" << j;
    }
  }
}

TEST(DistanceVector, MetricsAreShortestHopCounts) {
  DvGrid grid{9};  // 3x3 lattice, spacing 20, range 30 (diagonals out of range)
  grid.sim.run_until(duration::seconds(10));
  EXPECT_EQ(grid.dv(0).route_metric(grid.nodes[0]), 0);
  EXPECT_EQ(grid.dv(0).route_metric(grid.nodes[1]), 1);
  EXPECT_EQ(grid.dv(0).route_metric(grid.nodes[4]), 2);  // corner to centre
  EXPECT_EQ(grid.dv(0).route_metric(grid.nodes[8]), 4);  // corner to corner
}

TEST(DistanceVector, DataFollowsRoutes) {
  DvGrid grid{9};
  grid.sim.run_until(duration::seconds(10));
  Bytes got;
  grid.router(8).set_delivery_handler(Proto::kApp, [&](NodeId, const Bytes& b) { got = b; });
  ASSERT_TRUE(grid.router(0).send(grid.nodes[8], Proto::kApp, to_bytes("dv")).is_ok());
  grid.sim.run_until(duration::seconds(11));
  EXPECT_EQ(to_string(got), "dv");
}

TEST(DistanceVector, RoutesExpireAfterDeath) {
  DvGrid grid{4};  // 2x2
  grid.sim.run_until(duration::seconds(10));
  EXPECT_LT(grid.dv(0).route_metric(grid.nodes[3]), DistanceVectorRouter::kInfinity);
  grid.world.kill(grid.nodes[3]);
  grid.sim.run_until(duration::seconds(20));
  EXPECT_EQ(grid.dv(0).route_metric(grid.nodes[3]), DistanceVectorRouter::kInfinity);
}

TEST(DistanceVector, ReroutesAroundFailure) {
  DvGrid grid{9};
  grid.sim.run_until(duration::seconds(10));
  // Kill the centre; corner-to-corner still works around the edge.
  grid.world.kill(grid.nodes[4]);
  grid.sim.run_until(duration::seconds(25));  // let tables re-converge
  Bytes got;
  grid.router(8).set_delivery_handler(Proto::kApp, [&](NodeId, const Bytes& b) { got = b; });
  ASSERT_TRUE(grid.router(0).send(grid.nodes[8], Proto::kApp, to_bytes("detour")).is_ok());
  grid.sim.run_until(duration::seconds(26));
  EXPECT_EQ(to_string(got), "detour");
}

TEST(DistanceVector, FloodWorksWithoutConvergence) {
  DvGrid grid{9};
  int received = 0;
  for (std::size_t i = 0; i < 9; ++i) {
    grid.router(i).set_delivery_handler(Proto::kApp,
                                        [&](NodeId, const Bytes&) { received++; });
  }
  // Flood immediately at t=0, before any DV updates.
  ASSERT_TRUE(grid.router(0).flood(Proto::kApp, to_bytes("early")).is_ok());
  grid.sim.run_until(duration::seconds(1));
  EXPECT_EQ(received, 9);
}

struct GlobalGrid : WirelessGrid {
  explicit GlobalGrid(std::size_t n, Metric metric = Metric::kHopCount)
      : WirelessGrid(n, 20.0, 42, 10.0) {
    table = std::make_shared<GlobalRoutingTable>(world, metric);
    with_routers<GlobalRouter>(table);
  }
  std::shared_ptr<GlobalRoutingTable> table;
};

TEST(GlobalRouting, ImmediateMultiHopDelivery) {
  GlobalGrid grid{16};
  Bytes got;
  grid.router(15).set_delivery_handler(Proto::kApp, [&](NodeId, const Bytes& b) { got = b; });
  ASSERT_TRUE(grid.router(0).send(grid.nodes[15], Proto::kApp, to_bytes("go")).is_ok());
  grid.sim.run_until(duration::seconds(1));
  EXPECT_EQ(to_string(got), "go");
}

TEST(GlobalRouting, HopCountPathCosts) {
  GlobalGrid grid{9};
  EXPECT_DOUBLE_EQ(grid.table->path_cost(grid.nodes[0], grid.nodes[0]), 0.0);
  EXPECT_DOUBLE_EQ(grid.table->path_cost(grid.nodes[0], grid.nodes[1]), 1.0);
  EXPECT_DOUBLE_EQ(grid.table->path_cost(grid.nodes[0], grid.nodes[8]), 4.0);
}

TEST(GlobalRouting, UnreachableReported) {
  GlobalGrid grid{4};
  // Add an isolated node far away.
  const NodeId isolated = grid.world.add_node({10000, 10000});
  grid.world.attach(isolated, grid.medium);
  EXPECT_FALSE(grid.table->reachable(grid.nodes[0], isolated));
  EXPECT_EQ(grid.router(0).send(isolated, Proto::kApp, {}).code(), ErrorCode::kUnreachable);
}

TEST(GlobalRouting, EnergyAwareAvoidsLowBatteryRelay) {
  // Line topology a - r1 - b and a - r2 - b with r1 nearly dead: energy
  // metric must route through r2.
  sim::Simulator sim{1};
  net::World world{sim};
  const MediumId m = world.add_medium(net::wifi80211(25, 0));
  const NodeId a = world.add_node({0, 0}, net::Battery{10});
  const NodeId r1 = world.add_node({20, 10}, net::Battery{10});
  const NodeId r2 = world.add_node({20, -10}, net::Battery{10});
  const NodeId b = world.add_node({40, 0}, net::Battery{10});
  for (const NodeId n : {a, r1, r2, b}) world.attach(n, m);
  // Drain r1 to 5% without killing it.
  world.drain(r1, 9.5);

  auto table = std::make_shared<GlobalRoutingTable>(world, Metric::kEnergyAware);
  EXPECT_EQ(table->next_hop(a, b), r2);
  table->set_metric(Metric::kHopCount);
  // Hop count is indifferent (both 2 hops) — either relay acceptable.
  const NodeId hop = table->next_hop(a, b);
  EXPECT_TRUE(hop == r1 || hop == r2);
}

TEST(GlobalRouting, InvalidateRecomputesAfterDeath) {
  GlobalGrid grid{9};
  const NodeId via = grid.table->next_hop(grid.nodes[0], grid.nodes[8]);
  EXPECT_TRUE(via.valid());
  grid.world.kill(via);
  grid.table->invalidate();
  const NodeId via2 = grid.table->next_hop(grid.nodes[0], grid.nodes[8]);
  EXPECT_TRUE(via2.valid());
  EXPECT_NE(via2, via);
}

TEST(GlobalRouting, CachesUntilRefreshInterval) {
  GlobalGrid grid{9};
  (void)grid.table->next_hop(grid.nodes[0], grid.nodes[8]);
  const auto before = grid.table->recomputations();
  (void)grid.table->next_hop(grid.nodes[0], grid.nodes[5]);
  (void)grid.table->path_cost(grid.nodes[0], grid.nodes[3]);
  EXPECT_EQ(grid.table->recomputations(), before);  // same source, cached
  grid.sim.run_until(duration::seconds(60));        // past refresh interval
  (void)grid.table->next_hop(grid.nodes[0], grid.nodes[8]);
  EXPECT_GT(grid.table->recomputations(), before);
}

// --- GlobalRoutingTable vs a reference Dijkstra ------------------------------
//
// The reference is the table's original implementation: map-based
// Dijkstra straight over live World::neighbors(), popping (cost, NodeId)
// and relaxing only on a strict improvement. The table (CSR adjacency
// snapshot, dense per-source vectors) must agree with it bit for bit.

struct ReferenceRoutes {
  std::unordered_map<NodeId, NodeId> next_hop;
  std::unordered_map<NodeId, double> cost;
};

double reference_link_cost(const net::World& world, Metric metric, NodeId a, NodeId b) {
  if (metric == Metric::kHopCount) return 1.0;
  const double tx = world.link_tx_cost(a, b, 64);
  const double residual = std::max(world.battery(a).fraction(), 0.02);
  return (tx + 1e-12) / residual;
}

// `neighbors`, when given, holds World::neighbors() of every node, read
// once by a caller that queries many sources of an unchanged world.
ReferenceRoutes reference_routes(const net::World& world, Metric metric, NodeId from,
                                 const std::vector<std::vector<NodeId>>* neighbors = nullptr) {
  ReferenceRoutes out;
  if (!world.alive(from)) return out;
  using QueueEntry = std::pair<double, NodeId>;
  std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>> queue;
  out.cost[from] = 0.0;
  queue.emplace(0.0, from);
  while (!queue.empty()) {
    const auto [d, u] = queue.top();
    queue.pop();
    if (d > out.cost.at(u)) continue;
    for (const NodeId v : neighbors != nullptr ? (*neighbors)[u.value()] : world.neighbors(u)) {
      const double nd = d + reference_link_cost(world, metric, u, v);
      const auto dv = out.cost.find(v);
      if (dv == out.cost.end() || nd < dv->second) {
        out.cost[v] = nd;
        out.next_hop[v] = (u == from) ? v : out.next_hop[u];
        queue.emplace(nd, v);
      }
    }
  }
  return out;
}

// Every answer of `from` (plus one id past the last node, which must read
// as unreachable) against `ref`.
void expect_source_matches(GlobalRoutingTable& table, const ReferenceRoutes& ref, NodeId from,
                           std::size_t node_count) {
  for (std::size_t t = 0; t <= node_count; ++t) {
    const NodeId to{t};
    const auto hop = ref.next_hop.find(to);
    const auto cost = ref.cost.find(to);
    const NodeId want_hop = hop == ref.next_hop.end() ? NodeId::invalid() : hop->second;
    const double want_cost =
        cost == ref.cost.end() ? std::numeric_limits<double>::infinity() : cost->second;
    EXPECT_EQ(table.next_hop(from, to), want_hop) << from.value() << " -> " << t;
    EXPECT_EQ(table.path_cost(from, to), want_cost) << from.value() << " -> " << t;
    EXPECT_EQ(table.reachable(from, to), from == to || want_hop.valid())
        << from.value() << " -> " << t;
  }
}

enum class Layout { kWireless, kMixed, kLattice };

// kWireless: a seeded random field, 36 nodes in a 120 m square on one 30 m
// radio, so some pairs are several hops apart and some are cut off.
// kMixed adds a wired segment joining every fifth node (mains-powered) and
// a 20 m sensor radio on the even nodes. Batteries in both are drained to
// varied levels so energy-aware costs differ per relay. kLattice is
// perfbench field_churn's geometry: 25x24 nodes 10 m apart on a 12.5 m
// radio (4-connected), batteries equal, so equal-cost ties are dense under
// both metrics. The seed drives picks and moves on every layout.
struct RouteField {
  static constexpr std::size_t kRandomNodes = 36;
  static constexpr std::size_t kLatticeColumns = 25;
  static constexpr std::size_t kLatticeRows = 24;

  RouteField(std::uint64_t seed, Layout layout) : sim(seed), world(sim), rng(seed, 7) {
    if (layout == Layout::kLattice) {
      radio = world.add_medium(net::wifi80211(12.5, 0.0));
      for (std::size_t i = 0; i < kLatticeColumns * kLatticeRows; ++i) {
        const NodeId id = world.add_node({static_cast<double>(i % kLatticeColumns) * 10.0,
                                          static_cast<double>(i / kLatticeColumns) * 10.0},
                                         net::Battery{10.0});
        world.attach(id, radio);
        nodes.push_back(id);
      }
      return;
    }
    const bool mixed = layout == Layout::kMixed;
    radio = world.add_medium(net::wifi80211(30.0, 0.0));
    const MediumId lan = mixed ? world.add_medium(net::ethernet100()) : MediumId::invalid();
    const MediumId sensor =
        mixed ? world.add_medium(net::sensor_radio(20.0, 0.0)) : MediumId::invalid();
    for (std::size_t i = 0; i < kRandomNodes; ++i) {
      const bool wired = mixed && i % 5 == 0;
      const NodeId id = world.add_node({rng.uniform(0, 120), rng.uniform(0, 120)},
                                       wired ? net::Battery::mains() : net::Battery{10.0});
      world.attach(id, radio);
      if (wired) world.attach(id, lan);
      if (mixed && i % 2 == 0) world.attach(id, sensor);
      if (!wired) world.drain(id, rng.uniform(0.0, 9.0));
      nodes.push_back(id);
    }
  }

  [[nodiscard]] NodeId pick() {
    return nodes[static_cast<std::size_t>(rng.uniform_int(0, nodes.size() - 1))];
  }

  void expect_all_pairs(GlobalRoutingTable& table) {
    std::vector<std::vector<NodeId>> neighbors;
    for (const NodeId u : world.all_nodes()) neighbors.push_back(world.neighbors(u));
    for (const NodeId from : world.all_nodes()) {
      expect_source_matches(table, reference_routes(world, table.metric(), from, &neighbors),
                            from, world.node_count());
    }
  }

  sim::Simulator sim;
  net::World world;
  Rng rng;
  MediumId radio;
  std::vector<NodeId> nodes;
};

// Runs `body` under both metrics for seeds 1-3 on wireless and mixed
// fields, and for seed 1 on the lattice.
template <class Body>
void for_each_field(Body body) {
  const std::pair<std::uint64_t, Layout> fields[] = {
      {1, Layout::kWireless}, {1, Layout::kMixed}, {2, Layout::kWireless},
      {2, Layout::kMixed},    {3, Layout::kWireless}, {3, Layout::kMixed},
      {1, Layout::kLattice}};
  for (const auto& [seed, layout] : fields) {
    for (const Metric metric : {Metric::kHopCount, Metric::kEnergyAware}) {
      SCOPED_TRACE(::testing::Message()
                   << "seed " << seed
                   << (layout == Layout::kLattice ? " lattice"
                       : layout == Layout::kMixed ? " mixed"
                                                  : " wireless")
                   << (metric == Metric::kHopCount ? " hop" : " energy"));
      RouteField field{seed, layout};
      GlobalRoutingTable table{field.world, metric};
      body(field, table);
    }
  }
}

TEST(GlobalRoutingEquivalence, MatchesReferenceAcrossMutationsAndInvalidate) {
  for_each_field([](RouteField& f, GlobalRoutingTable& table) {
    f.expect_all_pairs(table);
    std::vector<NodeId> killed;
    for (int i = 0; i < 4; ++i) {
      killed.push_back(f.pick());
      f.world.kill(killed.back());
    }
    table.invalidate();
    f.expect_all_pairs(table);
    f.world.revive(killed[0]);
    f.world.revive(killed[1]);
    table.invalidate();
    f.expect_all_pairs(table);
    for (int i = 0; i < 5; ++i) {
      f.world.set_position(f.pick(), {f.rng.uniform(0, 120), f.rng.uniform(0, 120)});
    }
    table.invalidate();
    f.expect_all_pairs(table);
    for (const double range : {40.0, 22.0}) {
      f.world.set_medium_range(f.radio, range);
      table.invalidate();
      f.expect_all_pairs(table);
    }
  });
}

TEST(GlobalRoutingEquivalence, CachedSourceKeepsAnswersUntilRefresh) {
  for_each_field([](RouteField& f, GlobalRoutingTable& table) {
    // A source with a multi-hop route and the relay that route uses.
    NodeId src = NodeId::invalid();
    NodeId relay = NodeId::invalid();
    for (const NodeId from : f.nodes) {
      const ReferenceRoutes ref = reference_routes(f.world, table.metric(), from);
      for (const NodeId to : f.nodes) {
        const auto hop = ref.next_hop.find(to);
        if (hop != ref.next_hop.end() && hop->second != to) {
          src = from;
          relay = hop->second;
          break;
        }
      }
      if (src.valid()) break;
    }
    ASSERT_TRUE(src.valid());
    const ReferenceRoutes before = reference_routes(f.world, table.metric(), src);
    expect_source_matches(table, before, src, f.world.node_count());

    f.world.kill(relay);
    f.world.set_position(f.pick(), {f.rng.uniform(0, 120), f.rng.uniform(0, 120)});
    const ReferenceRoutes after = reference_routes(f.world, table.metric(), src);
    ASSERT_EQ(after.next_hop.count(relay), 0u);  // the change is visible to src

    // No invalidate(): src answers from its cached computation, while
    // every source computed for the first time sees the new topology.
    expect_source_matches(table, before, src, f.world.node_count());
    for (const NodeId other : f.nodes) {
      if (other == src) continue;
      expect_source_matches(table, reference_routes(f.world, table.metric(), other), other,
                            f.world.node_count());
    }
    // Past the refresh interval src recomputes on its own.
    f.sim.run_until(duration::seconds(11));
    expect_source_matches(table, after, src, f.world.node_count());
  });
}

TEST(GlobalRoutingEquivalence, NodeAddedAfterAQuery) {
  for_each_field([](RouteField& f, GlobalRoutingTable& table) {
    const NodeId src = f.nodes[0];
    const ReferenceRoutes before = reference_routes(f.world, table.metric(), src);
    expect_source_matches(table, before, src, f.world.node_count());

    const NodeId late = f.world.add_node(f.world.position(src) + Vec2{5, 0});
    f.world.attach(late, f.radio);
    // src's cached table predates `late`: the bounds-checked lookup reads
    // it as unreachable rather than running off the end.
    EXPECT_FALSE(table.reachable(src, late));
    expect_source_matches(table, before, src, f.world.node_count());
    // First-time sources, `late` itself included, see it.
    expect_source_matches(table, reference_routes(f.world, table.metric(), late), late,
                          f.world.node_count());
    expect_source_matches(table, reference_routes(f.world, table.metric(), f.nodes[1]),
                          f.nodes[1], f.world.node_count());
    table.invalidate();
    EXPECT_TRUE(table.reachable(src, late));
    f.expect_all_pairs(table);
  });
}

TEST(GlobalRoutingEquivalence, DeadSourceReachesNothing) {
  for_each_field([](RouteField& f, GlobalRoutingTable& table) {
    const NodeId src = f.nodes[3];
    f.expect_all_pairs(table);
    f.world.kill(src);
    table.invalidate();
    for (const NodeId to : f.world.all_nodes()) {
      EXPECT_FALSE(table.next_hop(src, to).valid());
      EXPECT_EQ(table.path_cost(src, to), std::numeric_limits<double>::infinity());
      EXPECT_EQ(table.reachable(src, to), to == src);
    }
    f.expect_all_pairs(table);
  });
}

TEST(GlobalRoutingEquivalence, EnergyCostsDriftWithoutTopologyChange) {
  for_each_field([](RouteField& f, GlobalRoutingTable& table) {
    f.expect_all_pairs(table);
    std::vector<double> costs_before;
    for (const NodeId to : f.nodes) costs_before.push_back(table.path_cost(f.nodes[0], to));
    const std::uint64_t version = f.world.topology_version();
    // Drain most battery-powered nodes close to empty without killing any.
    for (const NodeId id : f.nodes) {
      const net::Battery& b = f.world.battery(id);
      if (b.finite() && id.value() % 3 != 0) f.world.drain(id, b.remaining() * 0.9);
    }
    ASSERT_EQ(f.world.topology_version(), version);
    table.invalidate();
    f.expect_all_pairs(table);
    if (table.metric() == Metric::kEnergyAware) {
      std::size_t changed = 0;
      for (std::size_t i = 0; i < f.nodes.size(); ++i) {
        changed += table.path_cost(f.nodes[0], f.nodes[i]) != costs_before[i] ? 1 : 0;
      }
      EXPECT_GT(changed, 0u);
    }
  });
}

TEST(LocationService, BeaconsPopulateCaches) {
  GlobalGrid grid{9};
  std::vector<std::unique_ptr<LocationService>> locs;
  for (std::size_t i = 0; i < 9; ++i) {
    locs.push_back(std::make_unique<LocationService>(grid.router(i), duration::seconds(2)));
  }
  grid.sim.run_until(duration::seconds(5));
  // Everyone knows everyone.
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_EQ(locs[i]->known_count(), 9u) << i;
    const auto pos = locs[i]->lookup(grid.nodes[8]);
    ASSERT_TRUE(pos.has_value());
    EXPECT_EQ(*pos, grid.world.position(grid.nodes[8]));
  }
}

TEST(LocationService, MaxAgeFiltersStaleEntries) {
  GlobalGrid grid{4};
  LocationService loc0{grid.router(0), duration::seconds(2)};
  LocationService loc1{grid.router(1), duration::seconds(2)};
  grid.sim.run_until(duration::seconds(3));
  ASSERT_TRUE(loc0.lookup(grid.nodes[1]).has_value());
  grid.world.kill(grid.nodes[1]);  // no more beacons
  grid.sim.run_until(duration::seconds(30));
  EXPECT_FALSE(loc0.lookup(grid.nodes[1], duration::seconds(5)).has_value());
  EXPECT_TRUE(loc0.lookup(grid.nodes[1]).has_value());  // unlimited age still returns it
}

TEST(LocationService, TracksMovingNode) {
  GlobalGrid grid{4};
  LocationService loc0{grid.router(0), duration::seconds(1)};
  LocationService loc1{grid.router(1), duration::seconds(1)};
  grid.sim.run_until(duration::seconds(2));
  grid.world.move_linear(grid.nodes[1], Vec2{30, 0}, 5.0);
  grid.sim.run_until(duration::seconds(10));
  const auto pos = loc0.lookup(grid.nodes[1], duration::seconds(2));
  ASSERT_TRUE(pos.has_value());
  EXPECT_NEAR(pos->x, 30.0, 6.0);  // within one beacon period of truth
}

TEST(RouterStats, CountsSentAndForwarded) {
  GlobalGrid grid{9};
  grid.router(8).set_delivery_handler(Proto::kApp, [](NodeId, const Bytes&) {});
  ASSERT_TRUE(grid.router(0).send(grid.nodes[8], Proto::kApp, to_bytes("x")).is_ok());
  grid.sim.run_until(duration::seconds(1));
  EXPECT_EQ(grid.router(0).stats().data_sent, 1u);
  EXPECT_EQ(grid.router(8).stats().data_delivered, 1u);
  // 4-hop path => 3 intermediate forwards in total.
  std::uint64_t forwards = 0;
  for (std::size_t i = 0; i < 9; ++i) forwards += grid.router(i).stats().data_forwarded;
  EXPECT_EQ(forwards, 3u);
}

// --- partition/heal coverage (driven by the net::FaultPlan layer) -----------

TEST(DistanceVector, PartitionExpiresRoutesAndHealReconverges) {
  DvGrid grid{9};
  net::FaultPlan faults{grid.world};
  grid.sim.run_until(duration::seconds(10));
  ASSERT_LT(grid.dv(0).route_metric(grid.nodes[8]), DistanceVectorRouter::kInfinity);

  // Split off the left column for 15s, starting now. Route TTL at 1s
  // updates is 3.5s, so cross-partition routes age out well within it.
  faults.partition(0, {grid.nodes[0], grid.nodes[3], grid.nodes[6]}, duration::seconds(15));
  grid.sim.run_until(duration::seconds(20));
  EXPECT_GT(faults.stats().partition_drops, 0u);
  EXPECT_EQ(faults.active_partitions(), 1u);
  EXPECT_EQ(grid.dv(0).route_metric(grid.nodes[8]), DistanceVectorRouter::kInfinity);
  EXPECT_LT(grid.dv(0).route_metric(grid.nodes[6]), DistanceVectorRouter::kInfinity)
      << "routes inside the island must survive the partition";

  // Undeliverable sends during the outage surface in routing.* stats.
  const std::uint64_t drops_before = grid.dv(0).stats().drops;
  ASSERT_TRUE(grid.router(0).send(grid.nodes[8], Proto::kApp, to_bytes("void")).is_ok());
  grid.sim.run_until(duration::seconds(21));
  EXPECT_GT(grid.dv(0).stats().drops, drops_before);

  // Heal fired at t=25s; tables re-converge and data flows again.
  grid.sim.run_until(duration::seconds(40));
  EXPECT_EQ(faults.active_partitions(), 0u);
  EXPECT_EQ(faults.stats().partitions_healed, 1u);
  EXPECT_LT(grid.dv(0).route_metric(grid.nodes[8]), DistanceVectorRouter::kInfinity);
  Bytes got;
  grid.router(8).set_delivery_handler(Proto::kApp, [&](NodeId, const Bytes& b) { got = b; });
  ASSERT_TRUE(grid.router(0).send(grid.nodes[8], Proto::kApp, to_bytes("healed")).is_ok());
  grid.sim.run_until(duration::seconds(41));
  EXPECT_EQ(to_string(got), "healed");
}

TEST(GeoRouting, PartitionBlocksGreedyForwardingUntilHeal) {
  WirelessGrid grid{9};
  grid.with_routers<GeoRouter>(duration::seconds(1));
  net::FaultPlan faults{grid.world};
  grid.sim.run_until(duration::seconds(3));  // hello beacons populate tables

  Bytes got;
  grid.router(8).set_delivery_handler(Proto::kApp, [&](NodeId, const Bytes& b) { got = b; });

  // Island the far corner's row for 10s: hellos across the cut stop, the
  // sender's candidates toward node 8 go stale, and greedy forwarding has
  // no live next hop past the cut.
  faults.partition(0, {grid.nodes[6], grid.nodes[7], grid.nodes[8]}, duration::seconds(10));
  grid.sim.run_until(duration::seconds(8));  // stale out cross-cut neighbors (ttl 3.3s)
  const std::uint64_t drops_before =
      grid.router(3).stats().drops + grid.router(4).stats().drops +
      grid.router(5).stats().drops + grid.router(0).stats().drops;
  ASSERT_TRUE(grid.router(0).send(grid.nodes[8], Proto::kApp, to_bytes("cut")).is_ok());
  grid.sim.run_until(duration::seconds(9));
  EXPECT_TRUE(got.empty()) << "frame crossed an active partition";
  const std::uint64_t drops_after =
      grid.router(3).stats().drops + grid.router(4).stats().drops +
      grid.router(5).stats().drops + grid.router(0).stats().drops;
  EXPECT_GT(drops_after, drops_before)
      << "the outage must surface in routing.* drop counters";
  EXPECT_GT(faults.stats().partition_drops, 0u);

  // After the heal, beacons re-cross the cut and delivery resumes.
  grid.sim.run_until(duration::seconds(18));  // heal at 10s + re-beacon slack
  ASSERT_TRUE(grid.router(0).send(grid.nodes[8], Proto::kApp, to_bytes("rejoined")).is_ok());
  grid.sim.run_until(duration::seconds(20));
  EXPECT_EQ(to_string(got), "rejoined");
  EXPECT_EQ(faults.stats().partitions_healed, 1u);
}

}  // namespace
}  // namespace ndsm::routing
