// field_churn: a 4-connected 802.11 lattice with global hop-count routing.
// Every node sends a small reliable message per sim-second to a partner
// half the lattice away, consumers query a corner directory across many
// hops, a ReplFS cell commits next to the centre, and one
// node crashes or restarts every 500 ms. Each crash or restart
// invalidates the shared GlobalRoutingTable and tears down that node's
// stack and metrics, so route recomputation, World neighbour queries,
// multi-hop forwarding and the node lifecycle dominate while payloads
// stay single-fragment.

#include <algorithm>
#include <cstdlib>
#include <map>

#include "apps/replfs/replfs.hpp"
#include "discovery/centralized.hpp"
#include "discovery/directory_server.hpp"
#include "fleet.hpp"
#include "traffic.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kColumns = 25;
constexpr std::size_t kRows = 24;
constexpr std::size_t kNodes = kColumns * kRows;
constexpr double kSpacing = 10.0;
constexpr std::size_t kConsumers = 16;
// Routed frames carry a TTL of routing::Router::kDefaultTtl (32) hops, less
// than the lattice diameter (47): every route the workload uses is kept
// well inside it, detours around down nodes included.
constexpr std::size_t kMaxHops = 26;
constexpr Time kWarmup = duration::seconds(2);
constexpr Time kWindow = duration::seconds(10);
constexpr Time kSendPeriod = duration::seconds(1);
constexpr Time kQueryPeriod = duration::seconds(1);
// The ReplFS cell writes single-block values on a fixed schedule, a small
// load next to the lattice traffic.
constexpr Time kWritePeriod = duration::millis(5);
constexpr std::size_t kWriteMinBytes = 32;
constexpr std::size_t kWriteMaxBytes = 64;
constexpr Time kChurnStep = duration::millis(500);
constexpr Time kDowntime = duration::millis(2500);
// Neither end of an operation crashes within this long after it is
// issued: longer than a query timeout plus the transport's whole retry
// schedule, so no operation is lost to its own endpoint going down.
constexpr Time kGuard = duration::seconds(15);

struct Outage {
  std::size_t node;
  Time down;
  Time up;
};

[[nodiscard]] std::size_t index_of(std::size_t column, std::size_t row) {
  return row * kColumns + column;
}

// Half the lattice away in both directions, wrapping: 24 or 25 hops.
[[nodiscard]] std::size_t partner_of(std::size_t i) {
  return index_of((i % kColumns + kColumns / 2) % kColumns, (i / kColumns + kRows / 2) % kRows);
}

// Outages one churn step apart, alternating crash and restart events.
// Victims are unprotected and at Chebyshev distance >= 2 from every node
// down at an overlapping time, so the lattice stays connected.
[[nodiscard]] std::vector<Outage> plan_churn(std::uint64_t seed, Time from, Time until,
                                             const std::vector<bool>& protected_node) {
  Rng rng{seed ^ 0xc4c4};
  std::vector<Outage> plan;
  for (Time t = from; t < until; t += 2 * kChurnStep) {
    for (int attempt = 0; attempt < 64; ++attempt) {
      const auto victim = static_cast<std::size_t>(rng.uniform_int(0, kNodes - 1));
      if (protected_node[victim]) continue;
      const bool clash = std::any_of(plan.begin(), plan.end(), [&](const Outage& o) {
        const auto dc = std::abs(static_cast<long>(o.node % kColumns) -
                                 static_cast<long>(victim % kColumns));
        const auto dr = std::abs(static_cast<long>(o.node / kColumns) -
                                 static_cast<long>(victim / kColumns));
        return o.up + kGuard > t && std::max(dc, dr) < 2;
      });
      if (clash) continue;
      plan.push_back(Outage{victim, t, t + kDowntime});
      break;
    }
  }
  return plan;
}

}  // namespace

RepOutcome run_field_churn(const RepOptions& options) {
  Tracing* tracing = options.tracing;
  SpanRecorder* spans = tracing != nullptr ? &tracing->spans : nullptr;
  RepOutcome out;
  const double setup_start = wall_now_s();

  sim::Simulator sim{options.seed};
  net::World world{sim};
  net::LinkSpec radio = net::wifi80211(kSpacing * 1.25, 0.0);  // 4-connected
  const MediumId medium = world.add_medium(radio);
  node::StackConfig config;
  config.router = node::RouterPolicy::kGlobal;
  config.table = std::make_shared<routing::GlobalRoutingTable>(world, routing::Metric::kHopCount);
  config = with_router_spans(config, tracing);

  Window window;
  AppTraffic app(Clock::of(sim), spans, window, out, 32);
  std::vector<std::unique_ptr<SimNode>> nodes;
  for (std::size_t i = 0; i < kNodes; ++i) {
    const NodeId id = world.add_node(Vec2{static_cast<double>(i % kColumns) * kSpacing,
                                          static_cast<double>(i / kColumns) * kSpacing});
    world.attach(id, medium);
    nodes.push_back(make_sim_node(world, id, config, tracing));
    nodes.back()->rt->add_service<AppSink>("app", [&app](node::Runtime& rt) {
      return std::make_unique<AppSink>(rt.transport(), app);
    });
  }
  const auto rt = [&](std::size_t i) -> node::Runtime& { return *nodes[i]->rt; };

  // Protected roles: the corner directory, four providers within reach of
  // every consumer, and the ReplFS cell (a client one hop from its four
  // replicas).
  std::vector<bool> protected_node(kNodes, false);
  const std::size_t directory = index_of(0, 0);
  protected_node[directory] = true;
  rt(directory).add_service<discovery::DirectoryServer>("directory", [](node::Runtime& r) {
    return std::make_unique<discovery::DirectoryServer>(r.transport(), duration::seconds(1),
                                                        &r.storage("directory-wal"));
  });
  const std::vector<NodeId> directories{rt(directory).id()};
  for (const std::size_t p :
       {index_of(6, 6), index_of(14, 6), index_of(6, 14), index_of(10, 9)}) {
    protected_node[p] = true;
    auto& disco = rt(p).emplace_service<discovery::CentralizedDiscovery>("discovery", directories);
    const Span span(spans, Bucket::kDiscoveryRegister);
    disco.register_service(echo_service(), duration::seconds(60));
  }
  const std::size_t cx = kColumns / 2;
  const std::size_t cy = kRows / 2;
  const std::size_t writer_index = index_of(cx, cy);
  std::vector<std::size_t> replica_indices{index_of(cx - 1, cy), index_of(cx + 1, cy),
                                           index_of(cx, cy - 1), index_of(cx, cy + 1)};
  std::vector<NodeId> replica_ids;
  protected_node[writer_index] = true;
  for (const std::size_t r : replica_indices) {
    protected_node[r] = true;
    replica_ids.push_back(rt(r).id());
    rt(r).add_service<apps::replfs::Server>("replfs", [](node::Runtime& n) {
      return std::make_unique<apps::replfs::Server>(n.transport(), n.net_stack(),
                                                    n.storage("replfs-wal"));
    });
  }
  auto& writer = rt(writer_index).add_service<apps::replfs::Client>(
      "replfs-client", [replica_ids](node::Runtime& n) {
        return std::make_unique<apps::replfs::Client>(n.transport(), n.net_stack(), replica_ids);
      });
  // Consumers: spread over the nodes 10 to kMaxHops hops from the directory.
  std::vector<std::size_t> candidates;
  for (std::size_t i = 0; i < kNodes; ++i) {
    const std::size_t hops = i % kColumns + i / kColumns;
    if (!protected_node[i] && hops >= 10 && hops <= kMaxHops) candidates.push_back(i);
  }
  std::vector<std::size_t> consumers;
  for (std::size_t k = 0; k < kConsumers; ++k) {
    const std::size_t c = candidates[k * candidates.size() / kConsumers];
    consumers.push_back(c);
    rt(c).emplace_service<discovery::CentralizedDiscovery>("discovery", directories);
  }

  // Churn, planned up front so traffic can steer clear of nodes about to
  // go down.
  const std::vector<Outage> churn = plan_churn(options.seed, kWarmup, kWarmup + kWindow,
                                               protected_node);
  std::vector<std::vector<Outage>> outages(kNodes);
  for (const Outage& o : churn) outages[o.node].push_back(o);
  StackCounters counters;
  for (const Outage& o : churn) {
    sim.schedule_at(o.down, [&, o] { crash_node(rt(o.node), counters, tracing); });
    sim.schedule_at(o.up, [&, o] { restart_node(rt(o.node), tracing); });
  }
  const auto safe = [&](std::size_t i) {
    const Time now = sim.now();
    return std::none_of(outages[i].begin(), outages[i].end(), [&](const Outage& o) {
      return o.down <= now + kGuard && o.up > now;
    });
  };

  for (std::size_t i = 0; i < kNodes; ++i) {
    const std::size_t partner = partner_of(i);
    const Time phase = kSendPeriod * static_cast<Time>(i) / static_cast<Time>(kNodes);
    app.every(kSendPeriod, phase, [&, i, partner] {
      if (safe(i) && safe(partner)) app.send(rt(i).transport(), rt(partner).id());
    });
  }
  for (std::size_t k = 0; k < consumers.size(); ++k) {
    const std::size_t c = consumers[k];
    // Queries start once the providers' registrations have landed.
    const Time phase =
        kWarmup / 2 + kQueryPeriod * static_cast<Time>(k) / static_cast<Time>(kConsumers);
    app.every(kQueryPeriod, phase, [&, c] {
      if (!safe(c)) return;
      app.query_and_send(*rt(c).service<discovery::CentralizedDiscovery>("discovery"),
                         rt(c).transport());
    });
  }
  ReplfsWriter replfs_writer(Clock::of(sim), writer, spans, options.seed, window, out,
                             kWriteMinBytes, kWriteMaxBytes);
  replfs_writer.start_every(kWritePeriod);

  {
    const Span span(spans, Bucket::kSimRunUntil);
    sim.run_until(kWarmup);
  }
  out.setup_s = wall_now_s() - setup_start;

  const std::uint64_t delivered_before = app.delivered();
  const WindowTimes times = run_window(sim, window, kWindow, spans);
  out.wall_s = times.wall_s;
  out.sim_s = to_seconds(kWindow);
  out.app_msgs = app.delivered() - delivered_before;
  out.commits = replfs_writer.commits_in_window();

  if (tracing != nullptr) {
    StackCounters totals = counters;
    for (const auto& n : nodes) totals.harvest(*n->rt);
    add_sim_layer_metrics(world, times, *tracing, totals, out.layer);
    out.layer["routing.recomputations"] =
        static_cast<double>(config.table->recomputations());
    double wal_bytes = 0;
    for (const std::size_t r : replica_indices) {
      wal_bytes += static_cast<double>(rt(r).storage("replfs-wal").stats().bytes_written);
    }
    out.layer["recovery.wal_bytes"] = wal_bytes;
    add_replfs_client_metrics(writer, out.layer);
    add_discovery_metrics(app, out.layer);
    out.layer["serialize.wire_overhead"] =
        ratio(static_cast<double>(world.stats().bytes_on_wire),
              static_cast<double>(totals.transport.payload_bytes_delivered +
                                  tracing->raw_app_bytes));
    out.layer["node.setup_ns_per_node"] = out.setup_s * 1e9 / static_cast<double>(kNodes);
    add_obs_metrics(*tracing, out.layer);
  }

  window.generating = false;
  const auto busy = [&] {
    return app.in_flight() > 0 || writer.pending_writes() > 0 ||
           std::any_of(nodes.begin(), nodes.end(), [](const auto& n) { return !n->rt->up(); });
  };
  drain(sim, busy, duration::seconds(60), spans);
  if (busy()) out.violations.push_back("field_churn did not quiesce within 60 sim-seconds");

  std::vector<const apps::replfs::Server*> servers;
  for (const std::size_t r : replica_indices) {
    servers.push_back(rt(r).service<apps::replfs::Server>("replfs"));
  }
  replfs_writer.check_durable(servers, out.violations);
  app.check(out.violations);
  out.digest = sim.digest();
  return out;
}

}  // namespace perfbench
