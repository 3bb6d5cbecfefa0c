// lan_apps: one wired 100 Mb/s Ethernet segment carrying Mazewar players,
// a ReplFS replica set with a back-to-back writer, and a centralized
// directory with providers and querying consumers, under the "moderate"
// fault level of the E17/E18 apps bench (burst loss, duplication, jitter,
// one replica crash/restart). Everything is one hop, so routing and the
// spatial grid sit idle; the work is broadcast fan-out, codec, transport
// fragmentation, the WAL and the app handlers.

#include <cmath>
#include <map>

#include "apps/mazewar/mazewar.hpp"
#include "apps/replfs/replfs.hpp"
#include "discovery/centralized.hpp"
#include "discovery/directory_server.hpp"
#include "fleet.hpp"
#include "net/faults.hpp"
#include "obs/metrics.hpp"
#include "traffic.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kPlayers = 48;
constexpr std::size_t kReplicas = 5;
constexpr std::size_t kProviders = 4;
constexpr std::size_t kConsumers = 8;
constexpr Time kWarmup = duration::seconds(5);
constexpr Time kWindow = duration::seconds(180);
constexpr Time kQueryPeriod = duration::millis(200);
constexpr Time kCrashAt = duration::seconds(60);  // into the window
constexpr Time kCrashDowntime = duration::seconds(2);

}  // namespace

RepOutcome run_lan_apps(const RepOptions& options) {
  Tracing* tracing = options.tracing;
  SpanRecorder* spans = tracing != nullptr ? &tracing->spans : nullptr;
  RepOutcome out;
  const double setup_start = wall_now_s();

  sim::Simulator sim{options.seed};
  net::World world{sim};
  const MediumId ethernet = world.add_medium(net::ethernet100());
  node::StackConfig config;
  config.router = node::RouterPolicy::kGlobal;
  config.table = std::make_shared<routing::GlobalRoutingTable>(world, routing::Metric::kHopCount);
  config = with_router_spans(config, tracing);

  std::vector<std::unique_ptr<SimNode>> nodes;
  const auto add_node = [&]() -> node::Runtime& {
    const auto i = static_cast<double>(nodes.size());
    const NodeId id = world.add_node(Vec2{std::fmod(i, 8.0) * 4.0, std::floor(i / 8.0) * 4.0});
    world.attach(id, ethernet);
    nodes.push_back(make_sim_node(world, id, config, tracing));
    return *nodes.back()->rt;
  };

  node::Runtime& directory = add_node();
  directory.add_service<discovery::DirectoryServer>("directory", [](node::Runtime& rt) {
    return std::make_unique<discovery::DirectoryServer>(rt.transport(), duration::seconds(1),
                                                        &rt.storage("directory-wal"));
  });
  const std::vector<NodeId> directories{directory.id()};

  std::vector<node::Runtime*> replicas;
  std::vector<NodeId> replica_ids;
  for (std::size_t i = 0; i < kReplicas; ++i) {
    node::Runtime& rt = add_node();
    rt.add_service<apps::replfs::Server>("replfs", [](node::Runtime& r) {
      return std::make_unique<apps::replfs::Server>(r.transport(), r.net_stack(),
                                                    r.storage("replfs-wal"));
    });
    replicas.push_back(&rt);
    replica_ids.push_back(rt.id());
  }
  node::Runtime& writer_node = add_node();
  auto& writer = writer_node.add_service<apps::replfs::Client>(
      "replfs-client", [replica_ids](node::Runtime& r) {
        return std::make_unique<apps::replfs::Client>(r.transport(), r.net_stack(), replica_ids);
      });

  apps::mazewar::MazeConfig maze;
  maze.width = 23;
  maze.height = 23;
  std::vector<node::Runtime*> players;
  for (std::size_t i = 0; i < kPlayers; ++i) {
    node::Runtime& rt = add_node();
    rt.add_service<apps::mazewar::Player>("mazewar", [maze](node::Runtime& r) {
      return std::make_unique<apps::mazewar::Player>(r.net_stack(), maze);
    });
    players.push_back(&rt);
  }
  const auto player = [&](std::size_t i) {
    return players[i]->service<apps::mazewar::Player>("mazewar");
  };

  // Discovery: the first players provide an "echo" service, the next ones
  // consume it and then send the provider a reliable request.
  Window window;
  AppTraffic app(Clock::of(sim), spans, window, out, 64);
  std::vector<node::Runtime*> consumers;
  for (std::size_t i = 0; i < kProviders + kConsumers; ++i) {
    auto& disco = players[i]->emplace_service<discovery::CentralizedDiscovery>(
        "discovery", directories);
    if (i < kProviders) {
      players[i]->add_service<AppSink>("app", [&app](node::Runtime& rt) {
        return std::make_unique<AppSink>(rt.transport(), app);
      });
      const Span span(spans, Bucket::kDiscoveryRegister);
      disco.register_service(echo_service(), duration::seconds(60));
    } else {
      consumers.push_back(players[i]);
    }
  }

  net::FaultPlan faults{world, options.seed ^ 0xe18};
  faults.burst_loss(ethernet, net::BurstLossSpec{0.01, 0.2, 0.0, 0.5});
  faults.duplication(0.03, duration::millis(50));
  faults.jitter(0.05, duration::millis(50));
  StackCounters counters;
  std::map<NodeId, node::Runtime*> by_id;
  for (node::Runtime* rt : replicas) by_id[rt->id()] = rt;
  faults.set_lifecycle_hooks(
      [&](NodeId id) { crash_node(*by_id.at(id), counters, tracing); },
      [&](NodeId id) { restart_node(*by_id.at(id), tracing); });
  Rng pick{options.seed ^ 0x1a4};
  faults.crash(kWarmup + kCrashAt,
               replica_ids[static_cast<std::size_t>(pick.uniform_int(0, kReplicas - 1))],
               kCrashDowntime);

  // Traffic: consumers query on a fixed sim-time schedule; the writer
  // writes back to back.
  for (std::size_t c = 0; c < consumers.size(); ++c) {
    node::Runtime* consumer = consumers[c];
    const Time phase = kQueryPeriod * static_cast<Time>(c) / static_cast<Time>(kConsumers);
    app.every(kQueryPeriod, phase, [&app, consumer] {
      app.query_and_send(*consumer->service<discovery::CentralizedDiscovery>("discovery"),
                         consumer->transport());
    });
  }
  ReplfsWriter replfs_writer(Clock::of(sim), writer, spans, options.seed, window, out);
  replfs_writer.start();

  {
    const Span span(spans, Bucket::kSimRunUntil);
    sim.run_until(kWarmup);
  }
  out.setup_s = wall_now_s() - setup_start;

  const auto app_messages = [&] {
    std::uint64_t n = app.delivered();
    for (std::size_t i = 0; i < kPlayers; ++i) n += player(i)->stats().states_received;
    return n;
  };
  const std::uint64_t msgs_before = app_messages();
  const WindowTimes times = run_window(sim, window, kWindow, spans);
  out.wall_s = times.wall_s;
  out.sim_s = to_seconds(kWindow);
  out.app_msgs = app_messages() - msgs_before;
  out.commits = replfs_writer.commits_in_window();

  if (tracing != nullptr) {
    StackCounters totals = counters;
    for (const auto& n : nodes) totals.harvest(*n->rt);
    add_sim_layer_metrics(world, times, *tracing, totals, out.layer);
    out.layer["routing.recomputations"] = static_cast<double>(config.table->recomputations());
    std::vector<double> bounds;
    std::vector<std::uint64_t> counts;
    double states = 0;
    for (std::size_t i = 0; i < kPlayers; ++i) {
      const auto* p = player(i);
      states += static_cast<double>(p->stats().states_received);
      if (bounds.empty()) {
        bounds = p->staleness().bounds();
        counts.assign(p->staleness().counts().size(), 0);
      }
      for (std::size_t b = 0; b < counts.size(); ++b) counts[b] += p->staleness().counts()[b];
    }
    out.layer["mazewar.states_received"] = states;
    out.layer["mazewar.sim_stale_p95_ms"] = obs::quantile_from(bounds, counts, 0.95);
    double wal_bytes = 0;
    for (node::Runtime* rt : replicas) {
      wal_bytes += static_cast<double>(rt->storage("replfs-wal").stats().bytes_written);
    }
    out.layer["recovery.wal_bytes"] = wal_bytes;
    add_replfs_client_metrics(writer, out.layer);
    add_discovery_metrics(app, out.layer);
    out.layer["serialize.wire_overhead"] =
        ratio(static_cast<double>(world.stats().bytes_on_wire),
              static_cast<double>(totals.transport.payload_bytes_delivered +
                                  tracing->raw_app_bytes));
    out.layer["node.setup_ns_per_node"] = out.setup_s * 1e9 / static_cast<double>(nodes.size());
    add_obs_metrics(*tracing, out.layer);
  }

  // Quiesce: stop new traffic, cease fire, and let claims, writes and
  // requests drain before the end-of-run checks.
  window.generating = false;
  for (std::size_t i = 0; i < kPlayers; ++i) player(i)->set_autopilot(false);
  const auto busy = [&] {
    if (app.in_flight() > 0 || writer.pending_writes() > 0) return true;
    for (std::size_t i = 0; i < kPlayers; ++i) {
      if (player(i)->pending_claims() > 0) return true;
    }
    return false;
  };
  drain(sim, busy, duration::seconds(60), spans);
  if (busy()) out.violations.push_back("lan_apps did not quiesce within 60 sim-seconds");

  std::uint64_t confirmed = 0;
  std::uint64_t suffered = 0;
  for (std::size_t i = 0; i < kPlayers; ++i) {
    confirmed += player(i)->stats().hits_confirmed;
    suffered += player(i)->stats().hits_suffered;
  }
  if (confirmed != suffered) {
    out.violations.push_back("mazewar: sum(hits_confirmed) " + std::to_string(confirmed) +
                             " != sum(hits_suffered) " + std::to_string(suffered));
  }
  std::vector<const apps::replfs::Server*> servers;
  for (node::Runtime* rt : replicas) servers.push_back(rt->service<apps::replfs::Server>("replfs"));
  replfs_writer.check_durable(servers, out.violations);
  app.check(out.violations);
  out.digest = sim.digest();
  return out;
}

}  // namespace perfbench
