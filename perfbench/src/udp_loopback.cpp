// udp_loopback: four UdpStacks in one process over the loopback
// interface: one client and three ReplFS replicas, the directory co-hosted
// on a replica, the flooding router the real-fleet examples use. One
// thread pumps poll_once(0) round-robin, so the pump adds no sleep. The
// client keeps 8 reliable 64 B messages outstanding (closed loop), writes
// to ReplFS back to back and queries the directory every 100 ms. This is
// the only workload with the real clock, sockets and syscalls on the
// path.

#include <stdexcept>

#include "apps/replfs/replfs.hpp"
#include "discovery/centralized.hpp"
#include "discovery/directory_server.hpp"
#include "fleet.hpp"
#include "net/udp_stack.hpp"
#include "traffic.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kStacks = 4;
constexpr std::size_t kOutstanding = 8;
constexpr Time kQueryPeriod = duration::millis(100);
constexpr double kWindowS = 3.0;
constexpr double kWarmupLimitS = 5.0;
constexpr double kDrainLimitS = 10.0;

struct UdpNode {
  std::unique_ptr<net::UdpStack> udp;
  std::unique_ptr<TracingStack> traced;
  std::unique_ptr<node::Runtime> rt;

  [[nodiscard]] net::Stack& stack() {
    return traced ? static_cast<net::Stack&>(*traced) : *udp;
  }
};

// Open the four stacks on the first port base where every bind succeeds.
[[nodiscard]] std::vector<std::unique_ptr<net::UdpStack>> open_stacks() {
  std::vector<NodeId> ids;
  for (std::uint64_t i = 1; i <= kStacks; ++i) ids.push_back(NodeId{i});
  for (std::uint16_t attempt = 0; attempt < 32; ++attempt) {
    net::UdpStackConfig config;
    config.port_base = static_cast<std::uint16_t>(46100 + 16 * attempt);
    config.peers = ids;
    std::vector<std::unique_ptr<net::UdpStack>> stacks;
    try {
      for (const NodeId id : ids) stacks.push_back(std::make_unique<net::UdpStack>(id, config));
      return stacks;
    } catch (const std::runtime_error&) {
      continue;  // a port in this range is taken; try the next range
    }
  }
  throw std::runtime_error("udp_loopback: no free loopback port range");
}

}  // namespace

RepOutcome run_udp_loopback(const RepOptions& options) {
  Tracing* tracing = options.tracing;
  SpanRecorder* spans = tracing != nullptr ? &tracing->spans : nullptr;
  RepOutcome out;
  const double setup_start = wall_now_s();

  std::vector<UdpNode> nodes(kStacks);
  {
    auto stacks = open_stacks();
    for (std::size_t i = 0; i < kStacks; ++i) nodes[i].udp = std::move(stacks[i]);
  }
  out.multicast = nodes[0].udp->using_multicast();
  node::StackConfig config;
  config.router = node::RouterPolicy::kFlooding;
  config = with_router_spans(config, tracing);
  for (UdpNode& n : nodes) {
    if (tracing != nullptr) {
      n.traced = std::make_unique<TracingStack>(*n.udp, *tracing, Bucket::kUdpSend);
    }
    n.rt = std::make_unique<node::Runtime>(n.stack(), config);
    if (n.traced) n.traced->watch(n.rt.get());
  }

  Window window;
  net::UdpStack& client_stack = *nodes[0].udp;
  AppTraffic app(Clock::of(client_stack), spans, window, out, 64);
  node::Runtime& client = *nodes[0].rt;
  const std::vector<NodeId> directories{nodes[1].rt->id()};
  std::vector<NodeId> replica_ids;
  for (std::size_t i = 1; i < kStacks; ++i) {
    node::Runtime& rt = *nodes[i].rt;
    replica_ids.push_back(rt.id());
    rt.add_service<apps::replfs::Server>("replfs", [](node::Runtime& r) {
      return std::make_unique<apps::replfs::Server>(r.transport(), r.net_stack(),
                                                    r.storage("replfs-wal"));
    });
    rt.add_service<AppSink>("app", [&app](node::Runtime& r) {
      return std::make_unique<AppSink>(r.transport(), app);
    });
  }
  nodes[1].rt->add_service<discovery::DirectoryServer>("directory", [](node::Runtime& r) {
    return std::make_unique<discovery::DirectoryServer>(r.transport(), duration::seconds(1),
                                                        &r.storage("directory-wal"));
  });
  for (std::size_t i = 2; i < kStacks; ++i) {
    auto& disco = nodes[i].rt->emplace_service<discovery::CentralizedDiscovery>(
        "discovery", directories);
    const Span span(spans, Bucket::kDiscoveryRegister);
    disco.register_service(echo_service(), duration::seconds(60));
  }
  auto& consumer =
      client.emplace_service<discovery::CentralizedDiscovery>("discovery", directories);
  auto& writer = client.add_service<apps::replfs::Client>(
      "replfs-client", [replica_ids](node::Runtime& r) {
        return std::make_unique<apps::replfs::Client>(r.transport(), r.net_stack(), replica_ids);
      });

  const auto pump_until = [&](const std::function<bool()>& done, double limit_s) {
    const double end = wall_now_s() + limit_s;
    while (!done() && wall_now_s() < end) {
      for (UdpNode& n : nodes) {
        const Span span(spans, Bucket::kUdpPoll);
        n.udp->poll_once(0);
      }
    }
    return done();
  };

  // Closed loop: each completed message sends the next, round-robin over
  // the replicas.
  std::size_t next_dst = 0;
  std::function<void()> send_next = [&] {
    if (!window.generating) return;
    const NodeId dst = replica_ids[next_dst++ % replica_ids.size()];
    app.send(client.transport(), dst, send_next);
  };
  for (std::size_t k = 0; k < kOutstanding; ++k) send_next();
  app.every(kQueryPeriod, 0, [&] { app.query_and_send(consumer, client.transport()); });
  ReplfsWriter replfs_writer(Clock::of(client_stack), writer, spans, options.seed, window, out);
  replfs_writer.start();

  // Warm-up: discovery answered, ReplFS committing, the loop turning.
  const bool warm = pump_until(
      [&] {
        return app.queries_answered() >= 1 && replfs_writer.commits() >= 4 && app.acked() >= 64;
      },
      kWarmupLimitS);
  if (!warm) out.violations.push_back("udp_loopback did not warm up");
  out.setup_s = wall_now_s() - setup_start;

  window.open = true;
  if (spans != nullptr) spans->reset_totals();
  const std::uint64_t delivered_before = app.delivered();
  const double window_start = wall_now_s();
  pump_until([] { return false; }, kWindowS);
  out.wall_s = wall_now_s() - window_start;
  window.open = false;
  out.sim_s = out.wall_s;
  out.app_msgs = app.delivered() - delivered_before;
  out.commits = replfs_writer.commits_in_window();

  if (tracing != nullptr) {
    std::map<std::string, double>& layer = out.layer;
    StackCounters totals;
    for (UdpNode& n : nodes) totals.harvest(*n.rt);
    net::UdpStats udp;
    for (UdpNode& n : nodes) {
      const net::UdpStats& s = n.udp->stats();
      udp.datagrams_sent += s.datagrams_sent;
      udp.datagrams_received += s.datagrams_received;
      udp.bytes_sent += s.bytes_sent;
      udp.bad_datagrams += s.bad_datagrams;
      udp.polls += s.polls;
      udp.eintr_retries += s.eintr_retries;
    }
    const auto ops = static_cast<double>(out.attempted - out.failed);
    layer["udp.datagrams_sent"] = static_cast<double>(udp.datagrams_sent);
    layer["udp.datagrams_received"] = static_cast<double>(udp.datagrams_received);
    layer["udp.datagrams_per_op"] = ratio(static_cast<double>(udp.datagrams_sent), ops);
    layer["udp.polls_per_op"] = ratio(static_cast<double>(udp.polls), ops);
    layer["udp.bad_datagrams"] = static_cast<double>(udp.bad_datagrams);
    layer["udp.eintr_retries"] = static_cast<double>(udp.eintr_retries);
    layer["udp.multicast"] = out.multicast ? 1.0 : 0.0;
    layer["trace.unaccounted_frac"] =
        1.0 - ratio(static_cast<double>(tracing->spans.covered_ns()), out.wall_s * 1e9);
    add_stack_metrics(totals, layer);
    add_span_metrics(*tracing, layer);
    add_decode_metric(*tracing, layer);
    double wal_bytes = 0;
    for (std::size_t i = 1; i < kStacks; ++i) {
      wal_bytes += static_cast<double>(nodes[i].rt->storage("replfs-wal").stats().bytes_written);
    }
    layer["recovery.wal_bytes"] = wal_bytes;
    add_replfs_client_metrics(writer, layer);
    add_discovery_metrics(app, layer);
    layer["serialize.wire_overhead"] =
        ratio(static_cast<double>(udp.bytes_sent),
              static_cast<double>(totals.transport.payload_bytes_delivered +
                                  tracing->raw_app_bytes));
    layer["node.setup_ns_per_node"] = out.setup_s * 1e9 / static_cast<double>(kStacks);
    add_obs_metrics(*tracing, layer);
  }

  window.generating = false;
  if (!pump_until([&] { return app.in_flight() == 0 && writer.pending_writes() == 0; },
                  kDrainLimitS)) {
    out.violations.push_back("udp_loopback did not drain");
  }
  std::vector<const apps::replfs::Server*> servers;
  for (std::size_t i = 1; i < kStacks; ++i) {
    servers.push_back(nodes[i].rt->service<apps::replfs::Server>("replfs"));
  }
  replfs_writer.check_durable(servers, out.violations);
  app.check(out.violations);
  return out;
}

}  // namespace perfbench
