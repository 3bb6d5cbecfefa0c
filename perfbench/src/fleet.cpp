#include "fleet.hpp"

#include <chrono>

#include "obs/metrics.hpp"
#include "routing/flooding.hpp"
#include "routing/global.hpp"
#include "routing/router.hpp"

namespace perfbench {

void TracingStack::handle(const net::LinkFrame& frame, const FrameHandler& handler) {
  SpanRecorder& spans = tracing_.spans;
  switch (frame.proto) {
    case net::Proto::kRouting: {
      if (frame.payload_buf && tracing_.routing_frames.size() < Tracing::kRoutingSample) {
        tracing_.routing_frames.push_back(frame.payload_buf);
      }
      const std::uint64_t delivered_before = delivered();
      const std::uint64_t sends_before = tracing_.link_sends;
      spans.begin(Bucket::kRoutingOther, SpanRecorder::now_ns());
      handler(frame);
      Bucket as = Bucket::kRoutingOther;
      if (delivered() > delivered_before) {
        as = Bucket::kTransportRx;
      } else if (tracing_.link_sends > sends_before) {
        as = Bucket::kRoutingForward;
      }
      spans.end_as(SpanRecorder::now_ns(), as);
      return;
    }
    case net::Proto::kMazewar: {
      tracing_.raw_app_bytes += frame.payload().size();
      const Span span(&spans, Bucket::kMazewarRx);
      handler(frame);
      return;
    }
    case net::Proto::kReplfsData: {
      tracing_.raw_app_bytes += frame.payload().size();
      const Span span(&spans, Bucket::kReplfsRx);
      handler(frame);
      return;
    }
    default: {
      const Span span(&spans, Bucket::kOtherRx);
      handler(frame);
      return;
    }
  }
}

std::uint64_t TracingStack::delivered() const {
  const routing::Router* router = runtime_ != nullptr ? runtime_->router_ptr() : nullptr;
  return router != nullptr ? router->stats().data_delivered : 0;
}

TracingRouter::TracingRouter(net::Stack& stack, std::unique_ptr<routing::Router> inner,
                             Tracing& tracing)
    : Router(stack), inner_(std::move(inner)), tracing_(tracing) {
  for (const net::Proto upper :
       {net::Proto::kRouting, net::Proto::kLocation, net::Proto::kTransport,
        net::Proto::kDiscovery, net::Proto::kApp, net::Proto::kMazewar,
        net::Proto::kReplfsData}) {
    inner_->set_delivery_handler(upper, [this, upper](NodeId origin, const Bytes& payload) {
      deliver_local(origin, upper, payload);
    });
  }
}

Status TracingRouter::send(NodeId dst, net::Proto upper, Bytes payload) {
  const Span span(&tracing_.spans, Bucket::kRoutingSend);
  return inner_->send(dst, upper, std::move(payload));
}

Status TracingRouter::flood(net::Proto upper, Bytes payload, int ttl) {
  const Span span(&tracing_.spans, Bucket::kRoutingSend);
  return inner_->flood(upper, std::move(payload), ttl);
}

const routing::Router* counted(node::Runtime& rt) {
  const routing::Router* router = rt.router_ptr();
  if (const auto* traced = dynamic_cast<const TracingRouter*>(router)) return &traced->inner();
  return router;
}

node::StackConfig with_router_spans(node::StackConfig config, Tracing* tracing) {
  if (tracing == nullptr) return config;
  config.router_factory = [policy = config.router, table = config.table,
                           tracing](net::Stack& stack) -> std::unique_ptr<routing::Router> {
    std::unique_ptr<routing::Router> inner;
    if (policy == node::RouterPolicy::kGlobal) {
      inner = std::make_unique<routing::GlobalRouter>(stack, table);
    } else {
      inner = std::make_unique<routing::FloodingRouter>(stack);
    }
    return std::make_unique<TracingRouter>(stack, std::move(inner), *tracing);
  };
  return config;
}

std::unique_ptr<SimNode> make_sim_node(net::World& world, NodeId id,
                                       const node::StackConfig& config, Tracing* tracing) {
  auto n = std::make_unique<SimNode>();
  n->world_stack = std::make_unique<net::WorldStack>(world, id);
  if (tracing != nullptr) {
    n->traced = std::make_unique<TracingStack>(*n->world_stack, *tracing, Bucket::kNetSend);
  }
  n->rt = std::make_unique<node::Runtime>(n->stack(), config);
  if (n->traced) n->traced->watch(n->rt.get());
  return n;
}

void StackCounters::harvest(node::Runtime& rt) {
  if (const routing::Router* r = counted(rt)) {
    const routing::RouterStats& s = r->stats();
    routing.data_sent += s.data_sent;
    routing.data_forwarded += s.data_forwarded;
    routing.data_delivered += s.data_delivered;
    routing.control_packets += s.control_packets;
    routing.control_bytes += s.control_bytes;
    routing.drops += s.drops;
  }
  if (const transport::ReliableTransport* t = rt.transport_ptr()) {
    const transport::TransportStats& s = t->stats();
    transport.messages_sent += s.messages_sent;
    transport.messages_delivered += s.messages_delivered;
    transport.messages_failed += s.messages_failed;
    transport.fragments_sent += s.fragments_sent;
    transport.retransmissions += s.retransmissions;
    transport.acks_sent += s.acks_sent;
    transport.duplicates_dropped += s.duplicates_dropped;
    transport.malformed_dropped += s.malformed_dropped;
    transport.stale_epoch_dropped += s.stale_epoch_dropped;
    transport.reassemblies_expired += s.reassemblies_expired;
    transport.payload_bytes_sent += s.payload_bytes_sent;
    transport.payload_bytes_delivered += s.payload_bytes_delivered;
  }
}

void crash_node(node::Runtime& rt, StackCounters& counters, Tracing* tracing) {
  counters.harvest(rt);
  const Span span(tracing != nullptr ? &tracing->spans : nullptr, Bucket::kNodeCrash);
  rt.crash();
}

void restart_node(node::Runtime& rt, Tracing* tracing) {
  const Span span(tracing != nullptr ? &tracing->spans : nullptr, Bucket::kNodeRestart);
  rt.restart();
}

double wall_now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void add_span_metrics(const Tracing& tracing, std::map<std::string, double>& layer) {
  const SpanRecorder& s = tracing.spans;
  const auto per_call = [&](Bucket b) { return s.totals(b).self_ns_per_call(); };
  layer["net.send_ns_per_frame"] = per_call(Bucket::kNetSend);
  layer["udp.send_ns_per_frame"] = per_call(Bucket::kUdpSend);
  layer["udp.poll_ns_per_call"] = per_call(Bucket::kUdpPoll);
  layer["routing.send_ns_per_msg"] = per_call(Bucket::kRoutingSend);
  layer["routing.forward_ns_per_frame"] = per_call(Bucket::kRoutingForward);
  layer["transport.send_ns_per_msg"] = per_call(Bucket::kTransportSend);
  layer["transport.rx_self_ns_per_frame"] = per_call(Bucket::kTransportRx);
  layer["discovery.query_ns"] = per_call(Bucket::kDiscoveryQuery);
  layer["replfs.write_ns"] = per_call(Bucket::kReplfsWrite);
  layer["replfs.rx_ns_per_frame"] = per_call(Bucket::kReplfsRx);
  layer["mazewar.rx_ns_per_frame"] = per_call(Bucket::kMazewarRx);
  layer["node.crash_ns"] = per_call(Bucket::kNodeCrash);
  layer["node.restart_ns"] = per_call(Bucket::kNodeRestart);
  layer["sim.timers_fired"] = static_cast<double>(s.totals(Bucket::kTimer).count);
  layer["sim.timer_self_ns_per_fire"] = per_call(Bucket::kTimer);

  // Share of the covered wall time, per layer: the traced split.
  std::map<std::string, double> share;
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    const auto b = static_cast<Bucket>(i);
    share[std::string("share.") + bucket_layer(b)] += static_cast<double>(s.totals(b).self_ns);
  }
  const auto covered = static_cast<double>(s.covered_ns());
  for (const auto& [name, ns] : share) layer[name] = ratio(ns, covered);
}

void add_stack_metrics(const StackCounters& c, std::map<std::string, double>& layer) {
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  layer["routing.data_forwarded"] = d(c.routing.data_forwarded);
  layer["routing.forwards_per_msg"] = ratio(d(c.routing.data_forwarded), d(c.routing.data_sent));
  layer["routing.control_packets"] = d(c.routing.control_packets);
  layer["routing.drops"] = d(c.routing.drops);
  const transport::TransportStats& t = c.transport;
  layer["transport.messages_sent"] = d(t.messages_sent);
  layer["transport.messages_delivered"] = d(t.messages_delivered);
  layer["transport.messages_failed"] = d(t.messages_failed);
  layer["transport.retx_per_msg"] = ratio(d(t.retransmissions), d(t.messages_sent));
  layer["transport.duplicates_dropped"] = d(t.duplicates_dropped);
  layer["transport.fragments_per_msg"] =
      ratio(d(t.fragments_sent - t.retransmissions), d(t.messages_sent));
}

void add_decode_metric(const Tracing& tracing, std::map<std::string, double>& layer) {
  if (tracing.routing_frames.empty()) {
    layer["serialize.decode_routing_ns_per_frame"] = 0;
    return;
  }
  std::uint64_t ok = 0;
  routing::RoutingHeader header;
  Bytes payload;
  constexpr int kPasses = 5;
  const std::int64_t t0 = SpanRecorder::now_ns();
  for (int pass = 0; pass < kPasses; ++pass) {
    for (const auto& frame : tracing.routing_frames) {
      ok += routing::decode_routing(*frame, header, payload) ? 1 : 0;
    }
  }
  const std::int64_t t1 = SpanRecorder::now_ns();
  const double frames = static_cast<double>(tracing.routing_frames.size()) * kPasses;
  // `ok` keeps the decode observable; every captured frame decodes.
  layer["serialize.decode_routing_ns_per_frame"] =
      ok == 0 ? 0.0 : static_cast<double>(t1 - t0) / frames;
}

void add_obs_metrics(Tracing& tracing, std::map<std::string, double>& layer) {
  const std::int64_t t0 = SpanRecorder::now_ns();
  std::vector<obs::MetricSample> snapshot;
  {
    const Span span(&tracing.spans, Bucket::kObsSnapshot);
    snapshot = obs::MetricsRegistry::instance().snapshot();
  }
  layer["obs.snapshot_ns"] = static_cast<double>(SpanRecorder::now_ns() - t0);
  layer["obs.registry_size"] = static_cast<double>(obs::MetricsRegistry::instance().size());
  double hop_sum = 0;
  double hop_count = 0;
  for (const obs::MetricSample& s : snapshot) {
    if (s.kind == obs::MetricKind::kHistogram && s.hist != nullptr &&
        s.name == "routing.router.hops") {
      hop_sum += s.hist->sum();
      hop_count += static_cast<double>(s.hist->count());
    }
  }
  layer["routing.hops_mean"] = ratio(hop_sum, hop_count);
}

}  // namespace perfbench
