#include "routing/router.hpp"

#include "serialize/codec.hpp"

namespace ndsm::routing {

Bytes encode_routing(const RoutingHeader& header, const Bytes& payload) {
  serialize::Writer w;
  // kind + origin + dst + seq + ttl + upper = 23 fixed bytes, plus the
  // trace-context trailer.
  w.reserve(23 + serialize::varint_size(payload.size()) + payload.size() +
            obs::kTraceWireMax);
  w.u8(static_cast<std::uint8_t>(header.kind));
  w.id(header.origin);
  w.id(header.dst);
  w.u32(header.seq);
  w.u8(header.ttl);
  w.u8(static_cast<std::uint8_t>(header.upper));
  w.bytes(payload);
  obs::encode_trace(w, header.trace);
  return std::move(w).take();
}

bool decode_routing(const Bytes& frame, RoutingHeader& header, Bytes& payload) {
  serialize::Reader r{frame};
  const auto kind = r.u8();
  const auto origin = r.id<NodeId>();
  const auto dst = r.id<NodeId>();
  const auto seq = r.u32();
  const auto ttl = r.u8();
  const auto upper = r.u8();
  auto body = r.bytes();
  if (!kind || !origin || !dst || !seq || !ttl || !upper || !body) return false;
  header.trace = obs::decode_trace(r);
  header.kind = static_cast<RoutingKind>(*kind);
  header.origin = *origin;
  header.dst = *dst;
  header.seq = *seq;
  header.ttl = *ttl;
  header.upper = static_cast<Proto>(*upper);
  payload = std::move(*body);
  return true;
}

Router::~Router() {
  if (listening_) stack_.clear_frame_handler(Proto::kRouting);
}

obs::Histogram& Router::register_metrics() {
  metrics_.set_labels("routing.router", static_cast<std::int64_t>(self_.value()));
  metrics_.counter("routing.router.data_sent", &stats_.data_sent);
  metrics_.counter("routing.router.data_forwarded", &stats_.data_forwarded);
  metrics_.counter("routing.router.data_delivered", &stats_.data_delivered);
  metrics_.counter("routing.router.control_packets", &stats_.control_packets);
  metrics_.counter("routing.router.control_bytes", &stats_.control_bytes);
  metrics_.counter("routing.router.drops", &stats_.drops);
  return metrics_.histogram("routing.router.hops", {0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32});
}

void Router::listen() {
  stack_.set_frame_handler(Proto::kRouting, [this](const net::LinkFrame& f) { on_frame(f); });
  listening_ = true;
}

Status Router::send(NodeId dst, Proto upper, Bytes payload) {
  if (dst == self_) {
    deliver_local(self_, upper, payload);
    return Status::ok();
  }
  const RoutingHeader h = originate(RoutingKind::kData, dst, upper, kDefaultTtl);
  stats_.data_sent++;
  return forward(h, payload);
}

RoutingHeader Router::originate(RoutingKind kind, NodeId dst, Proto upper, int ttl) {
  RoutingHeader h;
  h.kind = kind;
  h.origin = self_;
  h.dst = dst;
  h.seq = next_seq_++;
  h.ttl = static_cast<std::uint8_t>(ttl);
  h.upper = upper;
  // The caller's active causal context; hops count from here.
  h.trace = obs::active_trace();
  h.trace.hops = 0;
  return h;
}

Status Router::forward(const RoutingHeader& /*header*/, const Bytes& /*payload*/) {
  stats_.drops++;
  return Status{ErrorCode::kUnreachable, "router has no next-hop choice"};
}

Status Router::originate_flood(NodeId dst, Proto upper, Bytes payload, int ttl) {
  const RoutingHeader h = originate(RoutingKind::kFlood, dst, upper, ttl);
  seen_[self_].insert(h.seq);  // never re-forward our own packet
  if (dst == net::kBroadcast) deliver_local(self_, upper, payload);  // local subscribers too
  stats_.data_sent++;
  return stack_.broadcast_frame(Proto::kRouting, encode_routing(h, payload));
}

void Router::broadcast_control(const Bytes& body) {
  RoutingHeader h;
  h.kind = RoutingKind::kDvUpdate;
  h.origin = self_;
  h.dst = net::kBroadcast;
  h.ttl = 1;
  stats_.control_packets++;
  stats_.control_bytes += body.size();
  stack_.broadcast_frame(Proto::kRouting, encode_routing(h, body));
}

void Router::on_frame(const net::LinkFrame& frame) {
  RoutingHeader h;
  Bytes payload;
  if (!decode_routing(frame.payload(), h, payload)) return;
  switch (h.kind) {
    case RoutingKind::kDvUpdate:
      on_control(h, payload);
      return;
    case RoutingKind::kData:
      if (h.dst == self_) {
        // TTL is decremented per relay, so remaining TTL gives link hops:
        // direct neighbour = 1 hop (no decrement), each relay adds one.
        hops_hist_.observe(static_cast<double>(kDefaultTtl - static_cast<int>(h.ttl) + 1));
        deliver_traced(h, payload);
        return;
      }
      break;
    case RoutingKind::kFlood:
      if (!seen_[h.origin].insert(h.seq).second) return;
      if (h.dst == self_ || h.dst == net::kBroadcast) deliver_traced(h, payload);
      if (h.dst == self_) return;  // unicast reached its target: stop the flood
      break;
    default:
      return;  // unknown kind
  }
  // Relay, one TTL step per hop; a packet that runs out is a drop.
  if (h.ttl == 0) {
    stats_.drops++;
    return;
  }
  h.ttl--;
  stats_.data_forwarded++;
  record_forward(h);
  if (h.kind == RoutingKind::kData) {
    (void)forward(h, payload);
  } else {
    stack_.broadcast_frame(Proto::kRouting, encode_routing(h, payload));
  }
}

// Delivery with the frame's causal context active, so upper layers that
// send from their handler continue the trace.
void Router::deliver_traced(const RoutingHeader& h, const Bytes& payload) {
  const obs::ScopedTrace scope(h.trace);
  deliver_local(h.origin, h.upper, payload);
}

// Account a relay: bump the wire hop count and leave a causal instant so
// per-hop relays show up in the trace timeline.
void Router::record_forward(RoutingHeader& h) {
  if (h.trace.hops < 255) h.trace.hops++;
  obs::Tracer& tracer = obs::Tracer::instance();
  if (tracer.enabled() && h.trace.valid()) {
    const char* name = h.kind == RoutingKind::kData ? "forward" : "flood_forward";
    tracer.event_traced("routing.router", name, static_cast<std::int64_t>(self_.value()),
                        h.trace.trace_id, 0, h.trace.span_id,
                        {{"origin", std::to_string(h.origin.value())},
                         {"dst", std::to_string(h.dst.value())},
                         {"hops", std::to_string(h.trace.hops)},
                         {"ttl", std::to_string(h.ttl)}});
  }
}

}  // namespace ndsm::routing
