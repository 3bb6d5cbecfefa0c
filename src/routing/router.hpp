#pragma once
// Multi-hop routing (§3.5). The paper argues locating and routing belong
// *inside* the middleware ("the middleware incorporates this
// functionality", §4), so routers are first-class middleware objects: one
// Router instance per node, all built on the net::Stack link-layer seam
// (simulated World or real sockets — §3.2 network independence).
//
// The forwarding plane lives here, once: originating data and floods,
// relaying with TTL accounting and trace stamps, per-origin duplicate
// suppression of floods, hop-count delivery and one-hop control beacons.
// A strategy only chooses the next hop of a data packet (forward()) and
// handles its own control frames (on_control()):
//   * FloodingRouter       — no next hop at all: unicast rides a flood
//   * DistanceVectorRouter — distributed DSDV-style hop-count routing
//   * GlobalRouter         — middleware-computed routes (MiLAN's approach:
//                            the middleware has a network view and writes
//                            routes), with hop-count or energy-aware metric
//   * GeoRouter            — greedy position-based forwarding

#include <functional>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "common/status.hpp"
#include "net/stack.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_context.hpp"

namespace ndsm::routing {

using net::Proto;

// Wire header carried in every routing frame.
enum class RoutingKind : std::uint8_t { kData = 1, kFlood = 2, kDvUpdate = 3 };

struct RoutingHeader {
  RoutingKind kind = RoutingKind::kData;
  NodeId origin;
  NodeId dst;             // net::kBroadcast for floods without a target
  std::uint32_t seq = 0;  // per-origin sequence for duplicate suppression
  std::uint8_t ttl = 0;
  Proto upper = Proto::kApp;  // which upper-layer protocol the payload is for
  // Causal context stamped at originate time (versioned optional trailer
  // on the wire; hops incremented at each forward). Encoded even when
  // invalid so frame size never depends on tracing state.
  obs::TraceContext trace;
};

[[nodiscard]] Bytes encode_routing(const RoutingHeader& header, const Bytes& payload);
[[nodiscard]] bool decode_routing(const Bytes& frame, RoutingHeader& header, Bytes& payload);

struct RouterStats {
  std::uint64_t data_sent = 0;        // originated data packets
  std::uint64_t data_forwarded = 0;   // relayed for others
  std::uint64_t data_delivered = 0;   // delivered to the local upper layer
  std::uint64_t control_packets = 0;  // routing-protocol packets sent
  std::uint64_t control_bytes = 0;
  std::uint64_t drops = 0;            // undeliverable / TTL expired
};

class Router {
 public:
  // origin = the node that sent the payload end-to-end.
  using DeliveryHandler = std::function<void(NodeId origin, const Bytes& payload)>;

  explicit Router(net::Stack& stack)
      : stack_(stack), self_(stack.self()), hops_hist_(register_metrics()) {}
  virtual ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  // Send `payload` to `dst`, possibly over multiple hops: a kData packet
  // whose next hop forward() picks.
  virtual Status send(NodeId dst, Proto upper, Bytes payload);

  // Network-wide flood (delivered to the upper layer on every reachable
  // node, including nodes with no route state).
  virtual Status flood(Proto upper, Bytes payload, int ttl = kDefaultTtl) {
    return originate_flood(net::kBroadcast, upper, std::move(payload), ttl);
  }

  // Register the upper-layer protocol handler (transport, discovery,
  // location, ...). One handler per protocol.
  void set_delivery_handler(Proto upper, DeliveryHandler handler) {
    handlers_[upper] = std::move(handler);
  }
  void clear_delivery_handler(Proto upper) { handlers_.erase(upper); }

  [[nodiscard]] NodeId self() const { return self_; }
  [[nodiscard]] const RouterStats& stats() const { return stats_; }
  // The network backend this router runs on (sim WorldStack or UdpStack).
  [[nodiscard]] net::Stack& stack() { return stack_; }

  static constexpr int kDefaultTtl = 32;

 protected:
  // Take the stack's kRouting frames (released on destruction). Strategies
  // call this from their constructor; a decorator wrapping another router
  // on the same stack does not.
  void listen();

  // Send a data packet one hop closer to header.dst, originated here or
  // relayed. The status is what send() returns to its caller; relays
  // ignore it. Count a drop when there is no usable next hop (the base,
  // which has no route choice, always drops).
  virtual Status forward(const RoutingHeader& header, const Bytes& payload);

  // A one-hop control frame (kDvUpdate) from neighbour header.origin.
  virtual void on_control(const RoutingHeader& /*header*/, const Bytes& /*body*/) {}

  // Broadcast a control body to one-hop neighbours (DV tables, hellos).
  void broadcast_control(const Bytes& body);

  // Originate a flood toward `dst` (net::kBroadcast: every node); a
  // unicast flood stops at its target.
  Status originate_flood(NodeId dst, Proto upper, Bytes payload, int ttl);

  void deliver_local(NodeId origin, Proto upper, const Bytes& payload) {
    stats_.data_delivered++;
    const auto it = handlers_.find(upper);
    if (it != handlers_.end()) it->second(origin, payload);
  }

  net::Stack& stack_;
  NodeId self_;
  RouterStats stats_;

 private:
  RoutingHeader originate(RoutingKind kind, NodeId dst, Proto upper, int ttl);
  void on_frame(const net::LinkFrame& frame);
  void deliver_traced(const RoutingHeader& header, const Bytes& payload);
  void record_forward(RoutingHeader& header);
  obs::Histogram& register_metrics();

  std::map<Proto, DeliveryHandler> handlers_;
  obs::MetricGroup metrics_;
  obs::Histogram& hops_hist_;
  bool listening_ = false;
  // Shared by data and flood originations; floods are suppressed by
  // (origin, seq).
  std::uint32_t next_seq_ = 1;
  std::unordered_map<NodeId, std::unordered_set<std::uint32_t>> seen_;
};

}  // namespace ndsm::routing
