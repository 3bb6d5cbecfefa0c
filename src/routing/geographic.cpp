#include "routing/geographic.hpp"

#include <limits>

#include "serialize/codec.hpp"

namespace ndsm::routing {

GeoRouter::GeoRouter(net::Stack& stack, Time hello_period)
    : Router(stack),
      hello_period_(hello_period),
      neighbor_ttl_(hello_period * 3 + duration::millis(300)),
      resolve_([this](NodeId node) -> std::optional<Vec2> {
        return stack_.peer_online(node) ? stack_.position_of(node) : std::nullopt;
      }),
      hello_timer_(stack, hello_period, [this] { hello(); }) {
  listen();
  hello_timer_.start(duration::millis(static_cast<std::int64_t>(
      stack_.fork_rng(self_.value() ^ 0x9e0).uniform_int(1, 400))));
}

void GeoRouter::hello() {
  if (!stack_.online()) {
    hello_timer_.stop();
    return;
  }
  serialize::Writer w;
  w.vec2(stack_.self_position());
  broadcast_control(std::move(w).take());
}

void GeoRouter::on_control(const RoutingHeader& header, const Bytes& body) {
  serialize::Reader r{body};
  const auto pos = r.vec2();
  if (pos) neighbors_[header.origin] = NeighborInfo{*pos, stack_.now()};
}

NodeId GeoRouter::best_hop_toward(Vec2 dst_pos) const {
  const Time now = stack_.now();
  const double own_distance = distance(stack_.self_position(), dst_pos);
  NodeId best = NodeId::invalid();
  double best_distance = own_distance;  // strictly closer than self, else stuck
  for (const auto& [node, info] : neighbors_) {
    if (now - info.heard > neighbor_ttl_) continue;
    const double d = distance(info.position, dst_pos);
    if (d < best_distance) {
      best_distance = d;
      best = node;
    }
  }
  return best;
}

Status GeoRouter::forward(const RoutingHeader& header, const Bytes& payload) {
  NodeId hop = NodeId::invalid();
  if (const auto dst_pos = resolve_(header.dst)) {
    // A live direct neighbour takes it; otherwise greedy progress.
    const auto direct = neighbors_.find(header.dst);
    const bool adjacent = direct != neighbors_.end() &&
                          stack_.now() - direct->second.heard <= neighbor_ttl_;
    hop = adjacent ? header.dst : best_hop_toward(*dst_pos);
    if (!hop.valid()) local_minimum_drops_++;
  }
  if (!hop.valid() ||
      !stack_.send_frame(hop, Proto::kRouting, encode_routing(header, payload)).is_ok()) {
    stats_.drops++;
  }
  return Status::ok();
}

}  // namespace ndsm::routing
