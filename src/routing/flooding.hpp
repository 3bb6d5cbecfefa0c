#pragma once
// Controlled flooding with per-origin duplicate suppression. Baseline for
// E2 (discovery) and E6 (routing energy): correct everywhere, expensive
// everywhere.

#include "routing/router.hpp"

namespace ndsm::routing {

class FloodingRouter : public Router {
 public:
  explicit FloodingRouter(net::Stack& stack) : Router(stack) { listen(); }

  // Unicast rides a flood that stops at its target.
  Status send(NodeId dst, Proto upper, Bytes payload) override {
    if (dst == self_) return Router::send(dst, upper, std::move(payload));
    return originate_flood(dst, upper, std::move(payload), kDefaultTtl);
  }
};

}  // namespace ndsm::routing
