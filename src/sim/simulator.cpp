#include "sim/simulator.hpp"

#include <cassert>

namespace ndsm::sim {

void Simulator::register_metrics() {
  metrics_.set_labels("sim.simulator");
  metrics_.counter("sim.simulator.executed_events", &executed_);
  metrics_.counter("sim.simulator.event_digest", &digest_);
  metrics_.gauge("sim.simulator.pending_events",
                 [this] { return static_cast<double>(live_); });
  metrics_.gauge("sim.simulator.slab_slots",
                 [this] { return static_cast<double>(slots_.size()); });
  metrics_.gauge("sim.simulator.heap_depth",
                 [this] { return static_cast<double>(heap_.size()); });
}

EventId Simulator::schedule_at(Time at, std::function<void()> fn) {
  assert(at >= now_ && "cannot schedule in the past");
  std::uint32_t slot;
  if (free_head_ != kNoSlot) {
    slot = free_head_;
    free_head_ = slots_[slot].next_free;
    slots_[slot].fn = std::move(fn);
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(Slot{std::move(fn), 0, kNoSlot});
  }
  const std::uint32_t gen = slots_[slot].gen;
  heap_.push(Entry{at, next_seq_++, slot, gen});
  ++live_;
  return EventId{(static_cast<std::uint64_t>(gen) << 32) | slot};
}

std::function<void()> Simulator::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  std::function<void()> fn = std::move(s.fn);
  s.fn = nullptr;  // moved-from functions are valid but unspecified; be explicit
  s.gen++;         // invalidates the heap entry and any outstanding EventId
  s.next_free = free_head_;
  free_head_ = slot;
  return fn;
}

bool Simulator::cancel(EventId id) {
  const std::uint32_t slot = static_cast<std::uint32_t>(id.value() & 0xffffffffu);
  const std::uint32_t gen = static_cast<std::uint32_t>(id.value() >> 32);
  if (slot >= slots_.size() || slots_[slot].gen != gen) return false;
  release_slot(slot);
  --live_;
  return true;
}

bool Simulator::step() {
  while (!heap_.empty()) {
    const Entry e = heap_.top();
    heap_.pop();
    if (!entry_live(e)) continue;  // cancelled: the slot generation moved on
    auto fn = release_slot(e.slot);
    assert(fn && "live slab slot lost its handler");
    --live_;
    assert(e.at >= now_);
    now_ = e.at;
    ++executed_;
    digest_mix(static_cast<std::uint64_t>(e.at));
    digest_mix(e.seq);
#if NDSM_AUDIT_ENABLED
    if (executed_ % kAuditInterval == 0) audit_verify();
#endif
    fn();
    return true;
  }
  return false;
}

void Simulator::audit_verify() const {
  // Heap side: count entries whose generation still matches their slot.
  std::size_t heap_live = 0;
  for (const Entry& e : heap_.entries()) {
    NDSM_INVARIANT(e.slot < slots_.size(), "heap entry references a slot outside the slab");
    if (!entry_live(e)) continue;
    heap_live++;
    NDSM_INVARIANT(static_cast<bool>(slots_[e.slot].fn),
                   "live slab slot lost its handler (scheduled event with no callback)");
  }
  NDSM_INVARIANT(heap_live == live_,
                 "live heap entry count disagrees with the pending-event counter");
  // Slab side: the free list plus the live events must cover the slab
  // exactly; a longer walk than the slab has slots means a cycle.
  std::size_t free_len = 0;
  for (std::uint32_t s = free_head_; s != kNoSlot; s = slots_[s].next_free) {
    NDSM_INVARIANT(s < slots_.size(), "free list references a slot outside the slab");
    free_len++;
    NDSM_INVARIANT(free_len <= slots_.size(), "free list is cyclic");
  }
  NDSM_INVARIANT(free_len + live_ == slots_.size(),
                 "slab slots leaked: free list + live events do not cover the slab");
}

void Simulator::run_until(Time deadline) {
  while (!heap_.empty()) {
    // Skip cancelled entries so top() reflects a live event.
    while (!heap_.empty() && !entry_live(heap_.top())) heap_.pop();
    if (heap_.empty() || heap_.top().at > deadline) break;
    step();
  }
  if (now_ < deadline) now_ = deadline;
}

void Simulator::run_all(std::size_t max_events) {
  for (std::size_t i = 0; i < max_events; ++i) {
    if (!step()) return;
  }
}

}  // namespace ndsm::sim
