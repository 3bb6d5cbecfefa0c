#pragma once
// Deterministic discrete-event simulator. All network, middleware and
// application activity is driven by events scheduled here; two runs with
// the same seed execute the same event sequence bit-for-bit. Ties on the
// event time are broken by insertion order.
//
// Hot-path design: events live in a slab (free-list vector of slots that
// own the callbacks), and the priority heap holds 24-byte POD entries
// (time, seq, slot, generation). Scheduling is a free-list pop plus a heap
// push; step() is a heap pop plus a generation compare — no hashing
// anywhere. cancel() bumps the slot generation, which turns the already
// queued heap entry into a tombstone that step() skips for free. An
// EventId packs (generation << 32 | slot), so a reused slot never honours
// a stale cancel.

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/audit.hpp"
#include "common/clock.hpp"
#include "common/ids.hpp"
#include "common/periodic_timer.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"

namespace ndsm::sim {

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 42) : rng_(seed) {
    // Publish this simulator's virtual clock so the logger and the obs
    // tracer stamp records with sim time (last-constructed wins).
    bind_sim_clock(this, [](const void* s) {
      return static_cast<const Simulator*>(s)->now();
    });
    // Any NDSM_INVARIANT failure from here on dumps the tracer ring to
    // out/flightrec-invariant.jsonl before aborting (sim links obs;
    // common, where the invariant lives, cannot).
    obs::install_invariant_flight_hook();
    register_metrics();
  }
  ~Simulator() { unbind_sim_clock(this); }

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] Time now() const { return now_; }
  [[nodiscard]] Rng& rng() { return rng_; }

  // Schedule `fn` at absolute time `at` (>= now). Returns an id usable
  // with cancel().
  EventId schedule_at(Time at, std::function<void()> fn);
  EventId schedule_after(Time delay, std::function<void()> fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  // Cancel a pending event. Cancelling an already-fired or unknown event
  // is a no-op and returns false.
  bool cancel(EventId id);

  // Execute the next pending event; returns false if none remain.
  bool step();

  // Run all events with time <= deadline, then advance the clock to
  // exactly `deadline`.
  void run_until(Time deadline);

  // Run until the event queue drains (use with care: periodic timers keep
  // the queue non-empty forever).
  void run_all(std::size_t max_events = SIZE_MAX);

  // Exact count of live (scheduled, not yet fired or cancelled) events.
  [[nodiscard]] std::size_t pending() const { return live_; }
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }

  // Slab introspection (exported as obs gauges; also used by tests).
  [[nodiscard]] std::size_t slab_capacity() const { return slots_.size(); }
  [[nodiscard]] std::size_t heap_depth() const { return heap_.size(); }

  // Event-order digest: an FNV-1a hash folded over (time, insertion seq)
  // of every executed event. Two runs produced the same digest iff they
  // executed the same events in the same order at the same virtual times
  // — the one-value determinism witness twin-run tests compare instead of
  // full counter dumps. Exported via obs as sim.simulator.event_digest.
  [[nodiscard]] std::uint64_t digest() const { return digest_; }

  // Slab/heap consistency verifier (the NDSM_AUDIT hook; callable from
  // any build). Walks the free list and the heap and aborts with a
  // diagnostic if the slab bookkeeping ever disagrees with the heap:
  //   * every heap entry references a slot inside the slab,
  //   * the number of live heap entries equals pending(),
  //   * every live entry's slot still owns a callback,
  //   * free-list length + live count covers the slab exactly (no leaked
  //     and no doubly-freed slots, no free-list cycle).
  // NDSM_AUDIT builds run this automatically every kAuditInterval steps.
  void audit_verify() const;

  // Steps between automatic audit_verify() calls in NDSM_AUDIT builds.
  static constexpr std::uint64_t kAuditInterval = 1024;

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  // One slab slot per in-flight event; freed slots chain on a free list
  // and recycle their callback capacity. `gen` increments on every
  // release, so (slot, gen) pairs in the heap and in EventIds stay unique
  // across reuse (wraps after 2^32 reuses of one slot).
  struct Slot {
    std::function<void()> fn;
    std::uint32_t gen = 0;
    std::uint32_t next_free = kNoSlot;
  };

  struct Entry {
    Time at;
    std::uint64_t seq;  // global insertion order: deterministic tie-break
    std::uint32_t slot;
    std::uint32_t gen;
    // Ordered as a min-heap on (at, seq).
    friend bool operator>(const Entry& a, const Entry& b) {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };

  [[nodiscard]] bool entry_live(const Entry& e) const {
    return slots_[e.slot].gen == e.gen;
  }
  // Detach the callback, bump the generation and recycle the slot.
  std::function<void()> release_slot(std::uint32_t slot);
  void register_metrics();

  // Thin wrapper so audit_verify() can scan the underlying heap storage
  // (std::priority_queue keeps its container protected).
  struct EntryHeap : std::priority_queue<Entry, std::vector<Entry>, std::greater<>> {
    [[nodiscard]] const std::vector<Entry>& entries() const { return c; }
  };

  // FNV-1a fold of one executed event into the run digest.
  void digest_mix(std::uint64_t v) {
    digest_ ^= v;
    digest_ *= 0x100000001b3ULL;
  }

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t digest_ = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  std::size_t live_ = 0;
  std::uint32_t free_head_ = kNoSlot;
  Rng rng_;
  std::vector<Slot> slots_;
  EntryHeap heap_;
  obs::MetricGroup metrics_;
};

using PeriodicTimer = BasicPeriodicTimer<Simulator>;

}  // namespace ndsm::sim
