#pragma once
// Deterministic fault injection (net::FaultPlan) — the adversary the
// recovery (§3.8), QoS (§3.4) and transaction (§3.6) machinery is
// supposed to survive. The only fault model the World provides natively
// is independent per-frame loss; a FaultPlan scripts everything else
// against it:
//
//   * link partitions with heal times — an "island" node set is split off
//     and every cross-partition frame is dropped until the heal fires,
//   * Gilbert–Elliott burst loss per medium — a two-state (good/bad)
//     channel stepped once per frame, so losses arrive in bursts instead
//     of independently,
//   * frame duplication — a copy of the frame is delivered again after a
//     bounded extra delay,
//   * bounded delay jitter — frames are held back by a random extra
//     delay, reordering traffic across messages. A frame and its own
//     duplicate can never invert (the World schedules the copy second, at
//     >= the original's time), and a fragment and its retransmission are
//     byte-identical, so transport correctness only needs the jitter
//     bound to stay below the retransmission timeout — keep
//     `max_extra_delay` under `TransportConfig::initial_rto`,
//   * scheduled pause()/resume() — the node goes link-dead (World::kill)
//     with its stack intact, then rejoins (World::revive),
//   * scripted crash()/restart() — full fail-stop through hooks the
//     deployment wires to node::Runtime::crash()/restart() (the net layer
//     cannot depend on node::).
//
// Determinism: every draw comes from an Rng forked off the sim RNG at
// construction, and the World consults the plan in its already
// deterministic (sorted) receiver order — so twin runs with the same sim
// seed and the same fault script are byte-identical, event digest
// included. No wall clock, no global randomness (lint-enforced).

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"
#include "net/world.hpp"
#include "obs/metrics.hpp"

namespace ndsm::net {

// Two-state Gilbert–Elliott channel: per-frame state transitions with
// distinct loss probabilities per state. Defaults model a clean channel.
struct BurstLossSpec {
  double p_good_to_bad = 0.0;  // per-frame P(enter burst)
  double p_bad_to_good = 0.0;  // per-frame P(leave burst)
  double loss_good = 0.0;      // extra loss while good
  double loss_bad = 0.0;       // extra loss while bad
};

// Per-(frame, receiver) verdict from FaultPlan::on_frame. The duplicate
// copy is always scheduled after the original with a non-negative extra
// delay, so a duplicate can never overtake the frame it copies.
struct FaultDecision {
  bool drop = false;
  bool duplicate = false;
  Time extra_delay = 0;            // added to the medium's transmission delay
  Time duplicate_extra_delay = 0;  // duplicate's delay beyond the original's
};

struct FaultStats {
  std::uint64_t partition_drops = 0;      // frames dropped crossing a partition
  std::uint64_t burst_drops = 0;          // frames lost to the G-E channel
  std::uint64_t duplicates_injected = 0;
  std::uint64_t frames_jittered = 0;
  std::uint64_t bursts_entered = 0;       // good -> bad transitions
  std::uint64_t partitions_started = 0;
  std::uint64_t partitions_healed = 0;
  std::uint64_t pauses = 0;
  std::uint64_t resumes = 0;
  std::uint64_t crashes = 0;
  std::uint64_t restarts = 0;
};

class FaultPlan {
 public:
  using LifecycleHook = std::function<void(NodeId)>;

  // Attaches itself as the world's fault plan. `fault_seed` salts the
  // fork off the sim RNG, so two plans with the same script but different
  // seeds draw different (but each reproducible) fault sequences.
  explicit FaultPlan(World& world, std::uint64_t fault_seed = 0xfa017);
  ~FaultPlan();

  FaultPlan(const FaultPlan&) = delete;
  FaultPlan& operator=(const FaultPlan&) = delete;

  // --- scripted faults (times are delays from now, like schedule_after) ----
  // Split `island` from the rest of the world at `at`; heal `heal_after`
  // later. Concurrent partitions compose (a frame is dropped if any active
  // partition separates its endpoints).
  void partition(Time at, std::vector<NodeId> island, Time heal_after);
  // Link-dead at `at` (stack intact), rejoin `resume_after` later.
  void pause(Time at, NodeId node, Time resume_after);
  // Fail-stop at `at`, restart `restart_after` later. Requires lifecycle
  // hooks; typically rt.crash()/rt.restart() of the node's Runtime.
  void crash(Time at, NodeId node, Time restart_after);
  void set_lifecycle_hooks(LifecycleHook crash_hook, LifecycleHook restart_hook);

  // --- stochastic channels (armed immediately, applied per frame) ----------
  void burst_loss(MediumId medium, BurstLossSpec spec);
  // Duplicate each frame with `probability`; the copy arrives up to
  // `max_extra_delay` after the original (never before it).
  void duplication(double probability, Time max_extra_delay);
  // Delay each frame with `probability` by up to `max_extra_delay`. Keep
  // the bound below the transport's initial RTO (see header comment).
  void jitter(double probability, Time max_extra_delay);

  [[nodiscard]] const FaultStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t active_partitions() const;
  [[nodiscard]] bool separated(NodeId a, NodeId b) const;

  // Called by the World once per (frame, receiver).
  FaultDecision on_frame(NodeId src, NodeId dst, MediumId medium, std::size_t wire_bytes);

 private:
  struct Partition {
    std::vector<NodeId> island;  // sorted
    bool active = false;
  };
  struct GeChannel {
    BurstLossSpec spec;
    bool bad = false;
  };

  EventId schedule(Time after, std::function<void()> fn);
  void register_metrics();

  World& world_;
  Rng rng_;
  FaultStats stats_;
  std::vector<Partition> partitions_;
  std::map<MediumId, GeChannel> channels_;
  double dup_probability_ = 0.0;
  Time dup_max_delay_ = 0;
  double jitter_probability_ = 0.0;
  Time jitter_max_delay_ = 0;
  LifecycleHook crash_hook_;
  LifecycleHook restart_hook_;
  // Every scripted event, cancelled on destruction (stale ids are a no-op,
  // so fired events need no bookkeeping).
  std::vector<EventId> scheduled_;
  // Declared last: views point at stats_ above.
  obs::MetricGroup metrics_;
};

}  // namespace ndsm::net
