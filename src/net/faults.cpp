#include "net/faults.hpp"

#include <algorithm>
#include <cassert>

#include "common/audit.hpp"
#include "common/log.hpp"
#include "obs/trace.hpp"

namespace ndsm::net {

FaultPlan::FaultPlan(World& world, std::uint64_t fault_seed)
    : world_(world), rng_(world.sim().rng().fork(fault_seed)) {
  NDSM_INVARIANT(world_.fault_plan() == nullptr,
                 "a World supports at most one attached FaultPlan");
  world_.set_fault_plan(this);
  register_metrics();
}

FaultPlan::~FaultPlan() {
  if (world_.fault_plan() == this) world_.set_fault_plan(nullptr);
  for (const EventId id : scheduled_) {
    if (id.valid()) world_.sim().cancel(id);
  }
}

void FaultPlan::register_metrics() {
  metrics_.set_labels("net.faults");
  metrics_.counter("net.faults.partition_drops", &stats_.partition_drops);
  metrics_.counter("net.faults.burst_drops", &stats_.burst_drops);
  metrics_.counter("net.faults.duplicates_injected", &stats_.duplicates_injected);
  metrics_.counter("net.faults.frames_jittered", &stats_.frames_jittered);
  metrics_.counter("net.faults.bursts_entered", &stats_.bursts_entered);
  metrics_.counter("net.faults.partitions_started", &stats_.partitions_started);
  metrics_.counter("net.faults.partitions_healed", &stats_.partitions_healed);
  metrics_.counter("net.faults.pauses", &stats_.pauses);
  metrics_.counter("net.faults.resumes", &stats_.resumes);
  metrics_.counter("net.faults.crashes", &stats_.crashes);
  metrics_.counter("net.faults.restarts", &stats_.restarts);
  metrics_.gauge("net.faults.active_partitions",
                 [this] { return static_cast<double>(active_partitions()); });
}

EventId FaultPlan::schedule(Time after, std::function<void()> fn) {
  const EventId id = world_.sim().schedule_after(after, std::move(fn));
  scheduled_.push_back(id);
  return id;
}

void FaultPlan::partition(Time at, std::vector<NodeId> island, Time heal_after) {
  std::sort(island.begin(), island.end());
  island.erase(std::unique(island.begin(), island.end()), island.end());
  partitions_.push_back(Partition{std::move(island), false});
  const std::size_t index = partitions_.size() - 1;
  schedule(at, [this, index, heal_after] {
    partitions_[index].active = true;
    stats_.partitions_started++;
    NDSM_INFO("faults", "partition " << index << " started ("
                                     << partitions_[index].island.size() << "-node island)");
    obs::Tracer::instance().event("net.faults", "partition_start",
                                  static_cast<std::int64_t>(index), {});
    schedule(heal_after, [this, index] {
      partitions_[index].active = false;
      stats_.partitions_healed++;
      NDSM_INFO("faults", "partition " << index << " healed");
      obs::Tracer::instance().event("net.faults", "partition_heal",
                                    static_cast<std::int64_t>(index), {});
    });
  });
}

void FaultPlan::pause(Time at, NodeId node, Time resume_after) {
  schedule(at, [this, node, resume_after] {
    if (world_.alive(node)) {
      world_.kill(node);
      stats_.pauses++;
    }
    schedule(resume_after, [this, node] {
      world_.revive(node);
      if (world_.alive(node)) stats_.resumes++;
    });
  });
}

void FaultPlan::crash(Time at, NodeId node, Time restart_after) {
  schedule(at, [this, node, restart_after] {
    NDSM_INVARIANT(crash_hook_ && restart_hook_,
                   "FaultPlan::crash needs set_lifecycle_hooks() wired to node runtimes");
    crash_hook_(node);
    stats_.crashes++;
    schedule(restart_after, [this, node] {
      restart_hook_(node);
      stats_.restarts++;
    });
  });
}

void FaultPlan::set_lifecycle_hooks(LifecycleHook crash_hook, LifecycleHook restart_hook) {
  crash_hook_ = std::move(crash_hook);
  restart_hook_ = std::move(restart_hook);
}

void FaultPlan::burst_loss(MediumId medium, BurstLossSpec spec) {
  assert(spec.p_good_to_bad >= 0 && spec.p_good_to_bad <= 1);
  assert(spec.p_bad_to_good >= 0 && spec.p_bad_to_good <= 1);
  channels_[medium] = GeChannel{spec, false};
}

void FaultPlan::duplication(double probability, Time max_extra_delay) {
  assert(probability >= 0 && probability <= 1);
  assert(max_extra_delay >= 0);
  dup_probability_ = probability;
  dup_max_delay_ = max_extra_delay;
}

void FaultPlan::jitter(double probability, Time max_extra_delay) {
  assert(probability >= 0 && probability <= 1);
  assert(max_extra_delay >= 0);
  jitter_probability_ = probability;
  jitter_max_delay_ = max_extra_delay;
}

std::size_t FaultPlan::active_partitions() const {
  std::size_t n = 0;
  for (const Partition& p : partitions_) n += p.active ? 1 : 0;
  return n;
}

bool FaultPlan::separated(NodeId a, NodeId b) const {
  for (const Partition& p : partitions_) {
    if (!p.active) continue;
    const bool a_in = std::binary_search(p.island.begin(), p.island.end(), a);
    const bool b_in = std::binary_search(p.island.begin(), p.island.end(), b);
    if (a_in != b_in) return true;
  }
  return false;
}

FaultDecision FaultPlan::on_frame(NodeId src, NodeId dst, MediumId medium,
                                  std::size_t /*wire_bytes*/) {
  FaultDecision d;
  // Partition drops are deterministic (no draw): an active partition
  // separating the endpoints swallows the frame outright.
  if (separated(src, dst)) {
    stats_.partition_drops++;
    d.drop = true;
    return d;
  }
  const auto channel = channels_.find(medium);
  if (channel != channels_.end()) {
    GeChannel& ge = channel->second;
    if (ge.bad) {
      if (rng_.bernoulli(ge.spec.p_bad_to_good)) ge.bad = false;
    } else if (rng_.bernoulli(ge.spec.p_good_to_bad)) {
      ge.bad = true;
      stats_.bursts_entered++;
    }
    if (rng_.bernoulli(ge.bad ? ge.spec.loss_bad : ge.spec.loss_good)) {
      stats_.burst_drops++;
      d.drop = true;
      return d;
    }
  }
  if (jitter_probability_ > 0 && jitter_max_delay_ > 0 &&
      rng_.bernoulli(jitter_probability_)) {
    d.extra_delay = rng_.uniform_int(1, jitter_max_delay_);
    stats_.frames_jittered++;
  }
  if (dup_probability_ > 0 && rng_.bernoulli(dup_probability_)) {
    d.duplicate = true;
    d.duplicate_extra_delay = dup_max_delay_ > 0 ? rng_.uniform_int(0, dup_max_delay_) : 0;
    stats_.duplicates_injected++;
  }
  return d;
}

}  // namespace ndsm::net
