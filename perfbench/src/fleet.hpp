#pragma once
// Shared pieces of the three workloads: the tracing net::Stack decorator,
// per-node ownership of stack + Runtime, stat harvesting across crashes,
// and the result one repetition of a workload hands back to main.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/stack.hpp"
#include "net/world_stack.hpp"
#include "node/runtime.hpp"
#include "routing/router.hpp"
#include "spans.hpp"

namespace perfbench {

using namespace ndsm;

// State of one traced repetition.
struct Tracing {
  explicit Tracing(std::size_t log_capacity) : spans(log_capacity) {}

  SpanRecorder spans;
  std::uint64_t link_sends = 0;  // send_frame + broadcast_frame calls
  std::uint64_t raw_app_bytes = 0;  // kMazewar/kReplfsData payload bytes handed up
  // A sample of inbound routing frames, replayed through decode_routing
  // after the run to time the codec in isolation.
  std::vector<std::shared_ptr<const Bytes>> routing_frames;
  static constexpr std::size_t kRoutingSample = 20000;
};

// net::Stack decorator for the traced run: forwards every call to the
// wrapped stack (world_ptr() included, so RouterPolicy::kGlobal still
// works) and records a span around link sends, each frame-handler
// invocation and each schedule_after callback. It schedules nothing of its
// own, so the simulator executes the same events in the same order as an
// untraced run.
class TracingStack final : public net::Stack {
 public:
  TracingStack(net::Stack& inner, Tracing& tracing, Bucket send_bucket)
      : inner_(inner), tracing_(tracing), send_bucket_(send_bucket) {}

  // The Runtime whose router's delivery counter classifies routing frames.
  void watch(node::Runtime* runtime) { runtime_ = runtime; }

  [[nodiscard]] NodeId self() const override { return inner_.self(); }
  [[nodiscard]] bool online() const override { return inner_.online(); }
  bool set_link_up() override { return inner_.set_link_up(); }
  void set_link_down() override { inner_.set_link_down(); }
  [[nodiscard]] Vec2 self_position() const override { return inner_.self_position(); }
  [[nodiscard]] std::optional<Vec2> position_of(NodeId node) const override {
    return inner_.position_of(node);
  }
  [[nodiscard]] bool peer_online(NodeId node) const override { return inner_.peer_online(node); }

  Status send_frame(NodeId dst, net::Proto proto, Bytes payload) override {
    tracing_.link_sends++;
    const Span span(&tracing_.spans, send_bucket_);
    return inner_.send_frame(dst, proto, std::move(payload));
  }
  Status broadcast_frame(net::Proto proto, Bytes payload) override {
    tracing_.link_sends++;
    const Span span(&tracing_.spans, send_bucket_);
    return inner_.broadcast_frame(proto, std::move(payload));
  }
  void set_frame_handler(net::Proto proto, FrameHandler handler) override {
    inner_.set_frame_handler(proto, [this, handler = std::move(handler)](
                                        const net::LinkFrame& frame) { handle(frame, handler); });
  }
  void clear_frame_handler(net::Proto proto) override { inner_.clear_frame_handler(proto); }

  [[nodiscard]] Time now() const override { return inner_.now(); }
  EventId schedule_after(Time delay, std::function<void()> fn) override {
    return inner_.schedule_after(delay, [this, fn = std::move(fn)] {
      const Span span(&tracing_.spans, Bucket::kTimer);
      fn();
    });
  }
  void cancel(EventId id) override { inner_.cancel(id); }
  [[nodiscard]] Rng fork_rng(std::uint64_t salt) override { return inner_.fork_rng(salt); }
  [[nodiscard]] std::uint64_t incarnation_epoch() const override {
    return inner_.incarnation_epoch();
  }
  [[nodiscard]] net::World* world_ptr() override { return inner_.world_ptr(); }

 private:
  void handle(const net::LinkFrame& frame, const FrameHandler& handler);
  [[nodiscard]] std::uint64_t delivered() const;

  net::Stack& inner_;
  Tracing& tracing_;
  Bucket send_bucket_;
  node::Runtime* runtime_ = nullptr;
};

// Router decorator for the traced run: a span around Router::send and
// Router::flood of the wrapped router, whose local deliveries it passes up
// unchanged. Counters stay on the wrapped router (see counted()).
class TracingRouter final : public routing::Router {
 public:
  TracingRouter(net::Stack& stack, std::unique_ptr<routing::Router> inner, Tracing& tracing);

  Status send(NodeId dst, net::Proto upper, Bytes payload) override;
  Status flood(net::Proto upper, Bytes payload, int ttl) override;

  [[nodiscard]] const routing::Router& inner() const { return *inner_; }

 private:
  std::unique_ptr<routing::Router> inner_;
  Tracing& tracing_;
};

// The router whose counters describe the node's routing: the wrapped one
// when traced. Null while the node is crashed.
[[nodiscard]] const routing::Router* counted(node::Runtime& rt);

// `config` with its policy's router wrapped in a TracingRouter when
// `tracing` is set (kGlobal and kFlooding, the policies the workloads use).
[[nodiscard]] node::StackConfig with_router_spans(node::StackConfig config, Tracing* tracing);

// One simulated node: its stack (wrapped when traced) and its Runtime,
// declared last so it is destroyed before the stacks it runs on.
struct SimNode {
  std::unique_ptr<net::WorldStack> world_stack;
  std::unique_ptr<TracingStack> traced;
  std::unique_ptr<node::Runtime> rt;

  [[nodiscard]] net::Stack& stack() {
    return traced ? static_cast<net::Stack&>(*traced) : *world_stack;
  }
};

// Build a node on an existing World node id; `tracing` null = untraced.
[[nodiscard]] std::unique_ptr<SimNode> make_sim_node(net::World& world, NodeId id,
                                                     const node::StackConfig& config,
                                                     Tracing* tracing);

// Router and transport counters summed over every incarnation: harvest()
// a node before it crashes and once more at the end of the run.
struct StackCounters {
  routing::RouterStats routing;
  transport::TransportStats transport;
  void harvest(node::Runtime& rt);
};

// Crash/restart a Runtime, harvesting its counters first and timing the
// call as a node span when traced.
void crash_node(node::Runtime& rt, StackCounters& counters, Tracing* tracing);
void restart_node(node::Runtime& rt, Tracing* tracing);

// Everything one repetition of a workload reports.
struct RepOutcome {
  double setup_s = 0;
  double wall_s = 0;  // wall time of the measured window
  double sim_s = 0;   // stack time of the measured window
  std::uint64_t app_msgs = 0;  // delivered to application receivers in the window
  std::uint64_t commits = 0;   // ReplFS writes acked by every replica in the window
  std::uint64_t attempted = 0;  // operations issued over the repetition
  std::uint64_t failed = 0;     // of which failed or came back empty
  // Latencies of operations issued in the window, in wall-clock ms:
  // reliable send to final ack, and Client::write to its callback.
  std::vector<double> rtt_ms;
  std::vector<double> commit_ms;
  // The same latencies on the simulator's clock (sim workloads only).
  std::vector<double> sim_rtt_ms;
  std::vector<double> sim_commit_ms;
  std::optional<std::uint64_t> digest;  // Simulator::digest() (sim workloads)
  std::vector<std::string> violations;  // failed correctness checks
  std::map<std::string, double> layer;  // per-layer metrics (traced repetitions)
  bool multicast = false;  // udp_loopback: broadcasts used multicast
};

struct RepOptions {
  std::uint64_t seed = 1;
  Tracing* tracing = nullptr;
};

RepOutcome run_lan_apps(const RepOptions& options);
RepOutcome run_field_churn(const RepOptions& options);
RepOutcome run_udp_loopback(const RepOptions& options);

// Wall seconds since an arbitrary epoch (steady clock).
[[nodiscard]] double wall_now_s();

// Per-layer metrics shared by the workloads: span totals (spans.hpp) and
// the router/transport counters.
void add_span_metrics(const Tracing& tracing, std::map<std::string, double>& layer);
void add_stack_metrics(const StackCounters& counters, std::map<std::string, double>& layer);
// Time decode_routing over the captured routing frames.
void add_decode_metric(const Tracing& tracing, std::map<std::string, double>& layer);
// Registry size, a timed snapshot, and the routing hop mean read from it.
void add_obs_metrics(Tracing& tracing, std::map<std::string, double>& layer);

// Safe ratio: 0 when the denominator is 0.
[[nodiscard]] inline double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

}  // namespace perfbench
