#pragma once
// Traffic generators and end-of-run checks shared by the workloads. They
// are written against a Clock (sim time or the UDP stacks' monotonic
// time), so one generator drives both backends. Latencies are measured on
// the wall clock, and on sim workloads also on the simulator's clock.

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "apps/replfs/replfs.hpp"
#include "discovery/service_discovery.hpp"
#include "fleet.hpp"
#include "sim/simulator.hpp"
#include "transport/reliable.hpp"

namespace perfbench {

struct Clock {
  std::function<Time()> now;
  std::function<void(Time, std::function<void()>)> after;
  bool simulated = false;  // now() is sim time, not wall time

  [[nodiscard]] static Clock of(sim::Simulator& sim);
  [[nodiscard]] static Clock of(net::Stack& stack);
};

// When an operation started, on the wall clock and on the workload's clock.
struct Started {
  double wall_s;
  Time clock;
  bool sampled;  // issued inside the measured window
};

struct Window {
  bool generating = true;  // generators still issue new operations
  bool open = false;       // inside the measured window
};

// The supplier description providers register and consumers query for.
[[nodiscard]] qos::SupplierQos echo_service();
[[nodiscard]] qos::ConsumerQos echo_query();

inline constexpr transport::Port kAppPort = transport::ports::kApp;

// Reliable application messages (each carries a unique id) plus
// discovery queries, with the accounting the checks need: every issued
// operation is counted as attempted, and failed if it errors or a query
// comes back empty.
class AppTraffic {
 public:
  AppTraffic(Clock clock, SpanRecorder* spans, Window& window, RepOutcome& out,
             std::size_t payload_bytes);

  AppTraffic(const AppTraffic&) = delete;
  AppTraffic& operator=(const AppTraffic&) = delete;

  // Run `fn` at `phase`, then every `period`, while the window generates.
  void every(Time period, Time phase, std::function<void()> fn);
  // Send one message to `dst`'s app port; `then` runs when it completes.
  void send(transport::ReliableTransport& from, NodeId dst, std::function<void()> then = {});
  // Query for the echo service, then send the best provider a message.
  void query_and_send(discovery::ServiceDiscovery& disco, transport::ReliableTransport& from);

  // Receiver side (bound by AppSink).
  void on_receive(const Bytes& payload);

  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }
  [[nodiscard]] std::size_t in_flight() const { return in_flight_; }
  [[nodiscard]] std::uint64_t queries() const { return queries_; }
  [[nodiscard]] std::uint64_t queries_answered() const { return answered_; }
  [[nodiscard]] std::uint64_t acked() const { return acked_.size(); }
  // No message delivered twice; every acked message was delivered.
  void check(std::vector<std::string>& violations) const;

 private:
  struct Ticker {
    Time period;
    std::function<void()> fn;
  };
  void tick(Ticker* ticker);

  Clock clock_;
  SpanRecorder* spans_;
  Window& window_;
  RepOutcome& out_;
  std::size_t payload_bytes_;
  std::vector<std::unique_ptr<Ticker>> tickers_;
  std::uint64_t next_id_ = 1;
  std::size_t in_flight_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t queries_ = 0;
  std::uint64_t answered_ = 0;
  std::set<std::uint64_t> received_;
  std::vector<std::uint64_t> acked_;
};

// Runtime service binding the app port to an AppTraffic receiver, so the
// binding is rebuilt when a crashed node restarts.
class AppSink {
 public:
  AppSink(transport::ReliableTransport& transport, AppTraffic& traffic);
  ~AppSink();
  AppSink(const AppSink&) = delete;
  AppSink& operator=(const AppSink&) = delete;

 private:
  transport::ReliableTransport& transport_;
};

// ReplFS writes of random values over a fixed key set, remembering the
// last acked value of each key for the durability check.
class ReplfsWriter {
 public:
  ReplfsWriter(Clock clock, apps::replfs::Client& client, SpanRecorder* spans,
               std::uint64_t seed, Window& window, RepOutcome& out,
               std::size_t min_bytes = 64, std::size_t max_bytes = 1900);

  // Back to back: each callback issues the next write.
  void start() { write(true); }
  // Open loop: one write every `period`, whatever is still in flight.
  void start_every(Time period);
  [[nodiscard]] std::uint64_t commits() const { return commits_; }
  [[nodiscard]] std::uint64_t commits_in_window() const { return commits_in_window_; }
  // Every key whose last write was acked holds that value on every replica.
  void check_durable(const std::vector<const apps::replfs::Server*>& servers,
                     std::vector<std::string>& violations) const;

 private:
  void write(bool chain);
  void tick(Time period);

  Clock clock_;
  apps::replfs::Client& client_;
  SpanRecorder* spans_;
  Rng rng_;
  Window& window_;
  RepOutcome& out_;
  std::size_t min_bytes_;
  std::size_t max_bytes_;
  std::uint64_t issued_ = 0;
  std::uint64_t commits_ = 0;
  std::uint64_t commits_in_window_ = 0;
  struct KeyState {
    Bytes value;
    std::uint64_t write = 0;  // issue number of the key's latest write
    bool acked = false;
  };
  std::map<std::string, KeyState> last_;
};

// --- simulator helpers -------------------------------------------------------

struct WindowTimes {
  double wall_s = 0;
  std::uint64_t events = 0;
  std::size_t heap_peak = 0;
};

// Open the window, run it for `length` of sim time in 100 ms slices
// (sampling the heap depth between slices), close it.
WindowTimes run_window(sim::Simulator& sim, Window& window, Time length, SpanRecorder* spans);
// Run in 100 ms slices while `busy()` holds, for at most `limit`.
void drain(sim::Simulator& sim, const std::function<bool()>& busy, Time limit,
           SpanRecorder* spans);

// sim.*, net.*, routing/transport counters, span totals, codec replay and
// the unaccounted share, for a traced sim repetition.
void add_sim_layer_metrics(const net::World& world,
                           const WindowTimes& times, const Tracing& tracing,
                           const StackCounters& counters, std::map<std::string, double>& layer);
void add_replfs_client_metrics(const apps::replfs::Client& client,
                               std::map<std::string, double>& layer);
void add_discovery_metrics(const AppTraffic& traffic, std::map<std::string, double>& layer);

}  // namespace perfbench
