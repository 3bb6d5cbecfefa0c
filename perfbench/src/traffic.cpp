#include "traffic.hpp"

#include <cstring>

#include "net/world.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

Clock Clock::of(sim::Simulator& sim) {
  return Clock{[&sim] { return sim.now(); },
               [&sim](Time delay, std::function<void()> fn) {
                 sim.schedule_after(delay, std::move(fn));
               },
               true};
}

Clock Clock::of(net::Stack& stack) {
  return Clock{[&stack] { return stack.now(); },
               [&stack](Time delay, std::function<void()> fn) {
                 stack.schedule_after(delay, std::move(fn));
               },
               false};
}

qos::SupplierQos echo_service() {
  qos::SupplierQos q;
  q.service_type = "echo";
  q.attributes = {{"format", serialize::Value{"bytes"}}};
  q.reliability = 0.99;
  return q;
}

qos::ConsumerQos echo_query() {
  qos::ConsumerQos q;
  q.service_type = "echo";
  q.min_reliability = 0.9;
  return q;
}

namespace {

// Record the latency of an operation that started at `started`.
void sample(const Clock& clock, const Started& started, std::vector<double>& wall_ms,
            std::vector<double>& sim_ms) {
  if (!started.sampled) return;
  wall_ms.push_back((wall_now_s() - started.wall_s) * 1e3);
  if (clock.simulated) sim_ms.push_back(static_cast<double>(clock.now() - started.clock) / 1e3);
}

}  // namespace

AppTraffic::AppTraffic(Clock clock, SpanRecorder* spans, Window& window, RepOutcome& out,
                       std::size_t payload_bytes)
    : clock_(std::move(clock)),
      spans_(spans),
      window_(window),
      out_(out),
      payload_bytes_(std::max<std::size_t>(payload_bytes, sizeof(std::uint64_t))) {}

void AppTraffic::every(Time period, Time phase, std::function<void()> fn) {
  tickers_.push_back(std::make_unique<Ticker>(Ticker{period, std::move(fn)}));
  Ticker* ticker = tickers_.back().get();
  clock_.after(phase, [this, ticker] { tick(ticker); });
}

void AppTraffic::tick(Ticker* ticker) {
  if (!window_.generating) return;
  ticker->fn();
  clock_.after(ticker->period, [this, ticker] { tick(ticker); });
}

void AppTraffic::send(transport::ReliableTransport& from, NodeId dst, std::function<void()> then) {
  const std::uint64_t id = next_id_++;
  Bytes payload(payload_bytes_, static_cast<std::uint8_t>(id));
  std::memcpy(payload.data(), &id, sizeof(id));
  const Started started{wall_now_s(), clock_.now(), window_.open};
  out_.attempted++;
  in_flight_++;
  const Span span(spans_, Bucket::kTransportSend);
  const Status status = from.send(
      dst, kAppPort, std::move(payload), [this, id, started, then = std::move(then)](Status s) {
        in_flight_--;
        if (s.is_ok()) {
          acked_.push_back(id);
          sample(clock_, started, out_.rtt_ms, out_.sim_rtt_ms);
        } else {
          out_.failed++;
        }
        if (then) then();
      });
  if (!status.is_ok()) {
    // Rejected up front: the completion handler never runs.
    in_flight_--;
    out_.failed++;
  }
}

void AppTraffic::query_and_send(discovery::ServiceDiscovery& disco,
                                transport::ReliableTransport& from) {
  out_.attempted++;
  queries_++;
  in_flight_++;
  const Span span(spans_, Bucket::kDiscoveryQuery);
  disco.query(
      echo_query(),
      [this, &from](std::vector<discovery::ServiceRecord> records) {
        in_flight_--;
        if (records.empty()) {
          out_.failed++;
          return;
        }
        answered_++;
        send(from, records.front().provider);
      },
      /*max_results=*/4, /*timeout=*/duration::seconds(5));
}

void AppTraffic::on_receive(const Bytes& payload) {
  std::uint64_t id = 0;
  if (payload.size() >= sizeof(id)) std::memcpy(&id, payload.data(), sizeof(id));
  delivered_++;
  if (!received_.insert(id).second) duplicates_++;
}

void AppTraffic::check(std::vector<std::string>& violations) const {
  if (duplicates_ > 0) {
    violations.push_back(std::to_string(duplicates_) + " application messages delivered twice");
  }
  std::uint64_t missing = 0;
  for (const std::uint64_t id : acked_) missing += received_.count(id) == 0 ? 1 : 0;
  if (missing > 0) {
    violations.push_back(std::to_string(missing) + " acked application messages never delivered");
  }
}

AppSink::AppSink(transport::ReliableTransport& transport, AppTraffic& traffic)
    : transport_(transport) {
  transport_.set_receiver(kAppPort,
                          [&traffic](NodeId, const Bytes& payload) { traffic.on_receive(payload); });
}

AppSink::~AppSink() { transport_.clear_receiver(kAppPort); }

ReplfsWriter::ReplfsWriter(Clock clock, apps::replfs::Client& client, SpanRecorder* spans,
                           std::uint64_t seed, Window& window, RepOutcome& out,
                           std::size_t min_bytes, std::size_t max_bytes)
    : clock_(std::move(clock)),
      client_(client),
      spans_(spans),
      rng_(seed ^ 0x5e1f5),
      window_(window),
      out_(out),
      min_bytes_(min_bytes),
      max_bytes_(max_bytes) {}

void ReplfsWriter::start_every(Time period) {
  clock_.after(period, [this, period] { tick(period); });
}

void ReplfsWriter::tick(Time period) {
  if (!window_.generating) return;
  write(false);
  clock_.after(period, [this, period] { tick(period); });
}

void ReplfsWriter::write(bool chain) {
  if (!window_.generating) return;
  constexpr std::uint64_t kKeys = 64;
  const std::uint64_t n = ++issued_;
  std::string key = "k";
  key += std::to_string(n % kKeys);
  Bytes value(static_cast<std::size_t>(rng_.uniform_int(static_cast<std::int64_t>(min_bytes_),
                                                         static_cast<std::int64_t>(max_bytes_))));
  for (auto& b : value) b = static_cast<std::uint8_t>(rng_.next_u32());
  last_[key] = KeyState{value, n, false};
  const Started started{wall_now_s(), clock_.now(), window_.open};
  out_.attempted++;
  const Span span(spans_, Bucket::kReplfsWrite);
  client_.write(key, std::move(value), [this, key, n, started, chain](Status s) {
    if (s.is_ok()) {
      commits_++;
      if (window_.open) commits_in_window_++;
      sample(clock_, started, out_.commit_ms, out_.sim_commit_ms);
      KeyState& state = last_[key];
      if (state.write == n) state.acked = true;
    } else {
      out_.failed++;
    }
    if (chain) write(true);
  });
}

void ReplfsWriter::check_durable(const std::vector<const apps::replfs::Server*>& servers,
                                 std::vector<std::string>& violations) const {
  std::uint64_t missing = 0;
  for (const auto& [key, state] : last_) {
    if (!state.acked) continue;
    for (const apps::replfs::Server* server : servers) {
      if (server == nullptr) {
        missing++;
        continue;
      }
      const auto it = server->store().find(key);
      if (it == server->store().end() || it->second != state.value) missing++;
    }
  }
  if (missing > 0) {
    violations.push_back("replfs: " + std::to_string(missing) +
                         " acked (key, replica) pairs missing or stale");
  }
}

WindowTimes run_window(sim::Simulator& sim, Window& window, Time length, SpanRecorder* spans) {
  constexpr Time kSlice = duration::millis(100);
  WindowTimes times;
  window.open = true;
  if (spans != nullptr) spans->reset_totals();
  const std::uint64_t events_before = sim.executed_events();
  const Time end = sim.now() + length;
  const double wall_start = wall_now_s();
  while (sim.now() < end) {
    {
      const Span span(spans, Bucket::kSimRunUntil);
      sim.run_until(std::min(end, sim.now() + kSlice));
    }
    times.heap_peak = std::max(times.heap_peak, sim.heap_depth());
  }
  times.wall_s = wall_now_s() - wall_start;
  times.events = sim.executed_events() - events_before;
  window.open = false;
  return times;
}

void drain(sim::Simulator& sim, const std::function<bool()>& busy, Time limit,
           SpanRecorder* spans) {
  const Time end = sim.now() + limit;
  while (busy() && sim.now() < end) {
    const Span span(spans, Bucket::kSimRunUntil);
    sim.run_until(sim.now() + duration::millis(100));
  }
}

void add_sim_layer_metrics(const net::World& world,
                           const WindowTimes& times, const Tracing& tracing,
                           const StackCounters& counters, std::map<std::string, double>& layer) {
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const double events = d(times.events);
  layer["sim.events"] = events;
  layer["sim.events_per_s"] = ratio(events, times.wall_s);
  layer["sim.dispatch_ns_per_event"] =
      ratio(static_cast<double>(tracing.spans.totals(Bucket::kSimRunUntil).self_ns), events);
  layer["sim.heap_depth_peak"] = d(times.heap_peak);
  layer["trace.unaccounted_frac"] =
      1.0 - ratio(static_cast<double>(tracing.spans.covered_ns()), times.wall_s * 1e9);

  const net::WorldStats& w = world.stats();
  layer["net.frames_sent"] = d(w.frames_sent);
  layer["net.frames_delivered"] = d(w.frames_delivered);
  layer["net.frames_lost"] = d(w.frames_lost);
  layer["net.fault_drops"] = d(w.fault_drops);
  layer["net.fault_duplicates"] = d(w.fault_duplicates);
  layer["net.bytes_on_wire"] = d(w.bytes_on_wire);
  layer["net.deliveries_per_frame"] = ratio(d(w.frames_delivered), d(w.frames_sent));
  layer["net.grid_candidates_per_frame"] = ratio(d(w.grid_candidates), d(w.frames_sent));

  add_stack_metrics(counters, layer);
  add_span_metrics(tracing, layer);
  add_decode_metric(tracing, layer);
}

void add_replfs_client_metrics(const apps::replfs::Client& client,
                               std::map<std::string, double>& layer) {
  layer["replfs.commits"] = static_cast<double>(client.stats().writes_committed);
  layer["replfs.retry_rounds"] = static_cast<double>(client.stats().retry_rounds);
  layer["replfs.blocks_repaired"] = static_cast<double>(client.stats().blocks_repaired);
}

void add_discovery_metrics(const AppTraffic& traffic, std::map<std::string, double>& layer) {
  layer["discovery.queries_issued"] = static_cast<double>(traffic.queries());
  layer["discovery.answered_frac"] = ratio(static_cast<double>(traffic.queries_answered()),
                                           static_cast<double>(traffic.queries()));
}

}  // namespace perfbench
