// perfbench driver: runs one workload for a wall-clock budget and prints
// one JSON object as its last stdout line (perfbench/run.py turns it into
// the benchmark result). Usage:
//
//   perfbench --workload <lan_apps|field_churn|udp_loopback> --seed <n>
//             --seconds <s> --trace <0|1> [--span-log <path>]
//
// A run repeats the workload, each repetition with the same seed, until
// the budget is spent (at least twice untraced, or once untraced and once
// traced). Untraced repetitions give the end-to-end metrics as medians;
// traced ones give the per-layer metrics. On the simulated workloads every
// repetition must end with the same Simulator::digest(): that is both the
// twin-run check and the check that tracing changed nothing.

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "fleet.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

// Every per-layer metric a traced run reports; a layer a workload does not
// exercise reads 0.
constexpr const char* kLayerMetrics[] = {
    "sim.events", "sim.events_per_s", "sim.dispatch_ns_per_event", "sim.heap_depth_peak",
    "sim.timers_fired", "sim.timer_self_ns_per_fire", "sim.sim_s_per_wall_s",
    "sim.rtt_p99_ms", "sim.commit_p99_ms",
    "net.frames_sent", "net.frames_delivered", "net.frames_lost", "net.fault_drops",
    "net.fault_duplicates", "net.bytes_on_wire", "net.deliveries_per_frame",
    "net.grid_candidates_per_frame", "net.send_ns_per_frame",
    "udp.datagrams_sent", "udp.datagrams_received", "udp.datagrams_per_op", "udp.polls_per_op",
    "udp.send_ns_per_frame", "udp.poll_ns_per_call", "udp.bad_datagrams", "udp.eintr_retries",
    "udp.multicast",
    "routing.data_forwarded", "routing.forwards_per_msg", "routing.control_packets",
    "routing.drops", "routing.recomputations", "routing.hops_mean",
    "routing.send_ns_per_msg", "routing.forward_ns_per_frame",
    "transport.messages_sent", "transport.messages_delivered", "transport.messages_failed",
    "transport.retx_per_msg", "transport.duplicates_dropped", "transport.fragments_per_msg",
    "transport.send_ns_per_msg", "transport.rx_self_ns_per_frame",
    "serialize.wire_overhead", "serialize.decode_routing_ns_per_frame",
    "discovery.queries_issued", "discovery.answered_frac", "discovery.query_ns",
    "replfs.commits", "replfs.retry_rounds", "replfs.blocks_repaired", "replfs.write_ns",
    "replfs.rx_ns_per_frame", "recovery.wal_bytes",
    "mazewar.states_received", "mazewar.rx_ns_per_frame", "mazewar.sim_stale_p95_ms",
    "node.crash_ns", "node.restart_ns", "node.setup_ns_per_node",
    "obs.registry_size", "obs.snapshot_ns", "obs.trace_overhead_frac",
    "share.sim", "share.net", "share.udp", "share.routing", "share.transport",
    "share.discovery", "share.replfs", "share.mazewar", "share.node", "share.obs",
    "share.other", "trace.unaccounted_frac", "ops.failed_frac",
};

constexpr std::size_t kSpanLogCapacity = 200000;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string span_log;
};

[[nodiscard]] bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        args.workload = value;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
      } else if (key == "--trace") {
        args.trace = value == "1";
      } else if (key == "--span-log") {
        args.span_log = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0;
}

[[nodiscard]] std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

[[nodiscard]] std::string json_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

[[nodiscard]] double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

template <class F>
[[nodiscard]] std::vector<double> each(const std::vector<RepOutcome>& reps, F f) {
  std::vector<double> v;
  for (const RepOutcome& r : reps) v.push_back(f(r));
  return v;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::cerr << "usage: perfbench --workload <lan_apps|field_churn|udp_loopback> --seed <n> "
                 "--seconds <s> --trace <0|1> [--span-log <path>]\n";
    return 2;
  }
  RepOutcome (*run)(const RepOptions&) = nullptr;
  if (args.workload == "lan_apps") run = run_lan_apps;
  if (args.workload == "field_churn") run = run_field_churn;
  if (args.workload == "udp_loopback") run = run_udp_loopback;
  if (run == nullptr) {
    std::cerr << "perfbench: unknown workload " << args.workload << "\n";
    return 2;
  }
  const bool simulated = args.workload != "udp_loopback";

  std::vector<RepOutcome> untraced;
  std::vector<RepOutcome> traced;
  std::unique_ptr<Tracing> last_tracing;
  const double start = wall_now_s();
  const auto budget_left = [&] { return wall_now_s() - start < args.seconds; };
  try {
    if (!args.trace) {
      do {
        untraced.push_back(run(RepOptions{args.seed, nullptr}));
      } while (untraced.size() < 2 || budget_left());
    } else {
      untraced.push_back(run(RepOptions{args.seed, nullptr}));
      do {
        last_tracing = std::make_unique<Tracing>(kSpanLogCapacity);
        traced.push_back(run(RepOptions{args.seed, last_tracing.get()}));
      } while (budget_left());
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }

  std::vector<std::string> violations;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const auto* reps : {&untraced, &traced}) {
    for (const RepOutcome& r : *reps) {
      attempted += r.attempted;
      failed += r.failed;
      violations.insert(violations.end(), r.violations.begin(), r.violations.end());
      if (simulated && r.digest != untraced.front().digest) {
        violations.push_back(reps == &traced
                                 ? "traced run's sim digest differs from the untraced run's"
                                 : "same-seed repetitions ended with different sim digests");
      }
    }
  }

  std::map<std::string, double> metrics;
  const auto checked_percentile = [&](const char* name, const std::vector<double>& samples,
                                      double q) {
    const std::optional<double> p = percentile(samples, q);
    if (!p) {
      violations.push_back(std::string(name) + ": fewer than " + std::to_string(kMinTail) +
                           " of " + std::to_string(samples.size()) +
                           " samples beyond the percentile");
    }
    return p.value_or(0.0);
  };
  if (!args.trace) {
    metrics["setup_s"] = median(each(untraced, [](const RepOutcome& r) { return r.setup_s; }));
    metrics["app_msgs_per_s"] = median(
        each(untraced, [](const RepOutcome& r) { return ratio(r.app_msgs, r.wall_s); }));
    metrics["commits_per_s"] = median(
        each(untraced, [](const RepOutcome& r) { return ratio(r.commits, r.wall_s); }));
    // Each repetition's percentile, then the median over repetitions: a
    // repetition hit by a stall moves one sample, not the pooled tail.
    const auto rep_percentile = [&](const char* name, std::vector<double> RepOutcome::*samples,
                                    double q) {
      metrics[name] = median(
          each(untraced, [&](const RepOutcome& r) { return checked_percentile(name, r.*samples, q); }));
    };
    rep_percentile("rtt_p50_ms", &RepOutcome::rtt_ms, 0.50);
    rep_percentile("rtt_p95_ms", &RepOutcome::rtt_ms, 0.95);
    rep_percentile("commit_p50_ms", &RepOutcome::commit_ms, 0.50);
    rep_percentile("commit_p95_ms", &RepOutcome::commit_ms, 0.95);
    metrics["peak_rss_mb"] = peak_rss_mb();
  } else {
    for (const char* name : kLayerMetrics) {
      metrics[name] = median(each(traced, [&](const RepOutcome& r) {
        const auto it = r.layer.find(name);
        return it == r.layer.end() ? 0.0 : it->second;
      }));
    }
    if (simulated) {
      metrics["sim.sim_s_per_wall_s"] =
          median(each(traced, [](const RepOutcome& r) { return ratio(r.sim_s, r.wall_s); }));
      // Sim-clock latencies are a pure function of the seed: the protocol
      // guard, apart from the wall-clock figures.
      metrics["sim.rtt_p99_ms"] =
          checked_percentile("sim.rtt_p99_ms", traced.front().sim_rtt_ms, 0.99);
      metrics["sim.commit_p99_ms"] =
          checked_percentile("sim.commit_p99_ms", traced.front().sim_commit_ms, 0.99);
    }
    metrics["obs.trace_overhead_frac"] =
        median(each(traced, [](const RepOutcome& r) { return r.wall_s; })) /
            untraced.front().wall_s -
        1.0;
    metrics["ops.failed_frac"] = ratio(static_cast<double>(failed), static_cast<double>(attempted));
    if (!args.span_log.empty()) {
      std::ofstream log(args.span_log);
      last_tracing->spans.write_log(log);
    }
  }

  std::ostringstream o;
  o << "{\"correct\":" << (violations.empty() ? "true" : "false")
    << ",\"attempted\":" << attempted << ",\"failed\":" << failed << ",\"violations\":[";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    o << (i > 0 ? "," : "") << json_string(violations[i]);
  }
  o << "],\"host\":{\"workload\":" << json_string(args.workload) << ",\"seed\":" << args.seed
    << ",\"trace\":" << (args.trace ? 1 : 0)
    << ",\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
    << ",\"build_type\":" << json_string(PERFBENCH_BUILD_TYPE)
    << ",\"link\":" << json_string(simulated ? "simulated" : "loopback")
    << ",\"multicast\":"
    << (simulated ? "null" : (untraced.front().multicast ? "true" : "false"))
    << ",\"repetitions\":" << untraced.size() + traced.size() << "},\"metrics\":{";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    o << (first ? "" : ",") << json_string(name) << ":" << json_double(value);
    first = false;
  }
  o << "}}";
  std::cout << o.str() << std::endl;
  return violations.empty() ? 0 : 1;
}
