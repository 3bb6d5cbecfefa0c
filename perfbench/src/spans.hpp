#pragma once
// Wall-clock spans for the traced run. Spans nest by call: a span's self
// time is its duration minus the time covered by the spans opened while it
// was the innermost one. Self times are summed per bucket (a bucket is one
// kind of call at one layer boundary), and the first `log_capacity` spans
// are also kept verbatim so they can be written out when the run ends.

#include <array>
#include <chrono>
#include <cstdint>
#include <ostream>
#include <vector>

namespace perfbench {

enum class Bucket : std::uint8_t {
  kSimRunUntil,       // Simulator::run_until; its self time is engine dispatch
  kTimer,             // a Stack::schedule_after callback
  kNetSend,           // WorldStack send_frame / broadcast_frame
  kUdpSend,           // UdpStack send_frame / broadcast_frame
  kUdpPoll,           // UdpStack::poll_once
  kRoutingSend,       // Router::send / Router::flood
  kRoutingForward,    // routing frame handler that re-sent and delivered nothing
  kRoutingOther,      // routing frame handler that neither delivered nor re-sent
  kTransportRx,       // routing frame handler that delivered locally
  kTransportSend,     // ReliableTransport::send
  kDiscoveryQuery,    // ServiceDiscovery::query
  kDiscoveryRegister, // ServiceDiscovery::register_service
  kReplfsRx,          // Proto::kReplfsData frame handler
  kReplfsWrite,       // replfs::Client::write
  kMazewarRx,         // Proto::kMazewar frame handler
  kOtherRx,           // any other Proto's frame handler
  kNodeCrash,         // node::Runtime::crash
  kNodeRestart,       // node::Runtime::restart
  kObsSnapshot,       // MetricsRegistry::snapshot
  kCount,
};

inline constexpr std::size_t kBucketCount = static_cast<std::size_t>(Bucket::kCount);

[[nodiscard]] const char* bucket_name(Bucket b);
// The layer a bucket's self time is charged to: sim, net, udp, routing,
// transport, discovery, replfs, mazewar, node or obs.
[[nodiscard]] const char* bucket_layer(Bucket b);

struct BucketTotals {
  std::int64_t self_ns = 0;
  std::int64_t total_ns = 0;
  std::uint64_t count = 0;

  [[nodiscard]] double self_ns_per_call() const {
    return count == 0 ? 0.0 : static_cast<double>(self_ns) / static_cast<double>(count);
  }
};

struct SpanRecord {
  Bucket bucket;
  std::uint32_t depth;
  std::int64_t start_ns;
  std::int64_t duration_ns;
  std::int64_t self_ns;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t log_capacity = 0) : log_capacity_(log_capacity) {}

  // Timestamps are explicit so the arithmetic is testable; Span below
  // feeds now_ns().
  void begin(Bucket bucket, std::int64_t t_ns);
  // Close the innermost open span at `t_ns`.
  void end(std::int64_t t_ns);
  // Close the innermost open span, filing it under `as` instead of the
  // bucket it was opened with (a routing handler's kind is known only
  // after it ran).
  void end_as(std::int64_t t_ns, Bucket as);

  [[nodiscard]] std::size_t depth() const { return open_.size(); }
  // Zero the per-bucket totals (the start of a measured window); the raw
  // log keeps everything recorded so far.
  void reset_totals() { totals_ = {}; }
  [[nodiscard]] const BucketTotals& totals(Bucket b) const {
    return totals_[static_cast<std::size_t>(b)];
  }
  // Sum of every bucket's self time: the wall time the spans cover.
  [[nodiscard]] std::int64_t covered_ns() const;
  [[nodiscard]] const std::vector<SpanRecord>& log() const { return log_; }
  void write_log(std::ostream& out) const;

  [[nodiscard]] static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  struct Open {
    Bucket bucket;
    std::int64_t start_ns;
    std::int64_t child_ns;
  };

  std::size_t log_capacity_;
  std::vector<Open> open_;
  std::array<BucketTotals, kBucketCount> totals_{};
  std::vector<SpanRecord> log_;
};

// RAII span; a null recorder makes it a no-op (the untraced run).
class Span {
 public:
  Span(SpanRecorder* recorder, Bucket bucket) : recorder_(recorder) {
    if (recorder_ != nullptr) recorder_->begin(bucket, SpanRecorder::now_ns());
  }
  ~Span() {
    if (recorder_ != nullptr) recorder_->end(SpanRecorder::now_ns());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecorder* recorder_;
};

}  // namespace perfbench
