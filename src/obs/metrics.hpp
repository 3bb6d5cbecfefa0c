#pragma once
// MetricsRegistry — the unified metrics surface for every middleware layer
// (§4: MiLAN "continually monitors" application QoS and network cost; this
// is the substrate that makes those quantities inspectable at runtime).
//
// Design constraints, in order:
//   1. Hot paths stay hot. Subsystem stats remain plain uint64_t bumps on
//      structs the subsystem owns (`WorldStats`, `TransportStats`, ...).
//      A metric is a *view* — a pointer or a pull callback — that is only
//      dereferenced at export time. Registering a metric costs a couple of
//      allocations once, per component instance; reading the counter costs
//      nothing extra, ever.
//   2. Every metric carries a `layer.subsystem.metric` name plus labels
//      (component instance name, node id) so per-node series from 400-node
//      fields stay distinguishable in one flat export.
//   3. One owner per metric. Components hold a MetricGroup, which stores
//      the metrics it registers; the registry is only the intrusive list
//      of live groups, in construction order. Destroying a group unlinks
//      it in O(1) and frees its metrics with it, so short-lived Worlds and
//      transports in tests never leave dangling views behind.
//
// Histograms are the one metric kind with group-owned storage (a fixed
// bucket array, pointer-stable). observe() is a short linear scan over the
// bounds — cheap enough for per-message paths.

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

namespace ndsm::obs {

enum class MetricKind { kCounter, kGauge, kHistogram };

[[nodiscard]] const char* metric_kind_name(MetricKind kind);

// Instance labels attached to every metric. `node` is -1 for metrics that
// are not node-scoped (e.g. a shared routing table).
struct MetricLabels {
  std::string component;
  std::int64_t node = -1;
};

// Fixed-bucket histogram. Bounds are inclusive upper edges in ascending
// order; an implicit +inf bucket catches the overflow.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double value) {
    std::size_t i = 0;
    while (i < bounds_.size() && value > bounds_[i]) ++i;
    counts_[i]++;
    sum_ += value;
    count_++;
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const { return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_); }
  // q-quantile (q in [0,1]) with linear interpolation inside the bucket
  // that crosses the target rank. Bucket 0 interpolates from 0; the +inf
  // overflow bucket reports the last finite bound (the histogram cannot
  // resolve beyond it). 0 when empty.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  // counts().size() == bounds().size() + 1; the last bucket is +inf.
  [[nodiscard]] const std::vector<std::uint64_t>& counts() const { return counts_; }
  void reset();

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;
  double sum_ = 0.0;
  std::uint64_t count_ = 0;
};

// Canonical millisecond-latency bounds (values observed in milliseconds).
[[nodiscard]] std::vector<double> latency_ms_bounds();

// Quantile over raw bucket arrays (same semantics as Histogram::quantile);
// lets offline consumers (bench aggregation, trace analysis) reuse the
// interpolation without reconstructing a Histogram.
[[nodiscard]] double quantile_from(const std::vector<double>& bounds,
                                   const std::vector<std::uint64_t>& counts, double q);

// Snapshot row produced by MetricsRegistry::snapshot(); `hist` is only set
// for histogram rows and points at group-owned storage.
struct MetricSample {
  MetricKind kind = MetricKind::kCounter;
  std::string name;
  MetricLabels labels;
  double value = 0.0;
  const Histogram* hist = nullptr;
};

class MetricGroup;

// The list of live MetricGroups; exports whatever they own.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Process-wide default registry; what instrumented middleware layers use.
  static MetricsRegistry& instance();

  // Metrics across all live groups.
  [[nodiscard]] std::size_t size() const;

  // All metrics, sampled now, sorted by (name, component, node); equal
  // keys keep registration order within a group, groups in construction
  // order.
  [[nodiscard]] std::vector<MetricSample> snapshot() const;

  // Human-readable aligned table (counters/gauges one row each, histograms
  // as count/mean/max-bucket summaries).
  void write_table(std::ostream& out) const;

  // One JSON object per line:
  //   {"name":"transport.reliable.retransmissions","type":"counter",
  //    "component":"transport.reliable","node":3,"value":17}
  // Histogram lines add "sum", "count", "buckets" (le/count pairs).
  void write_jsonl(std::ostream& out) const;

  // write_jsonl to `path`; returns false (and leaves no partial file
  // guarantee) if the file cannot be opened.
  bool dump_jsonl(const std::string& path) const;

 private:
  friend class MetricGroup;

  MetricGroup* head_ = nullptr;
  MetricGroup* tail_ = nullptr;
};

// RAII owner of a component's metrics: everything registered through a
// group lives in it and disappears from the registry when the group is
// destroyed. Instrumented components hold one as a member, declared after
// the stats it exposes. A group must not outlive its registry.
class MetricGroup {
 public:
  MetricGroup() : MetricGroup(MetricsRegistry::instance()) {}
  explicit MetricGroup(MetricsRegistry& registry);
  ~MetricGroup();

  MetricGroup(const MetricGroup&) = delete;
  MetricGroup& operator=(const MetricGroup&) = delete;

  // Labels applied to subsequent registrations.
  void set_labels(std::string component, std::int64_t node = -1) {
    labels_ = MetricLabels{std::move(component), node};
  }
  [[nodiscard]] const MetricLabels& labels() const { return labels_; }

  // Counter view over a subsystem-owned uint64_t. The pointee must outlive
  // the group (components guarantee this by declaring the group after
  // their stats struct).
  void counter(std::string name, const std::uint64_t* source) {
    assert(source != nullptr);
    add(MetricKind::kCounter, std::move(name)).counter_ptr = source;
  }
  // Counter pulled through a callback (for sources without a stable
  // address, e.g. per-node stats inside a reallocating vector).
  void counter_fn(std::string name, std::function<std::uint64_t()> source) {
    add(MetricKind::kCounter, std::move(name)).counter_fn = std::move(source);
  }
  // Gauges are always pull-based: sampled at export time.
  void gauge(std::string name, std::function<double()> source) {
    add(MetricKind::kGauge, std::move(name)).gauge_fn = std::move(source);
  }
  // Group-owned histogram; the reference is stable for the group's life.
  Histogram& histogram(std::string name, std::vector<double> upper_bounds) {
    Metric& m = add(MetricKind::kHistogram, std::move(name));
    m.hist = std::make_unique<Histogram>(std::move(upper_bounds));
    return *m.hist;
  }

 private:
  friend class MetricsRegistry;

  struct Metric {
    MetricKind kind = MetricKind::kCounter;
    std::string name;
    MetricLabels labels;
    const std::uint64_t* counter_ptr = nullptr;
    std::function<std::uint64_t()> counter_fn;
    std::function<double()> gauge_fn;
    std::unique_ptr<Histogram> hist;
  };

  Metric& add(MetricKind kind, std::string name) {
    Metric& m = metrics_.emplace_back();
    m.kind = kind;
    m.name = std::move(name);
    m.labels = labels_;
    return m;
  }

  MetricsRegistry* registry_;
  MetricGroup* prev_ = nullptr;  // registry list links
  MetricGroup* next_ = nullptr;
  MetricLabels labels_;
  std::vector<Metric> metrics_;
};

}  // namespace ndsm::obs
