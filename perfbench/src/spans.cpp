#include "spans.hpp"

#include <stdexcept>

namespace perfbench {

namespace {

struct BucketInfo {
  const char* name;
  const char* layer;
};

constexpr std::array<BucketInfo, kBucketCount> kBuckets = {{
    {"sim.run_until", "sim"},
    {"sim.timer", "sim"},
    {"net.send", "net"},
    {"udp.send", "udp"},
    {"udp.poll", "udp"},
    {"routing.send", "routing"},
    {"routing.forward", "routing"},
    {"routing.other", "routing"},
    {"transport.rx", "transport"},
    {"transport.send", "transport"},
    {"discovery.query", "discovery"},
    {"discovery.register", "discovery"},
    {"replfs.rx", "replfs"},
    {"replfs.write", "replfs"},
    {"mazewar.rx", "mazewar"},
    {"other.rx", "other"},
    {"node.crash", "node"},
    {"node.restart", "node"},
    {"obs.snapshot", "obs"},
}};

}  // namespace

const char* bucket_name(Bucket b) { return kBuckets[static_cast<std::size_t>(b)].name; }
const char* bucket_layer(Bucket b) { return kBuckets[static_cast<std::size_t>(b)].layer; }

void SpanRecorder::begin(Bucket bucket, std::int64_t t_ns) {
  open_.push_back(Open{bucket, t_ns, 0});
}

void SpanRecorder::end(std::int64_t t_ns) {
  if (open_.empty()) throw std::logic_error("SpanRecorder::end without an open span");
  end_as(t_ns, open_.back().bucket);
}

void SpanRecorder::end_as(std::int64_t t_ns, Bucket as) {
  if (open_.empty()) throw std::logic_error("SpanRecorder::end_as without an open span");
  const Open span = open_.back();
  open_.pop_back();
  const std::int64_t duration = t_ns - span.start_ns;
  const std::int64_t self = duration - span.child_ns;
  BucketTotals& t = totals_[static_cast<std::size_t>(as)];
  t.self_ns += self;
  t.total_ns += duration;
  t.count++;
  if (!open_.empty()) open_.back().child_ns += duration;
  if (log_.size() < log_capacity_) {
    log_.push_back(SpanRecord{as, static_cast<std::uint32_t>(open_.size()), span.start_ns,
                              duration, self});
  }
}

std::int64_t SpanRecorder::covered_ns() const {
  std::int64_t sum = 0;
  for (const BucketTotals& t : totals_) sum += t.self_ns;
  return sum;
}

void SpanRecorder::write_log(std::ostream& out) const {
  out << "bucket,depth,start_ns,duration_ns,self_ns\n";
  for (const SpanRecord& s : log_) {
    out << bucket_name(s.bucket) << ',' << s.depth << ',' << s.start_ns << ','
        << s.duration_ns << ',' << s.self_ns << '\n';
  }
}

}  // namespace perfbench
