// Self-test of the benchmark's own arithmetic: span self time under
// nesting, and the refusal of a percentile with too few samples beyond it.
// Exits nonzero on the first failed check.

#include <cmath>
#include <cstdio>
#include <vector>

#include "spans.hpp"
#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    failures++;
  }
}

void span_self_time_subtracts_children() {
  using perfbench::Bucket;
  perfbench::SpanRecorder r(16);
  // root [0, 100) holds a [10, 40) child, which holds a [20, 25) grandchild,
  // and a second child [50, 70).
  r.begin(Bucket::kSimRunUntil, 0);
  r.begin(Bucket::kTimer, 10);
  r.begin(Bucket::kNetSend, 20);
  r.end(25);
  r.end(40);
  r.begin(Bucket::kRoutingOther, 50);
  r.end_as(70, Bucket::kRoutingForward);
  r.end(100);
  expect(r.depth() == 0, "all spans closed");
  expect(r.totals(Bucket::kNetSend).self_ns == 5, "leaf self == its duration");
  expect(r.totals(Bucket::kTimer).self_ns == 25, "child self == 30 - 5");
  expect(r.totals(Bucket::kTimer).total_ns == 30, "child total == its duration");
  expect(r.totals(Bucket::kRoutingForward).self_ns == 20, "end_as files under the new bucket");
  expect(r.totals(Bucket::kRoutingOther).count == 0, "end_as leaves the opening bucket empty");
  expect(r.totals(Bucket::kSimRunUntil).self_ns == 50, "root self == 100 - 30 - 20");
  expect(r.covered_ns() == 100, "self times add up to the root's duration");
  expect(r.log().size() == 4, "every span logged");
  expect(r.log().front().depth == 2, "log records nesting depth");
}

void span_totals_reset_keeps_open_spans() {
  using perfbench::Bucket;
  perfbench::SpanRecorder r;
  r.begin(Bucket::kTimer, 0);
  r.end(7);
  r.reset_totals();
  expect(r.totals(Bucket::kTimer).count == 0, "reset clears totals");
  r.begin(Bucket::kSimRunUntil, 10);
  r.begin(Bucket::kTimer, 12);
  r.end(15);
  r.end(20);
  expect(r.totals(Bucket::kSimRunUntil).self_ns == 7, "nesting survives a reset");
  expect(r.log().empty(), "zero log capacity logs nothing");
}

void percentile_needs_ten_samples_beyond() {
  std::vector<double> v;
  for (int i = 1; i <= 999; ++i) v.push_back(i);
  expect(perfbench::samples_beyond(999, 0.99) == 9, "999 samples leave 9 beyond p99");
  expect(!perfbench::percentile(v, 0.99).has_value(), "p99 refused with 9 beyond");
  v.push_back(1000);
  expect(perfbench::samples_beyond(1000, 0.99) == 10, "1000 samples leave 10 beyond p99");
  const auto p99 = perfbench::percentile(v, 0.99);
  expect(p99.has_value() && std::fabs(*p99 - 990.01) < 1e-9, "p99 of 1..1000 interpolates");
  const auto p50 = perfbench::percentile(v, 0.50);
  expect(p50.has_value() && std::fabs(*p50 - 500.5) < 1e-9, "p50 of 1..1000 is 500.5");
  expect(!perfbench::percentile({1, 2, 3}, 0.50).has_value(), "p50 refused with 1 beyond");
  expect(!perfbench::percentile({}, 0.50).has_value(), "no samples, no percentile");
  expect(perfbench::median({3, 1, 2}) == 2, "odd median");
  expect(perfbench::median({4, 1, 3, 2}) == 2.5, "even median");
}

}  // namespace

int main() {
  span_self_time_subtracts_children();
  span_totals_reset_keeps_open_spans();
  percentile_needs_ten_samples_beyond();
  if (failures == 0) std::printf("perfbench self-test: ok\n");
  return failures == 0 ? 0 : 1;
}
