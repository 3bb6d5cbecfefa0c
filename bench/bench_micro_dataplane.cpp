// Microbenchmarks (google-benchmark) for the data-plane primitives every
// experiment leans on: binary value codec, tuple matching, markup parsing,
// QoS matching, and the WAL record codec. These quantify the §3.6 concern
// that the chosen encoding "not over-burden the network" (or the CPU).

#include <benchmark/benchmark.h>

#include <cctype>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/rng.hpp"
#include "interop/markup.hpp"
#include "qos/matcher.hpp"
#include "recovery/wal.hpp"
#include "serialize/value.hpp"

using namespace ndsm;
using serialize::Value;
using serialize::ValueList;
using serialize::ValueMap;

namespace {

Value sample_value() {
  return Value{ValueMap{
      {"reading", Value{36.6}},
      {"unit", Value{"celsius"}},
      {"seq", Value{123456}},
      {"tags", Value{ValueList{Value{"body"}, Value{"wearable"}}}},
  }};
}

void BM_ValueEncode(benchmark::State& state) {
  const Value v = sample_value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(v.to_bytes());
  }
}
BENCHMARK(BM_ValueEncode);

void BM_ValueDecode(benchmark::State& state) {
  const Bytes data = sample_value().to_bytes();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Value::from_bytes(data));
  }
}
BENCHMARK(BM_ValueDecode);

void BM_TupleMatch(benchmark::State& state) {
  const serialize::Tuple stored{Value{"temp"}, Value{21}, Value{true}, Value{"zone-4"}};
  const serialize::Tuple tmpl{Value{"temp"}, Value::wildcard(),
                              Value::type_only(Value::Type::kBool), Value::wildcard()};
  for (auto _ : state) {
    benchmark::DoNotOptimize(serialize::tuple_matches(tmpl, stored));
  }
}
BENCHMARK(BM_TupleMatch);

void BM_MarkupParse(benchmark::State& state) {
  qos::SupplierQos s;
  s.service_type = "printer";
  s.attributes = {{"dpi", Value{600}}, {"color", Value{true}}};
  s.position = Vec2{1, 2};
  const std::string text = interop::write_markup(s.to_markup());
  for (auto _ : state) {
    benchmark::DoNotOptimize(interop::parse_markup(text));
  }
}
BENCHMARK(BM_MarkupParse);

void BM_MatcherEvaluate(benchmark::State& state) {
  qos::SupplierQos s;
  s.service_type = "printer";
  s.attributes = {{"dpi", Value{600}}, {"color", Value{true}}};
  s.reliability = 0.95;
  s.position = Vec2{30, 40};
  qos::ConsumerQos c;
  c.service_type = "printer";
  c.requirements = {{"dpi", qos::CmpOp::kGe, Value{300}, 1.0, true},
                    {"color", qos::CmpOp::kEq, Value{true}, 0.5, false}};
  c.position = Vec2{0, 0};
  c.max_distance_m = 100;
  for (auto _ : state) {
    benchmark::DoNotOptimize(qos::Matcher::evaluate(c, s));
  }
}
BENCHMARK(BM_MatcherEvaluate);

void BM_MatcherRank(benchmark::State& state) {
  std::vector<qos::SupplierQos> suppliers;
  Rng rng{5};
  for (int i = 0; i < 64; ++i) {
    qos::SupplierQos s;
    s.service_type = "printer";
    s.attributes = {{"dpi", Value{rng.bernoulli(0.5) ? 1200 : 600}}};
    s.reliability = rng.uniform(0.8, 1.0);
    s.position = Vec2{rng.uniform(0, 100), rng.uniform(0, 100)};
    suppliers.push_back(std::move(s));
  }
  qos::ConsumerQos c;
  c.service_type = "printer";
  c.position = Vec2{50, 50};
  c.max_distance_m = 120;
  for (auto _ : state) {
    benchmark::DoNotOptimize(qos::Matcher::rank(c, suppliers));
  }
}
BENCHMARK(BM_MatcherRank);

void BM_WalRecordRoundTrip(benchmark::State& state) {
  recovery::LogRecord rec;
  rec.lsn = 42;
  rec.kind = recovery::LogKind::kPut;
  rec.tx = 7;
  rec.key = "sensor/3/reading";
  rec.value = Value{36.6};
  for (auto _ : state) {
    const Bytes data = rec.encode();
    benchmark::DoNotOptimize(recovery::LogRecord::decode(data));
  }
}
BENCHMARK(BM_WalRecordRoundTrip);

// Console output as usual, plus each case's ns/op kept for the summary
// line under a snake_case key: BM_ValueEncode -> value_encode_ns_per_op.
class RecordingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      const double ns = run.GetAdjustedRealTime() *
                        (1e9 / benchmark::GetTimeUnitMultiplier(run.time_unit));
      ns_per_op.emplace_back(json_key(run.benchmark_name()), ns);
    }
  }

  std::vector<std::pair<std::string, double>> ns_per_op;

 private:
  static std::string json_key(std::string_view name) {
    if (name.substr(0, 3) == "BM_") name.remove_prefix(3);
    std::string key;
    for (const char c : name) {
      if (std::isupper(static_cast<unsigned char>(c)) != 0) {
        if (!key.empty()) key += '_';
        key += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      } else {
        key += c;
      }
    }
    return key + "_ns_per_op";
  }
};

}  // namespace

// Expanded BENCHMARK_MAIN() so we can append the machine-readable summary
// line after google-benchmark's own report.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  RecordingReporter reporter;
  const std::size_t ran = benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  obs::JsonObject o;
  o.field("bench", "micro_dataplane");
  o.field("benchmarks_run", static_cast<std::uint64_t>(ran));
  for (const auto& [key, ns] : reporter.ns_per_op) o.field(key, ns);
  bench::emit_json_object(o);
  return 0;
}
