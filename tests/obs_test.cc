// Tests for the observability layer (src/obs/): the log-bucketed
// histogram behind every latency stat, the flight-recorder trace ring,
// and their serialised forms. Three contracts are pinned here:
//
//  * Histogram quantiles stay within one sub-bucket (<= 12.5% relative)
//    of the exact nearest-rank Percentile() they replaced, with exact
//    extrema — so swapping the service's sample window for buckets
//    cannot silently distort the bench numbers.
//  * The trace ring is a flight recorder: a full ring keeps the most
//    recent `capacity` spans and counts every overwritten one as a
//    drop; concurrent emit + drain is safe (this test is the TSan
//    stress the CI sanitizer job runs).
//  * Tracing never gates behavior: a closed-loop replay with the
//    recorder enabled commits the same deployment fingerprint as one
//    with it disabled (docs/ARCHITECTURE.md §4 + §7).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/stats.h"
#include "model/catalog.h"
#include "model/cluster.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/planning_service.h"
#include "workload/generator.h"
#include "workload/trace.h"

namespace sqpr {
namespace {

using obs::Histogram;
using obs::SpanRecord;
using obs::ThreadTraceStats;
using obs::TraceRecorder;

// ---------------------------------------------------------------------------
// Histogram

TEST(HistogramTest, BucketBoundariesContainTheirValues) {
  // Lower bounds must be strictly increasing...
  for (int i = 1; i < Histogram::kNumBuckets; ++i) {
    EXPECT_LT(Histogram::BucketLowerBound(i - 1), Histogram::BucketLowerBound(i))
        << "bucket " << i;
  }
  // ...and every value must land in the bucket whose [lo, next_lo)
  // range contains it. Sweep octaves plus random points.
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> frac(1.0, 2.0);
  for (int exp = Histogram::kMinExp; exp < Histogram::kMaxExp; ++exp) {
    for (int rep = 0; rep < 8; ++rep) {
      const double v = std::ldexp(frac(rng), exp);
      const int idx = Histogram::BucketIndex(v);
      ASSERT_GE(idx, 0);
      ASSERT_LT(idx, Histogram::kNumBuckets);
      EXPECT_LE(Histogram::BucketLowerBound(idx), v) << "value " << v;
      if (idx + 1 < Histogram::kNumBuckets) {
        EXPECT_LT(v, Histogram::BucketLowerBound(idx + 1)) << "value " << v;
      }
    }
  }
  // Out-of-range values clamp into the edge buckets rather than UB.
  EXPECT_EQ(Histogram::BucketIndex(0.0), 0);
  EXPECT_EQ(Histogram::BucketIndex(1e300), Histogram::kNumBuckets - 1);
}

TEST(HistogramTest, ExactMoments) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Quantile(0.5), 0.0);
  h.Add(2.0);
  h.Add(8.0);
  h.Add(5.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 15.0);
  EXPECT_DOUBLE_EQ(h.mean(), 5.0);
  EXPECT_DOUBLE_EQ(h.min(), 2.0);
  EXPECT_DOUBLE_EQ(h.max(), 8.0);
}

TEST(HistogramTest, NegativeAndNanClampToZero) {
  Histogram h;
  h.Add(-3.0);
  h.Add(std::nan(""));
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
}

TEST(HistogramTest, QuantilesTrackExactPercentileWithinOneSubBucket) {
  // Latency-shaped samples (lognormal): the histogram's quantile must
  // stay within one sub-bucket (12.5% relative) of the exact
  // nearest-rank answer, and be exact at the extrema. This is the bound
  // the bench schema relies on when it reports solver p50/p95/p99 from
  // buckets instead of a stored window.
  std::mt19937_64 rng(7);
  std::lognormal_distribution<double> dist(1.5, 1.0);
  Histogram h;
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) {
    const double v = dist(rng);
    samples.push_back(v);
    h.Add(v);
  }
  for (double q : {0.10, 0.50, 0.90, 0.95, 0.99}) {
    const double exact = Percentile(samples, q);
    const double approx = h.Quantile(q);
    EXPECT_NEAR(approx, exact, 0.125 * exact)
        << "q=" << q << " exact=" << exact << " approx=" << approx;
  }
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), h.min());
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), h.max());
}

TEST(HistogramTest, CopyIsASnapshot) {
  Histogram h;
  h.Add(1.0);
  h.Add(4.0);
  Histogram copy = h;
  h.Add(100.0);
  EXPECT_EQ(copy.count(), 2u);
  EXPECT_DOUBLE_EQ(copy.max(), 4.0);
  EXPECT_EQ(h.count(), 3u);
}

// ---------------------------------------------------------------------------
// Metrics registry

TEST(MetricsRegistryTest, StablePointersAndJsonSchema) {
  obs::MetricsRegistry reg;
  obs::Counter* c = reg.counter("service.events");
  c->Increment(41);
  reg.counter("service.events")->Increment();  // same counter
  EXPECT_EQ(c->value(), 42);
  obs::Histogram* h = reg.histogram("service.solve_ms");
  h->Add(3.0);
  h->Add(5.0);

  const std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"schema\": \"sqpr-metrics-v1\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"service.events\": 42"), std::string::npos) << json;
  for (const char* field :
       {"\"count\"", "\"sum\"", "\"mean\"", "\"min\"", "\"max\"", "\"p50\"",
        "\"p90\"", "\"p95\"", "\"p99\""}) {
    EXPECT_NE(json.find(field), std::string::npos) << field << " missing";
  }
}

TEST(MetricsSnapshotTest, OpenMetricsEscapesLabelsAndSanitizesNames) {
  obs::MetricsRegistry reg;
  reg.counter("service.events")->Increment(7);
  reg.histogram("service.admit_ms")->Add(2.0);
  const obs::MetricsSnapshot snap = reg.TakeSnapshot();

  // Label values hit all three ABNF escapes (backslash, double quote,
  // newline); one label key needs name sanitisation.
  const std::map<std::string, std::string> labels = {
      {"path", "C:\\tmp\\x"},
      {"quote", "say \"hi\""},
      {"nl", "line1\nline2"},
      {"bad-key", "v"},
  };
  const std::string text = snap.ToOpenMetrics(labels);

  // Dotted metric names fold to underscores; counters get _total.
  EXPECT_NE(text.find("# TYPE service_events counter"), std::string::npos)
      << text;
  EXPECT_NE(text.find("service_events_total{"), std::string::npos) << text;
  EXPECT_NE(text.find("# TYPE service_admit_ms summary"), std::string::npos)
      << text;
  EXPECT_NE(text.find("service_admit_ms{"), std::string::npos) << text;
  EXPECT_NE(text.find("quantile=\"0.99\""), std::string::npos) << text;

  // Escapes, rendered: path="C:\\tmp\\x", quote="say \"hi\"",
  // nl="line1\nline2" — and the raw (unescaped) forms must be absent.
  EXPECT_NE(text.find("path=\"C:\\\\tmp\\\\x\""), std::string::npos) << text;
  EXPECT_NE(text.find("quote=\"say \\\"hi\\\"\""), std::string::npos) << text;
  EXPECT_NE(text.find("nl=\"line1\\nline2\""), std::string::npos) << text;
  EXPECT_EQ(text.find("line1\nline2"), std::string::npos)
      << "a raw newline survived inside a label value";
  EXPECT_NE(text.find("bad_key=\"v\""), std::string::npos) << text;
  EXPECT_EQ(text.find("bad-key"), std::string::npos) << text;

  // The exposition terminator, as the final line.
  const std::string eof = "# EOF\n";
  ASSERT_GE(text.size(), eof.size());
  EXPECT_EQ(text.substr(text.size() - eof.size()), eof);
}

TEST(MetricsSnapshotTest, DeltaSinceClampsAndResolvesWindowQuantiles) {
  obs::MetricsRegistry reg;
  obs::Counter* c = reg.counter("service.events");
  obs::Histogram* h = reg.histogram("service.solve_ms");

  // First window: 100 fast samples.
  c->Increment(5);
  for (int i = 0; i < 100; ++i) h->Add(1.0);
  const obs::MetricsSnapshot s0 = reg.TakeSnapshot();

  // Second window: 100 slow samples only.
  c->Increment(3);
  for (int i = 0; i < 100; ++i) h->Add(1000.0);
  const obs::MetricsSnapshot s1 = reg.TakeSnapshot();

  const obs::MetricsSnapshot delta = s1.DeltaSince(s0);
  EXPECT_EQ(delta.counters.at("service.events"), 3);
  const obs::HistogramSnapshot& dh = delta.histograms.at("service.solve_ms");
  EXPECT_EQ(dh.count, 100u);
  EXPECT_NEAR(dh.sum, 100000.0, 1e-6);
  // The delta's quantiles resolve from the WINDOW's buckets: this
  // window saw only slow samples, so its p50 sits at ~1000 even though
  // the cumulative p50 (rank 100 of 200) still lands on the fast group.
  EXPECT_NEAR(dh.Quantile(0.5), 1000.0, 0.125 * 1000.0);
  EXPECT_LT(s1.histograms.at("service.solve_ms").Quantile(0.5), 2.0);

  // Reversed snapshot order (what a racy torn read looks like) clamps
  // every monotone field at zero instead of wrapping.
  const obs::MetricsSnapshot rev = s0.DeltaSince(s1);
  EXPECT_EQ(rev.counters.at("service.events"), 0);
  const obs::HistogramSnapshot& rh = rev.histograms.at("service.solve_ms");
  EXPECT_EQ(rh.count, 0u);
  EXPECT_DOUBLE_EQ(rh.sum, 0.0);
  for (const uint64_t b : rh.buckets) EXPECT_EQ(b, 0u);

  // Metrics absent from `earlier` delta against zero.
  const obs::MetricsSnapshot from_zero = s0.DeltaSince(obs::MetricsSnapshot{});
  EXPECT_EQ(from_zero.counters.at("service.events"), 5);
  EXPECT_EQ(from_zero.histograms.at("service.solve_ms").count, 100u);
}

// ---------------------------------------------------------------------------
// Log level filter

TEST(LoggingTest, ParseLogLevel) {
  using logging_internal::LogLevel;
  using logging_internal::ParseLogLevel;
  EXPECT_EQ(ParseLogLevel(nullptr), LogLevel::kInfo);
  EXPECT_EQ(ParseLogLevel("INFO"), LogLevel::kInfo);
  EXPECT_EQ(ParseLogLevel("WARN"), LogLevel::kWarn);
  EXPECT_EQ(ParseLogLevel("WARNING"), LogLevel::kWarn);
  EXPECT_EQ(ParseLogLevel("FATAL"), LogLevel::kFatal);
  EXPECT_EQ(ParseLogLevel("ERROR"), LogLevel::kFatal);
  EXPECT_EQ(ParseLogLevel("banana"), LogLevel::kInfo);
}

// ---------------------------------------------------------------------------
// Trace ring

TEST(TraceTest, DisabledSpansAreInert) {
  TraceRecorder::Get().Disable();
  SQPR_TRACE_SPAN_ARGS(span, "test/inert", nullptr, nullptr);
  EXPECT_FALSE(span.active());
}

TEST(TraceTest, RingWrapKeepsRecentWindowAndCountsDrops) {
  TraceRecorder& rec = TraceRecorder::Get();
  TraceRecorder::Options options;
  options.per_thread_capacity = 16;
  rec.Enable(options);
  const uint32_t id = TraceRecorder::RegisterSpan("test/wrap", "seq", nullptr);

  // Fresh thread -> fresh ring with the small capacity; tag each span
  // with its sequence number so the retained window is checkable.
  constexpr uint64_t kEmitted = 50;
  std::thread emitter([&] {
    TraceRecorder::SetCurrentThreadName("wrap-thread");
    for (uint64_t i = 0; i < kEmitted; ++i) {
      rec.Emit(id, /*start_ns=*/i, /*dur_ns=*/1, /*virt_ms=*/-1, i, 0);
    }
  });
  emitter.join();
  rec.Disable();

  std::vector<ThreadTraceStats> stats;
  std::vector<SpanRecord> spans = rec.Drain(&stats);

  const ThreadTraceStats* ts = nullptr;
  for (const ThreadTraceStats& s : stats) {
    if (s.thread_name == "wrap-thread") ts = &s;
  }
  ASSERT_NE(ts, nullptr);
  EXPECT_EQ(ts->emitted, kEmitted);
  EXPECT_EQ(ts->dropped, kEmitted - 16);

  // The retained window is the most recent 16 spans, oldest first.
  std::vector<uint64_t> seqs;
  for (const SpanRecord& s : spans) {
    if (s.name_id == id) seqs.push_back(s.args[0]);
  }
  ASSERT_EQ(seqs.size(), 16u);
  for (size_t i = 0; i < seqs.size(); ++i) {
    EXPECT_EQ(seqs[i], kEmitted - 16 + i);
  }

  // A second drain returns nothing new and drop counters stay put.
  std::vector<ThreadTraceStats> stats2;
  std::vector<SpanRecord> again = rec.Drain(&stats2);
  for (const SpanRecord& s : again) EXPECT_NE(s.name_id, id);
  for (const ThreadTraceStats& s : stats2) {
    if (s.thread_name == "wrap-thread") EXPECT_EQ(s.dropped, kEmitted - 16);
  }
}

TEST(TraceTest, ConcurrentEmitAndDrainStress) {
  // The TSan job runs exactly this: emitters hammer their rings while
  // a reader drains mid-flight. Correctness bar: no torn records (every
  // drained span carries the id and arg pattern its emitter wrote) and
  // exact per-thread emit accounting at the end.
  TraceRecorder& rec = TraceRecorder::Get();
  TraceRecorder::Options options;
  options.per_thread_capacity = 256;
  rec.Enable(options);
  const uint32_t id =
      TraceRecorder::RegisterSpan("test/stress", "thread", "seq");

  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 20000;
  std::atomic<bool> done{false};
  std::vector<std::thread> emitters;
  for (int t = 0; t < kThreads; ++t) {
    emitters.emplace_back([&, t] {
      TraceRecorder::SetCurrentThreadName("stress-" + std::to_string(t));
      for (uint64_t i = 0; i < kPerThread; ++i) {
        obs::SpanScope span(id);
        span.set_args(static_cast<uint64_t>(t), i);
      }
    });
  }
  std::vector<SpanRecord> harvested;
  std::thread reader([&] {
    while (!done.load(std::memory_order_relaxed)) {
      std::vector<SpanRecord> batch = rec.Drain();
      harvested.insert(harvested.end(), batch.begin(), batch.end());
      std::this_thread::yield();
    }
  });
  for (std::thread& t : emitters) t.join();
  done.store(true, std::memory_order_relaxed);
  reader.join();
  rec.Disable();

  std::vector<ThreadTraceStats> stats;
  std::vector<SpanRecord> rest = rec.Drain(&stats);
  harvested.insert(harvested.end(), rest.begin(), rest.end());

  uint64_t stress_emitted = 0;
  for (const ThreadTraceStats& s : stats) {
    if (s.thread_name.rfind("stress-", 0) == 0) stress_emitted += s.emitted;
  }
  EXPECT_EQ(stress_emitted, kThreads * kPerThread);

  // Every harvested stress span must be internally consistent — a torn
  // slot would pair one emit's thread arg with another's.
  uint64_t seen = 0;
  for (const SpanRecord& s : harvested) {
    if (s.name_id != id) continue;
    ++seen;
    EXPECT_LT(s.args[0], static_cast<uint64_t>(kThreads));
    EXPECT_LT(s.args[1], kPerThread);
  }
  EXPECT_GT(seen, 0u);
  EXPECT_LE(seen, kThreads * kPerThread);
}

TEST(TraceTest, ChromeTraceJsonIsWellFormed) {
  TraceRecorder& rec = TraceRecorder::Get();
  rec.Enable();
  rec.Drain();  // discard anything prior tests left in the rings
  TraceRecorder::SetCurrentThreadName("loop");
  {
    SQPR_TRACE_SPAN_ARGS(span, "test/json.span", "alpha", "beta");
    span.set_args(7, 9);
  }
  { SQPR_TRACE_SPAN("test/json.plain"); }
  rec.Disable();
  const std::string json = rec.ChromeTraceJson();

  // Schema landmarks (tools/check_trace.py validates the same set).
  for (const char* needle :
       {"\"traceEvents\"", "\"schema\": \"sqpr-trace-v1\"", "\"ph\": \"M\"",
        "\"thread_name\"", "\"ph\": \"X\"", "\"name\": \"test/json.span\"",
        "\"cat\": \"test\"", "\"alpha\": 7", "\"beta\": 9", "\"ts\":",
        "\"dur\":", "\"emitted_spans\"", "\"dropped_spans\"", "\"threads\""}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle << " missing";
  }

  // Structural check: braces/brackets balance outside string literals.
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : json) {
    if (escaped) {
      escaped = false;
    } else if (c == '\\') {
      escaped = true;
    } else if (c == '"') {
      in_string = !in_string;
    } else if (!in_string && (c == '{' || c == '[')) {
      ++depth;
    } else if (!in_string && (c == '}' || c == ']')) {
      --depth;
      ASSERT_GE(depth, 0);
    }
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

// ---------------------------------------------------------------------------
// Determinism contract with tracing enabled

/// Minimal closed-loop replay (a condensed Replay() from
/// service_replay_property_test.cc): fresh state per call, node-bounded
/// solver, self-measuring loop.
std::string ClosedLoopFingerprint(uint64_t seed) {
  Cluster cluster(3, HostSpec{0.6, 70.0, 70.0, ""}, 140.0);
  Catalog catalog(CostModel{});
  WorkloadConfig wc;
  wc.num_base_streams = 18;
  wc.num_queries = 30;
  wc.arities = {2, 3};
  wc.seed = seed;
  Result<Workload> workload = GenerateWorkload(wc, 3, &catalog);
  EXPECT_TRUE(workload.ok()) << workload.status().ToString();

  TraceConfig tc;
  tc.num_events = 36;
  tc.seed = seed * 977 + 13;
  tc.mean_gap_ms = 40;
  tc.drift_weight = 0.11;
  tc.tick_weight = 0.55;
  tc.min_drift_reports = 2;
  tc.closed_loop = true;
  Result<std::vector<Event>> trace = GenerateTrace(tc, *workload, 3, catalog);
  EXPECT_TRUE(trace.ok()) << trace.status().ToString();

  ServiceOptions options;
  options.planner.timeout_ms = 60000;
  options.planner.max_nodes = 80;
  options.closed_loop = true;
  options.telemetry.measure_period = 2;
  options.telemetry.seed = seed;
  options.telemetry.noise = 0.05;
  PlanningService service(&cluster, &catalog, options);
  for (const Event& e : *trace) EXPECT_TRUE(service.Enqueue(e).ok());
  EXPECT_TRUE(service.RunUntilIdle().ok());
  return service.deployment().Fingerprint();
}

TEST(TraceTest, TracingNeverGatesBehavior) {
  // The §4 contract says a replay depends on the trace alone; §7
  // extends it to "and regardless of whether the flight recorder is
  // on". Same seed, tracing off vs on.
  const uint64_t seed = 11;
  TraceRecorder::Get().Disable();
  const std::string off = ClosedLoopFingerprint(seed);

  TraceRecorder::Get().Enable();
  const std::string on = ClosedLoopFingerprint(seed);
  TraceRecorder::Get().Disable();

  EXPECT_EQ(off, on) << "tracing changed the replay";

  // And the traced run actually recorded the event path.
  std::vector<SpanRecord> spans = TraceRecorder::Get().Drain();
  EXPECT_FALSE(spans.empty());
}

}  // namespace
}  // namespace sqpr
