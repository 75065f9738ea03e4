// Service benchmark binary: replays one named workload through the
// unmodified PlanningService and prints its end-to-end and per-layer
// metrics as one JSON object (the last line of stdout). perfbench/run.py
// builds this binary, runs it and shapes the result; see
// perfbench/README.md for the workloads and the metric definitions.
//
//   service_bench --workload drift-replan --seed 11 --seconds 35
//                 --trace 0 --workdir .bench_build/run
//
// Load model: one caller in a closed loop. Step() for the next event is
// called as soon as the previous one returns, and solver work is bounded
// by a branch-and-bound node budget (the wall deadline is large), so
// every replay of one trace commits the same deployment whatever the
// machine's speed; a faster layer finishes sooner instead of exploring
// more. A run replays independent episodes (scenario plus trace), as
// many as --seconds buys on the reference host, because one trace's cost
// varies too much from seed to seed to measure on its own.
//
// With --trace 1 a third of the episodes are replayed, each three times:
// untraced, traced at workers = 3, and traced at workers = 0, where every
// span lands on one thread and the layers' self times add up to the
// replay's wall time. Every replay of an episode must commit the same
// fingerprint and canonical audit journal. The benchmark reads counters
// the program already exposes and adds spans only around the public
// calls it makes itself.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/deadline.h"
#include "common/json.h"
#include "common/stats.h"
#include "obs/audit.h"
#include "obs/trace.h"
#include "service/checkpoint.h"
#include "service/planning_service.h"
#include "workload/trace.h"

using namespace sqpr;

namespace {

// ---- Workloads ----

struct WorkloadSpec {
  std::string name;
  bench::ScenarioConfig scenario;
  TraceConfig trace;
  bool closed_loop = false;
  /// ExportCheckpoint after every this many events (0 = never).
  int checkpoint_every = 0;
  /// Wall time of one episode at workers = 3 on the reference host (a
  /// 4-vCPU x86 VM); --seconds / this = episodes per run.
  double nominal_episode_s = 1.0;
};

constexpr int kWorkers = 3;
constexpr int kMaxNodes = 20;

// The names are the ones later changes cite; perfbench/README.md says
// why each exists and which layers it loads. Every workload runs on a
// 3-host cluster: the solver layers then stay the bulk of the work while
// one run covers enough independent episodes to keep the spread between
// seeds small.
bool MakeWorkload(const std::string& name, WorkloadSpec* w) {
  w->name = name;
  w->scenario.hosts = 3;
  if (name == "drift-replan") {
    // Drift-heavy churn over a large, rarely repeating query pool:
    // evictions keep the re-planning rounds full, so the solver layers
    // and the parallel rounds do most of the work.
    w->scenario.queries = 400;
    w->trace.num_events = 150;
    w->trace.drift_weight = 0.20;
    w->trace.min_failures = 2;
    w->trace.min_drift_reports = 8;
    w->nominal_episode_s = 0.6;
    return true;
  }
  if (name == "arrival-reuse") {
    // Arrival-heavy mix over a small repeating pool: a large share of
    // arrivals are dedup or exact plan-cache hits that skip the solver,
    // the rest are cache-miss solves overlapping in-flight rounds.
    w->scenario.queries = 20;
    w->trace.num_events = 150;
    w->trace.arrival_weight = 1.0;
    w->trace.departure_weight = 0.30;
    w->trace.drift_weight = 0.10;
    w->trace.failure_weight = 0.02;
    w->trace.min_failures = 1;
    w->trace.min_drift_reports = 6;
    w->nominal_episode_s = 0.25;
    return true;
  }
  if (name == "self-measure") {
    // §IV-C closed loop: rate directives and ticks only, no scripted
    // monitor report; the service measures itself every 3 ticks and is
    // checkpointed on a fixed event cadence. Both are pipeline barriers.
    w->scenario.queries = 400;
    w->trace.num_events = 150;
    w->trace.closed_loop = true;
    w->trace.tick_weight = 0.55;
    w->trace.drift_weight = 0.18;
    w->trace.min_drift_reports = 8;
    w->trace.min_failures = 1;
    w->closed_loop = true;
    w->checkpoint_every = 25;
    w->nominal_episode_s = 0.45;
    return true;
  }
  return false;
}

/// Episode `i` of a run with seed `seed`: the workload with its own
/// scenario (cluster, catalog, query pool) and trace. The run seed is
/// hashed (SplitMix64 finalizer) so that runs never share episodes.
WorkloadSpec Episode(const WorkloadSpec& w, uint64_t seed, int i) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  WorkloadSpec e = w;
  e.scenario.seed = (z ^ (z >> 31)) + static_cast<uint64_t>(i);
  e.trace.seed = e.scenario.seed;
  return e;
}

ServiceOptions MakeOptions(const WorkloadSpec& w, int workers,
                           obs::AuditJournal* journal) {
  ServiceOptions options;
  options.planner.timeout_ms = 600000;
  options.planner.max_nodes = kMaxNodes;
  options.replan.workers = workers;
  options.closed_loop = w.closed_loop;
  options.telemetry.measure_period = 3;
  options.telemetry.seed = w.trace.seed;
  options.telemetry.ewma_alpha = 0.6;
  options.telemetry.noise = 0.03;
  options.audit = journal;
  return options;
}

// ---- Benchmark-side spans (around the public calls it makes) ----

constexpr int kKinds = 7;
const char* const kKindNames[kKinds] = {
    "arrival", "departure", "host_failure", "host_join",
    "monitor", "tick",      "rate"};

int KindIndex(EventKind kind) {
  switch (kind) {
    case EventKind::kQueryArrival: return 0;
    case EventKind::kQueryDeparture: return 1;
    case EventKind::kHostFailure: return 2;
    case EventKind::kHostJoin: return 3;
    case EventKind::kMonitorReport: return 4;
    case EventKind::kTick: return 5;
    case EventKind::kRateDirective: return 6;
  }
  return 5;
}

struct BenchSpans {
  uint32_t step[kKinds];
  uint32_t replay, scenario, trace, service, enqueue, finish, finalize,
      export_checkpoint, restore_checkpoint;

  BenchSpans() {
    using obs::TraceRecorder;
    for (int k = 0; k < kKinds; ++k) {
      step[k] = TraceRecorder::RegisterSpan(
          (std::string("bench/step.") + kKindNames[k]).c_str());
    }
    replay = TraceRecorder::RegisterSpan("bench/replay");
    scenario = TraceRecorder::RegisterSpan("bench/setup.scenario");
    trace = TraceRecorder::RegisterSpan("bench/setup.trace");
    service = TraceRecorder::RegisterSpan("bench/setup.service");
    enqueue = TraceRecorder::RegisterSpan("bench/setup.enqueue");
    finish = TraceRecorder::RegisterSpan("bench/finish_round");
    finalize = TraceRecorder::RegisterSpan("bench/finalize_audit");
    export_checkpoint = TraceRecorder::RegisterSpan("bench/checkpoint.export");
    restore_checkpoint =
        TraceRecorder::RegisterSpan("bench/checkpoint.restore");
  }
};

// ---- Measurement helpers ----

double CpuSeconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return u.ru_utime.tv_sec + u.ru_stime.tv_sec +
         1e-6 * (u.ru_utime.tv_usec + u.ru_stime.tv_usec);
}

double PeakRssMb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return u.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

double Share(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Named pass/fail results; each one is an attempted operation.
struct Checks {
  std::vector<std::pair<std::string, bool>> results;
  void Add(const std::string& name, bool ok) { results.emplace_back(name, ok); }
  int64_t failed() const {
    int64_t n = 0;
    for (const auto& r : results) n += r.second ? 0 : 1;
    return n;
  }
};

// ---- Span aggregation (traced replays) ----

struct SpanAgg {
  int64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
  double arg0_sum = 0.0;
};

/// Per span name: count, total and self time. Spans of one thread nest
/// (they are RAII scopes), so a span's self time is its duration minus
/// the durations of its direct children on the same thread.
std::map<std::string, SpanAgg> AggregateSpans(
    const std::vector<obs::SpanRecord>& spans) {
  std::map<uint32_t, std::vector<const obs::SpanRecord*>> by_thread;
  for (const obs::SpanRecord& s : spans) by_thread[s.tid].push_back(&s);
  std::map<uint32_t, SpanAgg> by_id;
  for (auto& entry : by_thread) {
    std::vector<const obs::SpanRecord*>& list = entry.second;
    std::sort(list.begin(), list.end(),
              [](const obs::SpanRecord* a, const obs::SpanRecord* b) {
                return a->start_ns != b->start_ns ? a->start_ns < b->start_ns
                                                  : a->dur_ns > b->dur_ns;
              });
    std::vector<uint64_t> covered(list.size(), 0);
    std::vector<size_t> stack;
    for (size_t i = 0; i < list.size(); ++i) {
      const uint64_t start = list[i]->start_ns;
      const uint64_t end = start + list[i]->dur_ns;
      while (!stack.empty() &&
             list[stack.back()]->start_ns + list[stack.back()]->dur_ns <=
                 start) {
        stack.pop_back();
      }
      if (!stack.empty()) {
        const uint64_t parent_end =
            list[stack.back()]->start_ns + list[stack.back()]->dur_ns;
        covered[stack.back()] += std::min(end, parent_end) - start;
      }
      stack.push_back(i);
    }
    for (size_t i = 0; i < list.size(); ++i) {
      SpanAgg& a = by_id[list[i]->name_id];
      const uint64_t dur = list[i]->dur_ns;
      ++a.count;
      a.total_ms += 1e-6 * dur;
      a.self_ms += 1e-6 * (dur - std::min(dur, covered[i]));
      a.arg0_sum += static_cast<double>(list[i]->args[0]);
    }
  }
  std::map<std::string, SpanAgg> out;
  for (const auto& entry : by_id) {
    SpanAgg& a = out[obs::TraceRecorder::Get().span_meta(entry.first).name];
    a.count += entry.second.count;
    a.total_ms += entry.second.total_ms;
    a.self_ms += entry.second.self_ms;
    a.arg0_sum += entry.second.arg0_sum;
  }
  return out;
}

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// Layer that owns a span's self time in the workers = 0 share table.
const char* LayerOf(const std::string& name) {
  if (StartsWith(name, "lp/")) return "lp";
  if (StartsWith(name, "milp/")) return "milp";
  if (StartsWith(name, "planner/")) return "planner";
  if (StartsWith(name, "service/cache.")) return "plan_cache";
  if (StartsWith(name, "telemetry/") || name == "service/measure") {
    return "telemetry";
  }
  if (StartsWith(name, "bench/checkpoint.")) return "checkpoint";
  if (StartsWith(name, "service/") || StartsWith(name, "bench/step.") ||
      name == "bench/finish_round") {
    return "service";
  }
  return "bench";  // the replay loop itself, audit finalization, setup
}

/// Per-span-name totals of traced replays. The ring buffers are small
/// and drained after every event, because the recorder keeps one buffer
/// per thread ever traced and every replay starts new worker threads.
/// Finish() runs once the replay's service is gone, so every span has
/// been emitted, and aggregates the replay's spans.
struct SpanTotals {
  std::map<std::string, SpanAgg> by_name;
  int64_t spans = 0;
  int64_t dropped = 0;
  std::vector<obs::SpanRecord> pending;

  void Collect() {
    const std::vector<obs::SpanRecord> records =
        obs::TraceRecorder::Get().Drain();
    pending.insert(pending.end(), records.begin(), records.end());
  }
  void Finish() {
    std::vector<obs::ThreadTraceStats> stats;
    const std::vector<obs::SpanRecord> records =
        obs::TraceRecorder::Get().Drain(&stats);
    pending.insert(pending.end(), records.begin(), records.end());
    // Drop counts are cumulative since Enable().
    for (const obs::ThreadTraceStats& ts : stats) {
      dropped += static_cast<int64_t>(ts.dropped);
    }
    spans += static_cast<int64_t>(pending.size());
    for (const auto& kv : AggregateSpans(pending)) {
      SpanAgg& a = by_name[kv.first];
      a.count += kv.second.count;
      a.total_ms += kv.second.total_ms;
      a.self_ms += kv.second.self_ms;
      a.arg0_sum += kv.second.arg0_sum;
    }
    pending.clear();
  }
  SpanAgg Get(const std::string& name) const {
    const auto it = by_name.find(name);
    return it == by_name.end() ? SpanAgg() : it->second;
  }
};

// ---- One replay ----

/// A service ready to step: the scenario it mutates, its trace, its
/// audit journal and the service itself (declared last, destroyed
/// first).
struct Setup {
  bench::Scenario scenario;
  std::vector<Event> events;
  std::unique_ptr<obs::AuditJournal> journal;
  std::unique_ptr<PlanningService> service;
  double seconds = 0.0;
};

Setup MakeSetup(const WorkloadSpec& w, int workers, const BenchSpans& spans) {
  Setup s;
  Stopwatch timer;
  {
    obs::SpanScope span(spans.scenario);
    s.scenario = bench::MakeScenario(w.scenario);
  }
  {
    obs::SpanScope span(spans.trace);
    Result<std::vector<Event>> events =
        GenerateTrace(w.trace, s.scenario.workload, w.scenario.hosts,
                      *s.scenario.catalog);
    SQPR_CHECK(events.ok()) << events.status().ToString();
    s.events = std::move(*events);
  }
  s.journal = std::make_unique<obs::AuditJournal>();
  {
    obs::SpanScope span(spans.service);
    s.service = std::make_unique<PlanningService>(
        s.scenario.cluster.get(), s.scenario.catalog.get(),
        MakeOptions(w, workers, s.journal.get()));
  }
  {
    obs::SpanScope span(spans.enqueue);
    for (const Event& e : s.events) SQPR_CHECK_OK(s.service->Enqueue(e));
  }
  s.seconds = 1e-3 * timer.ElapsedMillis();
  return s;
}

struct Replay {
  int workers = 0;
  double setup_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  size_t trace_events = 0;
  int64_t stepped = 0;
  int64_t step_errors = 0;
  int64_t out_of_order = 0;  // outcome of another kind than predicted
  bool drained = false;
  // Step() latency samples, ms. A checkpoint export is charged to the
  // event after which it runs: the loop pays it before the next event.
  std::vector<double> event_ms;
  std::vector<double> arrival_ms;
  std::vector<double> solved_admit_ms;  // arrivals admitted by a solve
  int64_t kind_count[kKinds] = {};
  double kind_ms[kKinds] = {};
  int64_t exports = 0;
  int64_t export_errors = 0;
  double export_ms = 0.0;
  size_t checkpoint_bytes = 0;
  double restore_ms = 0.0;

  ServiceStats stats;
  int64_t cache_exact = 0, cache_partial = 0, cache_misses = 0;
  int64_t cache_rebuilds = 0, cache_delta_updates = 0;
  int catalog_streams = 0, catalog_operators = 0;
  bool valid = false;
  std::string fingerprint;
  std::string audit;  // canonical rendering
  size_t canonical_records = 0;
};

/// Final-checkpoint durability check (self-measure): the checkpoint
/// survives an atomic write, restores into a fresh service and
/// re-exports byte-equal to what the original exports next.
void CheckCheckpointRoundTrip(const WorkloadSpec& w, Setup* s,
                              const BenchSpans& spans,
                              const std::string& workdir, Replay* r,
                              Checks* checks) {
  Result<std::string> doc = s->service->ExportCheckpoint();
  checks->Add("final checkpoint exports", doc.ok());
  if (!doc.ok()) return;
  const std::string path = workdir + "/final.ckpt.json";
  const Status written = WriteFileAtomic(path, *doc);
  Result<std::string> read_back = ReadFileToString(path);
  std::remove(path.c_str());
  checks->Add("checkpoint survives an atomic write",
              written.ok() && read_back.ok() && *read_back == *doc);
  if (!read_back.ok()) return;
  Result<std::string> reference = s->service->ExportCheckpoint();

  bench::Scenario fresh = bench::MakeScenario(w.scenario);
  obs::AuditJournal journal;
  PlanningService restored(fresh.cluster.get(), fresh.catalog.get(),
                           MakeOptions(w, r->workers, &journal));
  Stopwatch timer;
  Status status;
  {
    obs::SpanScope span(spans.restore_checkpoint);
    status = restored.RestoreCheckpoint(*read_back);
  }
  r->restore_ms = timer.ElapsedMillis();
  checks->Add("checkpoint restores into a fresh service", status.ok());
  if (!status.ok()) return;
  Result<std::string> again = restored.ExportCheckpoint();
  checks->Add("restored service re-exports what the original exports next",
              reference.ok() && again.ok() && *again == *reference);
}

/// Sets up and replays one episode. `traced` (null when tracing is off)
/// collects the spans after every event; a non-empty `round_trip_dir`
/// runs the final-checkpoint check there.
Replay RunReplay(const WorkloadSpec& w, int workers, const BenchSpans& spans,
                 SpanTotals* traced, const std::string& round_trip_dir,
                 Checks* checks) {
  Setup s = MakeSetup(w, workers, spans);
  PlanningService& service = *s.service;
  Replay r;
  r.workers = workers;
  r.setup_s = s.seconds;
  r.trace_events = s.events.size();
  r.event_ms.reserve(s.events.size());

  const double cpu0 = CpuSeconds();
  Stopwatch wall;
  {
    obs::SpanScope replay_span(spans.replay);
    while (service.HasPendingEvents() &&
           r.stepped < static_cast<int64_t>(s.events.size())) {
      // Trace timestamps strictly increase, so Step() consumes the trace
      // in order: the span is chosen by the next entry's kind, and the
      // outcome must confirm it.
      const int kind =
          KindIndex(s.events[static_cast<size_t>(r.stepped)].kind);
      Stopwatch event_watch;
      Result<EventOutcome> outcome = Status::Internal("not stepped");
      {
        obs::SpanScope span(spans.step[kind]);
        outcome = service.Step();
      }
      ++r.stepped;
      if (traced != nullptr) traced->Collect();
      if (!outcome.ok()) {
        ++r.step_errors;
      } else if (KindIndex(outcome->event.kind) != kind) {
        ++r.out_of_order;
      }
      if (w.checkpoint_every > 0 && r.stepped % w.checkpoint_every == 0) {
        Stopwatch export_watch;
        obs::SpanScope span(spans.export_checkpoint);
        Result<std::string> doc = service.ExportCheckpoint();
        r.export_ms += export_watch.ElapsedMillis();
        ++r.exports;
        if (doc.ok()) {
          r.checkpoint_bytes = doc->size();
        } else {
          ++r.export_errors;
        }
      }
      const double ms = event_watch.ElapsedMillis();
      r.event_ms.push_back(ms);
      ++r.kind_count[kind];
      r.kind_ms[kind] += ms;
      if (kind == 0) {
        r.arrival_ms.push_back(ms);
        if (outcome.ok() && outcome->admitted && !outcome->already_served &&
            !outcome->via_cache) {
          r.solved_admit_ms.push_back(ms);
        }
      }
    }
    r.drained = !service.HasPendingEvents();
    {
      obs::SpanScope span(spans.finish);
      service.FinishInFlightRound();
    }
    {
      obs::SpanScope span(spans.finalize);
      service.FinalizeAudit();
    }
  }
  r.wall_s = 1e-3 * wall.ElapsedMillis();
  r.cpu_s = CpuSeconds() - cpu0;

  r.stats = service.stats();
  const PlanCache& cache = service.plan_cache();
  r.cache_exact = cache.exact_hits();
  r.cache_partial = cache.partial_hits();
  r.cache_misses = cache.misses();
  r.cache_rebuilds = cache.rebuilds();
  r.cache_delta_updates = cache.delta_updates();
  r.catalog_streams = s.scenario.catalog->num_streams();
  r.catalog_operators = s.scenario.catalog->num_operators();
  r.valid = service.deployment().Validate().ok();
  r.fingerprint = service.deployment().Fingerprint();
  r.audit = s.journal->ToJsonl(/*canonical=*/true);
  r.canonical_records = s.journal->canonical_size();

  if (!round_trip_dir.empty()) {
    CheckCheckpointRoundTrip(w, &s, spans, round_trip_dir, &r, checks);
  }
  return r;
}

/// Per-replay correctness checks.
void CheckReplay(const std::string& label, const Replay& r, Checks* checks) {
  checks->Add(label + ": every event consumed, in trace order",
              r.drained && r.out_of_order == 0 &&
                  r.stepped == static_cast<int64_t>(r.trace_events) &&
                  r.stats.events == static_cast<int64_t>(r.trace_events));
  checks->Add(label + ": no Step() error", r.step_errors == 0);
  checks->Add(label + ": no checkpoint export error", r.export_errors == 0);
  checks->Add(label + ": final deployment validates", r.valid);
  checks->Add(label + ": arrivals == admitted + rejected",
              r.stats.arrivals == r.stats.admitted + r.stats.rejected);
}

/// Another replay of the same episode must commit the same deployment
/// and the same canonical audit journal, whatever its worker count.
void CheckSame(const std::string& label, const Replay& r,
               const Replay& reference, Checks* checks) {
  CheckReplay(label, r, checks);
  checks->Add(label + ": same fingerprint as the measured replay",
              r.fingerprint == reference.fingerprint);
  checks->Add(label + ": same canonical audit as the measured replay",
              r.canonical_records > 0 && r.audit == reference.audit);
}

/// Bucket-wise sum of several obs::Histograms, for quantiles over all
/// episodes of a run.
class MergedHistogram {
 public:
  MergedHistogram() : buckets_(obs::Histogram::kNumBuckets, 0) {}
  void Add(const obs::Histogram& h) {
    if (h.count() == 0) return;
    for (int i = 0; i < obs::Histogram::kNumBuckets; ++i) {
      buckets_[static_cast<size_t>(i)] += h.bucket_count(i);
    }
    count_ += h.count();
    sum_ += h.sum();
    min_ = count_ == h.count() ? h.min() : std::min(min_, h.min());
    max_ = std::max(max_, h.max());
  }
  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double Quantile(double q) const {
    return obs::Histogram::QuantileFromBuckets(buckets_.data(), count_, q,
                                               min_, max_);
  }

 private:
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// ---- Output ----

JsonValue JsonObject(const std::map<std::string, double>& m) {
  JsonValue out = JsonValue::Object();
  for (const auto& kv : m) out.Set(kv.first, JsonValue::Double(kv.second));
  return out;
}

int Usage() {
  std::fprintf(stderr,
               "usage: service_bench --workload drift-replan|arrival-reuse|"
               "self-measure --seed N --seconds S --trace 0|1 --workdir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name, workdir;
  uint64_t seed = 0;
  bool have_seed = false;
  double seconds = -1;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      char* end = nullptr;
      seed = std::strtoull(value, &end, 10);
      have_seed = value[0] >= '0' && value[0] <= '9' && *end == '\0';
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--workdir") {
      workdir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !have_seed || !(seconds > 0) || workdir.empty() ||
      (trace != 0 && trace != 1)) {
    return Usage();
  }
  WorkloadSpec w;
  if (!MakeWorkload(workload_name, &w)) {
    std::fprintf(stderr, "unknown workload '%s'\n", workload_name.c_str());
    return Usage();
  }
  // --seconds sets the amount of work, not a wall-clock cut-off: the
  // same seed and seconds always replay the same episodes, so a faster
  // program finishes sooner on identical inputs. A traced run replays a
  // third of the episodes three times (untraced, traced, traced at
  // workers = 0), so it costs about as much as an untraced run.
  const int episodes = std::max(
      2, static_cast<int>(std::lround(seconds / w.nominal_episode_s /
                                      (trace == 1 ? 3 : 1))));
  obs::TraceRecorder::SetCurrentThreadName("loop");
  const BenchSpans spans;
  Checks checks;

  // Warm-up: episode 0 once, untimed, before anything is measured. It
  // is also the determinism check within the run: its deployment and
  // journal must equal those of the measured replay of episode 0.
  std::vector<WorkloadSpec> specs;
  for (int i = 0; i < episodes; ++i) {
    specs.push_back(Episode(w, seed, i));
  }
  const Replay warmup =
      RunReplay(specs[0], kWorkers, spans, nullptr, "", &checks);

  // Per episode: the untraced replay (end-to-end metrics) and, in a
  // traced run, right after it the same episode traced at workers = 3
  // and at workers = 0, so slow drifts of the host's speed hit the
  // untraced and traced replays alike.
  obs::TraceRecorder::Options trace_options;
  // Enough for the spans one thread emits during one event.
  trace_options.per_thread_capacity = size_t{1} << 13;
  std::vector<Replay> replays, traced_replays;
  SpanTotals traced, base;
  double base_wall_s = 0.0;
  for (int i = 0; i < episodes; ++i) {
    const WorkloadSpec& spec = specs[static_cast<size_t>(i)];
    const std::string label = "episode " + std::to_string(i);
    replays.push_back(RunReplay(
        spec, kWorkers, spans, nullptr,
        i == 0 && w.checkpoint_every > 0 ? workdir : "", &checks));
    const Replay& r = replays.back();
    CheckReplay(label, r, &checks);
    // run.py gates lifecycle completeness on these journals with
    // tools/sqpr_inspect.py --require-complete.
    checks.Add(label + ": canonical audit journal written",
               WriteFileAtomic(
                   workdir + "/audit." + std::to_string(i) + ".jsonl", r.audit)
                   .ok());
    if (trace != 1) continue;

    obs::TraceRecorder::Get().Enable(trace_options);
    traced_replays.push_back(
        RunReplay(spec, kWorkers, spans, &traced, "", &checks));
    obs::TraceRecorder::Get().Disable();
    traced.Finish();
    CheckSame(label + " traced", traced_replays.back(), r, &checks);

    // Worker invariance and the layer-share table: workers = 0 runs
    // every solve on the loop thread.
    obs::TraceRecorder::Get().Enable(trace_options);
    const Replay w0 = RunReplay(spec, 0, spans, &base, "", &checks);
    obs::TraceRecorder::Get().Disable();
    base.Finish();
    base_wall_s += w0.wall_s;
    CheckSame(label + " traced at workers=0", w0, r, &checks);
  }
  CheckSame("warm-up replay of episode 0", warmup, replays.front(), &checks);

  std::vector<double> event_ms, arrival_ms, solved_ms, setup_s;
  double wall_s = 0.0, cpu_s = 0.0;
  int64_t events = 0, kind_count[kKinds] = {};
  int64_t arrivals = 0, admitted = 0, readmitted = 0, resolved = 0;
  for (const Replay& r : replays) {
    event_ms.insert(event_ms.end(), r.event_ms.begin(), r.event_ms.end());
    arrival_ms.insert(arrival_ms.end(), r.arrival_ms.begin(),
                      r.arrival_ms.end());
    solved_ms.insert(solved_ms.end(), r.solved_admit_ms.begin(),
                     r.solved_admit_ms.end());
    setup_s.push_back(r.setup_s);
    wall_s += r.wall_s;
    cpu_s += r.cpu_s;
    events += r.stepped;
    for (int k = 0; k < kKinds; ++k) kind_count[k] += r.kind_count[k];
    arrivals += r.stats.arrivals;
    admitted += r.stats.admitted;
    readmitted += r.stats.replanned_admitted;
    resolved += r.stats.replanned_admitted + r.stats.replanned_rejected;
  }
  std::map<std::string, double> e2e;
  e2e["events_per_s"] = Share(static_cast<double>(events), wall_s);
  e2e["cpu_ms_per_event"] = Share(1e3 * cpu_s, static_cast<double>(events));
  e2e["admit_p50_ms"] = Percentile(solved_ms, 0.50);
  e2e["admit_p90_ms"] = Percentile(arrival_ms, 0.90);
  e2e["event_p95_ms"] = Percentile(event_ms, 0.95);
  e2e["admitted_share"] = Share(static_cast<double>(admitted),
                                static_cast<double>(arrivals));
  e2e["readmit_share"] = Share(static_cast<double>(readmitted),
                               static_cast<double>(resolved));
  e2e["setup_s"] = Percentile(setup_s, 0.50);
  e2e["peak_rss_mb"] = PeakRssMb();

  // ---- Per-layer metrics, from the traced replays. ----
  std::map<std::string, double> layer;
  if (trace == 1) {
    checks.Add("traced replays dropped no span",
               traced.dropped == 0 && base.dropped == 0);

    // Counters and stage times summed over the traced episodes.
    MergedHistogram solve_hist;
    double arrivals_t = 0, reused = 0, resolved_t = 0;
    for (const Replay& r : traced_replays) {
      const ServiceStats& s = r.stats;
      for (int k = 0; k < kKinds; ++k) {
        const std::string prefix =
            std::string("service.step.") + kKindNames[k];
        layer[prefix + ".count"] += static_cast<double>(r.kind_count[k]);
        layer[prefix + ".ms"] += r.kind_ms[k];
      }
      arrivals_t += s.arrivals;
      reused += s.dedup_hits + s.cache_fast_path;
      resolved_t += s.replanned_admitted + s.replanned_rejected;
      layer["service.barrier_wait_ms"] += s.barrier_ms.sum();
      layer["service.commit_ms"] += s.commit_ms.sum();
      layer["service.rounds_dispatched"] += s.replan_dispatches;
      layer["service.commit_conflicts"] += s.commit_conflicts;
      layer["service.round_unwinds"] += s.round_unwinds;
      layer["service.overlapped_arrival_solves"] += s.overlapped_arrival_solves;
      layer["service.snapshot_bytes"] += s.snapshot_bytes_copied;
      layer["plan_cache.exact_hits"] += r.cache_exact;
      layer["plan_cache.partial_hits"] += r.cache_partial;
      layer["plan_cache.misses"] += r.cache_misses;
      layer["plan_cache.rebuilds"] += r.cache_rebuilds;
      layer["plan_cache.delta_updates"] += r.cache_delta_updates;
      solve_hist.Add(s.solve_ms);
      layer["planner.admit_ms"] += s.admit_ms.sum();
      layer["planner.model_patches"] += s.model_patches;
      layer["planner.model_rebuilds"] += s.model_rebuilds;
      layer["planner.warm_starts"] += s.warm_starts;
      layer["planner.basis_discards"] += s.basis_discards;
      layer["telemetry.measurements"] += s.measurement_ticks;
      layer["telemetry.measure_ms"] += s.measure_ms.sum();
      layer["checkpoint.exports"] += r.exports;
      layer["checkpoint.export_ms"] += r.export_ms;
      // Final catalog sizes and journal lengths.
      layer["catalog.streams"] += r.catalog_streams;
      layer["catalog.operators"] += r.catalog_operators;
      layer["audit.canonical_records"] += r.canonical_records;
    }
    // Proposals that reached their commit point, and the share of them
    // that committed without being bounced and re-solved inline.
    layer["service.speculation_yield"] =
        Share(resolved_t - layer["service.commit_conflicts"], resolved_t);
    // Arrivals admitted without a solve: dedup or exact cache hits.
    layer["plan_cache.reuse_share"] = Share(reused, arrivals_t);
    layer["planner.solves"] = static_cast<double>(solve_hist.count());
    layer["planner.solve_ms"] = solve_hist.sum();
    layer["planner.solve_p50_ms"] = solve_hist.Quantile(0.50);
    layer["planner.solve_p95_ms"] = solve_hist.Quantile(0.95);
    layer["planner.propose_self_ms"] = traced.Get("planner/propose").self_ms;
    layer["planner.model_build_ms"] =
        traced.Get("planner/model_build").total_ms;

    double milp_self = 0.0;
    for (const auto& kv : traced.by_name) {
      if (StartsWith(kv.first, "milp/")) milp_self += kv.second.self_ms;
    }
    const SpanAgg milp_solve = traced.Get("milp/solve");
    const SpanAgg lp = traced.Get("lp/simplex");
    layer["milp.solves"] = static_cast<double>(milp_solve.count);
    layer["milp.nodes"] = static_cast<double>(traced.Get("milp/node").count);
    layer["milp.self_ms"] = milp_self;
    layer["milp.presolve_ms"] = traced.Get("milp/presolve").total_ms;
    layer["milp.cuts_ms"] = traced.Get("milp/root_cuts").total_ms +
                            traced.Get("milp/lazy_cuts.separate").total_ms;
    layer["milp.dive_ms"] = traced.Get("milp/dive").total_ms;

    layer["lp.solves"] = static_cast<double>(lp.count);
    layer["lp.pivots"] = lp.arg0_sum;  // the lp/simplex "iterations" arg
    layer["lp.ms"] = lp.total_ms;
    layer["lp.us_per_pivot"] = Share(1e3 * lp.total_ms, lp.arg0_sum);
    layer["lp.share_of_milp"] = Share(lp.total_ms, milp_solve.total_ms);

    layer["checkpoint.bytes"] =
        static_cast<double>(traced_replays.front().checkpoint_bytes);
    layer["checkpoint.restore_ms"] = replays.front().restore_ms;

    layer["trace.spans"] = static_cast<double>(traced.spans);
    layer["trace.dropped_spans"] = static_cast<double>(traced.dropped);
    double traced_wall_s = 0.0;
    for (const Replay& r : traced_replays) traced_wall_s += r.wall_s;
    layer["trace.overhead_share"] = traced_wall_s / wall_s - 1.0;

    // Layer-share table of the workers = 0 replays: every span is on the
    // loop thread and nests under bench/replay, so the self times add up
    // to the replays' wall time.
    const double base_ms = base.Get("bench/replay").total_ms;
    std::map<std::string, double> self_by_layer = {
        {"service", 0}, {"plan_cache", 0}, {"planner", 0}, {"milp", 0},
        {"lp", 0},      {"telemetry", 0},  {"checkpoint", 0}, {"bench", 0}};
    for (const auto& kv : base.by_name) {
      if (StartsWith(kv.first, "bench/setup.")) continue;
      self_by_layer[LayerOf(kv.first)] += kv.second.self_ms;
    }
    for (const auto& kv : self_by_layer) {
      layer["w0." + kv.first + ".share"] = Share(kv.second, base_ms);
    }
    layer["w0.wall_s"] = base_wall_s;
    layer["w0.spans"] = static_cast<double>(base.spans);

    std::printf("spans of the traced replays (workers=%d | workers=0):\n",
                kWorkers);
    std::printf("  %-30s %9s %11s %11s | %9s %11s %11s\n", "name", "count",
                "total_ms", "self_ms", "count", "total_ms", "self_ms");
    std::map<std::string, bool> names;
    for (const auto& kv : traced.by_name) names[kv.first] = true;
    for (const auto& kv : base.by_name) names[kv.first] = true;
    for (const auto& kv : names) {
      const SpanAgg a = traced.Get(kv.first), b = base.Get(kv.first);
      std::printf("  %-30s %9lld %11.1f %11.1f | %9lld %11.1f %11.1f\n",
                  kv.first.c_str(), static_cast<long long>(a.count),
                  a.total_ms, a.self_ms, static_cast<long long>(b.count),
                  b.total_ms, b.self_ms);
    }
  }

  // ---- Report. ----
  int64_t attempted = static_cast<int64_t>(checks.results.size());
  int64_t failed = checks.failed();
  for (const Replay& r : replays) {
    attempted += r.stepped + r.exports;
    failed += r.step_errors + r.export_errors;
  }
  std::printf("workload %s seed %llu: %d episodes, %lld events in %.2f s "
              "(setup median %.4f s)\n",
              w.name.c_str(), static_cast<unsigned long long>(seed), episodes,
              static_cast<long long>(events), wall_s, e2e["setup_s"]);
  std::printf("  samples: %zu events, %zu arrivals, %zu solve-admitted "
              "arrivals\n",
              event_ms.size(), arrival_ms.size(), solved_ms.size());
  std::printf("  event kinds:");
  for (int k = 0; k < kKinds; ++k) {
    std::printf(" %s=%lld", kKindNames[k],
                static_cast<long long>(kind_count[k]));
  }
  std::printf("\n");
  for (const auto& c : checks.results) {
    if (!c.second) std::printf("  check FAILED: %s\n", c.first.c_str());
  }
  JsonValue result = JsonValue::Object();
  result.Set("attempted", JsonValue::Int(attempted));
  result.Set("failed", JsonValue::Int(failed));
  result.Set("checks", JsonValue::Int(static_cast<int64_t>(
                           checks.results.size())));
  result.Set("episodes", JsonValue::Int(episodes));
  result.Set("end_to_end", JsonObject(e2e));
  result.Set("per_layer", JsonObject(layer));
  std::printf("%s\n", WriteJson(result).c_str());
  return 0;
}
