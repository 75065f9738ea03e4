// Service churn bench: sustained load through the continuous
// PlanningService (no paper figure — this measures the event loop the
// paper assumes around the planner, §IV), in two scenarios:
//
//  * drift-heavy — arrival-heavy mix with steady departures, frequent
//    monitor drift reports and occasional host failures/rejoins: keeps
//    the re-planning rounds full, so the worker pool's solve offload
//    dominates.
//  * arrival-heavy — few evictions, lots of cache-miss arrivals while
//    rounds are in flight: measures the tentpole of the speculative
//    arrival path. Before it, every such arrival retired the whole
//    in-flight round (a solve-sized stall on the loop thread); now it
//    solves concurrently over the thread-safe catalog, which the
//    overlapped-arrival-solves counter makes visible.
//  * closed-loop — zero scripted monitor reports: the trace carries
//    ground-truth rate *trajectories* (constant/step/walk/periodic) and
//    the service measures its own committed deployment every few ticks
//    (§IV-C), detecting drift and dispatching re-planning rounds
//    entirely by itself (the auto_replan_rounds counter). The scenario
//    runs in BOTH measurement modes — engine (ClusterSim per measuring
//    tick) and analytic (ledger-derived) — and checks the analytic
//    per-measuring-tick cost undercuts the engine's by >= 5x.
//  * checkpoint-overhead — the durability tax (docs/ARCHITECTURE.md
//    §9): times ExportCheckpoint / WriteFileAtomic / RestoreCheckpoint
//    on the drift-heavy trace's final state and byte-checks the
//    restore round-trip.
//
// Each scenario replays one trace with 0, 1 and 4 workers solving the
// re-planning rounds. The solver is node-bounded (large wall deadline +
// fixed branch-and-bound budget), so every replay is deterministic and
// all of them must commit bit-for-bit identical deployments — the
// worker count may only change how much solve time overlaps event
// processing.
// Expected shape: every replay consumes the whole trace, survives the
// failures, finishes with identical valid committed deployments and
// identical admission statistics, the plan cache absorbs repeat
// arrivals (and maintains itself incrementally on additive commits),
// per-event latency stays bounded, arrival solves overlap in-flight
// rounds, and (given the cores) workers raise throughput.
//
// With --json <path>, every (scenario, workers, mode) run is appended
// to a machine-readable record set (see bench_util.h) — the perf
// trajectory checked in as BENCH_service.json via tools/run_bench.sh.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/deadline.h"
#include "common/stats.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/checkpoint.h"
#include "service/planning_service.h"
#include "workload/trace.h"

using namespace sqpr;
using namespace sqpr::bench;

namespace {

struct RunResult {
  double total_ms = 0.0;
  double max_event_ms = 0.0;
  double events_per_s = 0.0;
  ServiceStats stats;
  std::string fingerprint;
  int64_t cache_hits = 0;
  int64_t cache_rebuilds = 0;
  int64_t cache_noop_skips = 0;
  size_t trace_events = 0;
  bool audit_ok = false;
  // Decision audit journal renderings (src/obs/audit.h): the canonical
  // stratum must be byte-identical across worker counts; the full
  // rendering adds speculative records + wall timings.
  std::string audit_canonical;
  std::string audit_full;
  size_t audit_records = 0;
  size_t audit_canonical_records = 0;
};

RunResult Replay(const TraceConfig& trace_config, int workers,
                 bool closed_loop = false,
                 MeasureMode mode = MeasureMode::kEngine,
                 const std::string& metrics_series_path = std::string()) {
  // Fresh scenario per replay: the drift reports install measured rates
  // into the catalog, so state must not leak between runs. Same seed =>
  // identical workload and trace.
  ScenarioConfig config;
  config.queries = 400;
  config.seed = 11;
  Scenario scenario = MakeScenario(config);

  Result<std::vector<Event>> trace = GenerateTrace(
      trace_config, scenario.workload, config.hosts, *scenario.catalog);
  SQPR_CHECK(trace.ok()) << trace.status().ToString();

  ServiceOptions options;
  // Determinism across worker counts requires a deterministic solver:
  // bound by node budget, not by wall clock.
  options.planner.timeout_ms = 60000;
  options.planner.max_nodes = 200;
  options.replan.workers = workers;
  options.closed_loop = closed_loop;
  options.telemetry.mode = mode;
  options.telemetry.measure_period = 3;
  options.telemetry.seed = trace_config.seed;
  options.telemetry.ewma_alpha = 0.6;
  options.telemetry.noise = 0.03;
  // Every replay journals its decisions: the cross-run byte-identity
  // shape checks below are the bench-side enforcement of the canonical
  // stratum's worker invariance.
  obs::AuditJournal journal;
  options.audit = &journal;
  PlanningService service(scenario.cluster.get(), scenario.catalog.get(),
                          options);
  for (const Event& e : *trace) {
    SQPR_CHECK_OK(service.Enqueue(e));
  }

  // Periodic metrics exposition for the instrumented replay (CI uploads
  // the series next to the trace + audit artifacts): sample on 1000
  // virtual-ms boundaries, cumulative + per-interval delta per line.
  obs::MetricsRegistry registry;
  ServiceMetricsPublisher publisher(&registry);
  const bool want_series = !metrics_series_path.empty();
  constexpr int64_t kSeriesIntervalMs = 1000;
  std::string series;
  obs::MetricsSnapshot prev;
  int64_t next_sample_ms = kSeriesIntervalMs;
  const auto sample_series = [&](int64_t t_ms) {
    publisher.Publish(service.stats());
    obs::MetricsSnapshot cum = registry.TakeSnapshot();
    const obs::MetricsSnapshot delta = cum.DeltaSince(prev);
    series += "{\"t_ms\":" + std::to_string(t_ms) + ",\"cum\":" +
              cum.ToJson() + ",\"delta\":" + delta.ToJson() + "}\n";
    prev = std::move(cum);
  };
  if (want_series) {
    series += "{\"schema\":\"sqpr-metrics-series-v1\",\"interval_ms\":" +
              std::to_string(kSeriesIntervalMs) + "}\n";
  }

  RunResult result;
  result.trace_events = trace->size();
  Stopwatch watch;
  while (service.HasPendingEvents()) {
    Result<EventOutcome> outcome = service.Step();
    SQPR_CHECK(outcome.ok()) << outcome.status().ToString();
    result.max_event_ms = std::max(result.max_event_ms, outcome->wall_ms);
    if (want_series) {
      while (service.clock().now_ms() >= next_sample_ms) {
        sample_series(next_sample_ms);
        next_sample_ms += kSeriesIntervalMs;
      }
    }
  }
  service.FinishInFlightRound();
  service.FinalizeAudit();
  result.total_ms = watch.ElapsedMillis();
  result.events_per_s = 1000.0 * trace->size() / result.total_ms;
  result.stats = service.stats();
  result.fingerprint = service.deployment().Fingerprint();
  result.cache_hits = service.plan_cache().hits();
  result.cache_rebuilds = service.plan_cache().rebuilds();
  result.cache_noop_skips = service.plan_cache().noop_skips();
  result.audit_ok = service.deployment().Validate().ok();
  result.audit_canonical = journal.ToJsonl(/*canonical=*/true);
  result.audit_full = journal.ToJsonl(/*canonical=*/false);
  result.audit_records = journal.size();
  result.audit_canonical_records = journal.canonical_size();
  if (want_series) {
    // Final sample after the in-flight round commits: the series ends
    // with the run's complete totals.
    sample_series(service.clock().now_ms());
    std::FILE* f = std::fopen(metrics_series_path.c_str(), "wb");
    SQPR_CHECK(f != nullptr) << "cannot open " << metrics_series_path;
    std::fwrite(series.data(), 1, series.size(), f);
    std::fclose(f);
  }
  return result;
}

void PrintRun(const char* label, const RunResult& r) {
  std::printf("\n[%s] %zu events in %.1f ms (%.1f events/s), "
              "max event %.1f ms\n",
              label, r.trace_events, r.total_ms, r.events_per_s,
              r.max_event_ms);
  const ServiceStats& s = r.stats;
  std::printf("  arrivals %lld: admitted %lld (dedup %lld, cache %lld), "
              "rejected %lld; %lld solves overlapped in-flight rounds\n",
              static_cast<long long>(s.arrivals),
              static_cast<long long>(s.admitted),
              static_cast<long long>(s.dedup_hits),
              static_cast<long long>(s.cache_fast_path),
              static_cast<long long>(s.rejected),
              static_cast<long long>(s.overlapped_arrival_solves));
  std::printf("  churn: %lld departures, %lld failures, %lld joins, "
              "%lld drift reports; %lld evictions, %lld/%lld re-admitted\n",
              static_cast<long long>(s.departures),
              static_cast<long long>(s.host_failures),
              static_cast<long long>(s.host_joins),
              static_cast<long long>(s.monitor_reports),
              static_cast<long long>(s.evictions),
              static_cast<long long>(s.replanned_admitted),
              static_cast<long long>(s.replanned_admitted +
                                     s.replanned_rejected));
  std::printf("  rounds: %lld committed (%lld dispatched, %lld commit "
              "conflicts re-solved)\n",
              static_cast<long long>(s.replan_rounds),
              static_cast<long long>(s.replan_dispatches),
              static_cast<long long>(s.commit_conflicts));
  if (s.solve_ms.count() > 0) {
    std::printf("  solver wall-time: %zu solves, p50 %.2f ms, p90 %.2f ms, "
                "p99 %.2f ms, max %.2f ms\n",
                s.solve_ms.count(), s.solve_ms.Quantile(0.50),
                s.solve_ms.Quantile(0.90), s.solve_ms.Quantile(0.99),
                s.solve_ms.max());
  }
  std::printf("  loop-thread barrier waits: %zu, avg %.2f ms, max %.2f ms\n",
              s.barrier_ms.count(), s.barrier_ms.mean(), s.barrier_ms.max());
  std::printf("  reuse index: %lld incremental delta updates, %lld full "
              "rebuilds, %lld no-op skips\n",
              static_cast<long long>(s.cache_delta_updates),
              static_cast<long long>(r.cache_rebuilds),
              static_cast<long long>(r.cache_noop_skips));
  if (s.replan_dispatches > 0) {
    std::printf("  planner copies: %lld bytes copied on the loop thread "
                "across %lld dispatches\n",
                static_cast<long long>(s.snapshot_bytes_copied),
                static_cast<long long>(s.replan_dispatches));
  }
  if (s.rate_directives + s.measurement_ticks > 0) {
    std::printf("  closed loop: %lld rate directives, %lld measurement "
                "ticks (%lld analytic), %lld auto re-plan rounds; "
                "per-measuring-tick cost avg %.3f ms, max %.3f ms\n",
                static_cast<long long>(s.rate_directives),
                static_cast<long long>(s.measurement_ticks),
                static_cast<long long>(s.analytic_ticks),
                static_cast<long long>(s.auto_replan_rounds),
                s.measure_ms.mean(), s.measure_ms.max());
  }
}

void AddRecord(BenchJsonWriter* json, const char* scenario, int workers,
               const char* mode, const RunResult& r) {
  if (json == nullptr) return;
  BenchRecord& rec = json->Add(scenario);
  rec.labels["workers"] = std::to_string(workers);
  rec.labels["measure_mode"] = mode;
  const ServiceStats& s = r.stats;
  auto& m = rec.metrics;
  m["wall_ms"] = r.total_ms;
  m["events_per_s"] = r.events_per_s;
  m["max_event_ms"] = r.max_event_ms;
  m["solver_p50_ms"] = s.solve_ms.Quantile(0.50);
  m["solver_p95_ms"] = s.solve_ms.Quantile(0.95);
  m["solver_p99_ms"] = s.solve_ms.Quantile(0.99);
  m["solver_samples"] = static_cast<double>(s.solve_ms.count());
  m["admitted"] = static_cast<double>(s.admitted);
  m["rejected"] = static_cast<double>(s.rejected);
  m["evictions"] = static_cast<double>(s.evictions);
  m["replan_rounds"] = static_cast<double>(s.replan_rounds);
  m["overlapped_arrival_solves"] =
      static_cast<double>(s.overlapped_arrival_solves);
  m["commit_conflicts"] = static_cast<double>(s.commit_conflicts);
  m["cache_delta_updates"] = static_cast<double>(s.cache_delta_updates);
  m["cache_rebuilds"] = static_cast<double>(r.cache_rebuilds);
  m["cache_noop_skips"] = static_cast<double>(r.cache_noop_skips);
  m["snapshot_bytes_copied"] = static_cast<double>(s.snapshot_bytes_copied);
  m["measurement_ticks"] = static_cast<double>(s.measurement_ticks);
  m["analytic_ticks"] = static_cast<double>(s.analytic_ticks);
  m["auto_replan_rounds"] = static_cast<double>(s.auto_replan_rounds);
  m["measure_ms_avg"] = s.measure_ms.mean();
  m["measure_ms_max"] = s.measure_ms.max();
  m["measure_ms_p99"] = s.measure_ms.Quantile(0.99);
  m["audit_records"] = static_cast<double>(r.audit_records);
  m["audit_canonical_records"] =
      static_cast<double>(r.audit_canonical_records);
}

bool DeterminismChecks(const char* scenario, const RunResult& zero,
                       const RunResult& one, const RunResult& four) {
  bool ok = true;
  std::printf("\n-- %s: worker-count invariance --\n", scenario);
  ok &= ShapeCheck(zero.stats.events ==
                           static_cast<int64_t>(zero.trace_events) &&
                       one.stats.events ==
                           static_cast<int64_t>(one.trace_events) &&
                       four.stats.events ==
                           static_cast<int64_t>(four.trace_events),
                   "every trace event consumed in all three replays");
  ok &= ShapeCheck(zero.audit_ok && one.audit_ok && four.audit_ok,
                   "final committed deployments validate");
  ok &= ShapeCheck(zero.fingerprint == one.fingerprint &&
                       zero.fingerprint == four.fingerprint,
                   "worker count does not change committed deployments");
  ok &= ShapeCheck(zero.audit_canonical_records > 0 &&
                       zero.audit_canonical == one.audit_canonical &&
                       zero.audit_canonical == four.audit_canonical,
                   "canonical audit journal byte-identical across worker "
                   "counts");
  ok &= ShapeCheck(
      zero.stats.admitted == one.stats.admitted &&
          zero.stats.admitted == four.stats.admitted &&
          zero.stats.rejected == one.stats.rejected &&
          zero.stats.rejected == four.stats.rejected &&
          zero.stats.replanned_admitted == one.stats.replanned_admitted &&
          zero.stats.replanned_admitted == four.stats.replanned_admitted &&
          zero.stats.overlapped_arrival_solves ==
              one.stats.overlapped_arrival_solves &&
          zero.stats.overlapped_arrival_solves ==
              four.stats.overlapped_arrival_solves &&
          zero.stats.measurement_ticks == one.stats.measurement_ticks &&
          zero.stats.measurement_ticks == four.stats.measurement_ticks &&
          zero.stats.auto_replan_rounds == one.stats.auto_replan_rounds &&
          zero.stats.auto_replan_rounds == four.stats.auto_replan_rounds,
      "worker count does not change admission statistics");
  ok &= ShapeCheck(
      zero.max_event_ms <= std::max(1000.0, zero.total_ms / 4) &&
          one.max_event_ms <= std::max(1000.0, one.total_ms / 4) &&
          four.max_event_ms <= std::max(1000.0, four.total_ms / 4),
      "per-event latency bounded (no event monopolised loop)");
  return ok;
}

// Checkpoint overhead (docs/ARCHITECTURE.md §9): the cost of making
// the service crash-durable, measured on the state the drift-heavy
// trace leaves behind. Three phases are timed separately because they
// bound different things: ExportCheckpoint bounds the event-loop stall
// a periodic checkpoint inserts (the first call additionally pays the
// round barrier + accounting refresh, so it is reported on its
// own), WriteFileAtomic bounds the filesystem cost of the
// write-fsync-rename protocol, and RestoreCheckpoint bounds recovery
// time after a crash. The round-trip check mirrors the durability
// suite's restore property: exporting from the restored service must
// reproduce, byte for byte, what the original service would have
// exported next (each export bumps the deployment version by one, so
// the reference is the original's *subsequent* export, not the
// restored document itself).
bool RunCheckpointOverhead(BenchJsonWriter* json,
                           const TraceConfig& trace_config) {
  ScenarioConfig config;
  config.queries = 400;
  config.seed = 11;
  Scenario scenario = MakeScenario(config);
  Result<std::vector<Event>> trace = GenerateTrace(
      trace_config, scenario.workload, config.hosts, *scenario.catalog);
  SQPR_CHECK(trace.ok()) << trace.status().ToString();

  ServiceOptions options;
  options.planner.timeout_ms = 60000;
  options.planner.max_nodes = 200;
  options.replan.workers = 0;
  PlanningService service(scenario.cluster.get(), scenario.catalog.get(),
                          options);
  for (const Event& e : *trace) {
    SQPR_CHECK_OK(service.Enqueue(e));
  }
  SQPR_CHECK_OK(service.RunUntilIdle());

  constexpr int kReps = 8;
  Stopwatch sw;
  Result<std::string> doc = service.ExportCheckpoint();
  SQPR_CHECK(doc.ok()) << doc.status().ToString();
  const double export_first_ms = sw.ElapsedMillis();
  double export_total_ms = 0.0;
  for (int i = 0; i < kReps; ++i) {
    sw.Reset();
    doc = service.ExportCheckpoint();
    export_total_ms += sw.ElapsedMillis();
    SQPR_CHECK(doc.ok()) << doc.status().ToString();
  }

  const std::string path =
      "/tmp/sqpr_bench_ckpt_" + std::to_string(::getpid()) + ".json";
  double write_total_ms = 0.0;
  for (int i = 0; i < kReps; ++i) {
    sw.Reset();
    const Status written = WriteFileAtomic(path, *doc);
    write_total_ms += sw.ElapsedMillis();
    SQPR_CHECK(written.ok()) << written.ToString();
  }
  Result<std::string> read_back = ReadFileToString(path);
  SQPR_CHECK(read_back.ok()) << read_back.status().ToString();
  std::remove(path.c_str());

  // Reference for the round-trip check: what the original service
  // exports next (one version bump past `doc`).
  Result<std::string> reference = service.ExportCheckpoint();
  SQPR_CHECK(reference.ok()) << reference.status().ToString();

  Scenario fresh = MakeScenario(config);
  PlanningService restored(fresh.cluster.get(), fresh.catalog.get(), options);
  sw.Reset();
  const Status restore = restored.RestoreCheckpoint(*doc);
  const double restore_ms = sw.ElapsedMillis();
  SQPR_CHECK(restore.ok()) << restore.ToString();
  Result<std::string> round_trip = restored.ExportCheckpoint();
  SQPR_CHECK(round_trip.ok()) << round_trip.status().ToString();

  const double export_ms_avg = export_total_ms / kReps;
  const double write_ms_avg = write_total_ms / kReps;
  std::printf("  checkpoint: %zu bytes; export first %.2f ms (pays the "
              "round barrier), steady avg %.2f ms; atomic write avg "
              "%.2f ms; restore %.2f ms\n",
              doc->size(), export_first_ms, export_ms_avg, write_ms_avg,
              restore_ms);

  bool ok = true;
  ok &= ShapeCheck(doc->size() > 0 && *read_back == *doc,
                   "atomic write-rename round-trips the checkpoint bytes");
  ok &= ShapeCheck(*round_trip == *reference,
                   "restored service exports byte-for-byte what the "
                   "original would export next");
  ok &= ShapeCheck(restored.stats().events == service.stats().events &&
                       restored.stats().admitted == service.stats().admitted,
                   "restore reinstates the serialized counters");

  if (json != nullptr) {
    BenchRecord& rec = json->Add("checkpoint-overhead");
    rec.labels["workers"] = "0";
    rec.labels["measure_mode"] = "none";
    auto& m = rec.metrics;
    m["checkpoint_bytes"] = static_cast<double>(doc->size());
    m["export_first_ms"] = export_first_ms;
    m["export_ms_avg"] = export_ms_avg;
    m["write_ms_avg"] = write_ms_avg;
    m["restore_ms"] = restore_ms;
    m["events"] = static_cast<double>(service.stats().events);
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::string trace_out;
  std::string audit_out;
  std::string metrics_series_out;
  if (!ParseBenchArgs(argc, argv, &json_path, &trace_out, &audit_out,
                      &metrics_series_out)) {
    return 2;
  }

  PrintHeader("Service churn",
              "event-driven admission / drift re-planning / speculative "
              "arrivals, 0 vs 1 vs 4 workers",
              11);
  BenchJsonWriter json("service_churn", 11);
  BenchJsonWriter* jout = json_path.empty() ? nullptr : &json;

  // ---- Scenario 1: drift-heavy (re-planning rounds stay full). ----
  TraceConfig drifty;
  drifty.num_events = 300;
  drifty.seed = 11;
  drifty.min_failures = 2;
  drifty.min_drift_reports = 8;
  drifty.drift_weight = 0.20;

  std::printf("\n==== scenario: drift-heavy ====\n");
  const RunResult d0 = Replay(drifty, /*workers=*/0);
  PrintRun("workers=0", d0);
  const RunResult d1 = Replay(drifty, /*workers=*/1);
  PrintRun("workers=1", d1);
  // The workers=4 replay is the flight-recorder capture target: the
  // worst solver-tail configuration (see BENCH_service.json), so the
  // committed trace explains exactly the rounds worth profiling.
  // Tracing reads clocks and writes thread-local rings only — the
  // determinism checks below still compare this replay's deployment
  // fingerprint against the untraced workers=0/1 replays.
  if (!trace_out.empty()) {
    // 8K spans/thread keeps the committed artifact a few hundred KB
    // gzipped while retaining the most recent rounds end to end (the
    // full-capacity default would be ~10x larger for the same story).
    obs::TraceRecorder::Options trace_options;
    trace_options.per_thread_capacity = 8192;
    obs::TraceRecorder::Get().Enable(trace_options);
    obs::TraceRecorder::SetCurrentThreadName("loop");
  }
  // The same workers=4 replay is also the audit-journal and
  // metrics-series capture target, so the three CI artifacts (trace,
  // audit, series) all explain one replay and join on its timeline.
  const RunResult d4 = Replay(drifty, /*workers=*/4, /*closed_loop=*/false,
                              MeasureMode::kEngine, metrics_series_out);
  if (!trace_out.empty()) {
    obs::TraceRecorder::Get().Disable();
    const Status written =
        obs::TraceRecorder::Get().WriteChromeTrace(trace_out);
    SQPR_CHECK(written.ok()) << written.ToString();
    std::printf("\nwrote flight-recorder trace (drift-heavy, workers=4): "
                "%s\n",
                trace_out.c_str());
  }
  if (!audit_out.empty()) {
    std::FILE* f = std::fopen(audit_out.c_str(), "wb");
    SQPR_CHECK(f != nullptr) << "cannot open " << audit_out;
    std::fwrite(d4.audit_full.data(), 1, d4.audit_full.size(), f);
    std::fclose(f);
    std::printf("\nwrote audit journal (drift-heavy, workers=4): %s "
                "(%zu records, %zu canonical)\n",
                audit_out.c_str(), d4.audit_records,
                d4.audit_canonical_records);
  }
  if (!metrics_series_out.empty()) {
    std::printf("wrote metrics series (drift-heavy, workers=4): %s\n",
                metrics_series_out.c_str());
  }
  PrintRun("workers=4", d4);
  std::printf("\nspeedup (events/s, 4 vs 0 workers): %.2fx\n",
              d4.events_per_s / d0.events_per_s);
  AddRecord(jout, "drift-heavy", 0, "none", d0);
  AddRecord(jout, "drift-heavy", 1, "none", d1);
  AddRecord(jout, "drift-heavy", 4, "none", d4);

  // ---- Scenario 2: arrival-heavy (the speculative-arrival stall
  // removal: cache-miss arrivals solving while rounds are in flight,
  // instead of retiring them first). ----
  TraceConfig arrivally;
  arrivally.num_events = 300;
  arrivally.seed = 23;
  arrivally.arrival_weight = 1.0;
  arrivally.departure_weight = 0.30;
  arrivally.drift_weight = 0.10;  // enough evictions to keep rounds live
  arrivally.failure_weight = 0.02;
  arrivally.min_failures = 1;
  arrivally.min_drift_reports = 6;

  std::printf("\n==== scenario: arrival-heavy ====\n");
  const RunResult a0 = Replay(arrivally, /*workers=*/0);
  PrintRun("workers=0", a0);
  const RunResult a1 = Replay(arrivally, /*workers=*/1);
  PrintRun("workers=1", a1);
  const RunResult a4 = Replay(arrivally, /*workers=*/4);
  PrintRun("workers=4", a4);
  std::printf("\nspeedup (events/s, 1 vs 0 workers): %.2fx — round solves "
              "move off the loop thread and overlap arrival admission\n",
              a1.events_per_s / a0.events_per_s);
  AddRecord(jout, "arrival-heavy", 0, "none", a0);
  AddRecord(jout, "arrival-heavy", 1, "none", a1);
  AddRecord(jout, "arrival-heavy", 4, "none", a4);

  // ---- Scenario 3: closed-loop (§IV-C self-measurement: the trace
  // scripts ground-truth rate trajectories and *no* monitor reports;
  // drift detection and re-planning fire from the service's own
  // periodic measurements). ----
  TraceConfig closed;
  closed.num_events = 220;
  closed.seed = 31;
  closed.closed_loop = true;
  closed.tick_weight = 0.55;       // measurements ride ticks
  closed.drift_weight = 0.18;      // rate directives
  closed.min_drift_reports = 8;
  closed.min_failures = 1;

  std::printf("\n==== scenario: closed-loop (engine measurements) ====\n");
  const RunResult c0 = Replay(closed, /*workers=*/0, /*closed_loop=*/true);
  PrintRun("workers=0", c0);
  const RunResult c1 = Replay(closed, /*workers=*/1, /*closed_loop=*/true);
  PrintRun("workers=1", c1);
  const RunResult c4 = Replay(closed, /*workers=*/4, /*closed_loop=*/true);
  PrintRun("workers=4", c4);
  AddRecord(jout, "closed-loop", 0, "engine", c0);
  AddRecord(jout, "closed-loop", 1, "engine", c1);
  AddRecord(jout, "closed-loop", 4, "engine", c4);

  // ---- Scenario 3b: the same closed-loop trace under analytic
  // measurements — per-stream rates and per-host CPU derived from the
  // committed ledgers scaled by truth/estimate ratios, no ClusterSim
  // run. The per-measuring-tick cost comparison below is the tentpole
  // number. ----
  std::printf("\n==== scenario: closed-loop (analytic measurements) ====\n");
  const RunResult n0 = Replay(closed, /*workers=*/0, /*closed_loop=*/true,
                              MeasureMode::kAnalytic);
  PrintRun("workers=0", n0);
  const RunResult n1 = Replay(closed, /*workers=*/1, /*closed_loop=*/true,
                              MeasureMode::kAnalytic);
  PrintRun("workers=1", n1);
  const RunResult n4 = Replay(closed, /*workers=*/4, /*closed_loop=*/true,
                              MeasureMode::kAnalytic);
  PrintRun("workers=4", n4);
  AddRecord(jout, "closed-loop", 0, "analytic", n0);
  AddRecord(jout, "closed-loop", 1, "analytic", n1);
  AddRecord(jout, "closed-loop", 4, "analytic", n4);
  std::printf("\nper-measuring-tick cost: engine avg %.3f ms vs analytic "
              "avg %.4f ms (%.1fx)\n",
              c0.stats.measure_ms.mean(), n0.stats.measure_ms.mean(),
              n0.stats.measure_ms.mean() > 0
                  ? c0.stats.measure_ms.mean() / n0.stats.measure_ms.mean()
                  : 0.0);

  // ---- Scenario 4: checkpoint overhead (docs/ARCHITECTURE.md §9) —
  // the durability tax, measured on the drift-heavy trace's final
  // state: export (periodic event-loop stall), atomic write (fsync +
  // rename), restore (recovery time), with the restore round-trip
  // byte-checked against the original service. ----
  std::printf("\n==== scenario: checkpoint-overhead ====\n");
  const bool checkpoint_ok = RunCheckpointOverhead(jout, drifty);

  bool ok = checkpoint_ok;
  ok &= DeterminismChecks("drift-heavy", d0, d1, d4);
  ok &= DeterminismChecks("arrival-heavy", a0, a1, a4);
  ok &= DeterminismChecks("closed-loop[engine]", c0, c1, c4);
  ok &= DeterminismChecks("closed-loop[analytic]", n0, n1, n4);

  std::printf("\n-- scenario-specific shape --\n");
  ok &= ShapeCheck(d0.stats.host_failures >= 2 &&
                       d0.stats.monitor_reports >= 8,
                   "drift-heavy trace exercised failures and drift");
  ok &= ShapeCheck(d0.stats.admitted > 0, "service admitted queries");
  ok &= ShapeCheck(d0.cache_hits > 0 && a0.cache_hits > 0,
                   "plan cache absorbed repeat/sub-query arrivals");
  ok &= ShapeCheck(a0.stats.overlapped_arrival_solves > 0,
                   "cache-miss arrivals solved while rounds were in flight "
                   "(the removed FinishInFlightRound stall)");
  ok &= ShapeCheck(c0.stats.monitor_reports == 0 &&
                       c0.stats.rate_directives >= 8,
                   "closed-loop trace scripts trajectories, zero monitor "
                   "reports");
  ok &= ShapeCheck(c0.stats.measurement_ticks > 0,
                   "closed loop performed periodic self-measurements");
  ok &= ShapeCheck(c0.stats.auto_replan_rounds > 0,
                   "self-measured drift triggered re-planning with no "
                   "scripted measurement anywhere in the trace");
  ok &= ShapeCheck(n0.stats.analytic_ticks == n0.stats.measurement_ticks &&
                       n0.stats.measurement_ticks ==
                           c0.stats.measurement_ticks &&
                       c0.stats.analytic_ticks == 0,
                   "analytic replay measured on the same ticks, engine "
                   "replay never took the analytic path");
  ok &= ShapeCheck(n0.stats.auto_replan_rounds > 0,
                   "analytic measurements detected drift and triggered "
                   "re-planning too");
  // Per-tick means come from ~20 samples per replay; a scheduler
  // descheduling spike on one tick could inflate a single replay's
  // mean. Taking the minimum mean across the three replays of each
  // mode (a spike hits at most one) keeps the >= 5x gate robust on a
  // loaded host — the true margin is ~20x.
  const double engine_tick_ms =
      std::min({c0.stats.measure_ms.mean(), c1.stats.measure_ms.mean(),
                c4.stats.measure_ms.mean()});
  const double analytic_tick_ms =
      std::min({n0.stats.measure_ms.mean(), n1.stats.measure_ms.mean(),
                n4.stats.measure_ms.mean()});
  ok &= ShapeCheck(
      analytic_tick_ms > 0 && engine_tick_ms >= 5.0 * analytic_tick_ms,
      "analytic mode cuts per-measuring-tick cost >= 5x vs engine mode");
  ok &= ShapeCheck(d0.stats.cache_delta_updates > 0 &&
                       a0.stats.cache_delta_updates > 0,
                   "reuse index maintained by incremental deltas on "
                   "additive commits (not only full rebuilds)");
  ok &= ShapeCheck(d4.stats.replan_dispatches > 0 &&
                       d4.stats.snapshot_bytes_copied > 0,
                   "worker rounds dispatched against planner copies "
                   "(bytes copied)");
  // The parallel win needs parallel hardware: the rounds are CPU-bound
  // MILP solves, so with fewer cores than solver threads (+ the loop
  // thread) they partly time-slice and scheduling noise can swamp the
  // short trace. Gate the throughput checks on core count, and leave a
  // 10% noise margin so a loaded CI host does not fail a correct build
  // (the speedup itself is printed above for eyeballing).
  if (std::thread::hardware_concurrency() >= 4) {
    ok &= ShapeCheck(d4.events_per_s > 0.9 * d0.events_per_s,
                     "4 workers at least match inline rounds on a "
                     "drift-heavy trace");
  } else {
    std::printf("shape-check [SKIP] 4 workers vs inline rounds "
                "(host has < 4 cores)\n");
  }
  if (std::thread::hardware_concurrency() >= 2) {
    ok &= ShapeCheck(a1.events_per_s > 0.9 * a0.events_per_s,
                     "1 worker at least matches inline rounds on an "
                     "arrival-heavy trace (overlapped arrival solves)");
  } else {
    std::printf("shape-check [SKIP] 1 worker vs inline rounds "
                "(host has < 2 cores)\n");
  }

  if (jout != nullptr && !json.WriteFile(json_path, ok ? 0 : 1)) {
    return 1;
  }
  return ok ? 0 : 1;
}
