// Property test for the planning service's determinism contract
// (docs/ARCHITECTURE.md §4): replaying a trace with a node-bounded
// solver commits a deployment, admission/eviction statistics, a
// canonical audit journal and checkpoint bytes that depend on the trace
// alone. Twenty generated traces with varied seeds and event mixes
// (arrivals/departures/failures/joins/drift/ticks) stand in for "any
// trace". Each property replays from scratch (fresh catalog/cluster/
// workload from the same seed): drift reports install measured rates
// into the catalog, so nothing may leak between replays.
//
// The contract extends unchanged to closed-loop mode (§IV-C): further
// properties replay generated closed-loop traces — ground-truth rate
// trajectories plus periodic self-measurement, zero scripted monitor
// events.
//
// Property names that mention worker counts or a worker matrix date
// from when re-planning rounds could be solved on a worker pool; one
// thread plans now, and those properties require two fresh replays of
// the same configuration to agree.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "model/catalog.h"
#include "model/cluster.h"
#include "obs/audit.h"
#include "service/planning_service.h"
#include "workload/generator.h"
#include "workload/trace.h"

namespace sqpr {
namespace {

/// Everything the contract promises depends on the trace alone. Wall
/// clock (latency stats) is deliberately excluded.
struct ReplayResult {
  std::string fingerprint;
  int64_t admitted = 0;
  int64_t rejected = 0;
  int64_t dedup_hits = 0;
  int64_t cache_fast_path = 0;
  int64_t evictions = 0;
  int64_t replanned_admitted = 0;
  int64_t replanned_rejected = 0;
  int64_t replan_dispatches = 0;
  int64_t overlapped_arrival_solves = 0;
  int64_t monitor_reports = 0;
  int64_t rate_directives = 0;
  int64_t measurement_ticks = 0;
  int64_t auto_replan_rounds = 0;
  /// Analytic-mode measurements and incremental reuse-index updates are
  /// logical (commit-order) quantities, so the contract covers them.
  int64_t analytic_ticks = 0;
  int64_t cache_delta_updates = 0;
  int64_t cache_rebuilds = 0;
  int pending_replans = 0;
  bool valid = false;

  auto Tie() const {
    return std::tie(fingerprint, admitted, rejected, dedup_hits,
                    cache_fast_path, evictions, replanned_admitted,
                    replanned_rejected, replan_dispatches,
                    overlapped_arrival_solves, monitor_reports,
                    rate_directives, measurement_ticks, auto_replan_rounds,
                    analytic_ticks, cache_delta_updates, cache_rebuilds,
                    pending_replans, valid);
  }
  /// The committed-outcome subset, which a checkpoint restore must
  /// reproduce. The scheduling counters (replan_dispatches,
  /// overlapped_arrival_solves) and the reuse-index counters are not
  /// checkpointed, so a restored process counts them from zero.
  auto CommittedTie() const {
    return std::tie(fingerprint, admitted, rejected, dedup_hits,
                    cache_fast_path, evictions, replanned_admitted,
                    replanned_rejected, monitor_reports, rate_directives,
                    pending_replans, valid);
  }
  bool operator==(const ReplayResult& other) const {
    return Tie() == other.Tie();
  }
};

std::ostream& operator<<(std::ostream& os, const ReplayResult& r) {
  return os << "admitted=" << r.admitted << " rejected=" << r.rejected
            << " dedup=" << r.dedup_hits << " cache=" << r.cache_fast_path
            << " evictions=" << r.evictions
            << " replanned=" << r.replanned_admitted << "/"
            << (r.replanned_admitted + r.replanned_rejected)
            << " dispatches=" << r.replan_dispatches
            << " overlapped=" << r.overlapped_arrival_solves
            << " monitor=" << r.monitor_reports
            << " directives=" << r.rate_directives
            << " measured=" << r.measurement_ticks
            << " auto=" << r.auto_replan_rounds
            << " analytic=" << r.analytic_ticks
            << " cache-deltas=" << r.cache_delta_updates
            << " cache-rebuilds=" << r.cache_rebuilds
            << " pending=" << r.pending_replans << " valid=" << r.valid
            << "\nfingerprint:\n"
            << r.fingerprint;
}

/// Varies the event mix deterministically with the seed so the twenty
/// instances cover different regimes (departure-heavy, churn-heavy,
/// drift-heavy, ...), not twenty samples of one distribution.
TraceConfig MakeTraceConfig(uint64_t seed) {
  TraceConfig tc;
  tc.seed = seed * 977 + 13;
  tc.mean_gap_ms = 40;
  tc.arrival_weight = 1.0;
  tc.departure_weight = 0.15 + 0.10 * static_cast<double>(seed % 4);
  tc.failure_weight = 0.02 + 0.02 * static_cast<double>(seed % 3);
  tc.join_weight = 0.06 + 0.03 * static_cast<double>(seed % 2);
  tc.drift_weight = 0.05 + 0.06 * static_cast<double>(seed % 5);
  tc.tick_weight = 0.10;
  tc.min_failures = 1 + static_cast<int>(seed % 2);
  tc.min_drift_reports = 1 + static_cast<int>(seed % 3);
  tc.drift_streams_per_report = 1 + static_cast<int>(seed % 3);
  return tc;
}

/// Scenario state rebuilt from scratch per replay (drift reports and
/// warm-ups mutate the catalog, so nothing may leak between replays).
/// Owned through pointers because the checkpoint/restore properties
/// need two independent scenarios alive at once ("the crashed process"
/// and "the restarted process").
struct Scenario {
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<Catalog> catalog;
  std::vector<Event> trace;
};

Scenario MakeScenario(uint64_t seed, bool closed_loop, int num_events = 36) {
  Scenario s;
  s.cluster =
      std::make_unique<Cluster>(3, HostSpec{0.6, 70.0, 70.0, ""}, 140.0);
  s.catalog = std::make_unique<Catalog>(CostModel{});

  WorkloadConfig wc;
  wc.num_base_streams = 18;
  wc.num_queries = 30;
  wc.arities = {2, 3};
  wc.seed = seed;
  Result<Workload> workload = GenerateWorkload(wc, 3, s.catalog.get());
  EXPECT_TRUE(workload.ok()) << workload.status().ToString();

  TraceConfig tc = MakeTraceConfig(seed);
  tc.num_events = num_events;
  if (closed_loop) {
    // Drift slots become ground-truth trajectories and the tick weight
    // rises — the §IV-C measurements (and therefore every re-planning
    // round) fire from the service's own loop.
    tc.closed_loop = true;
    tc.tick_weight = 0.55;
  }
  Result<std::vector<Event>> trace =
      GenerateTrace(tc, *workload, 3, *s.catalog);
  EXPECT_TRUE(trace.ok()) << trace.status().ToString();
  s.trace = std::move(*trace);
  return s;
}

ServiceOptions MakeOptions(uint64_t seed, bool closed_loop, MeasureMode mode,
                           obs::AuditJournal* journal) {
  ServiceOptions options;
  // The contract requires a node-bounded solver: a wall-clock deadline
  // that fires mid-search would make the incumbent depend on machine
  // load (docs/ARCHITECTURE.md §4).
  options.planner.timeout_ms = 60000;
  options.planner.max_nodes = 80;
  if (closed_loop) {
    options.closed_loop = true;
    options.telemetry.mode = mode;
    options.telemetry.measure_period = 2;
    options.telemetry.seed = seed;
    // Exercise the full measurement shaping (noise + smoothing) — both
    // are seeded/stateful and must replay identically.
    options.telemetry.ewma_alpha = 0.7;
    options.telemetry.noise = 0.05;
    options.telemetry.sim.rate_scale = 0.02;
    options.telemetry.sim.duration_ms = 400;
  }
  options.audit = journal;
  return options;
}

ReplayResult Harvest(PlanningService& service) {
  ReplayResult result;
  result.fingerprint = service.deployment().Fingerprint();
  const ServiceStats& stats = service.stats();
  result.admitted = stats.admitted;
  result.rejected = stats.rejected;
  result.dedup_hits = stats.dedup_hits;
  result.cache_fast_path = stats.cache_fast_path;
  result.evictions = stats.evictions;
  result.replanned_admitted = stats.replanned_admitted;
  result.replanned_rejected = stats.replanned_rejected;
  result.replan_dispatches = stats.replan_dispatches;
  result.overlapped_arrival_solves = stats.overlapped_arrival_solves;
  result.monitor_reports = stats.monitor_reports;
  result.rate_directives = stats.rate_directives;
  result.measurement_ticks = stats.measurement_ticks;
  result.auto_replan_rounds = stats.auto_replan_rounds;
  result.analytic_ticks = stats.analytic_ticks;
  result.cache_delta_updates = stats.cache_delta_updates;
  result.cache_rebuilds = service.plan_cache().rebuilds();
  result.pending_replans = service.pending_replans();
  result.valid = service.deployment().Validate().ok();
  return result;
}

ReplayResult Replay(uint64_t seed, bool closed_loop = false,
                    MeasureMode mode = MeasureMode::kEngine,
                    obs::AuditJournal* journal = nullptr) {
  Scenario s = MakeScenario(seed, closed_loop);
  PlanningService service(s.cluster.get(), s.catalog.get(),
                          MakeOptions(seed, closed_loop, mode, journal));
  for (const Event& e : s.trace) EXPECT_TRUE(service.Enqueue(e).ok());
  EXPECT_TRUE(service.RunUntilIdle().ok());
  if (journal != nullptr) service.FinalizeAudit();
  return Harvest(service);
}

class ServiceReplayPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ServiceReplayPropertyTest, WorkerCountInvariantDeployments) {
  const uint64_t seed = GetParam();
  const ReplayResult first = Replay(seed);
  EXPECT_TRUE(first.valid) << "seed " << seed;
  EXPECT_EQ(first, Replay(seed)) << "two replays diverged, seed " << seed;
}

// The same property over the §IV-C closed loop: the trace scripts
// ground-truth trajectories (zero monitor reports) and every
// measurement — the ClusterSim run, the seeded noise, the EWMA state,
// the drift cycle it triggers — happens at the tick barrier, so the
// full self-measuring service must replay bit for bit too.
TEST_P(ServiceReplayPropertyTest, ClosedLoopWorkerCountInvariant) {
  const uint64_t seed = GetParam();
  const ReplayResult first = Replay(seed, /*closed_loop=*/true);
  EXPECT_TRUE(first.valid) << "seed " << seed;
  EXPECT_EQ(first.monitor_reports, 0)
      << "closed-loop traces must not script measurements, seed " << seed;
  EXPECT_GT(first.measurement_ticks, 0)
      << "closed loop never self-measured, seed " << seed;
  EXPECT_GT(first.rate_directives, 0) << "seed " << seed;
  EXPECT_EQ(first, Replay(seed, /*closed_loop=*/true))
      << "closed loop: two replays diverged, seed " << seed;
}

// And over the analytic measurement mode (no ClusterSim in the loop):
// the ledger-derived measurements are pure functions of the committed
// state and the seeded noise stream, so the incremental cache
// maintenance and the analytic drift decisions must replay identically.
TEST_P(ServiceReplayPropertyTest, AnalyticClosedLoopWorkerCountInvariant) {
  const uint64_t seed = GetParam();
  const ReplayResult first =
      Replay(seed, /*closed_loop=*/true, MeasureMode::kAnalytic);
  EXPECT_TRUE(first.valid) << "seed " << seed;
  EXPECT_GT(first.measurement_ticks, 0) << "seed " << seed;
  EXPECT_EQ(first.analytic_ticks, first.measurement_ticks)
      << "every measurement must take the analytic path, seed " << seed;
  EXPECT_EQ(first, Replay(seed, /*closed_loop=*/true, MeasureMode::kAnalytic))
      << "analytic loop: two replays diverged, seed " << seed;
}

// One re-planning round pending at a time: a round popped at the end of
// event N commits at the end of event N+1 or at an earlier barrier, so
// every popped round commits by the end of the replay, and the counters
// of the retired worker pool (planner copies, bounced proposals,
// unwound rounds, barrier waits) stay 0.
TEST_P(ServiceReplayPropertyTest, PipelineDepthWorkerMatrixInvariant) {
  const uint64_t seed = GetParam();
  Scenario s = MakeScenario(seed, /*closed_loop=*/false);
  PlanningService service(
      s.cluster.get(), s.catalog.get(),
      MakeOptions(seed, /*closed_loop=*/false, MeasureMode::kEngine, nullptr));
  for (const Event& e : s.trace) ASSERT_TRUE(service.Enqueue(e).ok());
  ASSERT_TRUE(service.RunUntilIdle().ok());
  const ServiceStats& stats = service.stats();
  EXPECT_TRUE(service.deployment().Validate().ok()) << "seed " << seed;
  EXPECT_EQ(stats.replan_rounds, stats.replan_dispatches) << "seed " << seed;
  EXPECT_EQ(stats.commit_ms.count(),
            static_cast<size_t>(stats.replan_rounds))
      << "seed " << seed;
  EXPECT_EQ(stats.round_unwinds, 0) << "seed " << seed;
  EXPECT_EQ(stats.commit_conflicts, 0) << "seed " << seed;
  EXPECT_EQ(stats.snapshot_bytes_copied, 0) << "seed " << seed;
  EXPECT_EQ(stats.barrier_ms.count(), 0u) << "seed " << seed;
}

// The decision audit journal rides the same contract (obs/audit.h):
// canonical records are emitted at commit points only, so the canonical
// rendering — header line plus every non-speculative record, "wall"
// object stripped — carries no operational stratum. And auditing must
// never gate behaviour: the journal-attached replay commits the same
// deployment fingerprint as an audit-off replay of the same trace.
TEST_P(ServiceReplayPropertyTest, AuditJournalCanonicalBytesMatrixInvariant) {
  const uint64_t seed = GetParam();
  const ReplayResult audit_off = Replay(seed);
  EXPECT_TRUE(audit_off.valid) << "seed " << seed;

  obs::AuditJournal journal;
  const ReplayResult replay = Replay(seed, /*closed_loop=*/false,
                                     MeasureMode::kEngine, &journal);
  EXPECT_EQ(replay.fingerprint, audit_off.fingerprint)
      << "auditing changed the committed deployment, seed " << seed;
  const std::string canonical = journal.ToJsonl(/*canonical=*/true);
  EXPECT_EQ(
      canonical.find("{\"schema\":\"sqpr-audit-v1\",\"canonical\":true}"),
      0u)
      << "seed " << seed;
  EXPECT_NE(canonical.find("\"journal.close\""), std::string::npos)
      << "seed " << seed;
  EXPECT_EQ(canonical.find("\"wall\""), std::string::npos)
      << "canonical rendering leaked wall-clock fields, seed " << seed;
  EXPECT_EQ(canonical.find("\"round.dispatch\""), std::string::npos)
      << "canonical rendering leaked a speculative record, seed " << seed;
  EXPECT_GT(journal.canonical_size(), 0u) << "seed " << seed;
}

// The durability axis of the same contract (docs/ARCHITECTURE.md
// "Durability & degraded modes"): kill the service after event k,
// restore the checkpoint into a fresh process, finish the trace — and
// land exactly where an uninterrupted run lands. A fresh scenario
// (rebuilt from the same seed, as a restarted process would) restored
// from the checkpoint and fed the not-yet-consumed suffix commits the
// uninterrupted run's deployment — same fingerprint, same committed
// statistics — and ends in a byte-identical final checkpoint.
//
// The uninterrupted run ALSO checkpoints at event k: exporting is a
// barrier that commits the pending round and re-canonicalizes the
// ledgers (bumping the deployment version), so it is part of the
// replayed history — crashing and non-crashing runs must share it.
TEST_P(ServiceReplayPropertyTest, CheckpointRestoreCrashInvariant) {
  const uint64_t seed = GetParam();
  constexpr int kCrashAfter = 12;
  const ServiceOptions options =
      MakeOptions(seed, /*closed_loop=*/false, MeasureMode::kEngine, nullptr);

  std::string checkpoint;
  std::string baseline_final;
  ReplayResult baseline;
  {
    // The uninterrupted run: checkpoint at event k, then run through.
    Scenario s = MakeScenario(seed, /*closed_loop=*/false);
    ASSERT_GT(s.trace.size(), static_cast<size_t>(kCrashAfter));
    PlanningService service(s.cluster.get(), s.catalog.get(), options);
    for (const Event& e : s.trace) ASSERT_TRUE(service.Enqueue(e).ok());
    for (int i = 0; i < kCrashAfter; ++i) {
      const Result<EventOutcome> outcome = service.Step();
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    }
    Result<std::string> ck = service.ExportCheckpoint();
    ASSERT_TRUE(ck.ok()) << ck.status().ToString();
    checkpoint = std::move(*ck);
    ASSERT_TRUE(service.RunUntilIdle().ok());
    baseline = Harvest(service);
    ASSERT_TRUE(baseline.valid) << "seed " << seed;
    Result<std::string> fin = service.ExportCheckpoint();
    ASSERT_TRUE(fin.ok()) << fin.status().ToString();
    baseline_final = std::move(*fin);
  }

  // The "restarted process": fresh scenario from the same seed, restore,
  // replay only the suffix.
  Scenario s = MakeScenario(seed, /*closed_loop=*/false);
  PlanningService restored(s.cluster.get(), s.catalog.get(), options);
  const Status ok = restored.RestoreCheckpoint(checkpoint);
  ASSERT_TRUE(ok.ok()) << ok.ToString() << ", seed " << seed;
  ASSERT_EQ(restored.stats().events, kCrashAfter);
  for (size_t i = kCrashAfter; i < s.trace.size(); ++i) {
    ASSERT_TRUE(restored.Enqueue(s.trace[i]).ok());
  }
  ASSERT_TRUE(restored.RunUntilIdle().ok());
  const ReplayResult result = Harvest(restored);
  EXPECT_TRUE(baseline.CommittedTie() == result.CommittedTie())
      << "restored run diverged, seed " << seed << "\nbaseline: " << baseline
      << "\nrestored: " << result;
  const Result<std::string> fin = restored.ExportCheckpoint();
  ASSERT_TRUE(fin.ok()) << fin.status().ToString();
  EXPECT_EQ(*fin, baseline_final)
      << "final checkpoint diverged after restore, seed " << seed;
}

// The same kill-restore-finish property through the §IV-C closed loop,
// which adds the telemetry state to the checkpoint: ground-truth
// trajectories (walk phases are re-derived lazily from virtual time),
// the raw measurement-noise RNG state (data-dependent draw count, so it
// is serialized verbatim), EWMA smoothing state and the last measured
// rates.
TEST_P(ServiceReplayPropertyTest, ClosedLoopCheckpointRestoreInvariant) {
  const uint64_t seed = GetParam();
  constexpr int kCrashAfter = 12;
  const ServiceOptions options =
      MakeOptions(seed, /*closed_loop=*/true, MeasureMode::kEngine, nullptr);

  std::string checkpoint;
  std::string baseline_final;
  ReplayResult baseline;
  {
    Scenario s = MakeScenario(seed, /*closed_loop=*/true);
    ASSERT_GT(s.trace.size(), static_cast<size_t>(kCrashAfter));
    PlanningService service(s.cluster.get(), s.catalog.get(), options);
    for (const Event& e : s.trace) ASSERT_TRUE(service.Enqueue(e).ok());
    for (int i = 0; i < kCrashAfter; ++i) {
      const Result<EventOutcome> outcome = service.Step();
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    }
    Result<std::string> ck = service.ExportCheckpoint();
    ASSERT_TRUE(ck.ok()) << ck.status().ToString();
    checkpoint = std::move(*ck);
    ASSERT_TRUE(service.RunUntilIdle().ok());
    baseline = Harvest(service);
    ASSERT_TRUE(baseline.valid) << "seed " << seed;
    Result<std::string> fin = service.ExportCheckpoint();
    ASSERT_TRUE(fin.ok()) << fin.status().ToString();
    baseline_final = std::move(*fin);
  }

  Scenario s = MakeScenario(seed, /*closed_loop=*/true);
  PlanningService restored(s.cluster.get(), s.catalog.get(), options);
  const Status ok = restored.RestoreCheckpoint(checkpoint);
  ASSERT_TRUE(ok.ok()) << ok.ToString() << ", seed " << seed;
  for (size_t i = kCrashAfter; i < s.trace.size(); ++i) {
    ASSERT_TRUE(restored.Enqueue(s.trace[i]).ok());
  }
  ASSERT_TRUE(restored.RunUntilIdle().ok());
  const ReplayResult result = Harvest(restored);
  EXPECT_TRUE(baseline.CommittedTie() == result.CommittedTie())
      << "closed loop: restored run diverged, seed " << seed
      << "\nbaseline: " << baseline << "\nrestored: " << result;
  const Result<std::string> fin = restored.ExportCheckpoint();
  ASSERT_TRUE(fin.ok()) << fin.status().ToString();
  EXPECT_EQ(*fin, baseline_final)
      << "closed loop: final checkpoint diverged after restore, seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Traces, ServiceReplayPropertyTest,
                         ::testing::Range(uint64_t{1}, uint64_t{21}));

// The crash-restore drill `sqpr_service --hosts 3 --queries 20
// --events 300 --max-nodes 20 --timeout-ms 60000 --checkpoint-every 25`
// killed after event 100 (SQPR_FAULT=event:100), run in-process: the
// same scenario generation and service options as the tool's defaults,
// a checkpoint every 25 consumed events, a crash right after the one at
// event 100, a fresh process restored from it finishing the trace, and
// the final checkpoint compared byte
// for byte with the uninterrupted run's. The 20-query pool makes the
// trace revisit the same queries — and so the same solve structures —
// over and over, and the 20-node budget makes every solve stop on
// whichever incumbent it has: any solver state carried from one round
// to the next that the checkpoint does not hold (a remembered LP basis,
// pooled cuts, a skipped heuristic) shows up here as a different plan.
class ServiceKillRestoreTest : public ::testing::TestWithParam<uint64_t> {};

struct CliScenario {
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<Catalog> catalog;
  std::vector<Event> trace;
};

CliScenario MakeCliScenario(uint64_t seed) {
  CliScenario s;
  s.cluster = std::make_unique<Cluster>(3, HostSpec{0.8, 70.0, 70.0, ""},
                                        140.0);
  s.catalog = std::make_unique<Catalog>(CostModel{});
  WorkloadConfig wc;
  wc.num_base_streams = 48;
  wc.base_rate_mbps = 10.0;
  wc.zipf_s = 1.0;
  wc.arities = {2, 3};
  wc.num_queries = 20;
  wc.seed = seed;
  Result<Workload> workload = GenerateWorkload(wc, 3, s.catalog.get());
  EXPECT_TRUE(workload.ok()) << workload.status().ToString();
  TraceConfig tc;
  tc.num_events = 300;
  tc.seed = seed;
  Result<std::vector<Event>> trace =
      GenerateTrace(tc, *workload, 3, *s.catalog);
  EXPECT_TRUE(trace.ok()) << trace.status().ToString();
  s.trace = std::move(*trace);
  return s;
}

ServiceOptions CliOptions(uint64_t seed) {
  ServiceOptions options;
  options.planner.timeout_ms = 60000;
  options.planner.max_nodes = 20;
  options.telemetry.seed = seed;
  return options;
}

TEST_P(ServiceKillRestoreTest, RestoredDrillMatchesUninterruptedBytes) {
  const uint64_t seed = GetParam();
  constexpr int kCheckpointEvery = 25;
  constexpr int kCrashAfter = 100;

  // Replays `s.trace` from event `from` on, checkpointing on the
  // consumed-event cadence; returns the checkpoint taken at kCrashAfter
  // (if reached) and the final one.
  const auto finish = [&](PlanningService* service, const CliScenario& s,
                          size_t from, std::string* at_crash) {
    for (size_t i = from; i < s.trace.size(); ++i) {
      EXPECT_TRUE(service->Enqueue(s.trace[i]).ok());
    }
    while (service->HasPendingEvents()) {
      const Result<EventOutcome> outcome = service->Step();
      EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
      if (!outcome.ok()) return std::string();
      if (service->stats().events % kCheckpointEvery == 0) {
        const Result<std::string> ck = service->ExportCheckpoint();
        EXPECT_TRUE(ck.ok()) << ck.status().ToString();
        if (at_crash != nullptr && service->stats().events == kCrashAfter) {
          *at_crash = *ck;
        }
      }
    }
    service->FinishInFlightRound();
    const Result<std::string> fin = service->ExportCheckpoint();
    EXPECT_TRUE(fin.ok()) << fin.status().ToString();
    return fin.ok() ? *fin : std::string();
  };

  std::string checkpoint;
  std::string uninterrupted;
  {
    CliScenario s = MakeCliScenario(seed);
    ASSERT_GT(s.trace.size(), static_cast<size_t>(kCrashAfter));
    PlanningService service(s.cluster.get(), s.catalog.get(),
                            CliOptions(seed));
    uninterrupted = finish(&service, s, 0, &checkpoint);
  }
  ASSERT_FALSE(checkpoint.empty()) << "seed " << seed;

  CliScenario s = MakeCliScenario(seed);
  PlanningService restored(s.cluster.get(), s.catalog.get(),
                           CliOptions(seed));
  const Status ok = restored.RestoreCheckpoint(checkpoint);
  ASSERT_TRUE(ok.ok()) << ok.ToString() << ", seed " << seed;
  ASSERT_EQ(restored.stats().events, kCrashAfter);
  const std::string resumed = finish(&restored, s, kCrashAfter, nullptr);
  EXPECT_TRUE(resumed == uninterrupted)
      << "seed " << seed << ": the run restored at event " << kCrashAfter
      << " ends in a different checkpoint than the uninterrupted run";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServiceKillRestoreTest,
                         ::testing::Range(uint64_t{1}, uint64_t{13}));

// Golden digests of checkpointed replays: FNV-1a over the final
// deployment fingerprint, the canonical audit journal and the final
// checkpoint bytes of a 120-event replay that also exports a checkpoint
// every five events. Seeds 1-5, open and closed loop. The constants were
// recorded with one re-planning round pending at a time (popped at the
// end of event N, its queries admitted through the arrival path — plan
// cache, dedup, in-place MILP solve — at the end of event N+1), with
// branch-and-bound children re-solved by the dual simplex from their
// parent's basis. Unlike the repeatability properties, which compare
// two replays with each other, this pins the schedule itself: a change
// that moves a commit point, an audit record or a checkpoint byte fails
// here even if every replay agrees. The closed loop with a checkpoint
// cadence is where a deeper speculative pipeline once committed
// different deployments while every open-loop gate stayed green.
uint64_t CheckpointedReplayDigest(uint64_t seed, bool closed_loop) {
  constexpr int kEvents = 120;
  constexpr int kCheckpointEvery = 5;
  Scenario s = MakeScenario(seed, closed_loop, kEvents);
  obs::AuditJournal journal;
  ServiceOptions options =
      MakeOptions(seed, closed_loop, MeasureMode::kEngine, &journal);
  PlanningService service(s.cluster.get(), s.catalog.get(), options);
  for (const Event& e : s.trace) EXPECT_TRUE(service.Enqueue(e).ok());
  int consumed = 0;
  while (service.HasPendingEvents()) {
    const Result<EventOutcome> outcome = service.Step();
    EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
    if (++consumed % kCheckpointEvery == 0) {
      EXPECT_TRUE(service.ExportCheckpoint().ok());
    }
  }
  service.FinishInFlightRound();
  const std::string fingerprint = service.deployment().Fingerprint();
  service.FinalizeAudit();
  const Result<std::string> final_checkpoint = service.ExportCheckpoint();
  EXPECT_TRUE(final_checkpoint.ok()) << final_checkpoint.status().ToString();
  std::string blob = fingerprint;
  blob += '\n';
  blob += journal.ToJsonl(/*canonical=*/true);
  blob += '\n';
  if (final_checkpoint.ok()) blob += *final_checkpoint;
  return obs::AuditJournal::Fnv1a(blob);
}

TEST(ServiceReplayGoldenTest, CheckpointedReplayDigestsArePinned) {
  struct Golden {
    uint64_t seed;
    bool closed_loop;
    uint64_t digest;
  };
  constexpr Golden kGolden[] = {
      {1, false, 0xd5d50aba6aad9f20},
      {2, false, 0x1b36aefc00066448},
      {3, false, 0x09cae4067c1046a3},
      {4, false, 0xfc392d17706e5bb9},
      {5, false, 0x0b3dc1db6bb9a2c8},
      {1, true, 0x7eb5d004b376fb66},
      {2, true, 0x3fe14368b5f1f1b7},
      {3, true, 0xee17a15340ca0dbb},
      {4, true, 0x59807be7764c8428},
      {5, true, 0xabf8525a56e9c041},
  };
  for (const Golden& g : kGolden) {
    const uint64_t digest = CheckpointedReplayDigest(g.seed, g.closed_loop);
    EXPECT_EQ(digest, g.digest)
        << "seed " << g.seed << (g.closed_loop ? " closed" : " open")
        << " loop: digest " << std::hex << std::showbase << digest;
  }
}

}  // namespace
}  // namespace sqpr
