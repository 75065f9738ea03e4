// Tests for the continuous planning service: deterministic event loop,
// plan-reuse cache, bounded re-planning rounds, host failure/rejoin
// fallout and the monitor→re-plan round trip (§IV-B/§IV-C).

#include "service/planning_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "model/catalog.h"
#include "model/cluster.h"
#include "service/event_loop.h"
#include "service/plan_cache.h"
#include "service/replan_policy.h"
#include "sim/cluster_sim.h"
#include "workload/generator.h"
#include "workload/trace.h"

namespace sqpr {
namespace {

// ---- Event queue / virtual clock. ----

TEST(EventQueueTest, PopsInTimestampThenInsertionOrder) {
  EventQueue queue;
  queue.Push(Event::Tick(30));
  queue.Push(Event::Arrival(10, 1));
  queue.Push(Event::Departure(10, 2));  // same time as the arrival
  queue.Push(Event::Tick(20));

  EXPECT_EQ(queue.NextTime(), 10);
  Event first = queue.Pop();
  EXPECT_EQ(first.kind, EventKind::kQueryArrival);  // inserted before
  Event second = queue.Pop();
  EXPECT_EQ(second.kind, EventKind::kQueryDeparture);
  EXPECT_EQ(queue.Pop().time_ms, 20);
  EXPECT_EQ(queue.Pop().time_ms, 30);
  EXPECT_TRUE(queue.empty());
}

TEST(VirtualClockTest, NeverMovesBackwards) {
  VirtualClock clock;
  clock.AdvanceTo(100);
  clock.AdvanceTo(50);
  EXPECT_EQ(clock.now_ms(), 100);
}

// ---- Re-planning scheduler. ----

TEST(ReplanSchedulerTest, DeduplicatesAndBoundsRounds) {
  ReplanPolicyOptions options;
  options.max_queries_per_round = 2;
  ReplanScheduler scheduler(options);
  EXPECT_TRUE(scheduler.Enqueue(7));
  EXPECT_FALSE(scheduler.Enqueue(7));  // already pending
  EXPECT_TRUE(scheduler.Enqueue(8));
  EXPECT_TRUE(scheduler.Enqueue(9));
  EXPECT_EQ(scheduler.pending(), 3u);

  const std::vector<StreamId> round1 = scheduler.NextRound();
  ASSERT_EQ(round1.size(), 2u);  // bounded
  EXPECT_EQ(round1[0], 7);       // FIFO
  EXPECT_EQ(round1[1], 8);
  // Popped queries can be enqueued again.
  EXPECT_TRUE(scheduler.Enqueue(7));
  scheduler.Discard(7);
  const std::vector<StreamId> round2 = scheduler.NextRound();
  ASSERT_EQ(round2.size(), 1u);
  EXPECT_EQ(round2[0], 9);
  EXPECT_FALSE(scheduler.HasPending());
}

// Round composition is pinned at enqueue time: a discard shrinks its
// round without pulling queries forward from later rounds, so round
// boundaries — and the state each re-admission solves against — do not
// depend on when departures land.
TEST(ReplanSchedulerTest, DiscardPreservesRoundBoundaries) {
  ReplanPolicyOptions options;
  options.max_queries_per_round = 2;
  ReplanScheduler scheduler(options);
  for (StreamId q : {1, 2, 3, 4, 5}) EXPECT_TRUE(scheduler.Enqueue(q));
  // Groups cut at enqueue: [1,2] [3,4] [5].

  scheduler.Discard(2);
  const std::vector<StreamId> first = scheduler.NextRound();
  ASSERT_EQ(first.size(), 1u) << "discard must not re-pack 3 forward";
  EXPECT_EQ(first[0], 1);

  const std::vector<StreamId> second = scheduler.NextRound();
  ASSERT_EQ(second.size(), 2u);
  EXPECT_EQ(second[0], 3);
  EXPECT_EQ(second[1], 4);
  EXPECT_EQ(scheduler.pending(), 1u);  // 5
}

// ---- Plan cache. ----

TEST(PlanCacheTest, IndexesMaterializedStreamsBySignature) {
  Catalog catalog(CostModel{});
  Cluster cluster(2, HostSpec{10.0, 1000.0, 1000.0, ""}, 1000.0);
  const StreamId a = catalog.AddBaseStream(0, 10.0, "a");
  const StreamId b = catalog.AddBaseStream(0, 10.0, "b");
  const StreamId c = catalog.AddBaseStream(1, 10.0, "c");
  const OperatorId join_ab = *catalog.JoinOperator(a, b);
  const StreamId ab = catalog.op(join_ab).output;
  const StreamId abc = *catalog.CanonicalJoinStream({a, b, c});

  Deployment dep(&cluster, &catalog);
  ASSERT_TRUE(dep.PlaceOperator(0, join_ab).ok());

  PlanCache cache(&catalog);
  cache.Rebuild(dep);

  PlanCache::Hit hit;
  ASSERT_TRUE(cache.FindMaterialized(ab, &hit));
  ASSERT_EQ(hit.hosts.size(), 1u);
  EXPECT_EQ(hit.hosts[0], 0);

  // Exact hit for ab itself.
  PlanCache::Lookup exact = cache.OnArrival(ab);
  EXPECT_TRUE(exact.exact);
  EXPECT_FALSE(exact.served);

  // abc gets ab as a canonical proper-subquery candidate.
  PlanCache::Lookup partial = cache.OnArrival(abc);
  EXPECT_FALSE(partial.exact);
  ASSERT_EQ(partial.partial.size(), 1u);
  EXPECT_EQ(partial.partial[0].stream, ab);

  EXPECT_EQ(cache.exact_hits(), 1);
  EXPECT_EQ(cache.partial_hits(), 1);

  // A flow materialises the stream at the receiving host too.
  ASSERT_TRUE(dep.AddFlow(0, 1, ab).ok());
  cache.Rebuild(dep);
  ASSERT_TRUE(cache.FindMaterialized(ab, &hit));
  EXPECT_EQ(hit.hosts.size(), 2u);
}

TEST(PlanCacheTest, RebuildSkipsScanWhenDeploymentVersionUnchanged) {
  Catalog catalog(CostModel{});
  Cluster cluster(2, HostSpec{10.0, 1000.0, 1000.0, ""}, 1000.0);
  const StreamId a = catalog.AddBaseStream(0, 10.0, "a");
  const StreamId b = catalog.AddBaseStream(0, 10.0, "b");
  const OperatorId join_ab = *catalog.JoinOperator(a, b);

  Deployment dep(&cluster, &catalog);
  ASSERT_TRUE(dep.PlaceOperator(0, join_ab).ok());

  PlanCache cache(&catalog);
  cache.Rebuild(dep);
  EXPECT_EQ(cache.rebuilds(), 1);
  EXPECT_EQ(cache.noop_skips(), 0);

  // Boundary: a rebuild request against an unchanged deployment (the
  // repeat-arrival dedup shape) must skip the fixpoint scan.
  cache.Rebuild(dep);
  EXPECT_EQ(cache.rebuilds(), 1);
  EXPECT_EQ(cache.noop_skips(), 1);

  // Any real mutation re-arms the scan.
  ASSERT_TRUE(dep.AddFlow(0, 1, catalog.op(join_ab).output).ok());
  cache.Rebuild(dep);
  EXPECT_EQ(cache.rebuilds(), 2);
  EXPECT_EQ(cache.noop_skips(), 1);
}

TEST(PlanCacheTest, ApplyDeltaGroundsAdditionsTransitively) {
  Catalog catalog(CostModel{});
  Cluster cluster(3, HostSpec{10.0, 1000.0, 1000.0, ""}, 1000.0);
  const StreamId a = catalog.AddBaseStream(0, 10.0, "a");
  const StreamId b = catalog.AddBaseStream(0, 10.0, "b");
  const StreamId c = catalog.AddBaseStream(1, 10.0, "c");
  const OperatorId join_ab = *catalog.JoinOperator(a, b);
  const StreamId ab = catalog.op(join_ab).output;
  const OperatorId join_ab_c = *catalog.JoinOperator(ab, c);
  const StreamId abc = catalog.op(join_ab_c).output;

  Deployment dep(&cluster, &catalog);
  PlanCache cache(&catalog);
  cache.Rebuild(dep);  // empty baseline the deltas extend
  const int64_t rebuilds_before = cache.rebuilds();

  // One additive delta: ab produced on host 0, shipped to host 1 where
  // it joins c — the flow and the downstream operator must ground
  // transitively off the worklist, not via a rescan.
  ASSERT_TRUE(dep.PlaceOperator(0, join_ab).ok());
  ASSERT_TRUE(dep.AddFlow(0, 1, ab).ok());
  ASSERT_TRUE(dep.PlaceOperator(1, join_ab_c).ok());
  ASSERT_TRUE(dep.SetServing(abc, 1).ok());
  DeploymentDelta delta;
  delta.ops_added = {{0, join_ab}, {1, join_ab_c}};
  delta.flows_added = {{0, 1, ab}};
  delta.serving_changes.push_back({abc, kInvalidHost, 1});
  EXPECT_TRUE(cache.ApplyDelta(dep, delta));
  EXPECT_EQ(cache.rebuilds(), rebuilds_before);
  EXPECT_EQ(cache.delta_updates(), 1);

  PlanCache fresh(&catalog);
  fresh.Rebuild(dep);
  EXPECT_EQ(cache.DebugDump(), fresh.DebugDump());

  PlanCache::Lookup lookup = cache.OnArrival(abc);
  EXPECT_TRUE(lookup.exact);
  EXPECT_TRUE(lookup.served);

  // A delta carrying removals is not monotone: the cache must fall back
  // to a full rebuild and still match from-scratch state.
  ASSERT_TRUE(dep.ClearServing(abc).ok());
  ASSERT_TRUE(dep.RemoveOperator(1, join_ab_c).ok());
  DeploymentDelta removal;
  removal.ops_removed = {{1, join_ab_c}};
  removal.serving_changes.push_back({abc, 1, kInvalidHost});
  EXPECT_FALSE(cache.ApplyDelta(dep, removal));
  EXPECT_EQ(cache.rebuilds(), rebuilds_before + 1);
  PlanCache fresh2(&catalog);
  fresh2.Rebuild(dep);
  EXPECT_EQ(cache.DebugDump(), fresh2.DebugDump());
}

// ---- Service scaffolding shared by the scenario tests. ----

struct ServiceFixture {
  ServiceFixture(int hosts, double cpu, int bases,
                 ServiceOptions options = {})
      : cluster(hosts, HostSpec{cpu, 500.0, 500.0, ""}, 1000.0),
        catalog(CostModel{}) {
    for (int i = 0; i < bases; ++i) {
      base.push_back(catalog.AddBaseStream(i % hosts, 10.0));
    }
    // Keep unit solves snappy — but only when the test did not
    // configure the solver itself: the determinism tests pass a huge
    // deadline with a node bound, and clobbering it here would make
    // them wall-clock-bounded (flaky across machine load, e.g. under
    // TSan).
    if (options.planner.timeout_ms == SqprPlanner::Options{}.timeout_ms) {
      options.planner.timeout_ms = 200;
    }
    service = std::make_unique<PlanningService>(&cluster, &catalog, options);
  }

  StreamId Join(std::initializer_list<int> leaves) {
    std::vector<StreamId> ids;
    for (int i : leaves) ids.push_back(base[i]);
    return *catalog.CanonicalJoinStream(std::move(ids));
  }

  EventOutcome StepOne(Event event) {
    EXPECT_TRUE(service->Enqueue(event).ok());
    Result<EventOutcome> outcome = service->Step();
    EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
    return outcome.ok() ? *outcome : EventOutcome{};
  }

  Cluster cluster;
  Catalog catalog;
  std::vector<StreamId> base;
  std::unique_ptr<PlanningService> service;
};

TEST(PlanningServiceTest, ArrivalDepartureLifecycle) {
  ServiceFixture fx(2, 2.0, 4);
  const StreamId q = fx.Join({0, 1});

  EventOutcome arrival = fx.StepOne(Event::Arrival(10, q));
  EXPECT_TRUE(arrival.admitted);
  EXPECT_FALSE(arrival.already_served);
  ASSERT_EQ(fx.service->admitted_queries().size(), 1u);

  // Repeat arrival dedups via the cache/planner (free admission).
  EventOutcome repeat = fx.StepOne(Event::Arrival(20, q));
  EXPECT_TRUE(repeat.admitted);
  EXPECT_TRUE(repeat.already_served);
  EXPECT_EQ(fx.service->stats().dedup_hits, 1);
  EXPECT_EQ(fx.service->plan_cache().exact_hits(), 1);

  fx.StepOne(Event::Departure(30, q));
  EXPECT_TRUE(fx.service->admitted_queries().empty());
  EXPECT_EQ(fx.service->deployment().num_placed_operators(), 0);
  EXPECT_TRUE(fx.service->deployment().Validate().ok());
  EXPECT_EQ(fx.service->clock().now_ms(), 30);
}

TEST(PlanningServiceTest, CacheFastPathServesMaterializedSubquery) {
  ServiceFixture fx(2, 4.0, 3);
  const StreamId abc = fx.Join({0, 1, 2});
  EventOutcome arrival = fx.StepOne(Event::Arrival(1, abc));
  ASSERT_TRUE(arrival.admitted);

  // The committed 3-way plan materialises exactly one 2-way
  // intermediate; its arrival needs only a serving arc — no solve.
  const std::vector<StreamId> subs = {fx.Join({0, 1}), fx.Join({1, 2}),
                                      fx.Join({0, 2})};
  int fast = 0, admitted = 0;
  int64_t t = 2;
  for (StreamId s : subs) {
    EventOutcome outcome = fx.StepOne(Event::Arrival(t++, s));
    fast += outcome.via_cache;
    admitted += outcome.admitted;
  }
  EXPECT_EQ(fast, 1);
  EXPECT_EQ(fx.service->stats().cache_fast_path, 1);
  EXPECT_GE(admitted, 1);
  EXPECT_TRUE(fx.service->deployment().Validate().ok());
}

TEST(PlanningServiceTest, RejectsEventsBeforeTheVirtualClock) {
  ServiceFixture fx(2, 2.0, 2);
  fx.StepOne(Event::Tick(100));
  EXPECT_FALSE(fx.service->Enqueue(Event::Tick(50)).ok());
  EXPECT_TRUE(fx.service->Enqueue(Event::Tick(100)).ok());
}

// Satellite: the §IV-B monitor→re-plan round trip, driven by a
// SimReport-shaped measurement with a synthetic rate drift.
TEST(PlanningServiceTest, MonitorReportDriftTriggersReplanAndRevalidates) {
  ServiceFixture fx(2, 2.0, 4);
  const StreamId q01 = fx.Join({0, 1});
  const StreamId q23 = fx.Join({2, 3});
  ASSERT_TRUE(fx.StepOne(Event::Arrival(1, q01)).admitted);
  ASSERT_TRUE(fx.StepOne(Event::Arrival(2, q23)).admitted);

  // Synthetic measurement: base[0] runs at half its estimate (a 50%
  // drift, beyond the 20% threshold); everything else on estimate.
  SimReport report;
  report.measured_rate_mbps[fx.base[0]] = 5.0;
  report.measured_rate_mbps[q01] = 2.5;  // composite: ignored by monitor
  report.cpu_utilization = {0.4, 0.4};

  const Event event = fx.service->MonitorReportFromSim(10, report);
  ASSERT_EQ(event.measured_base_rates.size(), 1u);  // composites filtered

  EventOutcome outcome = fx.StepOne(event);
  // q01 was removed (evicted) and entered the speculative re-planning
  // round the event dispatched; retiring the round re-admits it. q23
  // was untouched.
  EXPECT_EQ(outcome.evicted, 1);
  fx.service->FinishInFlightRound();
  EXPECT_GE(fx.service->stats().replanned_admitted, 1);
  EXPECT_DOUBLE_EQ(fx.catalog.stream(fx.base[0]).rate_mbps, 5.0);
  const auto& admitted = fx.service->admitted_queries();
  EXPECT_NE(std::find(admitted.begin(), admitted.end(), q01),
            admitted.end());
  EXPECT_NE(std::find(admitted.begin(), admitted.end(), q23),
            admitted.end());
  // The re-admission went through the planner's validate_commits path;
  // the final committed state must audit clean under the new rates.
  EXPECT_TRUE(fx.service->deployment().Validate().ok());
}

TEST(PlanningServiceTest, RateGrowthEvictsUntilFeasible) {
  // Near-saturated cluster; a popular base stream triples. The service
  // must end every event with a valid deployment, shedding queries that
  // no longer fit.
  ServiceFixture fx(2, 0.3, 6);
  int64_t t = 1;
  int admitted_before = 0;
  for (int i = 0; i + 1 < 6; ++i) {
    admitted_before += fx.StepOne(Event::Arrival(t++, fx.Join({i, i + 1})))
                           .admitted;
  }
  ASSERT_GT(admitted_before, 0);

  EventOutcome outcome = fx.StepOne(
      Event::MonitorReport(t, {{fx.base[1], 30.0}}));
  EXPECT_GE(outcome.evicted, 1);
  EXPECT_TRUE(fx.service->deployment().Validate().ok());
  EXPECT_LE(static_cast<int>(fx.service->admitted_queries().size()),
            admitted_before);
}

TEST(PlanningServiceTest, HostFailureEvictsAndRejoinRestores) {
  ServiceFixture fx(3, 1.0, 6);
  int64_t t = 1;
  std::vector<StreamId> queries;
  for (int i = 0; i + 1 < 6; i += 2) queries.push_back(fx.Join({i, i + 1}));
  int admitted = 0;
  for (StreamId q : queries) {
    admitted += fx.StepOne(Event::Arrival(t++, q)).admitted;
  }
  ASSERT_GT(admitted, 0);

  const HostId failed = 1;
  EventOutcome failure = fx.StepOne(Event::HostFailure(t++, failed));
  EXPECT_FALSE(fx.service->HostActive(failed));
  EXPECT_EQ(fx.cluster.host(failed).cpu, 0.0);
  // Nothing may remain allocated on the dead host, and the survivors
  // must still validate.
  EXPECT_TRUE(fx.service->deployment().OperatorsOn(failed).empty());
  EXPECT_NEAR(fx.service->deployment().NicOutUsed(failed), 0.0, 1e-9);
  EXPECT_TRUE(fx.service->deployment().Validate().ok());
  // Fallout was queued and (bounded-round) re-admission attempted.
  EXPECT_GE(failure.evicted + failure.replanned_admitted +
                failure.replanned_rejected,
            0);

  EventOutcome join = fx.StepOne(Event::HostJoin(t++, failed));
  (void)join;
  EXPECT_TRUE(fx.service->HostActive(failed));
  EXPECT_GT(fx.cluster.host(failed).cpu, 0.0);
  EXPECT_TRUE(fx.service->deployment().Validate().ok());
}

// Satellite: plan-cache counter semantics at the service level — miss
// on first sight, exact hit for a materialised subquery (fast-path
// admission), partial hit for a superquery reusing it, dedup exact hit
// for a served stream — plus invalidation: once failures purge the
// hosts, the rebuilt index must forget everything it knew.
TEST(PlanningServiceTest, PlanCacheCountersAndEvictHostInvalidation) {
  ServiceFixture fx(2, 4.0, 4);
  const StreamId abc = fx.Join({0, 1, 2});
  int64_t t = 1;

  // First sight of the canonical stream: a miss, then a full solve.
  ASSERT_TRUE(fx.StepOne(Event::Arrival(t++, abc)).admitted);
  EXPECT_EQ(fx.service->plan_cache().misses(), 1);
  EXPECT_EQ(fx.service->plan_cache().exact_hits(), 0);
  EXPECT_EQ(fx.service->plan_cache().partial_hits(), 0);

  // The committed 3-way plan materialises exactly one 2-way
  // intermediate; its arrival is an exact (materialised-but-unserved)
  // hit admitted with a single serving arc.
  const std::vector<StreamId> subs = {fx.Join({0, 1}), fx.Join({1, 2}),
                                      fx.Join({0, 2})};
  StreamId mat = kInvalidStream;
  for (StreamId s : subs) {
    if (fx.service->plan_cache().FindMaterialized(s, nullptr)) mat = s;
  }
  ASSERT_NE(mat, kInvalidStream);
  EventOutcome sub_arrival = fx.StepOne(Event::Arrival(t++, mat));
  EXPECT_TRUE(sub_arrival.admitted);
  EXPECT_TRUE(sub_arrival.via_cache);
  EXPECT_EQ(fx.service->plan_cache().exact_hits(), 1);

  // A 4-way superquery is not materialised itself but sees the
  // materialised proper subqueries as reuse candidates: a partial
  // (subquery) hit, distinct from the exact-hit counter.
  EventOutcome super_arrival = fx.StepOne(Event::Arrival(t++, fx.Join({0, 1, 2, 3})));
  EXPECT_GE(super_arrival.reuse_candidates, 1);
  EXPECT_EQ(fx.service->plan_cache().partial_hits(), 1);
  EXPECT_EQ(fx.service->plan_cache().exact_hits(), 1);
  EXPECT_EQ(fx.service->plan_cache().misses(), 1);

  // A repeat arrival of a served stream is an exact hit too (dedup).
  EventOutcome dedup = fx.StepOne(Event::Arrival(t++, abc));
  EXPECT_TRUE(dedup.already_served);
  EXPECT_EQ(fx.service->plan_cache().exact_hits(), 2);

  // Failures purge both hosts (EvictHost under each handler): the
  // rebuilt index must drop every entry — nothing is materialised any
  // more — and a fresh arrival of the former hit is a plain miss.
  fx.StepOne(Event::HostFailure(t++, 0));
  fx.StepOne(Event::HostFailure(t++, 1));
  fx.service->FinishInFlightRound();
  EXPECT_EQ(fx.service->plan_cache().num_indexed(), 0);
  EXPECT_FALSE(fx.service->plan_cache().FindMaterialized(mat, nullptr));
  const int64_t misses_before = fx.service->plan_cache().misses();
  EventOutcome after = fx.StepOne(Event::Arrival(t++, mat));
  EXPECT_FALSE(after.admitted);
  EXPECT_FALSE(after.via_cache);
  EXPECT_EQ(fx.service->plan_cache().misses(), misses_before + 1);
}

// Tentpole: an arrival that misses the plan cache no longer retires the
// in-flight re-planning round — it solves speculatively on the loop
// thread while the round keeps solving — and the committed result is
// still identical for every worker count.
TEST(PlanningServiceTest, CacheMissArrivalOverlapsInFlightRound) {
  auto run = [](int workers) {
    ServiceOptions options;
    options.replan.workers = workers;
    // Deterministic solver: node-bounded, not wall-clock-bounded.
    options.planner.timeout_ms = 60000;
    options.planner.max_nodes = 150;
    ServiceFixture fx(2, 0.3, 6, options);

    int64_t t = 1;
    for (int i = 0; i + 1 < 6; ++i) {
      fx.StepOne(Event::Arrival(t++, fx.Join({i, i + 1})));
    }
    // A tripled base rate makes the near-saturated cluster shed load:
    // evictions queue and a round is dispatched at the end of the event.
    EventOutcome drift =
        fx.StepOne(Event::MonitorReport(t++, {{fx.base[1], 30.0}}));
    EXPECT_GE(drift.evicted, 1);
    EXPECT_GT(fx.service->pending_replans(), 0);

    // Cache-miss arrival while that round is in flight: the solve
    // overlaps it instead of forcing it to retire first.
    const int64_t overlapped_before =
        fx.service->stats().overlapped_arrival_solves;
    fx.StepOne(Event::Arrival(t++, fx.Join({0, 2})));
    EXPECT_EQ(fx.service->stats().overlapped_arrival_solves,
              overlapped_before + 1);

    fx.service->FinishInFlightRound();
    EXPECT_TRUE(fx.service->deployment().Validate().ok());
    return fx.service->deployment().Fingerprint();
  };

  const std::string inline_mode = run(0);
  EXPECT_EQ(inline_mode, run(1));
  EXPECT_EQ(inline_mode, run(4));
}

// Tentpole: an EvictHost (host failure) arriving while a re-planning
// round is solving on the worker pool. The service must retire the
// round (committing or conflict-re-solving its proposals) before the
// host's budgets are zeroed, honour departures that raced the round,
// and keep the committed deployment valid throughout — with the same
// final state for any worker count.
TEST(PlanningServiceTest, EvictHostWhileRoundInFlightStaysConsistent) {
  auto run = [](int workers) {
    ServiceOptions options;
    options.replan.workers = workers;
    // Deterministic solver: node-bounded, not wall-clock-bounded.
    options.planner.timeout_ms = 60000;
    options.planner.max_nodes = 150;
    ServiceFixture fx(2, 0.3, 6, options);

    int64_t t = 1;
    std::vector<StreamId> queries;
    for (int i = 0; i + 1 < 6; ++i) queries.push_back(fx.Join({i, i + 1}));
    int admitted = 0;
    for (StreamId q : queries) {
      admitted += fx.StepOne(Event::Arrival(t++, q)).admitted;
    }
    EXPECT_GT(admitted, 0);

    // A tripled base rate makes the near-saturated cluster shed load:
    // evictions queue and (async mode) a round goes in flight.
    EventOutcome drift = fx.StepOne(
        Event::MonitorReport(t++, {{fx.base[1], 30.0}}));
    EXPECT_GE(drift.evicted, 1);
    if (workers > 0) {
      EXPECT_GT(fx.service->pending_replans(), 0);
    }

    // While the round solves: a departure races it (its proposal must
    // be dropped, not committed)...
    const StreamId departed = queries[0];
    fx.StepOne(Event::Departure(t++, departed));

    // ...and then a host fails. The failure must retire the round
    // before zeroing budgets and evicting fallout.
    fx.StepOne(Event::HostFailure(t++, 1));
    EXPECT_FALSE(fx.service->HostActive(1));
    EXPECT_TRUE(fx.service->deployment().OperatorsOn(1).empty());
    EXPECT_NEAR(fx.service->deployment().NicOutUsed(1), 0.0, 1e-9);
    EXPECT_TRUE(fx.service->deployment().Validate().ok());

    fx.StepOne(Event::HostJoin(t++, 1));
    fx.StepOne(Event::Tick(t++));
    fx.service->FinishInFlightRound();

    EXPECT_TRUE(fx.service->deployment().Validate().ok());
    const auto& admitted_now = fx.service->admitted_queries();
    EXPECT_EQ(std::find(admitted_now.begin(), admitted_now.end(), departed),
              admitted_now.end())
        << "departed query must not be re-admitted by an in-flight round";
    return fx.service->deployment().Fingerprint();
  };

  const std::string one = run(1);
  const std::string four = run(4);
  EXPECT_EQ(one, four);
}

// Tentpole acceptance: replaying one churn trace with 1 and with 4
// workers commits bit-for-bit identical deployments and admission
// statistics — the worker count only changes wall-clock, never results.
TEST(PlanningServiceTest, WorkerCountDoesNotChangeCommittedDeployments) {
  auto run = [](int workers) {
    Cluster cluster(3, HostSpec{0.8, 70.0, 70.0, ""}, 140.0);
    Catalog catalog(CostModel{});
    WorkloadConfig wc;
    wc.num_base_streams = 24;
    wc.num_queries = 40;
    wc.seed = 17;
    Result<Workload> workload = GenerateWorkload(wc, 3, &catalog);
    EXPECT_TRUE(workload.ok());
    TraceConfig tc;
    tc.num_events = 60;
    tc.seed = 17;
    tc.min_failures = 2;
    tc.min_drift_reports = 3;
    Result<std::vector<Event>> trace =
        GenerateTrace(tc, *workload, 3, catalog);
    EXPECT_TRUE(trace.ok());

    ServiceOptions options;
    options.planner.timeout_ms = 60000;
    options.planner.max_nodes = 150;
    options.replan.workers = workers;
    PlanningService service(&cluster, &catalog, options);
    for (const Event& e : *trace) EXPECT_TRUE(service.Enqueue(e).ok());
    EXPECT_TRUE(service.RunUntilIdle().ok());
    EXPECT_TRUE(service.deployment().Validate().ok());
    const ServiceStats& stats = service.stats();
    return std::make_tuple(service.deployment().Fingerprint(),
                           stats.admitted, stats.rejected, stats.evictions,
                           stats.replanned_admitted, stats.replanned_rejected,
                           stats.commit_conflicts);
  };
  const auto one = run(1);
  const auto four = run(4);
  EXPECT_EQ(one, four);
  EXPECT_GT(std::get<3>(one), 0) << "trace must exercise re-planning";
}

// The stall/SLO watchdog (WatchdogOptions) observes wall clock, so its
// counters are normally machine-dependent — but at the extremes they
// are exact and therefore testable: a vanishing budget makes every
// stage sample (and every Step) a breach, so each breach counter equals
// its histogram's sample count and loop_stalls equals the event count —
// all worker-invariant, because the sample counts
// themselves are. A huge budget yields zero breaches. And the watchdog
// never gates behaviour: every run commits the budget-free fingerprint.
TEST(PlanningServiceTest, WatchdogBreachCountsAreExactAtExtremeBudgets) {
  struct WatchdogRun {
    std::string fingerprint;
    int64_t events = 0;
    int64_t loop_stalls = 0;
    double worst_stall_ms = 0.0;
    size_t admit_n = 0, solve_n = 0, commit_n = 0, barrier_n = 0,
           measure_n = 0;
    int64_t admit_b = 0, solve_b = 0, commit_b = 0, barrier_b = 0,
            measure_b = 0;
  };
  // Closed-loop replay so all five stage histograms (including
  // measure_ms) take samples; node-bounded solver as always.
  auto run = [](double budget_ms, int workers) {
    Cluster cluster(3, HostSpec{0.6, 70.0, 70.0, ""}, 140.0);
    Catalog catalog(CostModel{});
    WorkloadConfig wc;
    wc.num_base_streams = 18;
    wc.num_queries = 30;
    wc.arities = {2, 3};
    wc.seed = 11;
    Result<Workload> workload = GenerateWorkload(wc, 3, &catalog);
    EXPECT_TRUE(workload.ok());
    TraceConfig tc;
    tc.num_events = 36;
    tc.seed = 11 * 977 + 13;
    tc.mean_gap_ms = 40;
    tc.drift_weight = 0.11;
    tc.tick_weight = 0.55;
    tc.min_drift_reports = 2;
    tc.closed_loop = true;
    Result<std::vector<Event>> trace =
        GenerateTrace(tc, *workload, 3, catalog);
    EXPECT_TRUE(trace.ok());

    ServiceOptions options;
    options.planner.timeout_ms = 60000;
    options.planner.max_nodes = 80;
    options.replan.workers = workers;
    options.replan.clamp_workers_to_cores = false;
    options.closed_loop = true;
    options.telemetry.measure_period = 2;
    options.telemetry.seed = 11;
    options.telemetry.sim.rate_scale = 0.02;
    options.telemetry.sim.duration_ms = 400;
    options.watchdog.event_stall_ms = budget_ms;
    options.watchdog.admit_budget_ms = budget_ms;
    options.watchdog.solve_budget_ms = budget_ms;
    options.watchdog.commit_budget_ms = budget_ms;
    options.watchdog.barrier_budget_ms = budget_ms;
    options.watchdog.measure_budget_ms = budget_ms;
    PlanningService service(&cluster, &catalog, options);
    for (const Event& e : *trace) EXPECT_TRUE(service.Enqueue(e).ok());
    EXPECT_TRUE(service.RunUntilIdle().ok());

    const ServiceStats& stats = service.stats();
    WatchdogRun r;
    r.fingerprint = service.deployment().Fingerprint();
    r.events = stats.events;
    r.loop_stalls = stats.loop_stalls;
    r.worst_stall_ms = stats.worst_stall_ms;
    r.admit_n = stats.admit_ms.count();
    r.solve_n = stats.solve_ms.count();
    r.commit_n = stats.commit_ms.count();
    r.barrier_n = stats.barrier_ms.count();
    r.measure_n = stats.measure_ms.count();
    r.admit_b = stats.admit_budget_breaches;
    r.solve_b = stats.solve_budget_breaches;
    r.commit_b = stats.commit_budget_breaches;
    r.barrier_b = stats.barrier_budget_breaches;
    r.measure_b = stats.measure_budget_breaches;
    return r;
  };

  const WatchdogRun off = run(/*budget_ms=*/0.0, /*workers=*/0);
  EXPECT_GT(off.events, 0);
  EXPECT_GT(off.measure_n, 0u) << "closed loop never measured";
  EXPECT_EQ(off.loop_stalls, 0);
  EXPECT_EQ(off.admit_b + off.solve_b + off.commit_b + off.barrier_b +
                off.measure_b,
            0)
      << "budgets of 0 mean the watchdog is off";

  // Tiny budget (1 picosecond): every wall-clock sample breaches, so
  // the breach counters collapse onto the deterministic sample counts.
  const WatchdogRun tiny = run(/*budget_ms=*/1e-9, /*workers=*/0);
  EXPECT_EQ(tiny.fingerprint, off.fingerprint)
      << "watchdog budgets changed the committed deployment";
  EXPECT_EQ(tiny.loop_stalls, tiny.events);
  EXPECT_GT(tiny.worst_stall_ms, 0.0);
  EXPECT_EQ(tiny.admit_b, static_cast<int64_t>(tiny.admit_n));
  EXPECT_EQ(tiny.solve_b, static_cast<int64_t>(tiny.solve_n));
  EXPECT_EQ(tiny.commit_b, static_cast<int64_t>(tiny.commit_n));
  EXPECT_EQ(tiny.barrier_b, static_cast<int64_t>(tiny.barrier_n));
  EXPECT_EQ(tiny.measure_b, static_cast<int64_t>(tiny.measure_n));

  // Worker-invariant: multi-worker wall times differ,
  // but with every sample breaching, the counts are the contract's.
  const WatchdogRun tiny_w4 = run(/*budget_ms=*/1e-9, /*workers=*/4);
  EXPECT_EQ(tiny_w4.fingerprint, off.fingerprint);
  EXPECT_EQ(tiny_w4.events, tiny.events);
  EXPECT_EQ(tiny_w4.loop_stalls, tiny.loop_stalls);
  EXPECT_EQ(tiny_w4.admit_b, tiny.admit_b);
  EXPECT_EQ(tiny_w4.solve_b, tiny.solve_b);
  EXPECT_EQ(tiny_w4.commit_b, tiny.commit_b);
  EXPECT_EQ(tiny_w4.barrier_b, tiny.barrier_b);
  EXPECT_EQ(tiny_w4.measure_b, tiny.measure_b);

  // Huge budget: nothing on this machine takes 10^12 ms, so zero
  // breaches and zero stalls — while the histograms still sample.
  const WatchdogRun huge = run(/*budget_ms=*/1e12, /*workers=*/0);
  EXPECT_EQ(huge.fingerprint, off.fingerprint);
  EXPECT_EQ(huge.loop_stalls, 0);
  EXPECT_DOUBLE_EQ(huge.worst_stall_ms, 0.0);
  EXPECT_EQ(huge.admit_n, tiny.admit_n);
  EXPECT_EQ(huge.admit_b + huge.solve_b + huge.commit_b + huge.barrier_b +
                huge.measure_b,
            0);
}

// The arrival-path commit-conflict fallback, driven deterministically.
// The injection hook commits an
// intervening admission between the arrival's propose and commit, so
// the strict structure-version gate must bounce the proposal and the
// service must re-solve inline — with the conflict counted, both
// commit attempts sampled into commit_ms, the re-solve sampled into
// solve_ms, and the reuse index repaired via a scheduled full rebuild
// (not an incremental delta, whose chain the conflict broke).
TEST(PlanningServiceTest, AdmitConflictFallbackResolvesAndRepairsCache) {
  // One-shot hook: fires between the arrival's ProposeAdmission and
  // CommitProposal, admitting another query directly on the planner —
  // a structural bump between the arrival's propose and commit.
  // (Captured locals are bound before the fixture exists; the target
  // query is filled in right after.)
  StreamId intervening = kInvalidStream;
  bool fired = false;
  ServiceOptions options;
  options.planner.timeout_ms = 60000;
  options.planner.max_nodes = 150;
  options.inject_between_propose_and_commit = [&](SqprPlanner& planner) {
    if (fired) return;
    fired = true;
    Result<PlanningStats> stats = planner.SubmitQuery(intervening);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    ASSERT_TRUE(stats->admitted);
  };
  ServiceFixture fx(2, 2.0, 4, options);
  const StreamId arrival = fx.Join({0, 1});
  intervening = fx.Join({2, 3});

  const auto& stats = fx.service->stats();
  const size_t commits_before = stats.commit_ms.count();
  const size_t solves_before = stats.solve_ms.count();
  const int64_t rebuilds_before = fx.service->plan_cache().rebuilds();
  const int64_t deltas_before = stats.cache_delta_updates;

  EventOutcome outcome = fx.StepOne(Event::Arrival(1, arrival));
  ASSERT_TRUE(fired);
  EXPECT_TRUE(outcome.admitted);
  EXPECT_FALSE(outcome.already_served);

  // The gate fired exactly once and the fallback resolved it.
  EXPECT_EQ(stats.commit_conflicts, 1);
  // Both the bounced commit attempt and the fresh one landed in the
  // histogram — conflict re-solves are indistinguishable there from
  // inline solves.
  EXPECT_EQ(stats.commit_ms.count(), commits_before + 2);
  EXPECT_EQ(stats.solve_ms.count(), solves_before + 1);

  // Cache repair went through a full rebuild, not a delta: the
  // injected admission bypassed the service's cache marking, so only
  // the conflict path's MarkCacheRebuild makes the index consistent.
  EXPECT_EQ(fx.service->plan_cache().rebuilds(), rebuilds_before + 1);
  EXPECT_EQ(stats.cache_delta_updates, deltas_before);
  PlanCache fresh(&fx.catalog);
  fresh.Rebuild(fx.service->deployment());
  EXPECT_EQ(fx.service->plan_cache().DebugDump(), fresh.DebugDump());

  // Both the arrival and the injected admission are served.
  EXPECT_NE(fx.service->deployment().ServingHost(arrival), kInvalidHost);
  EXPECT_NE(fx.service->deployment().ServingHost(intervening), kInvalidHost);
  EXPECT_TRUE(fx.service->deployment().Validate().ok());
}

TEST(PlanningServiceTest, IncrementalCacheEqualsRebuildOnRandomizedTraces) {
  // The incremental-maintenance contract: after every event — commits,
  // serving-only departures, GC departures, evictions, drift cycles —
  // the service's incrementally maintained cache must equal a cache
  // rebuilt from scratch against the committed deployment.
  for (uint64_t seed : {3u, 11u, 29u}) {
    Cluster cluster(3, HostSpec{0.8, 70.0, 70.0, ""}, 140.0);
    Catalog catalog(CostModel{});
    WorkloadConfig wc;
    wc.num_base_streams = 24;
    wc.num_queries = 40;
    wc.seed = seed;
    Result<Workload> workload = GenerateWorkload(wc, 3, &catalog);
    ASSERT_TRUE(workload.ok());
    TraceConfig tc;
    tc.num_events = 80;
    tc.seed = seed;
    tc.min_failures = 2;
    tc.min_drift_reports = 3;
    Result<std::vector<Event>> trace =
        GenerateTrace(tc, *workload, 3, catalog);
    ASSERT_TRUE(trace.ok());

    ServiceOptions options;
    options.planner.timeout_ms = 60000;
    options.planner.max_nodes = 150;
    PlanningService service(&cluster, &catalog, options);
    for (const Event& e : *trace) ASSERT_TRUE(service.Enqueue(e).ok());
    int step = 0;
    while (service.HasPendingEvents()) {
      ASSERT_TRUE(service.Step().ok());
      PlanCache fresh(&catalog);
      fresh.Rebuild(service.deployment());
      ASSERT_EQ(service.plan_cache().DebugDump(), fresh.DebugDump())
          << "seed " << seed << " diverged after event " << step;
      ++step;
    }
    service.FinishInFlightRound();
    PlanCache fresh(&catalog);
    fresh.Rebuild(service.deployment());
    EXPECT_EQ(service.plan_cache().DebugDump(), fresh.DebugDump());

    // The fast path must actually be exercised, not silently bypassed:
    // additive admissions go through deltas, and the full rebuilds stay
    // a strict subset of the mutating events.
    EXPECT_GT(service.stats().cache_delta_updates, 0) << "seed " << seed;
    EXPECT_GT(service.plan_cache().rebuilds(), 0) << "seed " << seed;
    EXPECT_LT(service.plan_cache().rebuilds(),
              static_cast<int64_t>(trace->size()))
        << "seed " << seed;
  }
}

TEST(PlanningServiceTest, RepeatArrivalDedupDoesNotRescanCache) {
  ServiceFixture fx(2, 2.0, 4);
  const StreamId q = fx.Join({0, 1});
  EXPECT_TRUE(fx.StepOne(Event::Arrival(0, q)).admitted);
  const int64_t rebuilds_after_admit = fx.service->plan_cache().rebuilds();
  const int64_t deltas_after_admit = fx.service->stats().cache_delta_updates;

  // The repeat arrival is a dedup hit: the deployment does not move, so
  // the reuse index must neither rebuild nor apply a delta for it.
  EventOutcome repeat = fx.StepOne(Event::Arrival(10, q));
  EXPECT_TRUE(repeat.already_served);
  EXPECT_EQ(fx.service->plan_cache().rebuilds(), rebuilds_after_admit);
  EXPECT_EQ(fx.service->stats().cache_delta_updates, deltas_after_admit);
}

// ---- Dispatched planner copies. ----

bool SameDelta(const DeploymentDelta& x, const DeploymentDelta& y) {
  auto serving_eq = [](const DeploymentDelta::ServingChange& a,
                       const DeploymentDelta::ServingChange& b) {
    return a.stream == b.stream && a.before == b.before && a.after == b.after;
  };
  return x.ops_added == y.ops_added && x.ops_removed == y.ops_removed &&
         x.flows_added == y.flows_added &&
         x.flows_removed == y.flows_removed &&
         x.serving_changes.size() == y.serving_changes.size() &&
         std::equal(x.serving_changes.begin(), x.serving_changes.end(),
                    y.serving_changes.begin(), serving_eq);
}

// The snapshot a worker-solved round reads is a plain const copy of the
// planner: it shares the live planner's model cache, carries its exact
// committed state and is an immutable view — a stale copy keeps
// proposing against the pre-state, and proposing never moves the live
// planner.
TEST(SqprPlannerTest, SnapshotSharesCoreAndMaterializesExactState) {
  Cluster cluster(2, HostSpec{2.0, 500.0, 500.0, ""}, 1000.0);
  Catalog catalog(CostModel{});
  std::vector<StreamId> base;
  for (int i = 0; i < 6; ++i) base.push_back(catalog.AddBaseStream(i % 2, 10.0));
  SqprPlanner::Options options;
  options.timeout_ms = 60000;
  options.max_nodes = 150;
  SqprPlanner planner(&cluster, &catalog, options);

  const StreamId ab = *catalog.CanonicalJoinStream({base[0], base[1]});
  const StreamId cd = *catalog.CanonicalJoinStream({base[2], base[3]});
  const StreamId ef = *catalog.CanonicalJoinStream({base[4], base[5]});
  for (StreamId q : {ab, cd, ef}) ASSERT_TRUE(planner.WarmCatalog(q).ok());
  ASSERT_TRUE(planner.SubmitQuery(ab)->admitted);

  // A dispatched round solves against a const copy of the planner.
  const auto first = std::make_shared<const SqprPlanner>(planner);

  // Mutate past the copy: admit cd.
  ASSERT_TRUE(planner.SubmitQuery(cd)->admitted);
  const auto second = std::make_shared<const SqprPlanner>(planner);

  // The stale copy still sees the pre-cd state: proposing cd from it
  // admits with a non-empty delta (nothing served it there)...
  Result<AdmissionProposal> stale = first->ProposeAdmission(cd);
  ASSERT_TRUE(stale.ok());
  EXPECT_TRUE(stale->stats.admitted);
  EXPECT_FALSE(stale->stats.already_served);
  EXPECT_FALSE(stale->delta.empty());

  // ...while the fresh copy matches the live planner exactly: identical
  // proposals for a fresh query.
  Result<AdmissionProposal> from_copy = second->ProposeAdmission(ef);
  Result<AdmissionProposal> from_live = planner.ProposeAdmission(ef);
  ASSERT_TRUE(from_copy.ok() && from_live.ok());
  EXPECT_EQ(from_copy->stats.admitted, from_live->stats.admitted);
  EXPECT_TRUE(SameDelta(from_copy->delta, from_live->delta));
  EXPECT_EQ(from_copy->base_version, from_live->base_version);

  // The copies are immutable views: nothing above moved the live state.
  Result<AdmissionProposal> commit_cd_again = planner.ProposeAdmission(cd);
  ASSERT_TRUE(commit_cd_again.ok());
  EXPECT_TRUE(commit_cd_again->stats.already_served);
}

TEST(PlanningServiceTest, ReplayIsDeterministic) {
  auto run = [](uint64_t seed) {
    Cluster cluster(3, HostSpec{0.8, 70.0, 70.0, ""}, 140.0);
    Catalog catalog(CostModel{});
    WorkloadConfig wc;
    wc.num_base_streams = 24;
    wc.num_queries = 40;
    wc.seed = seed;
    Result<Workload> workload = GenerateWorkload(wc, 3, &catalog);
    EXPECT_TRUE(workload.ok());
    TraceConfig tc;
    tc.num_events = 40;
    tc.seed = seed;
    Result<std::vector<Event>> trace =
        GenerateTrace(tc, *workload, 3, catalog);
    EXPECT_TRUE(trace.ok());

    ServiceOptions options;
    // Determinism must not depend on machine load: bound the solver by
    // node count (deterministic) rather than by wall clock.
    options.planner.timeout_ms = 60000;
    options.planner.max_nodes = 150;
    PlanningService service(&cluster, &catalog, options);
    for (const Event& e : *trace) EXPECT_TRUE(service.Enqueue(e).ok());
    EXPECT_TRUE(service.RunUntilIdle().ok());
    EXPECT_TRUE(service.deployment().Validate().ok());
    std::vector<StreamId> admitted = service.admitted_queries();
    std::sort(admitted.begin(), admitted.end());
    return std::make_tuple(admitted, service.stats().admitted,
                           service.stats().rejected,
                           service.stats().evictions);
  };
  EXPECT_EQ(run(5), run(5));
}

// ---- Trace generation / serialisation. ----

TEST(TraceTest, GeneratesRequiredEventMixDeterministically) {
  Catalog catalog(CostModel{});
  WorkloadConfig wc;
  wc.num_base_streams = 24;
  wc.num_queries = 50;
  Result<Workload> workload = GenerateWorkload(wc, 4, &catalog);
  ASSERT_TRUE(workload.ok());

  TraceConfig tc;
  tc.num_events = 200;
  tc.seed = 9;
  Result<std::vector<Event>> trace =
      GenerateTrace(tc, *workload, 4, catalog);
  ASSERT_TRUE(trace.ok());
  ASSERT_EQ(trace->size(), 200u);

  int failures = 0, drifts = 0, arrivals = 0;
  int64_t last_t = 0;
  for (const Event& e : *trace) {
    EXPECT_GT(e.time_ms, last_t);  // strictly increasing virtual time
    last_t = e.time_ms;
    failures += e.kind == EventKind::kHostFailure;
    drifts += e.kind == EventKind::kMonitorReport;
    arrivals += e.kind == EventKind::kQueryArrival;
  }
  EXPECT_GE(failures, tc.min_failures);
  EXPECT_GE(drifts, tc.min_drift_reports);
  EXPECT_GT(arrivals, 0);

  // Same seed, same trace.
  Result<std::vector<Event>> again =
      GenerateTrace(tc, *workload, 4, catalog);
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(again->size(), trace->size());
  for (size_t i = 0; i < trace->size(); ++i) {
    EXPECT_EQ((*again)[i].time_ms, (*trace)[i].time_ms);
    EXPECT_EQ((*again)[i].kind, (*trace)[i].kind);
    EXPECT_EQ((*again)[i].query, (*trace)[i].query);
    EXPECT_EQ((*again)[i].host, (*trace)[i].host);
  }
}

// ---- Closed loop (§IV-C): self-measurement drives re-planning. ----

/// Closed-loop options with a cheap measurement sim and no smoothing or
/// noise, measuring on every tick.
ServiceOptions ClosedLoopOptions(int measure_period = 1) {
  ServiceOptions options;
  options.closed_loop = true;
  options.telemetry.measure_period = measure_period;
  options.telemetry.seed = 7;
  options.telemetry.sim.rate_scale = 0.05;
  options.telemetry.sim.duration_ms = 1000;
  return options;
}

TEST(PlanningServiceTest, ClosedLoopMeasuresAndReplansAutomatically) {
  ServiceFixture fx(2, 2.0, 4, ClosedLoopOptions());
  const StreamId q01 = fx.Join({0, 1});
  const StreamId q23 = fx.Join({2, 3});
  ASSERT_TRUE(fx.StepOne(Event::Arrival(1, q01)).admitted);
  ASSERT_TRUE(fx.StepOne(Event::Arrival(2, q23)).admitted);

  // Ground truth: base[0] actually runs at twice its 10 Mbps estimate.
  // No monitor event is ever enqueued — the service must notice by
  // measuring its own deployment on the next tick.
  RateTrajectory twice;
  twice.stream = fx.base[0];
  twice.base_rate_mbps = 20.0;
  fx.StepOne(Event::RateDirective(5, twice));
  EXPECT_EQ(fx.service->stats().rate_directives, 1);

  EventOutcome tick = fx.StepOne(Event::Tick(10));
  EXPECT_TRUE(tick.measured);
  EXPECT_EQ(fx.service->stats().measurement_ticks, 1);
  EXPECT_EQ(fx.service->stats().monitor_reports, 0);
  // The 2x drift exceeds the 20% threshold: q01 (leaf base[0]) was
  // evicted and queued for re-planning — an automatic §IV-B round.
  EXPECT_GE(tick.evicted, 1);
  EXPECT_EQ(fx.service->stats().auto_replan_rounds, 1);
  // The measured rate was installed: the estimate converged to ~20
  // (the realised sim rate; quantisation leaves a few percent).
  EXPECT_NEAR(fx.catalog.stream(fx.base[0]).rate_mbps, 20.0, 2.0);

  fx.service->FinishInFlightRound();
  EXPECT_GE(fx.service->stats().replanned_admitted +
                fx.service->stats().replanned_rejected,
            1);
  EXPECT_TRUE(fx.service->deployment().Validate().ok());

  // Converged: the next measurement sees rates on (the new) estimate
  // and does not re-plan again.
  const int64_t rounds_before = fx.service->stats().auto_replan_rounds;
  fx.StepOne(Event::Tick(20));
  EXPECT_EQ(fx.service->stats().measurement_ticks, 2);
  EXPECT_EQ(fx.service->stats().auto_replan_rounds, rounds_before);
  EXPECT_TRUE(fx.service->deployment().Validate().ok());
}

TEST(PlanningServiceTest, ClosedLoopHonoursMeasurePeriod) {
  ServiceFixture fx(2, 2.0, 2, ClosedLoopOptions(/*measure_period=*/3));
  ASSERT_TRUE(fx.StepOne(Event::Arrival(1, fx.Join({0, 1}))).admitted);
  int64_t t = 10;
  for (int i = 0; i < 6; ++i) fx.StepOne(Event::Tick(t += 10));
  // Ticks 3 and 6 measure; 1, 2, 4, 5 only drain re-planning rounds.
  EXPECT_EQ(fx.service->stats().ticks, 6);
  EXPECT_EQ(fx.service->stats().measurement_ticks, 2);
}

TEST(PlanningServiceTest, ClosedLoopRejectsNonBaseRateDirectives) {
  ServiceFixture fx(2, 2.0, 2, ClosedLoopOptions());
  const StreamId q = fx.Join({0, 1});
  ASSERT_TRUE(fx.StepOne(Event::Arrival(1, q)).admitted);

  // A directive for a composite (or unknown) stream could never be
  // observed — measurements only report base streams — so it must not
  // enter the rate model to silently never fire.
  RateTrajectory composite;
  composite.stream = q;
  composite.base_rate_mbps = 20.0;
  fx.StepOne(Event::RateDirective(5, composite));
  RateTrajectory unknown;
  unknown.stream = 9999;
  unknown.base_rate_mbps = 20.0;
  fx.StepOne(Event::RateDirective(6, unknown));

  EXPECT_EQ(fx.service->stats().rate_directives, 2);
  ASSERT_NE(fx.service->telemetry(), nullptr);
  EXPECT_TRUE(fx.service->telemetry()->rate_model().empty());
}

TEST(PlanningServiceTest, OpenLoopCountsButIgnoresRateDirectives) {
  ServiceFixture fx(2, 2.0, 2);  // closed_loop defaults to off
  ASSERT_TRUE(fx.StepOne(Event::Arrival(1, fx.Join({0, 1}))).admitted);

  RateTrajectory twice;
  twice.stream = fx.base[0];
  twice.base_rate_mbps = 20.0;
  fx.StepOne(Event::RateDirective(5, twice));
  EventOutcome tick = fx.StepOne(Event::Tick(10));

  // The directive is counted but there is no ground truth to measure:
  // no measurement, no drift, estimates untouched.
  EXPECT_FALSE(tick.measured);
  EXPECT_EQ(fx.service->stats().rate_directives, 1);
  EXPECT_EQ(fx.service->stats().measurement_ticks, 0);
  EXPECT_EQ(fx.service->telemetry(), nullptr);
  EXPECT_DOUBLE_EQ(fx.catalog.stream(fx.base[0]).rate_mbps, 10.0);
}

TEST(TraceTest, SaveLoadRoundTrip) {
  std::vector<Event> events;
  events.push_back(Event::Arrival(10, 3));
  events.push_back(Event::Departure(20, 3));
  events.push_back(Event::HostFailure(30, 1));
  events.push_back(Event::HostJoin(45, 1));
  events.push_back(
      Event::MonitorReport(50, {{0, 12.3456789}, {2, 0.25}}, {0.5, 1.25}));
  events.push_back(Event::Tick(60));

  const std::string path =
      ::testing::TempDir() + "/sqpr_trace_roundtrip.txt";
  ASSERT_TRUE(SaveTrace(events, path).ok());
  Result<std::vector<Event>> loaded = LoadTrace(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ((*loaded)[i].time_ms, events[i].time_ms);
    EXPECT_EQ((*loaded)[i].kind, events[i].kind);
    EXPECT_EQ((*loaded)[i].query, events[i].query);
    EXPECT_EQ((*loaded)[i].host, events[i].host);
    EXPECT_EQ((*loaded)[i].measured_base_rates,
              events[i].measured_base_rates);
    EXPECT_EQ((*loaded)[i].cpu_utilization, events[i].cpu_utilization);
  }
}

TEST(TraceTest, SaveLoadRoundTripsRateDirectives) {
  std::vector<Event> events;
  RateTrajectory constant;
  constant.kind = RateTrajectory::Kind::kConstant;
  constant.stream = 4;
  constant.base_rate_mbps = 12.3456789;
  events.push_back(Event::RateDirective(10, constant));

  RateTrajectory step;
  step.kind = RateTrajectory::Kind::kStep;
  step.stream = 5;
  step.base_rate_mbps = 10.0;
  step.step_at_ms = 750;
  step.step_factor = 1.75;
  events.push_back(Event::RateDirective(20, step));

  RateTrajectory walk;
  walk.kind = RateTrajectory::Kind::kRandomWalk;
  walk.stream = 6;
  walk.base_rate_mbps = 8.0;
  walk.period_ms = 120;
  walk.volatility = 0.25;
  walk.min_factor = 0.5;
  walk.max_factor = 3.0;
  events.push_back(Event::RateDirective(30, walk));

  RateTrajectory periodic;
  periodic.kind = RateTrajectory::Kind::kPeriodic;
  periodic.stream = 7;
  periodic.base_rate_mbps = 9.5;
  periodic.period_ms = 4000;
  periodic.amplitude = 0.6;
  periodic.phase = 1.25;
  events.push_back(Event::RateDirective(40, periodic));

  const std::string path =
      ::testing::TempDir() + "/sqpr_trace_rate_roundtrip.txt";
  ASSERT_TRUE(SaveTrace(events, path).ok());
  Result<std::vector<Event>> loaded = LoadTrace(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ((*loaded)[i].time_ms, events[i].time_ms);
    ASSERT_EQ((*loaded)[i].kind, EventKind::kRateDirective);
    const RateTrajectory& want = events[i].trajectory;
    const RateTrajectory& got = (*loaded)[i].trajectory;
    EXPECT_EQ(got.kind, want.kind);
    EXPECT_EQ(got.stream, want.stream);
    EXPECT_EQ(got.base_rate_mbps, want.base_rate_mbps);
    EXPECT_EQ(got.step_at_ms, want.step_at_ms);
    EXPECT_EQ(got.step_factor, want.step_factor);
    EXPECT_EQ(got.period_ms, want.period_ms);
    EXPECT_EQ(got.volatility, want.volatility);
    EXPECT_EQ(got.min_factor, want.min_factor);
    EXPECT_EQ(got.max_factor, want.max_factor);
    EXPECT_EQ(got.amplitude, want.amplitude);
    EXPECT_EQ(got.phase, want.phase);
  }
}

TEST(TraceTest, GeneratesClosedLoopTracesWithoutMonitorReports) {
  Catalog catalog(CostModel{});
  WorkloadConfig wc;
  wc.num_base_streams = 12;
  wc.num_queries = 20;
  Result<Workload> workload = GenerateWorkload(wc, 3, &catalog);
  ASSERT_TRUE(workload.ok());

  TraceConfig tc;
  tc.num_events = 120;
  tc.seed = 5;
  tc.closed_loop = true;
  tc.tick_weight = 0.5;
  tc.min_drift_reports = 4;
  Result<std::vector<Event>> trace = GenerateTrace(tc, *workload, 3, catalog);
  ASSERT_TRUE(trace.ok());

  int directives = 0, monitors = 0, ticks = 0;
  for (const Event& e : *trace) {
    directives += e.kind == EventKind::kRateDirective;
    monitors += e.kind == EventKind::kMonitorReport;
    if (e.kind == EventKind::kRateDirective) {
      EXPECT_GT(e.trajectory.base_rate_mbps, 0.0);
      EXPECT_GE(e.trajectory.stream, 0);
    }
    ticks += e.kind == EventKind::kTick;
  }
  EXPECT_EQ(monitors, 0) << "closed-loop traces script causes, never "
                            "measurements";
  EXPECT_GE(directives, tc.min_drift_reports);
  EXPECT_GT(ticks, 0);

  // Deterministic like every other generated trace.
  Result<std::vector<Event>> again = GenerateTrace(tc, *workload, 3, catalog);
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(again->size(), trace->size());
  for (size_t i = 0; i < trace->size(); ++i) {
    EXPECT_EQ((*again)[i].kind, (*trace)[i].kind);
    EXPECT_EQ((*again)[i].trajectory.base_rate_mbps,
              (*trace)[i].trajectory.base_rate_mbps);
  }
}

// Satellite: parse diagnostics must name the offending line and quote
// it — closed-loop traces add directive syntax that has to be
// debuggable when hand-edited.
TEST(TraceTest, ParseErrorsReportLineNumberAndSnippet) {
  const std::string path = ::testing::TempDir() + "/sqpr_trace_bad.txt";
  auto write_and_load = [&](const std::string& content) {
    std::ofstream out(path);
    out << content;
    out.close();
    return LoadTrace(path);
  };

  // Line 3 (comments and blank lines count) is garbage.
  Result<std::vector<Event>> r =
      write_and_load("# header\n10 tick\nthis is not an event\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find(":3:"), std::string::npos)
      << r.status().ToString();
  EXPECT_NE(r.status().ToString().find("this is not an event"),
            std::string::npos)
      << r.status().ToString();

  // A known kind with a missing payload quotes the line too.
  r = write_and_load("10 arrival\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find(":1:"), std::string::npos);
  EXPECT_NE(r.status().ToString().find("10 arrival"), std::string::npos);

  // Unknown trajectory shapes name the shape and the line.
  r = write_and_load("10 tick\n20 rate 3 sawtooth 5.0\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find(":2:"), std::string::npos);
  EXPECT_NE(r.status().ToString().find("sawtooth"), std::string::npos);

  // Long lines are excerpted, not dumped wholesale.
  const std::string long_line(300, 'x');
  r = write_and_load(long_line + "\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("..."), std::string::npos);
  EXPECT_LT(r.status().ToString().size(), 200u);
}

}  // namespace
}  // namespace sqpr
