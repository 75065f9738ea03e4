// Tests for the continuous planning service: deterministic event loop,
// plan-reuse cache, bounded re-planning rounds, host failure/rejoin
// fallout and the monitor→re-plan round trip (§IV-B/§IV-C).

#include "service/planning_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
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

// Round queries take the path arrivals take. A sub-threshold rate drift
// overloads the single host's CPU; the eviction loop removes `ab` first,
// but its join operator stays placed for the surviving `abc`, so only
// evicting `de` as well brings the host back under budget. At the
// round's commit, `ab` is still materialised and needs one serving arc:
// the plan-cache fast path admits it without a MILP solve, and `de` is
// solved and rejected.
TEST(PlanningServiceTest, RoundReadmitsMaterializedQueryViaCacheFastPath) {
  const CostModel cost;
  Catalog catalog(cost);
  std::vector<StreamId> base;
  for (double rate : {10.0, 10.0, 10.0, 100.0, 100.0}) {
    base.push_back(catalog.AddBaseStream(0, rate));
  }
  const StreamId ab = *catalog.CanonicalJoinStream({base[0], base[1]});
  const StreamId abc =
      *catalog.CanonicalJoinStream({base[0], base[1], base[2]});
  const StreamId de = *catalog.CanonicalJoinStream({base[3], base[4]});

  // CPU of the three join operators (ab, ab⋈c, de), and its growth when
  // a's rate rises 15% — under the 20% drift threshold, so the rate is
  // installed without flagging any query. The budget sits halfway.
  const double ab_rate = catalog.stream(ab).rate_mbps;
  const double cpu = cost.OperatorCpuCost(20.0 + ab_rate + 10.0 + 200.0);
  const double growth = cost.OperatorCpuCost(1.5 + ab_rate * 1.5 / 20.0);
  Cluster cluster(1, HostSpec{cpu + growth / 2, 500.0, 500.0, ""}, 1000.0);

  ServiceOptions options;
  options.planner.timeout_ms = 60000;
  options.planner.max_nodes = 150;
  PlanningService service(&cluster, &catalog, options);
  auto step = [&](Event event) {
    EXPECT_TRUE(service.Enqueue(event).ok());
    Result<EventOutcome> outcome = service.Step();
    EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
    return outcome.ok() ? *outcome : EventOutcome{};
  };

  ASSERT_TRUE(step(Event::Arrival(1, ab)).admitted);
  ASSERT_TRUE(step(Event::Arrival(2, de)).admitted);
  ASSERT_TRUE(step(Event::Arrival(3, abc)).admitted);

  EventOutcome drift = step(Event::MonitorReport(4, {{base[0], 11.5}}));
  ASSERT_EQ(drift.evicted, 2);
  ASSERT_EQ(service.deployment().ServingHost(ab), kInvalidHost);
  ASSERT_NE(service.deployment().ServingHost(abc), kInvalidHost);
  ASSERT_TRUE(service.deployment().GroundedAvailability().at(0, ab))
      << "ab's operator must stay placed for abc";

  const int64_t exact_hits = service.plan_cache().exact_hits();
  const size_t solves = service.stats().solve_ms.count();
  EventOutcome tick = step(Event::Tick(5));
  EXPECT_EQ(tick.replanned_admitted, 1);
  EXPECT_EQ(tick.replanned_rejected, 1);
  EXPECT_EQ(service.deployment().ServingHost(ab), 0);
  EXPECT_EQ(service.deployment().ServingHost(de), kInvalidHost);
  EXPECT_EQ(service.plan_cache().exact_hits(), exact_hits + 1);
  EXPECT_EQ(service.stats().solve_ms.count(), solves + 1)
      << "only de may reach the MILP";
  EXPECT_TRUE(service.deployment().Validate().ok());
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

// An arrival that misses the plan cache does not commit the pending
// re-planning round first: it is admitted ahead of the round's queries,
// and the round still commits at its own point.
TEST(PlanningServiceTest, CacheMissArrivalOverlapsInFlightRound) {
  ServiceOptions options;
  // Deterministic solver: node-bounded, not wall-clock-bounded.
  options.planner.timeout_ms = 60000;
  options.planner.max_nodes = 150;
  ServiceFixture fx(2, 0.3, 6, options);

  int64_t t = 1;
  for (int i = 0; i + 1 < 6; ++i) {
    fx.StepOne(Event::Arrival(t++, fx.Join({i, i + 1})));
  }
  // A tripled base rate makes the near-saturated cluster shed load:
  // evictions queue and a round is popped at the end of the event.
  EventOutcome drift =
      fx.StepOne(Event::MonitorReport(t++, {{fx.base[1], 30.0}}));
  EXPECT_GE(drift.evicted, 1);
  EXPECT_GT(fx.service->pending_replans(), 0);

  // Cache-miss arrival while that round is pending: it is solved and
  // admitted before the round commits at the end of the event.
  const int64_t overlapped_before =
      fx.service->stats().overlapped_arrival_solves;
  const int64_t rounds_before = fx.service->stats().replan_rounds;
  EventOutcome arrival = fx.StepOne(Event::Arrival(t++, fx.Join({0, 2})));
  EXPECT_EQ(fx.service->stats().overlapped_arrival_solves,
            overlapped_before + 1);
  EXPECT_EQ(fx.service->stats().replan_rounds, rounds_before + 1);
  EXPECT_GT(arrival.replanned_admitted + arrival.replanned_rejected, 0);

  fx.service->FinishInFlightRound();
  EXPECT_TRUE(fx.service->deployment().Validate().ok());
}

// A host failure arriving while a re-planning round is pending. The
// service must commit the round before the host's budgets are zeroed,
// skip a round query that departed before the commit, and keep the
// committed deployment valid throughout.
TEST(PlanningServiceTest, EvictHostWhileRoundInFlightStaysConsistent) {
  ServiceOptions options;
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
  // evictions queue and a round is popped at the end of the event.
  EventOutcome drift =
      fx.StepOne(Event::MonitorReport(t++, {{fx.base[1], 30.0}}));
  EXPECT_GE(drift.evicted, 1);
  EXPECT_GT(fx.service->pending_replans(), 0);

  // A departure while the round is pending (the round must skip it,
  // not re-admit it)...
  const StreamId departed = queries[0];
  fx.StepOne(Event::Departure(t++, departed));

  // ...and then a host fails. The failure must commit the round before
  // zeroing budgets and evicting fallout.
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
      << "departed query must not be re-admitted by a pending round";
}

// The stall/SLO watchdog (WatchdogOptions) observes wall clock, so its
// counters are normally machine-dependent — but at the extremes they
// are exact and therefore testable: a vanishing budget makes every
// stage sample (and every Step) a breach, so each breach counter equals
// its histogram's sample count and loop_stalls equals the event count.
// A huge budget yields zero breaches. And the watchdog
// never gates behaviour: every run commits the budget-free fingerprint.
TEST(PlanningServiceTest, WatchdogBreachCountsAreExactAtExtremeBudgets) {
  struct WatchdogRun {
    std::string fingerprint;
    int64_t events = 0;
    int64_t loop_stalls = 0;
    double worst_stall_ms = 0.0;
    size_t admit_n = 0, solve_n = 0, commit_n = 0,
           measure_n = 0;
    int64_t admit_b = 0, solve_b = 0, commit_b = 0,
            measure_b = 0;
  };
  // Closed-loop replay so all five stage histograms (including
  // measure_ms) take samples; node-bounded solver as always.
  auto run = [](double budget_ms) {
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
    options.closed_loop = true;
    options.telemetry.measure_period = 2;
    options.telemetry.seed = 11;
    options.telemetry.sim.rate_scale = 0.02;
    options.telemetry.sim.duration_ms = 400;
    options.watchdog.event_stall_ms = budget_ms;
    options.watchdog.admit_budget_ms = budget_ms;
    options.watchdog.solve_budget_ms = budget_ms;
    options.watchdog.commit_budget_ms = budget_ms;
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
    r.measure_n = stats.measure_ms.count();
    r.admit_b = stats.admit_budget_breaches;
    r.solve_b = stats.solve_budget_breaches;
    r.commit_b = stats.commit_budget_breaches;
    r.measure_b = stats.measure_budget_breaches;
    return r;
  };

  const WatchdogRun off = run(/*budget_ms=*/0.0);
  EXPECT_GT(off.events, 0);
  EXPECT_GT(off.measure_n, 0u) << "closed loop never measured";
  EXPECT_EQ(off.loop_stalls, 0);
  EXPECT_EQ(off.admit_b + off.solve_b + off.commit_b + off.measure_b, 0)
      << "budgets of 0 mean the watchdog is off";

  // Tiny budget (1 picosecond): every wall-clock sample breaches, so
  // the breach counters collapse onto the deterministic sample counts.
  const WatchdogRun tiny = run(/*budget_ms=*/1e-9);
  EXPECT_EQ(tiny.fingerprint, off.fingerprint)
      << "watchdog budgets changed the committed deployment";
  EXPECT_EQ(tiny.loop_stalls, tiny.events);
  EXPECT_GT(tiny.worst_stall_ms, 0.0);
  EXPECT_EQ(tiny.admit_b, static_cast<int64_t>(tiny.admit_n));
  EXPECT_EQ(tiny.solve_b, static_cast<int64_t>(tiny.solve_n));
  EXPECT_EQ(tiny.commit_b, static_cast<int64_t>(tiny.commit_n));
  EXPECT_EQ(tiny.measure_b, static_cast<int64_t>(tiny.measure_n));

  // Huge budget: nothing on this machine takes 10^12 ms, so zero
  // breaches and zero stalls — while the histograms still sample.
  const WatchdogRun huge = run(/*budget_ms=*/1e12);
  EXPECT_EQ(huge.fingerprint, off.fingerprint);
  EXPECT_EQ(huge.loop_stalls, 0);
  EXPECT_DOUBLE_EQ(huge.worst_stall_ms, 0.0);
  EXPECT_EQ(huge.admit_n, tiny.admit_n);
  EXPECT_EQ(huge.admit_b + huge.solve_b + huge.commit_b + huge.measure_b, 0);
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

// Seeded mutation fuzzing of the trace reader: a SaveTrace corpus with
// every event kind is mangled by byte flips, truncation, token drops and
// hostile monitor counts (-1, 2^64-1, more entries than the line holds).
// Every load must come back OK or InvalidArgument naming the line —
// never an abort, an exception or another status.
TEST(TraceTest, MutatedTracesLoadOrFailWithLineNumber) {
  std::vector<Event> events;
  events.push_back(Event::Arrival(10, 3));
  events.push_back(Event::Departure(20, 3));
  events.push_back(Event::HostFailure(30, 1));
  events.push_back(Event::HostJoin(45, 1));
  events.push_back(
      Event::MonitorReport(50, {{0, 12.5}, {2, 0.25}}, {0.5, 1.25, 0.75}));
  events.push_back(Event::Tick(60));
  RateTrajectory walk;
  walk.kind = RateTrajectory::Kind::kRandomWalk;
  walk.stream = 6;
  walk.base_rate_mbps = 8.0;
  walk.period_ms = 120;
  walk.volatility = 0.25;
  walk.min_factor = 0.5;
  walk.max_factor = 3.0;
  events.push_back(Event::RateDirective(70, walk));
  events.push_back(Event::MonitorReport(80, {{1, 3.0}}, {}));

  const std::string path = ::testing::TempDir() + "/sqpr_trace_fuzz.txt";
  ASSERT_TRUE(SaveTrace(events, path).ok());
  std::string corpus;
  {
    std::ifstream in(path);
    corpus.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
  }
  ASSERT_FALSE(corpus.empty());

  const auto load = [&](const std::string& content) {
    {
      std::ofstream out(path, std::ios::trunc);
      out << content;
    }
    return LoadTrace(path);
  };
  const auto check = [&](const std::string& content) {
    const Result<std::vector<Event>> r = load(content);
    if (r.ok()) return;
    const std::string msg = r.status().ToString();
    EXPECT_TRUE(r.status().IsInvalidArgument()) << msg << "\n" << content;
    const size_t at = msg.find(path + ":");
    ASSERT_NE(at, std::string::npos) << msg;
    const size_t digit = at + path.size() + 1;
    EXPECT_TRUE(digit < msg.size() && std::isdigit(static_cast<unsigned char>(
                                          msg[digit])))
        << "no line number in: " << msg;
  };

  // The two hostile counts that once escaped as std::length_error.
  for (const char* line : {"0 monitor 0 cpu -1\n",
                           "0 monitor 0 cpu 18446744073709551615\n",
                           "0 monitor -1\n",
                           "0 monitor 18446744073709551615\n"}) {
    const Result<std::vector<Event>> r = load(line);
    ASSERT_FALSE(r.ok()) << line;
    EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
    EXPECT_NE(r.status().ToString().find(":1:"), std::string::npos)
        << r.status().ToString();
  }

  const auto split_tokens = [](const std::string& text) {
    // Tokens with their separators kept, so a dropped token leaves the
    // rest of the line structure intact.
    std::vector<std::string> tokens;
    std::string cur;
    for (char c : text) {
      if (c == ' ' || c == '\n') {
        if (!cur.empty()) tokens.push_back(cur);
        tokens.push_back(std::string(1, c));
        cur.clear();
      } else {
        cur += c;
      }
    }
    if (!cur.empty()) tokens.push_back(cur);
    return tokens;
  };
  const auto join = [](const std::vector<std::string>& tokens) {
    std::string out;
    for (const std::string& t : tokens) out += t;
    return out;
  };
  const char kAlphabet[] = "0123456789-. \nxe+cpumonitr#";

  Rng rng(0x7ace);
  for (int iter = 0; iter < 1500; ++iter) {
    std::string text = corpus;
    const int mutations = 1 + static_cast<int>(rng.NextBounded(3));
    for (int m = 0; m < mutations && !text.empty(); ++m) {
      switch (rng.NextBounded(4)) {
        case 0: {  // byte flip
          const size_t at = rng.NextBounded(text.size());
          text[at] = kAlphabet[rng.NextBounded(sizeof(kAlphabet) - 1)];
          break;
        }
        case 1:  // truncation
          text.resize(rng.NextBounded(text.size() + 1));
          break;
        case 2: {  // token drop
          std::vector<std::string> tokens = split_tokens(text);
          tokens.erase(tokens.begin() +
                       static_cast<long>(rng.NextBounded(tokens.size())));
          text = join(tokens);
          break;
        }
        default: {  // hostile count on a monitor line
          std::vector<std::string> tokens = split_tokens(text);
          std::vector<size_t> counts;  // rate or cpu count positions
          for (size_t i = 0; i + 2 < tokens.size(); ++i) {
            if ((tokens[i] == "monitor" || tokens[i] == "cpu") &&
                tokens[i + 1] == " ") {
              counts.push_back(i + 2);
            }
          }
          if (counts.empty()) break;
          const size_t at = counts[rng.NextBounded(counts.size())];
          // Tokens left on the line after the count.
          int present = 0;
          for (size_t i = at + 1; i < tokens.size() && tokens[i] != "\n";
               ++i) {
            present += tokens[i] != " ";
          }
          switch (rng.NextBounded(3)) {
            case 0:
              tokens[at] = "-1";
              break;
            case 1:
              tokens[at] = "18446744073709551615";
              break;
            default:
              tokens[at] = std::to_string(
                  present + 1 + static_cast<int>(rng.NextBounded(3)));
              break;
          }
          text = join(tokens);
          break;
        }
      }
    }
    check(text);
    if (::testing::Test::HasFatalFailure()) return;
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
