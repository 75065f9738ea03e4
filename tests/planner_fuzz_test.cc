// Randomised lifecycle fuzzing: interleave submissions, removals and
// §IV-B replans against the SQPR planner and audit the full §III
// invariants after every mutation. Any sequencing bug in commit /
// garbage-collection / ledger maintenance shows up as a Validate()
// failure with the seed that produced it.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/rng.h"
#include "monitor/resource_monitor.h"
#include "plan/query_plan.h"
#include "planner/sqpr/sqpr_planner.h"
#include "workload/generator.h"

namespace sqpr {
namespace {

class PlannerFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(PlannerFuzzTest, InvariantsHoldUnderRandomLifecycles) {
  const uint64_t seed = 0xf022 + static_cast<uint64_t>(GetParam());
  Rng rng(seed);

  Catalog catalog(CostModel{});
  Cluster cluster(4, HostSpec{0.6, 90.0, 90.0, ""}, 180.0);
  WorkloadConfig wc;
  wc.num_base_streams = 24;
  wc.num_queries = 40;
  wc.arities = {2, 3};
  wc.seed = seed;
  Workload workload = *GenerateWorkload(wc, 4, &catalog);

  SqprPlanner::Options options;
  options.timeout_ms = 80;
  SqprPlanner planner(&cluster, &catalog, options);

  size_t next_query = 0;
  for (int step = 0; step < 60; ++step) {
    const double dice = rng.NextDouble();
    if (dice < 0.6 && next_query < workload.queries.size()) {
      // Submit the next workload query.
      Result<PlanningStats> stats =
          planner.SubmitQuery(workload.queries[next_query++]);
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    } else if (dice < 0.8 && !planner.admitted_queries().empty()) {
      // Remove a random admitted query.
      const auto& admitted = planner.admitted_queries();
      if (!admitted.empty()) {
        const StreamId victim =
            admitted[rng.NextUint64() % admitted.size()];
        ASSERT_TRUE(planner.RemoveQuery(victim).ok());
      }
    } else if (!planner.admitted_queries().empty()) {
      // Replan a random admitted query (§IV-B path).
      const auto& admitted = planner.admitted_queries();
      const StreamId q = admitted[rng.NextUint64() % admitted.size()];
      Result<std::vector<PlanningStats>> stats = planner.ReplanQueries({q});
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    }

    // Full §III audit after every mutation.
    const Status audit = planner.deployment().Validate();
    ASSERT_TRUE(audit.ok())
        << "seed " << seed << " step " << step << ": " << audit.ToString();

    // Every admitted query must have an extractable, C1-C4-valid plan.
    for (StreamId q : planner.admitted_queries()) {
      Result<QueryPlan> plan = ExtractPlan(planner.deployment(), q);
      ASSERT_TRUE(plan.ok())
          << "seed " << seed << " step " << step << " query " << q << ": "
          << plan.status().ToString();
    }

    // No admitted duplicates.
    const std::set<StreamId> unique(planner.admitted_queries().begin(),
                                    planner.admitted_queries().end());
    ASSERT_EQ(unique.size(), planner.admitted_queries().size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlannerFuzzTest, ::testing::Range(0, 8));

/// The same lifecycle fuzz with periodic measured-rate perturbations
/// through the §IV-B adaptive cycle.
class AdaptiveFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(AdaptiveFuzzTest, AdaptiveCycleKeepsInvariants) {
  const uint64_t seed = 0xad4e + static_cast<uint64_t>(GetParam());
  Rng rng(seed);

  Catalog catalog(CostModel{});
  Cluster cluster(3, HostSpec{0.5, 120.0, 120.0, ""}, 240.0);
  std::vector<StreamId> base;
  for (int i = 0; i < 10; ++i) {
    base.push_back(catalog.AddBaseStream(i % 3, 10.0));
  }
  SqprPlanner::Options options;
  options.timeout_ms = 100;
  SqprPlanner planner(&cluster, &catalog, options);
  ResourceMonitor monitor(&catalog, DriftOptions{});

  for (int round = 0; round < 6; ++round) {
    // Submit a couple of random 2-way joins.
    for (int i = 0; i < 3; ++i) {
      const StreamId a = base[rng.NextUint64() % base.size()];
      StreamId b = base[rng.NextUint64() % base.size()];
      if (a == b) continue;
      Result<StreamId> q = catalog.CanonicalJoinStream({a, b});
      ASSERT_TRUE(q.ok());
      ASSERT_TRUE(planner.SubmitQuery(*q).ok());
    }

    // Perturb one base stream's measured rate in [5, 25] Mbps.
    std::map<StreamId, double> measured;
    const StreamId drifting = base[rng.NextUint64() % base.size()];
    measured[drifting] = 5.0 + 20.0 * rng.NextDouble();

    const DriftReport report = monitor.Analyze(
        measured, std::vector<double>(3, 0.5), planner.admitted_queries());
    Result<std::vector<PlanningStats>> stats =
        AdaptiveReplan(&planner, &catalog, measured, report);
    ASSERT_TRUE(stats.ok())
        << "seed " << seed << " round " << round << ": "
        << stats.status().ToString();

    const Status audit = planner.deployment().Validate();
    ASSERT_TRUE(audit.ok())
        << "seed " << seed << " round " << round << ": " << audit.ToString();
    // The installed estimate must be what the monitor measured.
    EXPECT_DOUBLE_EQ(catalog.stream(drifting).rate_mbps, measured[drifting]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdaptiveFuzzTest, ::testing::Range(0, 6));

}  // namespace
}  // namespace sqpr
