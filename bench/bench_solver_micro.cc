// Solver micro-bench: one node-bounded branch-and-bound search over a
// grounded SQPR model, as machine-readable numbers (the
// BENCH_solver_micro.json trajectory) — time per node and per simplex
// pivot, plus the machine-independent LP work (total pivots, pivots and
// fresh basis factorizations per node), the cost of the per-search LP
// engine.
//
// Shape checks gate the LP engine's factorization reuse, not speed.
// Absolute timings land in the JSON for the checked-in baseline diff; CI
// gates the schema and the search's deterministic nodes and lp_pivots
// against the checked-in file (timings are host-dependent).

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/deadline.h"
#include "milp/solver.h"
#include "plan/deployment.h"
#include "planner/sqpr/model_builder.h"
#include "planner/sqpr/sqpr_planner.h"

namespace sqpr {
namespace {

constexpr uint64_t kSeed = 11;

struct Fixture {
  bench::Scenario scenario;
  SqprPlanner planner;
  std::vector<StreamId> streams;
  std::vector<OperatorId> operators;
  std::vector<DemandSpec> demands;
  StreamId query = kInvalidStream;

  explicit Fixture(const bench::ScenarioConfig& config)
      : scenario(bench::MakeScenario(config)),
        planner(scenario.cluster.get(), scenario.catalog.get(),
                [] {
                  SqprPlanner::Options o;
                  o.timeout_ms = 250;
                  return o;
                }()) {}
};

/// Admits a prefix of the workload so the base deployment carries the
/// committed operators/flows a mid-experiment solve works against, then
/// grounds the relevant sets of the next unserved query.
std::unique_ptr<Fixture> MakeFixture() {
  // Small enough (4 hosts, 2-way joins) that the node-bounded search
  // below runs in milliseconds.
  bench::ScenarioConfig config;
  config.hosts = 4;
  config.base_streams = 16;
  config.queries = 16;
  config.arities = {2};
  config.seed = kSeed;
  auto f = std::make_unique<Fixture>(config);
  for (int i = 0; i < 8; ++i) {
    const Status st =
        f->planner.SubmitQuery(f->scenario.workload.queries[i]).status();
    SQPR_CHECK(st.ok()) << st.ToString();
  }
  f->query = f->scenario.workload.queries[8];
  const Closure closure = *f->scenario.catalog->JoinClosure(f->query);
  f->streams = closure.streams;
  f->operators = closure.operators;
  f->demands = {{f->query, /*must_serve=*/false}};
  return f;
}

/// Branch-and-bound node throughput on the fixture model: a node-bounded
/// search (so the work counters are deterministic) repeated for timing.
int BenchNodeThroughput(Fixture* f, bench::BenchJsonWriter* json) {
  constexpr int kRepeats = 5;
  constexpr int64_t kMaxNodes = 400;
  int failed = 0;

  SqprMip mip(f->planner.deployment(), f->streams, f->operators, f->demands,
              {});
  milp::Solver solver;
  milp::MipResult r;
  double total_ms = 0.0;
  for (int i = 0; i < kRepeats; ++i) {
    SqprMip::CycleCutHandler handler(&mip);
    milp::SolverOptions options;
    options.deadline = Deadline::AfterMillis(60000);
    options.max_nodes = kMaxNodes;
    options.gap_abs = 1e-9;
    options.gap_rel = 1e-9;
    options.lazy = &handler;
    Stopwatch watch;
    r = solver.Solve(mip.mip(), options);
    total_ms += watch.ElapsedMillis();
    SQPR_CHECK(r.has_solution());
  }
  const double nodes = static_cast<double>(std::max<int64_t>(r.nodes, 1));
  const double lp_solves =
      static_cast<double>(std::max<int64_t>(r.lp_solves, 1));
  const double pivots = static_cast<double>(r.lp_iterations);
  const double us_per_node = 1000.0 * total_ms / kRepeats / nodes;
  const double us_per_pivot =
      1000.0 * total_ms / kRepeats / std::max(pivots, 1.0);
  const double refactor_per_solve =
      static_cast<double>(r.lp_refactorizations) / lp_solves;

  if (!bench::ShapeCheck(r.lp_factor_reuses > 0,
                         "LP re-solves reuse the kept factorization")) {
    ++failed;
  }
  if (!bench::ShapeCheck(refactor_per_solve <= 0.5,
                         "at most 0.5 refactorizations per LP solve")) {
    ++failed;
  }

  std::printf(
      "node throughput %7.1f us/node   %.2f us/pivot   %.1f pivots/node   "
      "%.2f refactorizations/node   %.2f per LP solve   (%lld nodes)\n",
      us_per_node, us_per_pivot, pivots / nodes,
      static_cast<double>(r.lp_refactorizations) / nodes,
      refactor_per_solve, static_cast<long long>(r.nodes));
  bench::BenchRecord& rec = json->Add("node_throughput");
  rec.labels["max_nodes"] = std::to_string(kMaxNodes);
  rec.metrics["nodes"] = static_cast<double>(r.nodes);
  rec.metrics["us_per_node"] = us_per_node;
  rec.metrics["lp_pivots"] = pivots;
  rec.metrics["us_per_pivot"] = us_per_pivot;
  rec.metrics["pivots_per_node"] = pivots / nodes;
  rec.metrics["refactorizations_per_node"] =
      static_cast<double>(r.lp_refactorizations) / nodes;
  rec.metrics["lp_solves_per_node"] = lp_solves / nodes;
  rec.metrics["refactorizations_per_lp_solve"] = refactor_per_solve;
  return failed;
}

}  // namespace
}  // namespace sqpr

int main(int argc, char** argv) {
  std::string json_path;
  if (!sqpr::bench::ParseBenchArgs(argc, argv, &json_path)) return 2;

  sqpr::bench::PrintHeader(
      "solver_micro",
      "branch-and-bound node throughput",
      sqpr::kSeed);
  sqpr::bench::BenchJsonWriter json("solver_micro", sqpr::kSeed);

  int failed = 0;
  {
    std::unique_ptr<sqpr::Fixture> fixture = sqpr::MakeFixture();
    failed += sqpr::BenchNodeThroughput(fixture.get(), &json);
  }

  if (!json_path.empty() && !json.WriteFile(json_path, failed)) return 1;
  return failed == 0 ? 0 : 1;
}
