#include "planner/sqpr/sqpr_planner.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/logging.h"
#include "milp/solver.h"
#include "obs/trace.h"
#include "plan/query_plan.h"
#include "planner/heuristic/heuristic_planner.h"

namespace sqpr {
SqprPlanner::SqprPlanner(const Cluster* cluster, Catalog* catalog,
                         Options options)
    : cluster_(cluster),
      catalog_(catalog),
      options_(options),
      deployment_(cluster, catalog) {}

Result<SqprPlanner::RelevantSets> SqprPlanner::ComputeRelevantSets(
    const std::vector<StreamId>& new_queries) {
  SQPR_TRACE_SPAN("planner/relevant_sets");
  RelevantSets sets;
  std::set<StreamId> stream_set;
  std::set<OperatorId> op_set;

  auto add_closure = [&](StreamId q) -> Status {
    Result<Closure> closure = catalog_->JoinClosure(q);
    if (!closure.ok()) return closure.status();
    stream_set.insert(closure->streams.begin(), closure->streams.end());
    op_set.insert(closure->operators.begin(), closure->operators.end());
    return Status::OK();
  };

  for (StreamId q : new_queries) SQPR_RETURN_IF_ERROR(add_closure(q));
  if (!options_.reduce_problem) {
    // Full re-planning: every admitted query joins the model.
    for (StreamId q : admitted_) SQPR_RETURN_IF_ERROR(add_closure(q));
  }

  sets.streams.assign(stream_set.begin(), stream_set.end());
  sets.operators.assign(op_set.begin(), op_set.end());

  // Demands: new queries are optional (admission maximised); admitted
  // queries inside the relevant set carry the (IV.9) no-drop equality.
  std::set<StreamId> demanded;
  for (StreamId q : new_queries) {
    if (demanded.insert(q).second) {
      sets.demands.push_back({q, /*must_serve=*/false});
    }
  }
  for (StreamId q : admitted_) {
    if (stream_set.count(q) && demanded.insert(q).second) {
      sets.demands.push_back({q, /*must_serve=*/true});
    }
  }
  return sets;
}

Result<PlanningStats> SqprPlanner::SubmitQuery(StreamId query) {
  Result<std::vector<PlanningStats>> batch = SubmitBatch({query});
  if (!batch.ok()) return batch.status();
  return batch->front();
}

Result<std::vector<PlanningStats>> SqprPlanner::SubmitBatch(
    const std::vector<StreamId>& queries) {
  SQPR_TRACE_SPAN_ARGS(span, "planner/solve", "fresh_queries",
                       "relevant_streams");
  Stopwatch watch;
  std::vector<PlanningStats> stats(queries.size());

  // Algorithm 1 line 3: drop already-admitted duplicates from the solve.
  std::vector<StreamId> fresh;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (deployment_.ServingHost(queries[i]) != kInvalidHost) {
      stats[i].admitted = true;
      stats[i].already_served = true;
    } else {
      fresh.push_back(queries[i]);
    }
  }
  std::sort(fresh.begin(), fresh.end());
  fresh.erase(std::unique(fresh.begin(), fresh.end()), fresh.end());
  if (fresh.empty()) {
    for (auto& s : stats) s.wall_ms = watch.ElapsedMillis();
    return stats;
  }

  Result<RelevantSets> sets = ComputeRelevantSets(fresh);
  if (!sets.ok()) return sets.status();

  // A fresh model per submission: the solve sees the committed state and
  // nothing else, so a restored service decides exactly as an
  // uninterrupted one.
  SqprMip mip(deployment_, sets->streams, sets->operators, sets->demands,
              options_.model);
  const std::vector<double> warm = mip.WarmStart();
  SqprMip::CycleCutHandler cycle_handler(&mip);

  milp::SolverOptions solver_options;
  solver_options.deadline = Deadline::AfterMillis(
      options_.timeout_ms * static_cast<int64_t>(fresh.size()));
  // The degraded-mode budget is per *solve*, deliberately not scaled by
  // the batch size: it caps how long any one solve can stall the
  // service event loop.
  solver_options.solve_deadline_ms = options_.solve_deadline_ms;
  solver_options.max_nodes = options_.max_nodes;
  solver_options.gap_abs = options_.mip_gap_abs;
  solver_options.gap_rel = options_.mip_gap_rel;
  solver_options.warm_start = &warm;
  if (options_.model.acyclicity == AcyclicityMode::kLazyCycleCuts) {
    solver_options.lazy = &cycle_handler;
  }

  span.set_args(fresh.size(), sets->streams.size());
  milp::Solver solver;
  milp::MipResult result = solver.Solve(mip.mip(), solver_options);

  if (result.has_solution()) {
    SQPR_CHECK_OK(mip.Commit(result.x, &deployment_));
    if (options_.validate_commits) {
      const Status valid = deployment_.Validate();
      SQPR_CHECK(valid.ok()) << "commit broke deployment invariants: "
                             << valid.ToString();
    }
    for (size_t i = 0; i < queries.size(); ++i) {
      if (stats[i].already_served) continue;
      if (mip.Serves(result.x, queries[i]) ||
          deployment_.ServingHost(queries[i]) != kInvalidHost) {
        stats[i].admitted = true;
        // A batch may contain duplicates; admit each stream once.
        if (std::find(admitted_.begin(), admitted_.end(), queries[i]) ==
            admitted_.end()) {
          admitted_.push_back(queries[i]);
        }
      }
    }
  }

  // §VII greedy fallback: queries the deadline-bound solver could not
  // place may still have a straightforward single-host plan.
  if (options_.greedy_fallback &&
      result.status != milp::MipStatus::kOptimal) {
    SQPR_TRACE_SPAN("planner/greedy");
    for (size_t i = 0; i < queries.size(); ++i) {
      if (stats[i].admitted) continue;
      if (deployment_.ServingHost(queries[i]) != kInvalidHost) continue;
      if (GreedyAdmit(*cluster_, catalog_, queries[i],
                      options_.model.weights, &deployment_)) {
        stats[i].admitted = true;
        stats[i].admitted_via_heuristic = true;
        admitted_.push_back(queries[i]);
        if (options_.validate_commits) {
          const Status valid = deployment_.Validate();
          SQPR_CHECK(valid.ok()) << valid.ToString();
        }
      }
    }
  }

  const double elapsed = watch.ElapsedMillis();
  for (auto& s : stats) {
    s.wall_ms = elapsed;
    s.solver_nodes = result.nodes;
    s.lp_iterations = result.lp_iterations;
    s.objective = result.has_solution() ? result.objective : 0.0;
    s.proved_optimal = result.status == milp::MipStatus::kOptimal;
    s.deadline_hit = result.deadline_hit;
  }
  return stats;
}

Status SqprPlanner::RemoveQuery(StreamId query) {
  auto it = std::find(admitted_.begin(), admitted_.end(), query);
  if (it == admitted_.end()) {
    return Status::NotFound("query not admitted");
  }
  admitted_.erase(it);
  SQPR_RETURN_IF_ERROR(deployment_.ClearServing(query));
  GarbageCollect();
  if (options_.validate_commits) {
    SQPR_RETURN_IF_ERROR(deployment_.Validate());
  }
  return Status::OK();
}

Result<PlanningStats> SqprPlanner::AdmitMaterialized(
    StreamId query, const std::vector<HostId>& hosts) {
  Stopwatch watch;
  if (query < 0 || query >= catalog_->num_streams()) {
    return Status::InvalidArgument("unknown stream");
  }
  for (HostId host : hosts) {
    if (host < 0 || host >= cluster_->num_hosts()) {
      return Status::InvalidArgument("unknown host");
    }
  }
  PlanningStats stats;
  if (deployment_.ServingHost(query) != kInvalidHost) {
    stats.admitted = true;
    stats.already_served = true;
    stats.wall_ms = watch.ElapsedMillis();
    return stats;
  }
  const GroundedMap grounded = deployment_.GroundedAvailability();
  bool any_grounded = false;
  for (HostId host : hosts) {
    if (!grounded.at(host, query)) continue;
    any_grounded = true;
    if (!deployment_.CanServe(query, host)) continue;
    SQPR_RETURN_IF_ERROR(deployment_.SetServing(query, host));
    admitted_.push_back(query);
    if (options_.validate_commits) {
      const Status valid = deployment_.Validate();
      if (!valid.ok()) {
        admitted_.pop_back();
        SQPR_CHECK_OK(deployment_.ClearServing(query));
        return valid;
      }
    }
    stats.admitted = true;
    stats.via_cache = true;
    stats.wall_ms = watch.ElapsedMillis();
    return stats;
  }
  if (any_grounded) {
    return Status::ResourceExhausted(
        "no serving NIC headroom on any materialising host");
  }
  return Status::FailedPrecondition(
      "stream not materialised at any candidate host");
}

Result<std::vector<StreamId>> SqprPlanner::EvictHost(HostId host) {
  if (host < 0 || host >= cluster_->num_hosts()) {
    return Status::InvalidArgument("unknown host");
  }

  // Pass 1: queries whose extracted plan runs through the host. The
  // removals may legitimately leave the ledgers over a (shrunken) budget
  // mid-flight, so ResourceExhausted from the post-removal audit is not
  // fatal — the removal itself has been applied.
  std::vector<StreamId> affected;
  for (StreamId q : admitted_) {
    if (PlanUsesHost(deployment_, q, host)) affected.push_back(q);
  }
  for (StreamId q : affected) {
    const Status st = RemoveQuery(q);
    if (!st.ok() && !st.IsResourceExhausted() && !st.IsNotFound()) return st;
  }

  // Pass 2: purge residual allocations — redundant supports of surviving
  // queries that the conservative per-query GC keeps alive.
  const std::vector<OperatorId> residual_ops(
      deployment_.OperatorsOn(host).begin(),
      deployment_.OperatorsOn(host).end());
  for (OperatorId o : residual_ops) {
    SQPR_RETURN_IF_ERROR(deployment_.RemoveOperator(host, o));
  }
  for (StreamId s = 0; s < catalog_->num_streams(); ++s) {
    const auto flows = deployment_.FlowsOf(s);  // copy: mutation below
    for (const auto& [from, to] : flows) {
      if (from == host || to == host) {
        SQPR_RETURN_IF_ERROR(deployment_.RemoveFlow(from, to, s));
      }
    }
  }

  // Pass 3: the purge may have been the sole support of a surviving
  // query that extraction happened to route around — evict those too,
  // then GC the now-unsupported residue.
  const GroundedMap grounded = deployment_.GroundedAvailability();
  const std::vector<StreamId> admitted_snapshot = admitted_;
  for (StreamId q : admitted_snapshot) {
    const HostId server = deployment_.ServingHost(q);
    if (server == kInvalidHost || !grounded.at(server, q)) {
      const Status st = RemoveQuery(q);
      if (!st.ok() && !st.IsResourceExhausted() && !st.IsNotFound()) {
        return st;
      }
      affected.push_back(q);
    }
  }
  GarbageCollect();
  if (options_.validate_commits) {
    const Status valid = deployment_.Validate();
    if (!valid.ok() && !valid.IsResourceExhausted()) return valid;
  }
  return affected;
}

void SqprPlanner::GarbageCollect() {
  const Catalog& catalog = *catalog_;
  const GroundedMap grounded = deployment_.GroundedAvailability();

  // Mark phase: (host, stream) needs seeded by the served streams; every
  // grounded support of a needed pair is kept (conservative: redundant
  // supports of live streams survive).
  std::set<std::pair<HostId, StreamId>> needed;
  std::vector<std::pair<HostId, StreamId>> worklist;
  for (StreamId s : deployment_.ServedStreams()) {
    const HostId h = deployment_.ServingHost(s);
    if (needed.insert({h, s}).second) worklist.push_back({h, s});
  }
  std::set<std::pair<HostId, OperatorId>> live_ops;
  std::set<std::tuple<HostId, HostId, StreamId>> live_flows;
  while (!worklist.empty()) {
    const auto [h, s] = worklist.back();
    worklist.pop_back();
    // Local producers with grounded inputs.
    for (OperatorId o : deployment_.OperatorsOn(h)) {
      const OperatorInfo& op = catalog.op(o);
      if (op.output != s) continue;
      bool ok = true;
      for (StreamId in : op.inputs) {
        if (!grounded.at(h, in)) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      if (live_ops.insert({h, o}).second) {
        for (StreamId in : op.inputs) {
          if (needed.insert({h, in}).second) worklist.push_back({h, in});
        }
      }
    }
    // Incoming flows from grounded senders.
    for (const auto& [from, to] : deployment_.FlowsOf(s)) {
      if (to != h || !grounded.at(from, s)) continue;
      if (live_flows.insert({from, to, s}).second) {
        if (needed.insert({from, s}).second) worklist.push_back({from, s});
      }
    }
  }

  // Sweep phase.
  for (HostId h = 0; h < cluster_->num_hosts(); ++h) {
    std::vector<OperatorId> dead;
    for (OperatorId o : deployment_.OperatorsOn(h)) {
      if (live_ops.count({h, o}) == 0) dead.push_back(o);
    }
    for (OperatorId o : dead) {
      SQPR_CHECK_OK(deployment_.RemoveOperator(h, o));
    }
  }
  std::vector<std::tuple<HostId, HostId, StreamId>> dead_flows;
  for (StreamId s = 0; s < grounded.num_streams; ++s) {
    for (const auto& [from, to] : deployment_.FlowsOf(s)) {
      if (live_flows.count({from, to, s}) == 0) {
        dead_flows.emplace_back(from, to, s);
      }
    }
  }
  for (const auto& [from, to, s] : dead_flows) {
    SQPR_CHECK_OK(deployment_.RemoveFlow(from, to, s));
  }
}

Status SqprPlanner::WarmCatalog(StreamId query) {
  if (query < 0 || query >= catalog_->num_streams()) {
    return Status::InvalidArgument("unknown stream " + std::to_string(query));
  }
  SQPR_TRACE_SPAN("planner/warm_catalog");
  // JoinClosure interns every subset join stream and every binary split
  // operator of the leaf set — the complete universe both the reduced
  // MILP (ComputeRelevantSets) and the greedy fallback (join-tree
  // enumeration) can reference. Afterwards, solves for this query only
  // ever *find* catalog entries.
  return catalog_->JoinClosure(query).status();
}

Result<std::vector<PlanningStats>> SqprPlanner::ReplanQueries(
    const std::vector<StreamId>& queries) {
  // §IV-B: remove the drifted queries, then re-admit them one by one
  // against the slimmed-down deployment.
  for (StreamId q : queries) {
    const Status removed = RemoveQuery(q);
    if (!removed.ok() && !removed.IsNotFound()) return removed;
  }
  std::vector<PlanningStats> all;
  all.reserve(queries.size());
  for (StreamId q : queries) {
    Result<PlanningStats> stats = SubmitQuery(q);
    if (!stats.ok()) return stats.status();
    all.push_back(*stats);
  }
  return all;
}

}  // namespace sqpr
