#include "milp/solver.h"

#include <algorithm>
#include <cmath>
#include <climits>
#include <cstdlib>
#include <queue>

#include "common/logging.h"
#include "milp/presolve.h"
#include "obs/trace.h"

namespace sqpr {
namespace milp {
namespace {

/// One branch decision: tighten `var` to [lb, ub].
struct BoundChange {
  int var;
  double lb;
  double ub;
};

/// Node of the search tree. Bound changes are stored as a chain to the
/// root so open nodes cost O(1) memory each; a processed node keeps its
/// final optimal basis (n + m bytes), the start of its children's LPs.
struct Node {
  int parent = -1;          // index into the node arena, -1 for root
  BoundChange change{};     // no-op for the root
  double bound = 0.0;       // inherited dual bound (maximisation)
  int depth = 0;
  std::vector<lp::BasisState> basis;  // empty until solved to optimality
};

/// SQPR_MILP_DEBUG traces the search on stderr; read once per process.
bool DebugEnabled() {
  static const bool enabled = std::getenv("SQPR_MILP_DEBUG") != nullptr;
  return enabled;
}

struct QueueEntry {
  double bound;
  int node;
  bool operator<(const QueueEntry& other) const {
    return bound < other.bound;  // max-heap on bound
  }
};

class BranchAndBound {
 public:
  BranchAndBound(const Model& model, const SolverOptions& options)
      : base_(model),
        options_(options),
        work_(model.lp),
        lp_([&] {
          lp::SimplexOptions lp_options = options.lp_options;
          lp_options.deadline = options.deadline;
          return lp_options;
        }()) {}

  MipResult Run();

 private:
  // Applies the bound-change chain of `node` onto work_ (after resetting
  // integer-variable bounds to the base model's).
  void ApplyBounds(int node);
  // Picks the most fractional integer variable; -1 if integral.
  int PickBranchVariable(const std::vector<double>& x) const;
  double PruneThreshold() const;
  bool IsIntegral(const std::vector<double>& x) const;
  // Returns true when x became the incumbent.
  bool MaybeUpdateIncumbent(const std::vector<double>& x, double obj);
  // Processes one node; pushes children onto the queue / plunge slot.
  // Returns the node index to plunge into next, or -1.
  int ProcessNode(int node_index);
  // Aggressive rounding dive from a fractional LP point: fixes every
  // near-integral binary, rounds the most fractional one, re-solves, and
  // repeats. Installs an incumbent when it bottoms out integral. This is
  // how good solutions appear long before the branching tree would reach
  // them — the role CPLEX's feasibility heuristics play for the paper's
  // tight per-query timeouts.
  void DivingHeuristic(const std::vector<double>& start);
  double QueueBestBound() const;
  // The basis node's LP starts from: its own after a re-solve against
  // lazy rows, else that of its nearest ancestor solved to optimality
  // (empty at the root: the slack basis). A parent's optimal basis stays
  // dual feasible under the child's bound change, so the engine re-solves
  // it with the dual simplex.
  const std::vector<lp::BasisState>& StartBasis(int node) const;
  // Solves the relaxation work_ on the search's LP engine from `warm`
  // (empty: lp_options.warm_basis, by default the slack basis) and
  // counts the work.
  lp::SimplexResult SolveRelaxation(const std::vector<lp::BasisState>& warm);

  const Model& base_;
  SolverOptions options_;
  lp::Model work_;  // mutable copy; lazy cuts append rows here
  // The one LP engine of this search (root, nodes, cut re-solves, dive):
  // it keeps work_'s columns and its basis inverse between solves, so a
  // node re-solve only takes in bound changes and appended rows instead
  // of refactorizing. Scoped to the search, so no state crosses solves,
  // threads or replays.
  lp::SimplexSolver lp_;

  std::vector<Node> arena_;
  std::priority_queue<QueueEntry> open_;
  std::vector<double> incumbent_;
  double incumbent_obj_ = -lp::kInf;
  bool have_incumbent_ = false;
  double root_bound_ = lp::kInf;
  int64_t nodes_ = 0;
  int64_t lp_iterations_ = 0;
  int64_t lp_solves_ = 0;
  int64_t lp_refactorizations_ = 0;
  int64_t lp_factor_reuses_ = 0;
  int64_t lp_dual_pivots_ = 0;
  int64_t incumbents_ = 0;
  int64_t dive_incumbents_ = 0;
};

void BranchAndBound::ApplyBounds(int node) {
  for (int v = 0; v < base_.lp.num_variables(); ++v) {
    if (base_.integer[v]) {
      work_.SetVariableBounds(v, base_.lp.variable_lb(v),
                              base_.lp.variable_ub(v));
    }
  }
  for (int cur = node; cur >= 0; cur = arena_[cur].parent) {
    if (arena_[cur].parent < 0) break;  // root carries no change
    const BoundChange& bc = arena_[cur].change;
    const double lb = std::max(work_.variable_lb(bc.var), bc.lb);
    const double ub = std::min(work_.variable_ub(bc.var), bc.ub);
    if (lb > ub) {
      // Conflicting ancestors cannot happen: each branch only tightens
      // one side and descendants never relax it.
      SQPR_LOG_FATAL << "crossed bounds applying branch chain";
    }
    work_.SetVariableBounds(bc.var, lb, ub);
  }
}

int BranchAndBound::PickBranchVariable(const std::vector<double>& x) const {
  // Lexicographic: highest branching-priority class first, then the most
  // fractional variable weighted by objective importance within it.
  int best = -1;
  int best_priority = INT_MIN;
  double best_score = -1.0;
  for (int v = 0; v < base_.lp.num_variables(); ++v) {
    if (!base_.integer[v]) continue;
    const double frac = x[v] - std::floor(x[v]);
    const double dist = std::min(frac, 1.0 - frac);
    if (dist <= options_.integrality_tol) continue;
    const int priority = v < static_cast<int>(base_.branch_priority.size())
                             ? base_.branch_priority[v]
                             : 0;
    const double score =
        dist * (1.0 + std::sqrt(std::abs(base_.lp.objective(v))));
    if (priority > best_priority ||
        (priority == best_priority && score > best_score)) {
      best_priority = priority;
      best_score = score;
      best = v;
    }
  }
  return best;
}

double BranchAndBound::PruneThreshold() const {
  if (!have_incumbent_) return -lp::kInf;
  return incumbent_obj_ +
         std::max(options_.gap_abs,
                  options_.gap_rel * std::abs(incumbent_obj_));
}

bool BranchAndBound::IsIntegral(const std::vector<double>& x) const {
  for (int v = 0; v < base_.lp.num_variables(); ++v) {
    if (!base_.integer[v]) continue;
    const double frac = x[v] - std::floor(x[v]);
    if (std::min(frac, 1.0 - frac) > options_.integrality_tol) return false;
  }
  return true;
}

bool BranchAndBound::MaybeUpdateIncumbent(const std::vector<double>& x,
                                          double obj) {
  if (have_incumbent_ && obj <= incumbent_obj_) return false;
  incumbent_ = x;
  // Snap integer values exactly so downstream plan extraction can compare
  // against 0/1 without tolerances.
  for (int v = 0; v < base_.lp.num_variables(); ++v) {
    if (base_.integer[v]) incumbent_[v] = std::round(incumbent_[v]);
  }
  incumbent_obj_ = obj;
  have_incumbent_ = true;
  ++incumbents_;
  return true;
}

double BranchAndBound::QueueBestBound() const {
  return open_.empty() ? -lp::kInf : open_.top().bound;
}

const std::vector<lp::BasisState>& BranchAndBound::StartBasis(
    int node) const {
  int cur = node;
  while (cur > 0 && arena_[cur].basis.empty()) cur = arena_[cur].parent;
  return arena_[cur].basis;
}

lp::SimplexResult BranchAndBound::SolveRelaxation(
    const std::vector<lp::BasisState>& warm) {
  lp::SimplexResult rel = warm.empty() ? lp_.Solve(work_)
                                       : lp_.Solve(work_, &warm);
  ++lp_solves_;
  lp_iterations_ += rel.iterations;
  lp_refactorizations_ += rel.refactorizations;
  lp_factor_reuses_ += rel.factor_reuses;
  lp_dual_pivots_ += rel.dual_pivots;
  return rel;
}

void BranchAndBound::DivingHeuristic(const std::vector<double>& start) {
  SQPR_TRACE_SPAN("milp/dive");
  const int n = base_.lp.num_variables();
  // Work on a private copy of the current bounds (includes lazy cuts via
  // work_ rows; variable bounds here are the *root* bounds).
  std::vector<std::pair<double, double>> saved(n);
  for (int v = 0; v < n; ++v) {
    saved[v] = {work_.variable_lb(v), work_.variable_ub(v)};
  }
  std::vector<double> x = start;
  // Each step fixes one more column of the last optimal dive LP: its
  // basis stays dual feasible, starting with the root's after cuts.
  std::vector<lp::BasisState> dive_basis = arena_[0].basis;

  const int max_rounds = 2 * n + 10;
  for (int round = 0; round < max_rounds; ++round) {
    if (options_.deadline.Expired()) break;
    // Fix near-integral binaries; round the most important fractional one.
    int frac_var = -1;
    int frac_priority = INT_MIN;
    double frac_score = -1.0;
    for (int v = 0; v < n; ++v) {
      if (!base_.integer[v]) continue;
      if (work_.variable_lb(v) == work_.variable_ub(v)) continue;
      const double frac = x[v] - std::floor(x[v]);
      const double dist = std::min(frac, 1.0 - frac);
      if (dist <= options_.integrality_tol) continue;
      const int priority = v < static_cast<int>(base_.branch_priority.size())
                               ? base_.branch_priority[v]
                               : 0;
      const double score =
          dist * (1.0 + std::sqrt(std::abs(base_.lp.objective(v))));
      if (priority > frac_priority ||
          (priority == frac_priority && score > frac_score)) {
        frac_priority = priority;
        frac_score = score;
        frac_var = v;
      }
    }
    double rounded_to = 0.0;
    if (frac_var >= 0) {
      // Round up when the variable carries positive objective (SQPR
      // admission) or meaningful fractional mass: covering-style models
      // need the mass committed, not shaved.
      const bool up = base_.lp.objective(frac_var) > 1e-9 ||
                      (x[frac_var] - std::floor(x[frac_var])) >= 0.2;
      rounded_to = up ? std::ceil(x[frac_var]) : std::floor(x[frac_var]);
      work_.SetVariableBounds(frac_var, rounded_to, rounded_to);
    }

    lp::SimplexResult rel = SolveRelaxation(dive_basis);
    for (int pass = 0; pass < 3 && rel.status == lp::SolveStatus::kOptimal &&
                       options_.lazy != nullptr;
         ++pass) {
      if (options_.lazy->AddFractionalCuts(rel.values, &work_) == 0) break;
      rel = SolveRelaxation(rel.basis_state);
    }
    if (rel.status == lp::SolveStatus::kInfeasible && frac_var >= 0) {
      // The rounding direction broke feasibility: try the other side
      // before giving up on the dive.
      const double flipped =
          rounded_to > x[frac_var] ? std::floor(x[frac_var])
                                   : std::ceil(x[frac_var]);
      work_.SetVariableBounds(frac_var, flipped, flipped);
      rel = SolveRelaxation(dive_basis);
    }
    if (DebugEnabled()) {
      fprintf(stderr, "[dive] round=%d status=%s iters=%lld obj=%.3f\n",
              round, lp::SolveStatusName(rel.status),
              (long long)rel.iterations, rel.objective);
    }
    if (rel.status != lp::SolveStatus::kOptimal) break;
    dive_basis = std::move(rel.basis_state);
    x = rel.values;
    if (IsIntegral(x)) {
      bool cuts_ok = true;
      if (options_.lazy != nullptr) {
        cuts_ok = options_.lazy->AddViolatedCuts(x, &work_) == 0;
      }
      const Status feas = work_.CheckFeasible(x, 1e-5);
      if (DebugEnabled()) {
        fprintf(stderr, "[dive] integral cuts_ok=%d feas=%s obj=%.3f\n",
                cuts_ok, feas.ToString().c_str(), rel.objective);
      }
      if (cuts_ok && feas.ok()) {
        if (MaybeUpdateIncumbent(x, rel.objective)) ++dive_incumbents_;
        break;
      }
      if (!cuts_ok) continue;  // cycle cuts added: keep diving against them
      break;
    }
  }

  for (int v = 0; v < n; ++v) {
    work_.SetVariableBounds(v, saved[v].first, saved[v].second);
  }
}

int BranchAndBound::ProcessNode(int node_index) {
  SQPR_TRACE_SPAN_ARGS(span, "milp/node", "node", "arena_index");
  span.set_args(static_cast<uint64_t>(nodes_),
                static_cast<uint64_t>(node_index));
  ++nodes_;
  ApplyBounds(node_index);

  lp::SimplexResult rel = SolveRelaxation(StartBasis(node_index));
  // Fractional cut separation loop: tighten the relaxation in place
  // while the handler keeps finding violated rows.
  for (int pass = 0; pass < 5 && rel.status == lp::SolveStatus::kOptimal &&
                     options_.lazy != nullptr;
       ++pass) {
    if (options_.lazy->AddFractionalCuts(rel.values, &work_) == 0) break;
    rel = SolveRelaxation(rel.basis_state);
  }
  if (rel.status == lp::SolveStatus::kOptimal) {
    arena_[node_index].basis = std::move(rel.basis_state);
  }

  switch (rel.status) {
    case lp::SolveStatus::kInfeasible:
      return -1;  // prune
    case lp::SolveStatus::kUnbounded:
      // The SQPR models are always bounded; treat as numerical failure of
      // this node and prune conservatively only if we have an incumbent.
      SQPR_LOG_WARN << "unbounded node relaxation (numerical); pruning";
      return -1;
    case lp::SolveStatus::kIterationLimit:
    case lp::SolveStatus::kTimeLimit: {
      // The relaxation was not solved to optimality: its objective is not
      // a valid dual bound. Keep the parent's bound and branch on the
      // current iterate if it is available; otherwise drop the node.
      break;
    }
    case lp::SolveStatus::kOptimal:
      arena_[node_index].bound = rel.objective;
      break;
  }

  if (node_index == 0 && rel.status == lp::SolveStatus::kOptimal &&
      options_.cuts.enable && !IsIntegral(rel.values)) {
    // Root cutting-plane loop (cut-and-branch): separate, re-solve from
    // the root's basis, repeat while the relaxation keeps moving. The
    // first round separates cover cuts only (Separate gets no basis, so
    // no Gomory rows), as the search always has: separating Gomory rows
    // from the first root optimum too grows the SQPR relaxations from
    // about 51 to 78 rows and costs more LP time than its cuts save.
    rel.basis_state.clear();
    SQPR_TRACE_SPAN_ARGS(cut_span, "milp/root_cuts", "rounds", "cuts_added");
    uint64_t cut_rounds = 0, cuts_added = 0;
    CutGenerator cg(base_.integer, options_.cuts);
    for (int round = 0; round < options_.cuts.max_rounds; ++round) {
      if (options_.deadline.Expired()) break;
      const int separated = cg.Separate(rel, &work_);
      if (separated == 0) break;
      ++cut_rounds;
      cuts_added += static_cast<uint64_t>(separated);
      cut_span.set_args(cut_rounds, cuts_added);
      lp::SimplexResult tightened = SolveRelaxation(arena_[node_index].basis);
      if (tightened.status != lp::SolveStatus::kOptimal) break;
      rel = std::move(tightened);
      arena_[node_index].basis = rel.basis_state;
      arena_[node_index].bound = rel.objective;
      if (IsIntegral(rel.values)) break;
    }
    if (DebugEnabled()) {
      fprintf(stderr, "[cuts] gomory=%d cover=%d root bound %.4f\n",
              cg.total_gomory(), cg.total_cover(), rel.objective);
    }
  }

  const double node_bound = arena_[node_index].bound;
  if (node_index == 0 && rel.status == lp::SolveStatus::kOptimal) {
    root_bound_ = rel.objective;
    if (!IsIntegral(rel.values)) DivingHeuristic(rel.values);
  }
  if (node_bound <= PruneThreshold()) {
    return -1;  // cannot improve on the incumbent beyond the gap
  }

  const std::vector<double>& x = rel.values;
  if (x.empty()) return -1;

  if (IsIntegral(x)) {
    if (options_.lazy != nullptr) {
      const int cuts = options_.lazy->AddViolatedCuts(x, &work_);
      if (cuts > 0) {
        // Lazy rows are global: also append them to every future node by
        // keeping them in work_ (ApplyBounds only resets bounds, never
        // rows). Re-solve this node against the strengthened relaxation.
        return node_index;
      }
    }
    // CheckFeasible guards against tolerance drift before accepting.
    const Status feas = work_.CheckFeasible(x, 1e-5);
    if (feas.ok()) {
      MaybeUpdateIncumbent(x, rel.objective);
    } else if (DebugEnabled()) {
      fprintf(stderr, "[milp] integral candidate rejected: %s\n",
              feas.ToString().c_str());
    }
    return -1;
  }

  const int branch_var = PickBranchVariable(x);
  if (branch_var < 0) return -1;  // only sub-tolerance fractionality left
  if (DebugEnabled() && nodes_ < 60) {
    fprintf(stderr, "[milp] node=%lld depth=%d bound=%.4f branch %s=%.4f\n",
            (long long)nodes_, arena_[node_index].depth, node_bound,
            work_.variable_name(branch_var).c_str(), x[branch_var]);
  }

  const double value = x[branch_var];
  const double down_ub = std::floor(value);
  const double up_lb = std::ceil(value);

  Node down;
  down.parent = node_index;
  down.change = {branch_var, -lp::kInf, down_ub};
  down.bound = node_bound;
  down.depth = arena_[node_index].depth + 1;

  Node up = down;
  up.change = {branch_var, up_lb, lp::kInf};

  const int down_index = static_cast<int>(arena_.size());
  arena_.push_back(down);
  const int up_index = static_cast<int>(arena_.size());
  arena_.push_back(up);

  // Plunge upward whenever the fractional part is non-negligible. In
  // covering-style models (SQPR: "some host must provide this") symmetric
  // LP optima spread mass thinly across equivalent choices; rounding a
  // 1/H fraction *down* merely reshuffles the spread, while rounding it
  // *up* commits to a concrete choice and reaches integrality in a
  // support-chain's worth of dives.
  const bool go_down = base_.lp.objective(branch_var) <= 1e-9 &&
                       (value - down_ub) < 0.2;
  const int near = go_down ? down_index : up_index;
  const int far = go_down ? up_index : down_index;
  open_.push({node_bound, far});
  return near;
}

MipResult BranchAndBound::Run() {
  Stopwatch watch;
  MipResult result;

  SQPR_CHECK(base_.integer.size() ==
             static_cast<size_t>(base_.lp.num_variables()))
      << "integrality mask size mismatch";

  if (options_.warm_start != nullptr) {
    const std::vector<double>& ws = *options_.warm_start;
    if (base_.lp.CheckFeasible(ws, 1e-6).ok() && IsIntegral(ws)) {
      bool cuts_ok = true;
      if (options_.lazy != nullptr) {
        cuts_ok = options_.lazy->AddViolatedCuts(ws, &work_) == 0;
      }
      if (cuts_ok) MaybeUpdateIncumbent(ws, base_.lp.ObjectiveValue(ws));
    }
  }

  arena_.push_back(Node{});  // root
  arena_[0].bound = lp::kInf;
  int current = 0;

  bool limit_hit = false;
  while (true) {
    if (current < 0) {
      if (open_.empty()) break;
      const QueueEntry top = open_.top();
      open_.pop();
      if (top.bound <= PruneThreshold()) {
        // Best-first: every remaining node is dominated too.
        break;
      }
      current = top.node;
    }
    if (nodes_ >= options_.max_nodes || options_.deadline.Expired()) {
      limit_hit = true;
      // The two limits can trip together; deadline expiry wins the
      // attribution — it is what the degraded-mode fallback keys on.
      result.deadline_hit = options_.deadline.Expired();
      break;
    }
    current = ProcessNode(current);
  }

  result.nodes = nodes_;
  result.lp_iterations = lp_iterations_;
  result.lp_solves = lp_solves_;
  result.lp_refactorizations = lp_refactorizations_;
  result.lp_factor_reuses = lp_factor_reuses_;
  result.lp_dual_pivots = lp_dual_pivots_;
  result.incumbents = incumbents_;
  result.dive_incumbents = dive_incumbents_;
  result.wall_ms = watch.ElapsedMillis();

  double residual_bound = QueueBestBound();
  if (current >= 0) {
    residual_bound = std::max(residual_bound, arena_[current].bound);
  }
  if (limit_hit) {
    result.best_bound =
        std::isfinite(residual_bound)
            ? std::min(root_bound_, std::max(residual_bound, incumbent_obj_))
            : root_bound_;
    if (have_incumbent_) {
      result.status = MipStatus::kFeasible;
      result.x = incumbent_;
      result.objective = incumbent_obj_;
    } else {
      result.status = MipStatus::kNoSolution;
    }
    return result;
  }

  if (have_incumbent_) {
    result.status = MipStatus::kOptimal;
    result.x = incumbent_;
    result.objective = incumbent_obj_;
    result.best_bound = incumbent_obj_;
  } else {
    result.status = MipStatus::kInfeasible;
    result.best_bound = -lp::kInf;
  }
  return result;
}

}  // namespace

const char* MipStatusName(MipStatus status) {
  switch (status) {
    case MipStatus::kOptimal:
      return "Optimal";
    case MipStatus::kFeasible:
      return "Feasible";
    case MipStatus::kInfeasible:
      return "Infeasible";
    case MipStatus::kNoSolution:
      return "NoSolution";
  }
  return "Unknown";
}

double MipResult::Gap() const {
  if (status == MipStatus::kOptimal) return 0.0;
  if (!has_solution()) return lp::kInf;
  const double denom = std::max(1.0, std::abs(objective));
  return (best_bound - objective) / denom;
}

namespace {

/// Bridges a user lazy handler (which thinks in original-space variable
/// indices) to the presolved relaxation: candidates are postsolved to
/// full space before the handler sees them, and rows the handler appends
/// to the accumulating full-space model are translated (pinned columns
/// folded into the bounds) and appended to the reduced relaxation.
class PresolvedLazyAdapter : public LazyConstraintHandler {
 public:
  PresolvedLazyAdapter(LazyConstraintHandler* inner, const Presolver* pre,
                       lp::Model* full_space)
      : inner_(inner), pre_(pre), full_space_(full_space) {}

  int AddViolatedCuts(const std::vector<double>& candidate,
                      lp::Model* relaxation) override {
    return Forward(candidate, relaxation, /*fractional=*/false);
  }

  int AddFractionalCuts(const std::vector<double>& point,
                        lp::Model* relaxation) override {
    return Forward(point, relaxation, /*fractional=*/true);
  }

 private:
  int Forward(const std::vector<double>& reduced_point, lp::Model* relaxation,
              bool fractional) {
    const std::vector<double> full = pre_->Postsolve(reduced_point);
    const int before = full_space_->num_rows();
    const int reported =
        fractional ? inner_->AddFractionalCuts(full, full_space_)
                   : inner_->AddViolatedCuts(full, full_space_);
    int appended = 0;
    for (int r = before; r < full_space_->num_rows(); ++r) {
      std::vector<std::pair<int, double>> terms;
      double lb, ub;
      pre_->TranslateRow(full_space_->row_terms(r), full_space_->row_lb(r),
                         full_space_->row_ub(r), &terms, &lb, &ub);
      if (terms.empty()) continue;  // cut only involves pinned columns
      relaxation->AddRow(lb, ub, std::move(terms), full_space_->row_name(r));
      ++appended;
    }
    // Report the handler's own count when it appended nothing that
    // survives translation but still signalled violations: a violated
    // cut over pinned columns only means the pinned assignment itself is
    // off-limits, which the caller must treat as a rejection.
    return std::max(appended, reported > 0 && appended == 0 ? reported : 0);
  }

  LazyConstraintHandler* inner_;
  const Presolver* pre_;
  lp::Model* full_space_;
};

}  // namespace

MipResult Solver::Solve(const Model& model, const SolverOptions& caller_options) {
  // Degraded-mode wall budget: fold solve_deadline_ms into the deadline
  // once, up front, so both the presolve and no-presolve paths — and
  // every LP sub-solve, dive and cut round under them — inherit it.
  SolverOptions options = caller_options;
  if (options.solve_deadline_ms != 0) {
    const Deadline budget = Deadline::AfterMillis(options.solve_deadline_ms);
    if (!options.deadline.is_finite() ||
        budget.RemainingMillis() < options.deadline.RemainingMillis()) {
      options.deadline = budget;
    }
  }
  SQPR_TRACE_SPAN_ARGS(span, "milp/solve", "variables", "rows");
  span.set_args(static_cast<uint64_t>(model.lp.num_variables()),
                static_cast<uint64_t>(model.lp.num_rows()));
  if (!options.presolve) {
    BranchAndBound bb(model, options);
    return bb.Run();
  }

  Presolver pre;
  PresolveStats pstats;
  {
    SQPR_TRACE_SPAN_ARGS(pre_span, "milp/presolve", "fixed_columns",
                         "removed_rows");
    pstats = pre.Apply(model);
    pre_span.set_args(static_cast<uint64_t>(pstats.fixed_columns),
                      static_cast<uint64_t>(pstats.removed_rows));
  }
  if (DebugEnabled()) {
    fprintf(stderr,
            "[presolve] cols %d->%d rows %d->%d (fixed=%d removed=%d "
            "tightened=%d rounds=%d infeasible=%d)\n",
            model.lp.num_variables(), pre.reduced().lp.num_variables(),
            model.lp.num_rows(), pre.reduced().lp.num_rows(),
            pstats.fixed_columns, pstats.removed_rows,
            pstats.tightened_bounds, pstats.rounds,
            pstats.proven_infeasible);
  }
  if (pstats.proven_infeasible) {
    MipResult result;
    result.status = MipStatus::kInfeasible;
    result.best_bound = -lp::kInf;
    return result;
  }

  if (pre.reduced().lp.num_variables() == 0) {
    // Everything is pinned: the unique candidate is the pinned point.
    MipResult result;
    result.x = pre.Postsolve({});
    lp::Model scratch = model.lp;
    if (options.lazy != nullptr &&
        options.lazy->AddViolatedCuts(result.x, &scratch) > 0) {
      result.x.clear();
      result.status = MipStatus::kInfeasible;
      result.best_bound = -lp::kInf;
      return result;
    }
    result.status = MipStatus::kOptimal;
    result.objective = pre.objective_constant();
    result.best_bound = result.objective;
    return result;
  }

  SolverOptions inner = options;
  std::vector<double> reduced_ws;
  inner.warm_start = nullptr;
  if (options.warm_start != nullptr &&
      pre.ProjectToReduced(*options.warm_start, &reduced_ws)) {
    inner.warm_start = &reduced_ws;
  }
  lp::Model full_space = model.lp;  // accumulates original-space lazy rows
  PresolvedLazyAdapter adapter(options.lazy, &pre, &full_space);
  if (options.lazy != nullptr) inner.lazy = &adapter;

  BranchAndBound bb(pre.reduced(), inner);
  MipResult result = bb.Run();
  if (result.has_solution()) {
    result.x = pre.Postsolve(result.x);
    result.objective += pre.objective_constant();
  }
  if (std::isfinite(result.best_bound)) {
    result.best_bound += pre.objective_constant();
  }
  return result;
}

}  // namespace milp
}  // namespace sqpr
