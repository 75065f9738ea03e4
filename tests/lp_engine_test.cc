// Differential test of the persistent LP engine: one SimplexSolver is
// driven through a branch-and-bound-like sequence on a random bounded LP
// (bound tightenings, appended cut rows, infeasible children, returns to
// the last optimal parent), and every solve must agree with a fresh
// one-shot solve of the same model — status, objective within 1e-7
// relative, and a feasible optimum. The counters show that the sequence
// really took the kept-inverse paths (plain reuse, bordered extension by
// appended rows) rather than refactorizing every time.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "lp/model.h"
#include "lp/simplex.h"

namespace sqpr {
namespace lp {
namespace {

/// Random LP over 0 <= x <= ub (so never unbounded). Row 0 is a budget
/// sum(x) <= sum(ub) / 2, which fixing every column at its upper bound
/// always violates; the other rows are built around an integral point
/// x0 that satisfies all of them, so the root LP is feasible.
Model RandomLp(Rng* rng, std::vector<double>* x0) {
  Model m(rng->NextBool(0.5) ? Sense::kMaximize : Sense::kMinimize);
  const int n = 4 + static_cast<int>(rng->NextUint64() % 7);
  x0->assign(n, 0.0);
  double ub_sum = 0.0;
  for (int v = 0; v < n; ++v) {
    const double ub = 1.0 + static_cast<double>(rng->NextUint64() % 5);
    ub_sum += ub;
    m.AddVariable(0.0, ub, std::round(10.0 * (rng->NextDouble() - 0.3)));
  }
  std::vector<std::pair<int, double>> budget;
  for (int v = 0; v < n; ++v) budget.emplace_back(v, 1.0);
  m.AddRow(-kInf, 0.5 * ub_sum, budget, "budget");
  // x0: a random integral point inside the budget.
  double used = 0.0;
  for (int v = 0; v < n; ++v) {
    const double room = std::min(m.variable_ub(v), 0.5 * ub_sum - used);
    (*x0)[v] = std::floor(room * rng->NextDouble());
    used += (*x0)[v];
  }
  const int rows = 2 + static_cast<int>(rng->NextUint64() % 6);
  for (int r = 0; r < rows; ++r) {
    std::vector<std::pair<int, double>> terms;
    double act = 0.0;
    for (int v = 0; v < n; ++v) {
      if (!rng->NextBool(0.5)) continue;
      double coef = static_cast<double>(rng->NextUint64() % 9) - 4.0;
      if (coef == 0.0) coef = 1.0;
      terms.emplace_back(v, coef);
      act += coef * (*x0)[v];
    }
    if (terms.empty()) continue;
    const double slack = static_cast<double>(rng->NextUint64() % 4);
    const double kind = rng->NextDouble();
    if (kind < 0.4) {
      m.AddRow(-kInf, act + slack, terms);
    } else if (kind < 0.7) {
      m.AddRow(act - slack, kInf, terms);
    } else if (kind < 0.9) {
      m.AddRow(act - slack, act + slack + 1.0, terms);
    } else {
      m.AddRow(act, act, terms);
    }
  }
  return m;
}

struct Coverage {
  int solves = 0;
  int infeasible_children = 0;
  int plain_reuses = 0;     // reused, no rows appended since
  int bordered_reuses = 0;  // reused across appended rows
  int parent_returns = 0;   // back to the parent after an infeasible child
  int64_t refactorizations = 0;
};

/// Solves `model` on the persistent engine and, independently, on a
/// fresh one-shot solver; asserts the two agree.
SimplexResult SolveBoth(SimplexSolver* engine, const Model& model,
                        const std::vector<BasisState>* warm,
                        Coverage* coverage) {
  SimplexResult kept = engine->Solve(model, warm);
  SimplexSolver fresh;
  const SimplexResult once = fresh.Solve(model);
  EXPECT_EQ(kept.status, once.status)
      << SolveStatusName(kept.status) << " vs " << SolveStatusName(once.status);
  if (kept.status == SolveStatus::kOptimal &&
      once.status == SolveStatus::kOptimal) {
    EXPECT_NEAR(kept.objective, once.objective,
                1e-7 * std::max(1.0, std::abs(once.objective)));
    const Status feasible = model.CheckFeasible(kept.values, 1e-6);
    EXPECT_TRUE(feasible.ok()) << feasible.ToString();
  }
  ++coverage->solves;
  coverage->refactorizations += kept.refactorizations;
  return kept;
}

void SetBounds(Model* m, const std::vector<double>& lb,
               const std::vector<double>& ub) {
  for (int v = 0; v < m->num_variables(); ++v) {
    m->SetVariableBounds(v, lb[v], ub[v]);
  }
}

/// One random LP's search-like sequence on a single engine.
void RunSequence(uint64_t seed, Coverage* coverage) {
  Rng rng(seed);
  std::vector<double> x0;
  Model model = RandomLp(&rng, &x0);
  const int n = model.num_variables();
  std::vector<double> root_lb(n), root_ub(n);
  for (int v = 0; v < n; ++v) {
    root_lb[v] = model.variable_lb(v);
    root_ub[v] = model.variable_ub(v);
  }

  SimplexSolver engine;
  SimplexResult rel = SolveBoth(&engine, model, nullptr, coverage);
  ASSERT_EQ(rel.status, SolveStatus::kOptimal) << "seed " << seed;
  // The last optimal relaxation: its bounds, point and basis.
  std::vector<double> parent_lb = root_lb, parent_ub = root_ub;
  std::vector<double> parent_x = rel.values;
  std::vector<BasisState> parent_basis = rel.basis_state;

  for (int step = 0; step < 16; ++step) {
    const double action = rng.NextDouble();
    bool appended = false;
    if (action < 0.45) {
      // Branch: tighten one column around the parent's value.
      const int v = static_cast<int>(rng.NextUint64() % n);
      const double value = parent_x[v];
      double lb = model.variable_lb(v), ub = model.variable_ub(v);
      if (rng.NextBool(0.5)) {
        ub = std::max(lb, std::ceil(value) - 1.0);
      } else {
        lb = std::min(ub, std::floor(value) + 1.0);
      }
      model.SetVariableBounds(v, lb, ub);
    } else if (action < 0.75) {
      // Cut: a row through a few columns, shaving the parent's point
      // when it can while keeping x0 feasible.
      std::vector<std::pair<int, double>> terms;
      double at_parent = 0.0, at_x0 = 0.0;
      for (int v = 0; v < n; ++v) {
        if (!rng.NextBool(0.4)) continue;
        terms.emplace_back(v, 1.0);
        at_parent += parent_x[v];
        at_x0 += x0[v];
      }
      if (terms.empty()) continue;
      model.AddRow(-kInf, std::max(at_x0, std::floor(at_parent - 0.25)),
                   terms, "cut");
      appended = true;
    } else if (action < 0.9) {
      // Infeasible child: every column at its upper bound breaks the
      // budget row.
      for (int v = 0; v < n; ++v) {
        model.SetVariableBounds(v, model.variable_ub(v), model.variable_ub(v));
      }
      const SimplexResult child =
          SolveBoth(&engine, model, &parent_basis, coverage);
      EXPECT_EQ(child.status, SolveStatus::kInfeasible) << "seed " << seed;
      ++coverage->infeasible_children;
      // Back to the parent's bounds and basis.
      SetBounds(&model, parent_lb, parent_ub);
      rel = SolveBoth(&engine, model, &parent_basis, coverage);
      EXPECT_EQ(rel.status, SolveStatus::kOptimal) << "seed " << seed;
      ++coverage->parent_returns;
      parent_x = rel.values;
      parent_basis = rel.basis_state;
      continue;
    } else {
      // Jump back to the root bounds (a best-first pop elsewhere).
      SetBounds(&model, root_lb, root_ub);
    }

    rel = SolveBoth(&engine, model, &parent_basis, coverage);
    if (rel.factor_reuses > 0) {
      ++(appended ? coverage->bordered_reuses : coverage->plain_reuses);
    }
    if (rel.status != SolveStatus::kOptimal) {
      if (!appended) {
        ++coverage->infeasible_children;
        SetBounds(&model, parent_lb, parent_ub);
        continue;
      }
      // A cut emptied the branched region: x0 keeps the root feasible.
      SetBounds(&model, root_lb, root_ub);
      rel = SolveBoth(&engine, model, &parent_basis, coverage);
      ASSERT_EQ(rel.status, SolveStatus::kOptimal) << "seed " << seed;
    }
    for (int v = 0; v < n; ++v) {
      parent_lb[v] = model.variable_lb(v);
      parent_ub[v] = model.variable_ub(v);
    }
    parent_x = rel.values;
    parent_basis = rel.basis_state;
  }
}

TEST(LpEngineTest, PersistentSolvesMatchFreshSolves) {
  Coverage coverage;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    RunSequence(0x1e9e3779b97f4a7cULL + seed, &coverage);
  }
  // The differential check means little unless the fast paths ran.
  EXPECT_GT(coverage.plain_reuses, 0);
  EXPECT_GT(coverage.bordered_reuses, 0);
  EXPECT_GT(coverage.parent_returns, 0);
  EXPECT_GT(coverage.infeasible_children, 0);
  // A warm re-solve mostly reuses: well under one refactorization each.
  EXPECT_LT(coverage.refactorizations, coverage.solves / 2)
      << coverage.refactorizations << " refactorizations over "
      << coverage.solves << " solves";
}

TEST(LpEngineTest, DifferentModelResetsTheEngine) {
  // A different Model object (even with the same shape) is a fresh
  // start: nothing kept from the first model may leak into the second.
  Rng rng(7);
  std::vector<double> x0;
  const Model first = RandomLp(&rng, &x0);
  Model second = first;
  second.SetObjective(0, second.objective(0) + 3.0);
  SimplexSolver engine;
  const SimplexResult a = engine.Solve(first);
  ASSERT_EQ(a.status, SolveStatus::kOptimal);
  const SimplexResult b = engine.Solve(second, &a.basis_state);
  EXPECT_EQ(b.factor_reuses, 0);
  const SimplexResult once = SimplexSolver().Solve(second);
  ASSERT_EQ(b.status, once.status);
  EXPECT_NEAR(b.objective, once.objective,
              1e-7 * std::max(1.0, std::abs(once.objective)));
}

TEST(LpEngineTest, RepeatSolveFromOwnBasisReusesWithoutPivots) {
  Rng rng(11);
  std::vector<double> x0;
  const Model model = RandomLp(&rng, &x0);
  SimplexSolver engine;
  const SimplexResult first = engine.Solve(model);
  ASSERT_EQ(first.status, SolveStatus::kOptimal);
  EXPECT_EQ(first.factor_reuses, 0);
  EXPECT_GE(first.refactorizations, 1);
  const SimplexResult again = engine.Solve(model, &first.basis_state);
  EXPECT_EQ(again.status, SolveStatus::kOptimal);
  EXPECT_EQ(again.factor_reuses, 1);
  EXPECT_EQ(again.refactorizations, 0);
  EXPECT_EQ(again.iterations, 1);  // one pricing pass proves optimality
  EXPECT_NEAR(again.objective, first.objective, 1e-9);
}

}  // namespace
}  // namespace lp
}  // namespace sqpr
