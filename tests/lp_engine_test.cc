// Differential test of the persistent LP engine: one SimplexSolver is
// driven through a branch-and-bound-like sequence on a random bounded LP
// (bound tightenings, appended cut rows, infeasible children, returns to
// the last optimal parent), and every solve must agree with a fresh
// one-shot solve of the same model — status, objective within 1e-7
// relative, and a feasible optimum. The counters show that the sequence
// really took the kept-inverse paths (plain reuse, bordered extension by
// appended rows) rather than refactorizing every time. A pinned digest
// of the same corpus plus a node-bounded MILP search holds the engine's
// pivot path fixed. A randomised warm-vs-cold pair pins the parent →
// child basis hand-off a search relies on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "lp/model.h"
#include "lp/simplex.h"
#include "milp/cuts.h"
#include "milp/solver.h"

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

/// The pivot path of a run of solves: an FNV-1a digest of the discrete
/// results (status, work counters, final basis, MILP node counts) plus
/// the objectives, which are compared with a tolerance instead.
struct PathLog {
  uint64_t digest = 0xcbf29ce484222325ULL;
  std::vector<double> objectives;

  void Mix(uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      digest ^= (v >> (8 * b)) & 0xff;
      digest *= 0x100000001b3ULL;
    }
  }
  void Add(const SimplexResult& r) {
    Mix(static_cast<uint64_t>(r.status));
    Mix(static_cast<uint64_t>(r.iterations));
    Mix(static_cast<uint64_t>(r.refactorizations));
    Mix(static_cast<uint64_t>(r.factor_reuses));
    Mix(r.basis_state.size());
    for (BasisState s : r.basis_state) Mix(static_cast<uint64_t>(s));
    objectives.push_back(r.objective);
  }
  void Add(const milp::MipResult& r) {
    Mix(static_cast<uint64_t>(r.status));
    Mix(static_cast<uint64_t>(r.nodes));
    Mix(static_cast<uint64_t>(r.lp_iterations));
    objectives.push_back(r.objective);
    objectives.push_back(r.best_bound);
  }
  /// The values to paste into the pinned constants when re-recording.
  std::string Render() const {
    std::string out;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "digest 0x%016llxULL, objectives:",
                  static_cast<unsigned long long>(digest));
    out += buf;
    for (size_t i = 0; i < objectives.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s%.17g,", i % 4 == 0 ? "\n" : " ",
                    objectives[i]);
      out += buf;
    }
    return out;
  }
};

struct Coverage {
  // Records every persistent-engine solve when set.
  PathLog* path = nullptr;
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
  if (coverage->path != nullptr) coverage->path->Add(kept);
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

/// A random mixed-integer program (maximisation) around an integral
/// reference point, so it is feasible: general integer and continuous
/// columns in [0, 4], <= and ranged rows with mixed-sign coefficients.
milp::Model RandomMip(uint64_t seed) {
  Rng rng(seed);
  milp::Model m;
  const int n = 30;
  std::vector<double> ref(n);
  for (int v = 0; v < n; ++v) {
    const bool is_int = rng.NextBool(0.7);
    m.AddVariable(0.0, 4.0, rng.NextDouble(-1.0, 3.0), is_int);
    ref[v] = is_int ? static_cast<double>(rng.NextInt(0, 4))
                    : rng.NextDouble(0.0, 4.0);
  }
  for (int r = 0; r < 16; ++r) {
    std::vector<std::pair<int, double>> terms;
    double activity = 0.0;
    for (int v = 0; v < n; ++v) {
      if (!rng.NextBool(0.3)) continue;
      const double coef = rng.NextDouble(-1.0, 3.0);
      terms.emplace_back(v, coef);
      activity += coef * ref[v];
    }
    if (terms.empty()) continue;
    const double slack = rng.NextDouble(0.0, 2.0);
    if (r % 4 == 3) {
      m.lp.AddRow(activity - slack, activity + 0.5, std::move(terms));
    } else {
      m.lp.AddRow(-kInf, activity + slack, std::move(terms));
    }
  }
  return m;
}

// Pinned on the dense-kernel engine. The simplex kernels skip exact
// zeros but perform the same floating-point operations, in the same
// order, on every nonzero, so pivots, bases and work counters must not
// move. A deliberate change to the pivot path re-records both constants
// from the failure message.
constexpr uint64_t kPinnedPathDigest = 0x40734676a2e5849cULL;
constexpr double kPinnedObjectives[] = {
    -10.25, -10, -10, -10, -10, -10, -8, -8, -10, -10, -9, 36, -10,
    -9.3333333333333321, -8.5, -8, 40, -8.5, -7, 74.700000000000003,
    74.700000000000003, 74.700000000000003, 74.700000000000003,
    74.700000000000003, 74.700000000000003, 56.099999999999994,
    74.700000000000003, 74.700000000000003, 72.5, 70, 64.5, 64.5, 64.5, 64.5,
    72.5, 72.5, 64, 0.4000000000000008, 7.6000000000000005, 0.39999999999999947,
    0.39999999999999947, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 10.666666666666668,
    10.666666666666666, 11.666666666666666, 62.666666666666664,
    11.666666666666666, 11.666666666666666, 11.666666666666666,
    11.666666666666666, 11.666666666666666, 13.666666666666666, 16, 37, 16,
    10.666666666666668, 61.666666666666664, 10.666666666666666,
    10.666666666666666, 10.666666666666666, 17.666666666666664,
    17.666666666666664, 35.393939393939391, 33.600000000000001,
    33.599999999999994, 33.599999999999994, 29.5, 28.230769230769234, 25.25,
    33.600000000000009, 28.400000000000006, 28.400000000000006,
    27.777777777777786, 27.777777777777782, 26.666666666666671,
    20.666666666666668, 26.666666666666668, 20.666666666666668,
    26.666666666666668, 26.666666666666668, 26.666666666666668, 2, 2, 2, 2, 2,
    2, 2, 8, 102, 8, 8, 8, 102, 8, 2, 2, 2, 7, 15.666666666666666,
    72.140562288283604, 78.353775543452983, 0, 88.426440819066045, 0,
    111.50231843537773,
};

TEST(LpEngineTest, KernelRewriteKeepsPivotPath) {
  PathLog path;
  Coverage coverage;
  coverage.path = &path;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    RunSequence(0x1e9e3779b97f4a7cULL + seed, &coverage);
  }
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    // Default options: presolve and root Gomory/cover cuts on.
    milp::SolverOptions options;
    options.max_nodes = 150;
    options.gap_abs = 1e-9;
    options.gap_rel = 1e-9;
    path.Add(milp::Solver().Solve(RandomMip(0x5eed + seed), options));
  }
  EXPECT_EQ(path.digest, kPinnedPathDigest) << path.Render();
  const size_t pinned = sizeof(kPinnedObjectives) / sizeof(double);
  ASSERT_EQ(path.objectives.size(), pinned) << path.Render();
  for (size_t i = 0; i < pinned; ++i) {
    EXPECT_NEAR(path.objectives[i], kPinnedObjectives[i],
                1e-9 * std::max(1.0, std::abs(kPinnedObjectives[i])))
        << "solve " << i;
  }
}

/// Warm-started simplex == cold-started simplex on the same model, over
/// randomised LPs (objective equality; the vertex may differ under
/// degeneracy, the value may not). This is the one basis hand-off a
/// MILP search makes: a child node's LP starts from its parent's basis.
class WarmSimplexTest : public ::testing::TestWithParam<int> {};

TEST_P(WarmSimplexTest, WarmBasisReachesColdObjective) {
  const uint64_t seed = 0x3a51 + static_cast<uint64_t>(GetParam());
  Rng rng(seed);
  Model m;
  const int n = 6 + static_cast<int>(rng.NextUint64() % 6);
  for (int v = 0; v < n; ++v) {
    m.AddVariable(0.0, 1.0 + 4.0 * rng.NextDouble(),
                  rng.NextDouble() * 10.0 - 2.0);
  }
  const int rows = 4 + static_cast<int>(rng.NextUint64() % 5);
  for (int r = 0; r < rows; ++r) {
    std::vector<std::pair<int, double>> terms;
    for (int v = 0; v < n; ++v) {
      if (rng.NextDouble() < 0.5) {
        terms.emplace_back(v, rng.NextDouble() * 4.0 - 1.0);
      }
    }
    if (terms.empty()) terms.emplace_back(0, 1.0);
    m.AddRow(-kInf, 1.0 + 5.0 * rng.NextDouble(), std::move(terms));
  }

  SimplexSolver cold;
  const SimplexResult first = cold.Solve(m);
  ASSERT_EQ(first.status, SolveStatus::kOptimal) << "seed " << seed;

  SimplexOptions warm_options;
  warm_options.warm_basis = &first.basis_state;
  SimplexSolver warm(warm_options);
  const SimplexResult second = warm.Solve(m);
  ASSERT_EQ(second.status, SolveStatus::kOptimal) << "seed " << seed;
  EXPECT_NEAR(second.objective, first.objective, 1e-7) << "seed " << seed;
  // Restarting at the optimal basis must not need meaningful work.
  EXPECT_LE(second.iterations, first.iterations) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, WarmSimplexTest, ::testing::Range(0, 8));

}  // namespace
}  // namespace lp
}  // namespace sqpr
