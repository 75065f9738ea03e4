// Exactness property: on small random LPs the simplex optimum must
// equal the best vertex found by brute-force basis enumeration. This is
// the strongest correctness check we can run without an external
// solver — every basic feasible solution of the slack-form system is
// enumerated and evaluated. Cold solves take the primal simplex; warm
// re-solves of branched or cut children take the dual simplex.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "lp/model.h"
#include "lp/simplex.h"

namespace sqpr {
namespace lp {
namespace {

/// Solves the dense m x m system B y = rhs by Gaussian elimination with
/// partial pivoting. Returns false when singular.
bool DenseSolve(std::vector<double> B, int m, std::vector<double> rhs,
                std::vector<double>* y) {
  std::vector<int> perm(m);
  for (int i = 0; i < m; ++i) perm[i] = i;
  for (int col = 0; col < m; ++col) {
    int pivot = -1;
    double best = 1e-9;
    for (int r = col; r < m; ++r) {
      if (std::abs(B[r * m + col]) > best) {
        best = std::abs(B[r * m + col]);
        pivot = r;
      }
    }
    if (pivot < 0) return false;
    for (int c = 0; c < m; ++c) std::swap(B[pivot * m + c], B[col * m + c]);
    std::swap(rhs[pivot], rhs[col]);
    for (int r = 0; r < m; ++r) {
      if (r == col) continue;
      const double f = B[r * m + col] / B[col * m + col];
      if (f == 0.0) continue;
      for (int c = col; c < m; ++c) B[r * m + c] -= f * B[col * m + c];
      rhs[r] -= f * rhs[col];
    }
  }
  y->assign(m, 0.0);
  for (int i = 0; i < m; ++i) (*y)[i] = rhs[i] / B[i * m + i];
  return true;
}

/// Brute-force LP optimum over all slack-form bases: columns are the n
/// structural variables plus one slack per row (coefficient -1, bounds =
/// row bounds), equations A_full v = 0. For every m-subset of columns
/// chosen basic and every lower/upper assignment of the nonbasic
/// columns, solve for the basic values and keep the best feasible point.
/// Exponential — only usable for tiny models.
bool BruteForceOptimum(const Model& model, double* best_obj) {
  const int n = model.num_variables();
  const int m = model.num_rows();
  const int total = n + m;

  // Dense column matrix and bounds of the slack form.
  std::vector<double> cols(static_cast<size_t>(total) * m, 0.0);
  std::vector<double> lb(total), ub(total), obj(total, 0.0);
  for (int v = 0; v < n; ++v) {
    lb[v] = model.variable_lb(v);
    ub[v] = model.variable_ub(v);
    obj[v] = model.objective(v);
  }
  for (int r = 0; r < m; ++r) {
    for (const auto& [v, coef] : model.row_terms(r)) {
      cols[static_cast<size_t>(v) * m + r] += coef;
    }
    cols[static_cast<size_t>(n + r) * m + r] = -1.0;
    lb[n + r] = model.row_lb(r);
    ub[n + r] = model.row_ub(r);
  }

  const double sign = model.sense() == Sense::kMaximize ? 1.0 : -1.0;
  bool found = false;
  double best = -kInf;

  // Enumerate basic column subsets via bitmask.
  for (uint32_t mask = 0; mask < (1u << total); ++mask) {
    if (__builtin_popcount(mask) != m) continue;
    std::vector<int> basic, nonbasic;
    for (int c = 0; c < total; ++c) {
      if (mask & (1u << c)) {
        basic.push_back(c);
      } else {
        nonbasic.push_back(c);
      }
    }
    // Every nonbasic at lower or upper bound: 2^(total-m) assignments,
    // but skip sides at infinity.
    const int k = total - m;
    for (uint32_t side = 0; side < (1u << k); ++side) {
      std::vector<double> x(total, 0.0);
      bool ok = true;
      for (int j = 0; j < k && ok; ++j) {
        const int c = nonbasic[j];
        const double v = (side & (1u << j)) ? ub[c] : lb[c];
        if (!std::isfinite(v)) {
          ok = false;
        } else {
          x[c] = v;
        }
      }
      if (!ok) continue;
      // Solve B x_B = -N x_N.
      std::vector<double> B(static_cast<size_t>(m) * m);
      for (int j = 0; j < m; ++j) {
        for (int r = 0; r < m; ++r) {
          B[static_cast<size_t>(r) * m + j] =
              cols[static_cast<size_t>(basic[j]) * m + r];
        }
      }
      std::vector<double> rhs(m, 0.0);
      for (int j = 0; j < k; ++j) {
        const int c = nonbasic[j];
        for (int r = 0; r < m; ++r) {
          rhs[r] -= cols[static_cast<size_t>(c) * m + r] * x[c];
        }
      }
      std::vector<double> xb;
      if (!DenseSolve(B, m, rhs, &xb)) continue;
      for (int j = 0; j < m && ok; ++j) {
        const int c = basic[j];
        if (xb[j] < lb[c] - 1e-7 || xb[j] > ub[c] + 1e-7) ok = false;
        x[c] = xb[j];
      }
      if (!ok) continue;
      double value = 0.0;
      for (int v = 0; v < n; ++v) value += obj[v] * x[v];
      if (sign * value > sign * best || !found) {
        best = value;
        found = true;
      }
    }
  }
  *best_obj = best;
  return found;
}

Model RandomSmallLp(uint64_t seed) {
  Rng rng(seed);
  Model m(rng.NextBool(0.5) ? Sense::kMaximize : Sense::kMinimize);
  const int n = 2 + static_cast<int>(rng.NextUint64() % 3);  // 2..4 vars
  const int rows = 1 + static_cast<int>(rng.NextUint64() % 3);
  for (int v = 0; v < n; ++v) {
    const double lo = rng.NextBool(0.3) ? -2.0 : 0.0;
    m.AddVariable(lo, lo + 1.0 + 4.0 * rng.NextDouble(),
                  std::round(10.0 * (rng.NextDouble() - 0.4)) / 2.0);
  }
  for (int r = 0; r < rows; ++r) {
    std::vector<std::pair<int, double>> terms;
    for (int v = 0; v < n; ++v) {
      if (rng.NextBool(0.7)) {
        terms.emplace_back(v, std::round(6.0 * (rng.NextDouble() - 0.4)));
      }
    }
    if (terms.empty()) terms.emplace_back(0, 1.0);
    const double b = std::round(8.0 * rng.NextDouble());
    if (rng.NextBool(0.5)) {
      m.AddRow(-kInf, b, std::move(terms));
    } else {
      m.AddRow(-b, b + 2.0, std::move(terms));
    }
  }
  return m;
}

class SimplexVsBruteForce : public ::testing::TestWithParam<int> {};

TEST_P(SimplexVsBruteForce, OptimaAgree) {
  const Model m = RandomSmallLp(0xb407e + GetParam());
  SimplexSolver solver;
  const SimplexResult result = solver.Solve(m);

  double brute = 0.0;
  const bool brute_found = BruteForceOptimum(m, &brute);

  if (result.status == SolveStatus::kOptimal) {
    ASSERT_TRUE(brute_found) << "simplex found an optimum brute force missed";
    // The optimum lies at a vertex, which the enumeration visits.
    EXPECT_NEAR(result.objective, brute, 1e-5) << "instance " << GetParam();
    EXPECT_TRUE(m.CheckFeasible(result.values, 1e-6).ok());
  } else if (result.status == SolveStatus::kInfeasible) {
    EXPECT_FALSE(brute_found) << "instance " << GetParam()
                              << ": brute force found a feasible vertex";
  }
  // kUnbounded: all variables here are boxed, but rows can make the
  // enumeration miss unbounded rays; nothing to cross-check.
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, SimplexVsBruteForce,
                         ::testing::Range(0, 60));

// Children of an optimal LP re-solved warm on the same engine — bounds
// tightened past the parent's point, a row appended that the parent
// violates — take the dual simplex from the parent's basis. Each must
// agree with the brute-force vertex enumeration, infeasible ones too.
TEST(DualSimplexVsBruteForce, WarmChildrenAgree) {
  int64_t dual_pivots = 0;
  int checked = 0, dual_infeasible = 0;
  for (int instance = 0; instance < 80; ++instance) {
    Model m = RandomSmallLp(0xd0a1 + instance);
    Rng rng(0x5eed + instance);
    SimplexSolver solver;
    const SimplexResult parent = solver.Solve(m);
    if (parent.status != SolveStatus::kOptimal) continue;
    const int n = m.num_variables();
    for (int child = 0; child < 3; ++child) {
      const int v = static_cast<int>(rng.NextUint64() % n);
      const double value = parent.values[v];
      if (rng.NextBool(0.5)) {
        m.SetVariableBounds(v, m.variable_lb(v),
                            std::max(m.variable_lb(v), value - 1.0));
      } else {
        m.SetVariableBounds(v, std::min(m.variable_ub(v), value + 1.0),
                            m.variable_ub(v));
      }
      if (child == 2) {
        std::vector<std::pair<int, double>> terms;
        double at_parent = 0.0;
        for (int u = 0; u < n; ++u) {
          terms.emplace_back(u, 1.0);
          at_parent += parent.values[u];
        }
        m.AddRow(-kInf, at_parent - 1.5, std::move(terms));
      }
      const SimplexResult warm = solver.Solve(m, &parent.basis_state);
      dual_pivots += warm.dual_pivots;
      double brute = 0.0;
      const bool brute_found = BruteForceOptimum(m, &brute);
      if (warm.status == SolveStatus::kOptimal) {
        ASSERT_TRUE(brute_found) << "instance " << instance << " child "
                                 << child;
        EXPECT_NEAR(warm.objective, brute, 1e-5)
            << "instance " << instance << " child " << child;
        EXPECT_TRUE(m.CheckFeasible(warm.values, 1e-6).ok());
        ++checked;
      } else {
        ASSERT_EQ(warm.status, SolveStatus::kInfeasible)
            << "instance " << instance << " child " << child;
        EXPECT_FALSE(brute_found) << "instance " << instance << " child "
                                  << child
                                  << ": brute force found a feasible vertex";
        if (warm.iterations == warm.dual_pivots) ++dual_infeasible;
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 100);
  EXPECT_GT(dual_pivots, 50) << "the dual path barely ran";
  EXPECT_GT(dual_infeasible, 10);
}

}  // namespace
}  // namespace lp
}  // namespace sqpr
