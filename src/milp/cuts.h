#ifndef SQPR_MILP_CUTS_H_
#define SQPR_MILP_CUTS_H_

#include <vector>

#include "lp/model.h"
#include "lp/simplex.h"

namespace sqpr {
namespace milp {

/// Root-node cutting-plane configuration (cut-and-branch).
struct CutOptions {
  bool enable = true;
  /// Separation rounds at the root: separate, re-solve, repeat while
  /// violated cuts are found.
  int max_rounds = 4;
  /// Cap per family per round; prefer the most violated.
  int max_cuts_per_round = 25;
  /// Minimum violation for a cut to be worth adding.
  double min_violation = 1e-4;
  /// Reject cuts whose |max coef| / |min coef| exceeds this (numerical
  /// hygiene; wildly scaled cuts destabilise the basis).
  double max_dynamism = 1e7;
  /// Skip Gomory separation above this row count — the dense basis LU
  /// would dominate solve time.
  int gomory_max_rows = 2000;
  bool gomory = true;
  bool knapsack_cover = true;
};

/// Generates globally valid cutting planes at the root relaxation.
///
/// Two families, chosen for the structure of SQPR models:
///
///  * **Knapsack cover cuts.** Every resource constraint (III.6a-d) is a
///    0/1 knapsack over flow/operator indicators; when the LP spreads
///    fractional mass over a set whose total demand exceeds the budget,
///    the (extended) cover inequality sum_{j in C} x_j <= |C|-1 cuts it.
///  * **Gomory mixed-integer cuts** reconstructed from the optimal
///    simplex basis: for each basic integer variable with fractional
///    value, the corresponding tableau row yields a GMI inequality. The
///    tableau is rebuilt from the returned basis via one dense LU
///    factorisation per separation round (bounded by gomory_max_rows).
///
/// Both families are valid for every integer-feasible point, so rows can
/// stay in the relaxation for the whole branch-and-bound search.
class CutGenerator {
 public:
  /// `integer` marks the integral columns of the model being solved (the
  /// reduced model when presolve ran). The mask is copied.
  CutGenerator(std::vector<bool> integer, CutOptions options);

  /// Appends violated cuts to `work` given the optimal relaxation result
  /// `rel` of `work`. Returns the number of rows added.
  int Separate(const lp::SimplexResult& rel, lp::Model* work);

  int total_gomory() const { return total_gomory_; }
  int total_cover() const { return total_cover_; }

 private:
  int SeparateCovers(const std::vector<double>& x, lp::Model* work);
  int SeparateGomory(const lp::SimplexResult& rel, lp::Model* work);

  std::vector<bool> integer_;
  CutOptions options_;
  int total_gomory_ = 0;
  int total_cover_ = 0;
  /// Rows already used to spawn a cover cut (avoid duplicates across
  /// rounds; keyed by row index).
  std::vector<bool> cover_used_;
};

}  // namespace milp
}  // namespace sqpr

#endif  // SQPR_MILP_CUTS_H_
