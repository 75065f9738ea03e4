#ifndef SQPR_LP_SIMPLEX_H_
#define SQPR_LP_SIMPLEX_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/deadline.h"
#include "lp/model.h"

namespace sqpr {
namespace lp {

enum class SolveStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
  kTimeLimit,
};

const char* SolveStatusName(SolveStatus status);

/// Column status in a simplex basis; the unit of warm-start exchange
/// between solves. Order: structural columns 0..n-1, then row slacks.
enum class BasisState : uint8_t {
  kBasic,
  kAtLower,
  kAtUpper,
  kFree,
};

struct SimplexOptions {
  /// Hard cap on total simplex iterations across both phases. Zero means
  /// "choose automatically from the problem size".
  int64_t max_iterations = 0;
  /// Wall-clock bound; checked every few iterations.
  Deadline deadline;
  /// Absolute primal feasibility / reduced-cost tolerance.
  double feasibility_tol = 1e-7;
  double optimality_tol = 1e-7;
  /// Rebuild the basis inverse from scratch every this many pivots.
  int refactor_interval = 100;
  /// Optional starting basis for Solve(model) (from a previous solve of
  /// a closely related model, e.g. the parent branch-and-bound node).
  /// Must describe the same columns; extra trailing rows (lazy cuts added
  /// since) are padded with basic slacks. A singular or mismatched warm
  /// basis falls back to the slack basis silently. The pointee must
  /// outlive Solve().
  const std::vector<BasisState>* warm_basis = nullptr;
};

struct SimplexResult {
  SolveStatus status = SolveStatus::kIterationLimit;
  /// Structural variable values (model.num_variables() entries). On
  /// kOptimal this is the optimal vertex; on iteration/time limit in
  /// phase 2 it is the last primal-feasible iterate.
  std::vector<double> values;
  /// Objective in the model's own sense.
  double objective = 0.0;
  /// Simplex iterations of both algorithms: every pivot and bound flip,
  /// dual pivots included, plus the primal loop's final pricing pass.
  int64_t iterations = 0;
  /// Pivots the dual simplex made (a subset of iterations).
  int64_t dual_pivots = 0;
  /// Final basis, reusable as SimplexOptions::warm_basis for subsequent
  /// related solves.
  std::vector<BasisState> basis_state;
  /// Fresh O(m^3) basis-inverse factorizations this solve performed: the
  /// starting basis when no kept factorization matched it, every
  /// refactor_interval pivots, the optimality polish, singular-basis
  /// recovery.
  int64_t refactorizations = 0;
  /// 1 when the starting basis reused a factorization the solver kept
  /// from an earlier solve (brought to it by a few column exchanges,
  /// re-ordered, and bordered with appended rows, in O(m^2) each)
  /// instead of refactorizing; 0 otherwise.
  int64_t factor_reuses = 0;
};

/// Bounded-variable revised simplex — a two-phase primal and a bounded
/// dual — over a basis inverse kept in dense storage, with periodic
/// refactorisation.
///
/// This is the LP engine underneath the branch-and-bound MILP solver that
/// stands in for CPLEX in the SQPR reproduction. Design points:
///  * rows are turned into equalities with bounded slack columns; a
///    composite (infeasibility-minimising) phase 1 removes out-of-bound
///    basic values, so any basis — including a warm one from a related
///    solve — is a legal start for the primal loop;
///  * Dantzig pricing with an automatic switch to Bland's rule after a
///    run of degenerate pivots (anti-cycling);
///  * bound flips are handled without basis changes;
///  * a starting basis that is dual feasible (phase-2 reduced costs
///    within optimality_tol) but primal infeasible — a parent's optimal
///    basis after a branching bound change, appended cut rows or a dive
///    fixing — is re-solved by the dual simplex first. The leaving row is
///    the largest primal infeasibility; the pivot row is read off the
///    kept inverse; a Harris two-pass ratio test with bound flipping for
///    boxed columns picks the entering column; reduced costs are updated
///    in place and recomputed only at entry and after a refactorization.
///    A dual ray ends the solve as kInfeasible. A tiny pivot, a pivot row
///    and column that disagree, lost dual feasibility or 2m + 50 dual
///    pivots hand over to the primal loop from the current basis, which
///    also confirms every dual optimum with one pricing pass. Root and
///    cold solves start from the slack basis, which is not dual feasible
///    for the SQPR models, and take the primal path;
///  * the basis inverse is maintained column-major via product-form
///    updates (one kernel for primal, dual and column-exchange pivots)
///    and rebuilt in place by Gauss-Jordan every refactor_interval
///    pivots;
///  * the per-pivot kernels are sparse-aware: pricing sums over the
///    nonzero basic costs only, the ratio test and the update visit only
///    the nonzeros of the entering column B^-1 a_q, and refactorization
///    eliminates over the nonzero columns of each pivot row. Skipping an
///    exact zero only drops the addition of a signed zero, and every
///    nonzero sees the same floating-point operations in the same order
///    as a dense loop, so pivots, bases and values are exactly those of
///    the dense kernels.
///
/// One solver is one persistent engine: it keeps its column storage, its
/// basis with the inverse, and its work buffers between Solve() calls.
/// Consecutive solves must pass the same Model object, changed only in
/// variable/row bounds, objective coefficients and appended rows — the
/// branch-and-bound contract (node bounds, cut and lazy rows). A solve
/// whose starting basis has the same basic set as the kept inverse
/// reuses it, and one that differs from it in a few columns (a sibling
/// started from the parent's basis) reaches it by product-form column
/// exchanges; appended rows (whose slacks start basic) border it as
/// [[B^-1, 0], [R B^-1, -I]], and its positions are re-ordered to what a
/// fresh factorization would use, so pricing and ratio-test ties break
/// as on a cold start. Any other starting basis is refactorized. A
/// different Model object or column count resets the engine, so a solver
/// used once is exactly a one-shot solve.
///
/// Chain solves by passing the previous SimplexResult::basis_state as the
/// next starting basis — branch-and-bound node re-solves then take a
/// handful of dual pivots and no O(m^3) refactorization.
class SimplexSolver {
 public:
  explicit SimplexSolver(SimplexOptions options = {});
  ~SimplexSolver();

  /// Solves the LP from SimplexOptions::warm_basis. The model is
  /// read-only.
  SimplexResult Solve(const Model& model);
  /// Solves the LP from `warm_basis` (nullptr: the slack basis), which
  /// only needs to live for the call.
  SimplexResult Solve(const Model& model,
                      const std::vector<BasisState>* warm_basis);

 private:
  class Engine;
  std::unique_ptr<Engine> engine_;
};

}  // namespace lp
}  // namespace sqpr

#endif  // SQPR_LP_SIMPLEX_H_
