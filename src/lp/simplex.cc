#include "lp/simplex.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/logging.h"
#include "obs/trace.h"

namespace sqpr {
namespace lp {
namespace {

constexpr double kPivotTol = 1e-9;
// A kept inverse is brought to a start basis by product-form column
// exchanges only when they differ in at most this many columns, each
// pivoting on at least kExchangeTol; otherwise it is refactorized.
constexpr int kMaxExchanges = 12;
constexpr double kExchangeTol = 1e-6;

/// Internal standard-form workspace:
///   columns 0..n-1    structural variables
///   columns n..n+m-1  row slacks (coefficient -1 in their row)
/// with every equation  A_full * v = 0. There are no artificial columns:
/// primal infeasibility is carried by out-of-bounds *basic* variables and
/// removed by a composite (infeasibility-minimising) phase 1, which is
/// what makes warm-starting from a related basis possible — the key to
/// cheap branch-and-bound node re-solves.
struct Tableau {
  int m = 0;         // rows
  int n_struct = 0;  // structural columns
  int n_total = 0;   // structural + slack columns

  // CSC storage of all columns.
  std::vector<int> col_start;
  std::vector<int> entry_row;
  std::vector<double> entry_val;

  std::vector<double> lb, ub;      // per column
  std::vector<double> cost;        // phase-2 cost, minimisation sense
  std::vector<BasisState> state;   // per column
  std::vector<double> value;       // per column current value
  std::vector<int> basis;          // basis[i] = column basic in row i

  std::vector<double> binv;  // m*m column-major: binv[c*m + i]

  int ColEntries(int c, const int** rows, const double** vals) const {
    *rows = entry_row.data() + col_start[c];
    *vals = entry_val.data() + col_start[c];
    return col_start[c + 1] - col_start[c];
  }
};

}  // namespace

class SimplexSolver::Engine {
 public:
  explicit Engine(const SimplexOptions& options) : options_(options) {}

  const SimplexOptions& options() const { return options_; }
  SimplexResult Solve(const Model& model,
                      const std::vector<BasisState>* warm_basis);

 private:
  SimplexResult Run();
  // Takes in the model: a full rebuild on the first solve or a structure
  // change, a column-storage rebuild on appended rows, and bounds and
  // costs re-read on every solve.
  void SyncModel(const Model& model);
  void BuildColumns();
  // Installs the warm basis if provided and dimensionally sound,
  // otherwise the all-slack basis; reuses the kept inverse when it has
  // the same basic set, refactorizes otherwise.
  void InstallBasis(const std::vector<BasisState>* warm);
  void SetSlackStates();
  void InstallSlackBasis();
  // Reuses the kept inverse for the basic set target_ when it covers
  // the same set minus trailing new-row slacks, after ExchangeColumns:
  // borders it with the appended rows and permutes its positions into
  // target_ order, in place. Returns false when the sets differ.
  bool ReuseFactor();
  // Brings the basic set of the kept inverse (old_m rows) to target_'s
  // over the old rows by product-form column exchanges, when they
  // differ in at most kMaxExchanges columns — e.g. a sibling node
  // started from the parent basis after its twin moved the kept one.
  // Returns false, leaving it to a refactorization, when they differ
  // more or a pivot is too small.
  bool ExchangeColumns(int old_m);
  // Product-form update of the dim x dim inverse for the column w_
  // (nonzero positions w_nz_) replacing the one at position pos.
  void UpdateInverse(int pos, int dim);
  // Rebuilds the dense basis inverse. Returns false when singular.
  bool Refactorize();
  void RecomputeBasicValues();
  double NonbasicValue(int c) const;
  // Largest primal infeasibility of a basic variable.
  double Infeasibility() const;
  // One primal simplex iteration. phase1 selects the composite
  // infeasibility objective. Returns: 0 = no improving column,
  // 1 = pivoted, 2 = unbounded direction, 3 = singular refactorisation.
  int Iterate(bool phase1, bool bland);
  // One dual simplex iteration from a dual-feasible basis whose reduced
  // costs d_ are current. Returns: 0 = primal feasible (optimal),
  // 1 = pivoted, 2 = dual unbounded (the LP is infeasible),
  // 3 = singular refactorisation, 4 = hand over to the primal loop.
  int DualIterate();
  // Runs DualIterate from the starting basis when it is primal
  // infeasible and dual feasible, at most a bounded number of pivots.
  // Returns the last DualIterate code, or -1 when the dual phase did
  // not run or stopped at a limit.
  int DualPhase();
  // Swaps `enter` (value enter_val) into basis position leave_pos; the
  // leaving column rests on the bound leave_to_upper selects. Updates
  // the inverse in product form with w_ = B^-1 a_enter and refactorizes
  // every refactor_interval pivots. Returns 1, or 3 when singular.
  int Pivot(int enter, double enter_val, int leave_pos, int leave_to_upper);
  // Falls back to the always-regular slack basis after numerical
  // trouble. Returns false once the solve has reset too often.
  bool ResetToSlackBasis(int* resets);
  // w_ = B^-1 * column col for the dim x dim inverse over the first dim
  // rows (the kept inverse before appended rows border it, or the live
  // one); w_nz_ = its nonzero positions, ascending.
  void Ftran(int col, int dim);
  // cb_: the composite phase-1 gradient (phase1) or the phase-2 costs of
  // the basic columns, by basis position; cb_nz_ its nonzero positions.
  void BasicCosts(bool phase1);
  // y_ = cb_^T B^-1: the duals of the basic cost vector cb_ (indexed by
  // basis position), summed over its nonzero positions cb_nz_ only.
  void ComputeDuals();
  // c - y^T a of column c against y_ (phase 1 prices zero column costs).
  double ReducedCost(int c, bool phase1) const;
  // d_ = phase-2 reduced costs of every nonbasic column, from scratch.
  void ComputeReducedCosts();
  // d_[c] of nonbasic column c, signed so that dual feasibility reads
  // >= 0: as is at the lower bound, negated at the upper, -|d| if free.
  double SignedReducedCost(int c) const;

  SimplexResult Finish(SolveStatus status);

  SimplexOptions options_;
  const Model* model_ = nullptr;         // model of the current solve
  const Model* synced_model_ = nullptr;  // model the columns came from
  Tableau t_;
  // Rows the kept inverse t_.binv covers; -1 when it does not match
  // t_.basis (no solve yet, or a singular pivot left it stale).
  int factor_m_ = -1;
  int64_t iterations_ = 0;
  int64_t max_iterations_ = 0;
  int64_t refactorizations_ = 0;
  int64_t factor_reuses_ = 0;
  int64_t dual_pivots_ = 0;
  int pivots_since_refactor_ = 0;
  // Product-form updates this solve made on top of the inverse it
  // started from (or its last refactorization); keys the polish.
  int solve_updates_ = 0;
  int degenerate_run_ = 0;
  double feas_tol_ = 1e-7;
  double opt_tol_ = 1e-7;

  // Ratio-test breakpoint of one basic row the entering column moves.
  struct RowLimit {
    int pos;
    int to_upper;
    double g;      // rate of decrease of the basic value
    double limit;  // step length at which the row blocks
  };

  // Work buffers, sized on demand and kept across iterations and solves.
  // The *_nz_ lists hold the ascending nonzero positions of a vector:
  // the kernels skip its exact zeros, which only ever add or subtract a
  // signed zero, so every nonzero sees the operations of a dense loop.
  std::vector<int> target_;   // starting basis, ascending column order
  std::vector<int> col_pos_;  // per column: position in the kept inverse
  std::vector<int> src_pos_;  // per target position: kept position
  std::vector<double> border_, column_;
  std::vector<int> perm_;
  std::vector<double> q_, cb_, y_, w_;
  std::vector<int> cb_nz_, w_nz_, nz_;
  std::vector<RowLimit> limits_;

  // Dual ratio-test candidate: a nonbasic column whose move pushes the
  // leaving basic variable towards its violated bound.
  struct DualCandidate {
    int col;
    double abs_alpha;  // |pivot-row entry|
    double ratio;      // dual step at which its reduced cost reaches 0
  };
  // Dual phase state: reduced costs (per column, valid for nonbasic
  // ones), row r of B^-1, the pivot row over the columns alpha_cols_,
  // the ratio-test candidates and the columns a bound flip moves.
  std::vector<double> d_, rho_, alpha_;
  std::vector<int> alpha_cols_, flips_;
  // Column exchanges: per-column membership marks, entering columns.
  std::vector<uint8_t> mark_;
  std::vector<int> entering_;
  std::vector<DualCandidate> cands_;
};

void SimplexSolver::Engine::SyncModel(const Model& model) {
  const int n = model.num_variables();
  const int m = model.num_rows();
  const bool same = synced_model_ == &model && n == t_.n_struct && m >= t_.m;
  if (!same) factor_m_ = -1;
  synced_model_ = &model;
  if (!same || m != t_.m) {
    t_.m = m;
    t_.n_struct = n;
    t_.n_total = n + m;
    BuildColumns();
    t_.state.resize(n + m, BasisState::kAtLower);
    t_.value.resize(n + m, 0.0);
    col_pos_.assign(n + m, -1);
  }

  t_.lb.resize(n + m);
  t_.ub.resize(n + m);
  for (int c = 0; c < n; ++c) {
    t_.lb[c] = model.variable_lb(c);
    t_.ub[c] = model.variable_ub(c);
  }
  for (int i = 0; i < m; ++i) {
    t_.lb[n + i] = model.row_lb(i);
    t_.ub[n + i] = model.row_ub(i);
  }
  t_.cost.assign(n + m, 0.0);
  const double sense = model.sense() == Sense::kMaximize ? -1.0 : 1.0;
  for (int c = 0; c < n; ++c) t_.cost[c] = sense * model.objective(c);
}

void SimplexSolver::Engine::BuildColumns() {
  const Model& model = *model_;
  const int n = t_.n_struct;
  const int m = t_.m;
  std::vector<int> counts(n, 0);
  for (int r = 0; r < m; ++r) {
    for (const auto& [var, coef] : model.row_terms(r)) {
      (void)coef;
      ++counts[var];
    }
  }
  t_.col_start.assign(n + m + 1, 0);
  for (int c = 0; c < n; ++c) {
    t_.col_start[c + 1] = t_.col_start[c] + counts[c];
  }
  for (int c = n; c < n + m; ++c) {
    t_.col_start[c + 1] = t_.col_start[c] + 1;  // slack: one entry
  }
  const int nnz = t_.col_start[n + m];
  t_.entry_row.resize(nnz);
  t_.entry_val.resize(nnz);
  std::vector<int> fill(n, 0);
  for (int r = 0; r < m; ++r) {
    for (const auto& [var, coef] : model.row_terms(r)) {
      const int pos = t_.col_start[var] + fill[var]++;
      t_.entry_row[pos] = r;
      t_.entry_val[pos] = coef;
    }
  }
  for (int i = 0; i < m; ++i) {
    const int pos = t_.col_start[n + i];
    t_.entry_row[pos] = i;
    t_.entry_val[pos] = -1.0;  // row activity - slack = 0
  }
}

double SimplexSolver::Engine::NonbasicValue(int c) const {
  switch (t_.state[c]) {
    case BasisState::kAtLower:
      return t_.lb[c];
    case BasisState::kAtUpper:
      return t_.ub[c];
    case BasisState::kFree:
      return 0.0;
    case BasisState::kBasic:
      break;
  }
  SQPR_LOG_FATAL << "NonbasicValue on basic column";
  return 0.0;
}

void SimplexSolver::Engine::SetSlackStates() {
  const int n = t_.n_struct;
  for (int c = 0; c < n; ++c) {
    if (std::isfinite(t_.lb[c]) && std::isfinite(t_.ub[c])) {
      t_.state[c] = (std::abs(t_.lb[c]) <= std::abs(t_.ub[c]))
                        ? BasisState::kAtLower
                        : BasisState::kAtUpper;
    } else if (std::isfinite(t_.lb[c])) {
      t_.state[c] = BasisState::kAtLower;
    } else if (std::isfinite(t_.ub[c])) {
      t_.state[c] = BasisState::kAtUpper;
    } else {
      t_.state[c] = BasisState::kFree;
    }
  }
  for (int i = 0; i < t_.m; ++i) t_.state[n + i] = BasisState::kBasic;
}

void SimplexSolver::Engine::InstallSlackBasis() {
  SetSlackStates();
  target_.resize(t_.m);
  for (int i = 0; i < t_.m; ++i) target_[i] = t_.n_struct + i;
  t_.basis = target_;
}

void SimplexSolver::Engine::InstallBasis(
    const std::vector<BasisState>* warm) {
  const int n = t_.n_struct;
  const int m = t_.m;
  bool warm_ok = false;
  if (warm != nullptr) {
    // A warm basis may come from the same model with fewer rows (lazy
    // cuts appended since): pad by making the new slacks basic. Any
    // other size mismatch is rejected.
    if (warm->size() >= static_cast<size_t>(n) &&
        warm->size() <= static_cast<size_t>(n + m)) {
      const int given = static_cast<int>(warm->size());
      int basic_count = n + m - given;
      for (BasisState s : *warm) basic_count += s == BasisState::kBasic;
      if (basic_count == m) {
        for (int c = 0; c < n + m; ++c) {
          t_.state[c] = c < given ? (*warm)[c] : BasisState::kBasic;
          if (t_.state[c] == BasisState::kBasic) continue;
          // Nonbasic columns must rest on a finite bound; repair states
          // that no longer match the (possibly branched) bounds.
          if (t_.state[c] == BasisState::kAtLower &&
              !std::isfinite(t_.lb[c])) {
            t_.state[c] = std::isfinite(t_.ub[c]) ? BasisState::kAtUpper
                                                  : BasisState::kFree;
          } else if (t_.state[c] == BasisState::kAtUpper &&
                     !std::isfinite(t_.ub[c])) {
            t_.state[c] = std::isfinite(t_.lb[c]) ? BasisState::kAtLower
                                                  : BasisState::kFree;
          }
        }
        warm_ok = true;
      }
    }
  }
  if (!warm_ok) SetSlackStates();
  // The order a fresh factorization uses: basic columns ascending.
  target_.clear();
  for (int c = 0; c < n + m; ++c) {
    if (t_.state[c] == BasisState::kBasic) target_.push_back(c);
  }

  if (ReuseFactor()) {
    ++factor_reuses_;
  } else {
    t_.basis = target_;
    if (!Refactorize()) {
      // Singular warm basis: fall back to the always-regular slack basis.
      InstallSlackBasis();
      const bool ok = Refactorize();
      SQPR_CHECK(ok) << "slack basis cannot be singular";
    }
  }
  RecomputeBasicValues();
}

bool SimplexSolver::Engine::ReuseFactor() {
  const int n = t_.n_struct;
  const int m = t_.m;
  const int old_m = factor_m_;
  if (old_m < 0 || old_m > m) return false;
  if (!ExchangeColumns(old_m)) return false;
  // Same basic set: every target column of an old row must be basic in
  // the kept inverse; the remaining target columns are new-row slacks.
  for (int i = 0; i < old_m; ++i) col_pos_[t_.basis[i]] = i;
  int matched = 0;
  bool same_set = true;
  src_pos_.resize(m);
  for (int p = 0; p < m; ++p) {
    const int col = target_[p];
    if (col >= n + old_m) {
      src_pos_[p] = -1 - (col - n - old_m);  // new-row slack j: -1 - j
      continue;
    }
    if (col_pos_[col] < 0) {
      same_set = false;
      break;
    }
    src_pos_[p] = col_pos_[col];
    ++matched;
  }
  same_set = same_set && matched == old_m;
  if (same_set && old_m < m) {
    // Border rows R B^-1 of the appended rows: border_[j*old_m + c].
    const int k = m - old_m;
    border_.assign(static_cast<size_t>(k) * old_m, 0.0);
    for (int j = 0; j < k; ++j) {
      double* out = border_.data() + static_cast<size_t>(j) * old_m;
      for (const auto& [var, coef] : model_->row_terms(old_m + j)) {
        const int i = col_pos_[var];
        if (i < 0) continue;
        for (int c = 0; c < old_m; ++c) {
          out[c] += coef * t_.binv[static_cast<size_t>(c) * old_m + i];
        }
      }
    }
  }
  for (int i = 0; i < old_m; ++i) col_pos_[t_.basis[i]] = -1;
  if (!same_set) return false;

  // Rewrite in place, last column first: column c moves from offset
  // c*old_m to c*m >= c*old_m, never over a column still to be read.
  // Position p takes the kept position's entry, or the border row of a
  // new-row slack; the appended columns are -1 on their own slack.
  t_.binv.resize(static_cast<size_t>(m) * m);
  column_.resize(old_m);
  for (int c = old_m - 1; c >= 0; --c) {
    const double* src = t_.binv.data() + static_cast<size_t>(c) * old_m;
    std::copy(src, src + old_m, column_.begin());
    double* out = t_.binv.data() + static_cast<size_t>(c) * m;
    for (int p = 0; p < m; ++p) {
      const int sp = src_pos_[p];
      out[p] = sp >= 0 ? column_[sp]
                       : border_[static_cast<size_t>(-1 - sp) * old_m + c];
    }
  }
  for (int c = old_m; c < m; ++c) {
    double* out = t_.binv.data() + static_cast<size_t>(c) * m;
    for (int p = 0; p < m; ++p) out[p] = target_[p] == n + c ? -1.0 : 0.0;
  }
  t_.basis = target_;
  factor_m_ = m;
  return true;
}

bool SimplexSolver::Engine::ExchangeColumns(int old_m) {
  const int old_total = t_.n_struct + old_m;
  // mark_: 1 = in the target's old-row part, 2 = in the kept basis.
  mark_.assign(old_total, 0);
  int target_old = 0;
  for (int col : target_) {
    if (col >= old_total) continue;
    mark_[col] = 1;
    ++target_old;
  }
  if (target_old != old_m) return false;
  for (int i = 0; i < old_m; ++i) mark_[t_.basis[i]] |= 2;
  entering_.clear();
  for (int col : target_) {
    if (col < old_total && mark_[col] == 1) entering_.push_back(col);
  }
  if (entering_.empty()) return true;
  if (static_cast<int>(entering_.size()) > kMaxExchanges ||
      pivots_since_refactor_ + static_cast<int>(entering_.size()) >=
          options_.refactor_interval) {
    return false;
  }
  factor_m_ = -1;  // stale until every exchange went through
  for (int col : entering_) {
    // The leaving position is the dropped column with the largest |w|.
    Ftran(col, old_m);
    int pos = -1;
    double best = kExchangeTol;
    for (int i : w_nz_) {
      if (mark_[t_.basis[i]] == 2 && std::abs(w_[i]) > best) {
        best = std::abs(w_[i]);
        pos = i;
      }
    }
    if (pos < 0) return false;
    UpdateInverse(pos, old_m);
    mark_[t_.basis[pos]] = 0;
    t_.basis[pos] = col;
  }
  pivots_since_refactor_ += static_cast<int>(entering_.size());
  solve_updates_ += static_cast<int>(entering_.size());
  factor_m_ = old_m;
  return true;
}

void SimplexSolver::Engine::UpdateInverse(int pos, int dim) {
  // Besides the pivot row, only the rows where w is nonzero change.
  const double piv = w_[pos];
  w_nz_.erase(std::find(w_nz_.begin(), w_nz_.end(), pos));
  for (int c = 0; c < dim; ++c) {
    double* bcol = t_.binv.data() + static_cast<size_t>(c) * dim;
    const double pr = bcol[pos] / piv;
    if (pr == 0.0) continue;
    for (int i : w_nz_) bcol[i] -= w_[i] * pr;
    bcol[pos] = pr;
  }
}

bool SimplexSolver::Engine::Refactorize() {
  const int m = t_.m;
  ++refactorizations_;
  factor_m_ = -1;
  // Gauss-Jordan with partial pivoting, in place: binv starts as the
  // basis matrix and ends as its inverse. Step k swaps its pivot row
  // into row k; the swaps are undone as column swaps at the end.
  std::vector<double>& a = t_.binv;
  a.assign(static_cast<size_t>(m) * m, 0.0);
  for (int i = 0; i < m; ++i) {
    const int* rows;
    const double* vals;
    const int cnt = t_.ColEntries(t_.basis[i], &rows, &vals);
    for (int k = 0; k < cnt; ++k) {
      a[static_cast<size_t>(i) * m + rows[k]] = vals[k];
    }
  }
  perm_.resize(m);
  for (int k = 0; k < m; ++k) {
    double* pivot_col = a.data() + static_cast<size_t>(k) * m;
    int piv = -1;
    double best = kPivotTol;
    for (int r = k; r < m; ++r) {
      if (std::abs(pivot_col[r]) > best) {
        best = std::abs(pivot_col[r]);
        piv = r;
      }
    }
    if (piv < 0) return false;  // numerically singular basis
    perm_[k] = piv;
    if (piv != k) {
      for (int c = 0; c < m; ++c) {
        std::swap(a[static_cast<size_t>(c) * m + piv],
                  a[static_cast<size_t>(c) * m + k]);
      }
    }
    const double p = pivot_col[k];
    pivot_col[k] = 1.0;
    // Scale row k and gather its nonzero columns: the only ones the
    // elimination below changes.
    nz_.clear();
    for (int c = 0; c < m; ++c) {
      double& x = a[static_cast<size_t>(c) * m + k];
      if (x == 0.0) continue;
      x /= p;
      nz_.push_back(c);
    }
    for (int r = 0; r < m; ++r) {
      if (r == k) continue;
      const double f = pivot_col[r];
      if (f == 0.0) continue;
      pivot_col[r] = 0.0;
      for (int c : nz_) {
        a[static_cast<size_t>(c) * m + r] -=
            f * a[static_cast<size_t>(c) * m + k];
      }
    }
  }
  for (int k = m - 1; k >= 0; --k) {
    if (perm_[k] == k) continue;
    double* col = a.data() + static_cast<size_t>(k) * m;
    std::swap_ranges(col, col + m,
                     a.data() + static_cast<size_t>(perm_[k]) * m);
  }
  pivots_since_refactor_ = 0;
  solve_updates_ = 0;
  factor_m_ = m;
  return true;
}

void SimplexSolver::Engine::RecomputeBasicValues() {
  const int m = t_.m;
  q_.assign(m, 0.0);
  for (int c = 0; c < t_.n_total; ++c) {
    if (t_.state[c] == BasisState::kBasic) continue;
    const double v = NonbasicValue(c);
    t_.value[c] = v;
    if (v == 0.0) continue;
    const int* rows;
    const double* vals;
    const int cnt = t_.ColEntries(c, &rows, &vals);
    for (int k = 0; k < cnt; ++k) q_[rows[k]] += vals[k] * v;
  }
  nz_.clear();
  for (int c = 0; c < m; ++c) {
    if (q_[c] != 0.0) nz_.push_back(c);
  }
  for (int i = 0; i < m; ++i) {
    double acc = 0.0;
    for (int c : nz_) acc += t_.binv[static_cast<size_t>(c) * m + i] * q_[c];
    t_.value[t_.basis[i]] = -acc;
  }
}

double SimplexSolver::Engine::Infeasibility() const {
  // The largest violation, not their sum: phase 1 charges only variables
  // beyond feas_tol_, so a sum of sub-tolerance violations above
  // feas_tol_ would send a feasible basis to a phase 1 with nothing to
  // price and report it infeasible.
  double worst = 0.0;
  for (int i = 0; i < t_.m; ++i) {
    const int c = t_.basis[i];
    worst = std::max(worst, t_.value[c] - t_.ub[c]);
    worst = std::max(worst, t_.lb[c] - t_.value[c]);
  }
  return worst;
}

void SimplexSolver::Engine::Ftran(int col, int dim) {
  w_.assign(dim, 0.0);
  const int* rows;
  const double* vals;
  const int cnt = t_.ColEntries(col, &rows, &vals);
  for (int k = 0; k < cnt; ++k) {
    if (rows[k] >= dim) continue;
    const double a = vals[k];
    const double* bcol = t_.binv.data() + static_cast<size_t>(rows[k]) * dim;
    for (int i = 0; i < dim; ++i) w_[i] += a * bcol[i];
  }
  w_nz_.clear();
  for (int i = 0; i < dim; ++i) {
    if (w_[i] != 0.0) w_nz_.push_back(i);
  }
}

void SimplexSolver::Engine::ComputeDuals() {
  const int m = t_.m;
  y_.resize(m);
  for (int c = 0; c < m; ++c) {
    const double* bcol = t_.binv.data() + static_cast<size_t>(c) * m;
    double acc = 0.0;
    for (int i : cb_nz_) acc += cb_[i] * bcol[i];
    y_[c] = acc;
  }
}

void SimplexSolver::Engine::BasicCosts(bool phase1) {
  // The composite phase-1 gradient is +1 above ub, -1 below lb.
  const int m = t_.m;
  cb_.resize(m);
  cb_nz_.clear();
  for (int i = 0; i < m; ++i) {
    const int c = t_.basis[i];
    double cost = t_.cost[c];
    if (phase1) {
      if (t_.value[c] > t_.ub[c] + feas_tol_) {
        cost = 1.0;
      } else if (t_.value[c] < t_.lb[c] - feas_tol_) {
        cost = -1.0;
      } else {
        cost = 0.0;
      }
    }
    cb_[i] = cost;
    if (cost != 0.0) cb_nz_.push_back(i);
  }
}

double SimplexSolver::Engine::ReducedCost(int c, bool phase1) const {
  const int* rows;
  const double* vals;
  const int cnt = t_.ColEntries(c, &rows, &vals);
  double dot = 0.0;
  for (int k = 0; k < cnt; ++k) dot += y_[rows[k]] * vals[k];
  return (phase1 ? 0.0 : t_.cost[c]) - dot;
}

void SimplexSolver::Engine::ComputeReducedCosts() {
  BasicCosts(false);
  ComputeDuals();
  d_.assign(t_.n_total, 0.0);
  for (int c = 0; c < t_.n_total; ++c) {
    if (t_.state[c] != BasisState::kBasic) d_[c] = ReducedCost(c, false);
  }
}

double SimplexSolver::Engine::SignedReducedCost(int c) const {
  switch (t_.state[c]) {
    case BasisState::kAtLower:
      return d_[c];
    case BasisState::kAtUpper:
      return -d_[c];
    default:
      return -std::abs(d_[c]);
  }
}

int SimplexSolver::Engine::Iterate(bool phase1, bool bland) {
  BasicCosts(phase1);
  ComputeDuals();

  // Pricing: each nonbasic column's reduced cost is formed as the scan
  // reaches it (phase 1 prices against all-zero column costs); fixed
  // columns never enter and are not priced.
  int enter = -1;
  int enter_dir = 0;
  double best_score = opt_tol_;
  for (int c = 0; c < t_.n_total; ++c) {
    const BasisState st = t_.state[c];
    if (st == BasisState::kBasic) continue;
    if (t_.lb[c] == t_.ub[c]) continue;
    const double d = ReducedCost(c, phase1);
    int dir = 0;
    if (st == BasisState::kAtLower && d < -opt_tol_) {
      dir = +1;
    } else if (st == BasisState::kAtUpper && d > opt_tol_) {
      dir = -1;
    } else if (st == BasisState::kFree && std::abs(d) > opt_tol_) {
      dir = d < 0 ? +1 : -1;
    }
    if (dir == 0) continue;
    if (bland) {
      enter = c;
      enter_dir = dir;
      break;
    }
    if (std::abs(d) > best_score) {
      best_score = std::abs(d);
      enter = c;
      enter_dir = dir;
    }
  }
  if (enter < 0) return 0;  // no improving column for this phase

  Ftran(enter, t_.m);
  const std::vector<double>& w = w_;

  // Two-pass (Harris-style) ratio test. Out-of-bounds basic variables
  // (phase 1) contribute a breakpoint where they *reach* their violated
  // bound; feasible ones where they would leave their range. The second
  // pass picks the largest |pivot| among near-tied limits, which keeps
  // the basis well conditioned through degenerate pivot chains. Rows
  // where w is zero never block, so only w's nonzeros are evaluated,
  // once each.
  const double range = t_.ub[enter] - t_.lb[enter];
  auto row_limit = [&](int i, double* g_out, int* to_upper) -> double {
    const double g = enter_dir * w[i];  // rate of decrease of basic value
    const int bcol = t_.basis[i];
    *g_out = g;
    const double v = t_.value[bcol];
    if (g > kPivotTol) {  // basic value decreasing
      if (v < t_.lb[bcol] - feas_tol_) {
        // Already below its lower bound and moving further away: no
        // breakpoint — the phase-1 pricing charged for this movement.
        return kInf;
      }
      double target;
      if (v > t_.ub[bcol] + feas_tol_) {
        target = t_.ub[bcol];  // infeasible above: stop once feasible
        *to_upper = 1;
      } else {
        if (!std::isfinite(t_.lb[bcol])) return kInf;
        target = t_.lb[bcol];
        *to_upper = 0;
      }
      return std::max(0.0, v - target) / g;
    }
    if (g < -kPivotTol) {  // basic value increasing
      if (v > t_.ub[bcol] + feas_tol_) {
        return kInf;  // already above its upper bound, moving away
      }
      double target;
      if (v < t_.lb[bcol] - feas_tol_) {
        target = t_.lb[bcol];  // infeasible below: stop once feasible
        *to_upper = 0;
      } else {
        if (!std::isfinite(t_.ub[bcol])) return kInf;
        target = t_.ub[bcol];
        *to_upper = 1;
      }
      return std::max(0.0, target - v) / (-g);
    }
    return kInf;
  };

  double min_limit = std::isfinite(range) ? range : kInf;
  limits_.clear();
  for (int i : w_nz_) {
    RowLimit row{i, 0, 0.0, 0.0};
    row.limit = row_limit(i, &row.g, &row.to_upper);
    min_limit = std::min(min_limit, row.limit);
    limits_.push_back(row);
  }
  if (!std::isfinite(min_limit)) return 2;  // unbounded direction

  const double tie_tol = 1e-9 + 1e-7 * min_limit;
  int leave_pos = -1;
  int leave_to_upper = 0;
  double best_pivot = 0.0;
  double limit = min_limit;
  for (const RowLimit& row : limits_) {
    if (row.limit > min_limit + tie_tol) continue;
    if (std::abs(row.g) > best_pivot) {
      best_pivot = std::abs(row.g);
      leave_pos = row.pos;
      leave_to_upper = row.to_upper;
      limit = std::max(0.0, row.limit);
    }
  }
  const bool bound_flip =
      leave_pos < 0 ||
      (std::isfinite(range) && range <= min_limit + tie_tol &&
       range <= limit);
  if (bound_flip) limit = range;

  degenerate_run_ = (limit < 1e-10) ? degenerate_run_ + 1 : 0;

  const double alpha = limit;
  for (int i : w_nz_) t_.value[t_.basis[i]] -= enter_dir * alpha * w[i];
  const double enter_val = t_.value[enter] + enter_dir * alpha;

  if (bound_flip) {
    t_.state[enter] =
        enter_dir > 0 ? BasisState::kAtUpper : BasisState::kAtLower;
    t_.value[enter] = NonbasicValue(enter);
    return 1;
  }

  return Pivot(enter, enter_val, leave_pos, leave_to_upper);
}

int SimplexSolver::Engine::Pivot(int enter, double enter_val, int leave_pos,
                                 int leave_to_upper) {
  const int leave_col = t_.basis[leave_pos];
  t_.state[leave_col] =
      leave_to_upper ? BasisState::kAtUpper : BasisState::kAtLower;
  t_.value[leave_col] = NonbasicValue(leave_col);

  t_.basis[leave_pos] = enter;
  t_.state[enter] = BasisState::kBasic;
  t_.value[enter] = enter_val;

  if (std::abs(w_[leave_pos]) < kPivotTol / 10) {
    factor_m_ = -1;  // the basis moved on without its inverse
    return 3;
  }
  UpdateInverse(leave_pos, t_.m);

  ++solve_updates_;
  if (++pivots_since_refactor_ >= options_.refactor_interval) {
    if (Refactorize()) {
      RecomputeBasicValues();
    } else {
      return 3;
    }
  }
  return 1;
}

int SimplexSolver::Engine::DualIterate() {
  const int m = t_.m;

  // Leaving row: the basic variable furthest outside its bounds; the
  // first such position wins a tie. s = +1 when it must rise to its
  // lower bound, -1 when it must fall to its upper bound.
  int r = -1;
  int s = 0;
  double worst = feas_tol_;
  for (int i = 0; i < m; ++i) {
    const int c = t_.basis[i];
    const double v = t_.value[c];
    if (t_.lb[c] - v > worst) {
      worst = t_.lb[c] - v;
      r = i;
      s = +1;
    } else if (v - t_.ub[c] > worst) {
      worst = v - t_.ub[c];
      r = i;
      s = -1;
    }
  }
  if (r < 0) return 0;  // primal feasible: the basis is optimal
  const int leave_col = t_.basis[r];
  const double target = s > 0 ? t_.lb[leave_col] : t_.ub[leave_col];

  // Pivot row alpha_j = (B^-1 a_j)_r over the movable nonbasic columns,
  // read off row r of the kept inverse. Raising a column by one moves
  // the leaving variable by -alpha_j, so a candidate is a column whose
  // allowed direction dir satisfies s * dir * alpha_j < 0. Its ratio is
  // the dual step at which its reduced cost changes sign.
  rho_.resize(m);
  for (int c = 0; c < m; ++c) {
    rho_[c] = t_.binv[static_cast<size_t>(c) * m + r];
  }
  alpha_.resize(t_.n_total);
  alpha_cols_.clear();
  cands_.clear();
  // What columns too small to pivot on could still move the leaving
  // variable: a dual ray is only a proof when they cannot close the gap.
  double reach = 0.0;
  for (int c = 0; c < t_.n_total; ++c) {
    const BasisState st = t_.state[c];
    if (st == BasisState::kBasic) continue;
    if (t_.lb[c] == t_.ub[c]) continue;
    const double dd = SignedReducedCost(c);
    if (dd < -2.0 * opt_tol_) return 4;  // lost dual feasibility
    const int* rows;
    const double* vals;
    const int cnt = t_.ColEntries(c, &rows, &vals);
    double alpha = 0.0;
    for (int k = 0; k < cnt; ++k) alpha += rho_[rows[k]] * vals[k];
    if (alpha == 0.0) continue;
    alpha_[c] = alpha;
    alpha_cols_.push_back(c);
    const int dir = st == BasisState::kAtLower   ? +1
                    : st == BasisState::kAtUpper ? -1
                    : s * alpha < 0              ? +1
                                                 : -1;
    if (s * dir * alpha >= 0) continue;
    if (std::abs(alpha) <= kPivotTol) {
      reach += std::abs(alpha) * (t_.ub[c] - t_.lb[c]);
      continue;
    }
    cands_.push_back({c, std::abs(alpha), std::max(dd, 0.0) / std::abs(alpha)});
  }

  // Harris two-pass ratio test with bound flipping. Pass one bounds the
  // step by the tolerance-relaxed ratios; pass two takes the largest
  // |alpha| among the candidates within that bound. When every column
  // of that group is boxed and flipping them all to their other bounds
  // still leaves the leaving variable infeasible, they flip instead of
  // entering, and the test moves on to the next group.
  double slope = worst;  // remaining primal infeasibility of the row
  flips_.clear();
  int enter = -1;
  double enter_abs = 0.0;
  while (enter < 0) {
    if (cands_.empty()) {
      // No column can move the leaving variable far enough: the row is a
      // dual ray, unless sub-tolerance pivots might still close the gap.
      return reach >= slope - feas_tol_ ? 4 : 2;
    }
    double bound = kInf;
    for (const DualCandidate& cand : cands_) {
      bound = std::min(bound, cand.ratio + opt_tol_ / cand.abs_alpha);
    }
    double drop = 0.0;
    int pick = -1;
    for (const DualCandidate& cand : cands_) {
      if (cand.ratio > bound) continue;
      drop += cand.abs_alpha * (t_.ub[cand.col] - t_.lb[cand.col]);
      if (cand.abs_alpha > enter_abs) {
        enter_abs = cand.abs_alpha;
        pick = cand.col;
      }
    }
    if (slope - drop > 0.0) {
      for (const DualCandidate& cand : cands_) {
        if (cand.ratio <= bound) flips_.push_back(cand.col);
      }
      cands_.erase(std::remove_if(cands_.begin(), cands_.end(),
                                  [&](const DualCandidate& cand) {
                                    return cand.ratio <= bound;
                                  }),
                   cands_.end());
      slope -= drop;
      enter_abs = 0.0;
      continue;
    }
    enter = pick;
  }
  const double alpha_q = alpha_[enter];
  if (enter_abs < 1e-7) return 4;  // tiny pivot
  Ftran(enter, m);
  if (std::abs(w_[r] - alpha_q) > 1e-9 * (1.0 + std::abs(alpha_q))) {
    return 4;  // the pivot row and column disagree on the pivot
  }

  // Flipped columns move to their other bound; the basic values follow.
  if (!flips_.empty()) {
    q_.assign(m, 0.0);
    for (int c : flips_) {
      const double old_value = t_.value[c];
      t_.state[c] = t_.state[c] == BasisState::kAtLower ? BasisState::kAtUpper
                                                        : BasisState::kAtLower;
      t_.value[c] = NonbasicValue(c);
      const double delta = t_.value[c] - old_value;
      const int* rows;
      const double* vals;
      const int cnt = t_.ColEntries(c, &rows, &vals);
      for (int k = 0; k < cnt; ++k) q_[rows[k]] += vals[k] * delta;
    }
    for (int k = 0; k < m; ++k) {
      if (q_[k] == 0.0) continue;
      const double* bcol = t_.binv.data() + static_cast<size_t>(k) * m;
      for (int i = 0; i < m; ++i) t_.value[t_.basis[i]] -= bcol[i] * q_[k];
    }
  }

  // Primal step: the entering column moves until the leaving variable
  // sits on its violated bound.
  const double step = (t_.value[leave_col] - target) / w_[r];
  for (int i : w_nz_) t_.value[t_.basis[i]] -= step * w_[i];
  const double enter_val = t_.value[enter] + step;

  // Dual step, in place: d_j -= theta * alpha_j. A reduced cost already
  // past zero by less than opt_tol_ is taken as zero.
  const double theta =
      SignedReducedCost(enter) > 0.0 ? d_[enter] / alpha_q : 0.0;
  for (int c : alpha_cols_) d_[c] -= theta * alpha_[c];
  d_[enter] = 0.0;
  d_[leave_col] = -theta;

  const int pivoted = Pivot(enter, enter_val, r, s < 0 ? 1 : 0);
  if (pivoted != 1) return pivoted;
  ++dual_pivots_;
  if (pivots_since_refactor_ == 0) ComputeReducedCosts();  // refactorized
  return 1;
}

int SimplexSolver::Engine::DualPhase() {
  if (Infeasibility() <= feas_tol_) return -1;
  ComputeReducedCosts();
  for (int c = 0; c < t_.n_total; ++c) {
    if (t_.state[c] == BasisState::kBasic || t_.lb[c] == t_.ub[c]) continue;
    if (SignedReducedCost(c) < -opt_tol_) return -1;
  }
  // A child of a small LP needs a handful of dual pivots; the cap only
  // bounds a stalling or cycling dual, which the primal loop then takes
  // over from wherever it stopped.
  const int64_t cap = iterations_ + 2LL * t_.m + 50;
  while (iterations_ < std::min(cap, max_iterations_)) {
    if ((iterations_ & 0x3f) == 0 && options_.deadline.Expired()) break;
    const int step = DualIterate();
    if (step != 1) return step;
    ++iterations_;
  }
  return -1;
}

bool SimplexSolver::Engine::ResetToSlackBasis(int* resets) {
  if (++*resets > 4) {
    SQPR_LOG_WARN << "simplex giving up after repeated singular bases";
    return false;
  }
  InstallSlackBasis();
  const bool ok = Refactorize();
  SQPR_CHECK(ok) << "slack basis cannot be singular";
  RecomputeBasicValues();
  degenerate_run_ = 0;
  return true;
}

SimplexResult SimplexSolver::Engine::Finish(SolveStatus status) {
  SimplexResult result;
  result.status = status;
  result.iterations = iterations_;
  result.values.assign(t_.value.begin(), t_.value.begin() + t_.n_struct);
  result.objective = model_->ObjectiveValue(result.values);
  result.basis_state = t_.state;
  result.refactorizations = refactorizations_;
  result.factor_reuses = factor_reuses_;
  result.dual_pivots = dual_pivots_;
  return result;
}

SimplexResult SimplexSolver::Engine::Solve(
    const Model& model, const std::vector<BasisState>* warm_basis) {
  model_ = &model;
  iterations_ = 0;
  refactorizations_ = 0;
  factor_reuses_ = 0;
  dual_pivots_ = 0;
  degenerate_run_ = 0;
  solve_updates_ = 0;
  feas_tol_ = options_.feasibility_tol;
  opt_tol_ = options_.optimality_tol;
  SyncModel(model);
  InstallBasis(warm_basis);
  return Run();
}

SimplexResult SimplexSolver::Engine::Run() {
  max_iterations_ = options_.max_iterations > 0
                        ? options_.max_iterations
                        : 200LL * (t_.m + t_.n_struct) + 2000;

  int resets = 0;
  // A start that is dual feasible but primal infeasible — a parent's
  // optimal basis after a bound change or appended rows — is re-solved
  // by the dual simplex; the primal loop below confirms its optimum or
  // takes over from wherever it handed over.
  switch (DualPhase()) {
    case 2:
      return Finish(SolveStatus::kInfeasible);
    case 3:
      if (!ResetToSlackBasis(&resets)) {
        return Finish(SolveStatus::kIterationLimit);
      }
      break;
    default:
      break;
  }
  while (true) {
    if (iterations_ >= max_iterations_) {
      return Finish(SolveStatus::kIterationLimit);
    }
    if ((iterations_ & 0x3f) == 0 && options_.deadline.Expired()) {
      return Finish(SolveStatus::kTimeLimit);
    }

    const bool phase1 = Infeasibility() > feas_tol_;
    const bool bland = degenerate_run_ > 40 || resets > 1;
    const int step = Iterate(phase1, bland);
    ++iterations_;

    if (step == 1) continue;

    if (step == 0) {
      if (phase1) {
        // Phase-1 stall with residual infeasibility: LP is infeasible.
        return Finish(SolveStatus::kInfeasible);
      }
      // Phase-2 optimal. Only pay for a polish (refactorise + recompute)
      // when enough product-form updates have accumulated to matter;
      // warm-started solves typically finish in a handful of pivots on a
      // freshly factorised basis.
      if (solve_updates_ < 20) return Finish(SolveStatus::kOptimal);
      if (Refactorize()) {
        RecomputeBasicValues();
        if (Infeasibility() > feas_tol_ * 100) {
          // Drift surfaced by the polish: resume from phase 1.
          if (++resets > 4) return Finish(SolveStatus::kIterationLimit);
          continue;
        }
        return Finish(SolveStatus::kOptimal);
      }
      // Singular at polish: fall through to reset.
    } else if (step == 2) {
      if (!phase1) return Finish(SolveStatus::kUnbounded);
      // An unbounded phase-1 ray is numerical nonsense; reset.
    }

    // step == 3 (singular) or numerical trouble: reset to slack basis.
    if (!ResetToSlackBasis(&resets)) {
      return Finish(SolveStatus::kIterationLimit);
    }
  }
}

const char* SolveStatusName(SolveStatus status) {
  switch (status) {
    case SolveStatus::kOptimal:
      return "Optimal";
    case SolveStatus::kInfeasible:
      return "Infeasible";
    case SolveStatus::kUnbounded:
      return "Unbounded";
    case SolveStatus::kIterationLimit:
      return "IterationLimit";
    case SolveStatus::kTimeLimit:
      return "TimeLimit";
  }
  return "Unknown";
}

SimplexSolver::SimplexSolver(SimplexOptions options)
    : engine_(std::make_unique<Engine>(options)) {}

SimplexSolver::~SimplexSolver() = default;

SimplexResult SimplexSolver::Solve(const Model& model) {
  return Solve(model, engine_->options().warm_basis);
}

SimplexResult SimplexSolver::Solve(
    const Model& model, const std::vector<BasisState>* warm_basis) {
  SQPR_TRACE_SPAN_ARGS(span, "lp/simplex", "iterations", "rows");
  SimplexResult result = engine_->Solve(model, warm_basis);
  span.set_args(static_cast<uint64_t>(result.iterations),
                static_cast<uint64_t>(model.num_rows()));
  return result;
}

}  // namespace lp
}  // namespace sqpr
