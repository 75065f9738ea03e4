#include "milp/cuts.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"

namespace sqpr {
namespace milp {

void CutPool::Add(PooledCut cut) {
  std::sort(cut.terms.begin(), cut.terms.end());
  for (const PooledCut& have : cuts_) {
    if (have.lb == cut.lb && have.ub == cut.ub && have.terms == cut.terms) {
      return;
    }
  }
  if (cuts_.size() >= max_cuts_ && !cuts_.empty()) {
    cuts_.erase(cuts_.begin());
  }
  cuts_.push_back(std::move(cut));
}

void CutPool::InjectInto(lp::Model* lp) const {
  for (const PooledCut& cut : cuts_) {
    lp->AddRow(cut.lb, cut.ub, cut.terms, cut.name);
  }
}

namespace {

constexpr double kCoefDropTol = 1e-12;
constexpr double kAlphaTol = 1e-11;

double Frac(double v) { return v - std::floor(v); }

/// Dense row-major matrix inverse by Gauss-Jordan with partial pivoting.
/// Eliminates over the nonzero columns of the scaled pivot rows only: a
/// skipped entry would subtract a signed zero, so the result is the one
/// the full dense elimination computes. Returns false when singular.
bool InvertDense(std::vector<double>* a, int m) {
  std::vector<double>& mat = *a;
  std::vector<double> inv(static_cast<size_t>(m) * m, 0.0);
  for (int i = 0; i < m; ++i) inv[static_cast<size_t>(i) * m + i] = 1.0;
  std::vector<int> mat_nz, inv_nz;  // nonzero columns of the pivot row
  for (int col = 0; col < m; ++col) {
    int pivot = -1;
    double best = 1e-10;
    for (int r = col; r < m; ++r) {
      const double v = std::abs(mat[static_cast<size_t>(r) * m + col]);
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (pivot < 0) return false;
    if (pivot != col) {
      for (int c = 0; c < m; ++c) {
        std::swap(mat[static_cast<size_t>(pivot) * m + c],
                  mat[static_cast<size_t>(col) * m + c]);
        std::swap(inv[static_cast<size_t>(pivot) * m + c],
                  inv[static_cast<size_t>(col) * m + c]);
      }
    }
    const double d = mat[static_cast<size_t>(col) * m + col];
    const double dinv = 1.0 / d;
    double* mat_row = mat.data() + static_cast<size_t>(col) * m;
    double* inv_row = inv.data() + static_cast<size_t>(col) * m;
    mat_nz.clear();
    inv_nz.clear();
    for (int c = 0; c < m; ++c) {
      mat_row[c] *= dinv;
      inv_row[c] *= dinv;
      if (mat_row[c] != 0.0) mat_nz.push_back(c);
      if (inv_row[c] != 0.0) inv_nz.push_back(c);
    }
    for (int r = 0; r < m; ++r) {
      if (r == col) continue;
      const double f = mat[static_cast<size_t>(r) * m + col];
      if (f == 0.0) continue;
      double* mat_r = mat.data() + static_cast<size_t>(r) * m;
      double* inv_r = inv.data() + static_cast<size_t>(r) * m;
      for (int c : mat_nz) mat_r[c] -= f * mat_row[c];
      for (int c : inv_nz) inv_r[c] -= f * inv_row[c];
    }
  }
  *a = std::move(inv);
  return true;
}

}  // namespace

CutGenerator::CutGenerator(std::vector<bool> integer, CutOptions options)
    : integer_(std::move(integer)), options_(options) {}

int CutGenerator::Separate(const lp::SimplexResult& rel, lp::Model* work) {
  if (!options_.enable) return 0;
  int added = 0;
  if (options_.knapsack_cover) added += SeparateCovers(rel.values, work);
  if (options_.gomory && work->num_rows() <= options_.gomory_max_rows) {
    added += SeparateGomory(rel, work);
  }
  return added;
}

int CutGenerator::SeparateCovers(const std::vector<double>& x,
                                 lp::Model* work) {
  const int m = work->num_rows();
  if (static_cast<int>(cover_used_.size()) < m) cover_used_.resize(m, false);
  int added = 0;

  for (int r = 0; r < m && added < options_.max_cuts_per_round; ++r) {
    if (cover_used_[r]) continue;
    // Normalise to  sum a_j x_j <= b  over binary columns with a_j > 0.
    // Rows with a finite lower bound are also usable after negation; we
    // handle the (dominant in SQPR) <= direction first and the negated
    // >= direction second.
    for (int dir = 0; dir < 2; ++dir) {
      const double bound = dir == 0 ? work->row_ub(r) : -work->row_lb(r);
      if (!std::isfinite(bound)) continue;
      const double sign = dir == 0 ? 1.0 : -1.0;
      bool eligible = true;
      std::vector<std::pair<int, double>> items;  // (var, a_j > 0)
      for (const auto& [v, coef] : work->row_terms(r)) {
        const double a = sign * coef;
        if (a == 0.0) continue;
        const bool binary = v < static_cast<int>(integer_.size()) &&
                            integer_[v] && work->variable_lb(v) >= 0.0 &&
                            work->variable_ub(v) <= 1.0;
        if (!binary || a < 0.0) {
          eligible = false;
          break;
        }
        items.emplace_back(v, a);
      }
      if (!eligible || items.size() < 2 || bound <= 0.0) continue;

      // Greedy cover seeded by the current LP point: take items with the
      // largest fractional mass until the weight budget is exceeded.
      std::sort(items.begin(), items.end(),
                [&](const auto& a, const auto& b) {
                  return x[a.first] > x[b.first];
                });
      std::vector<std::pair<int, double>> cover;
      double weight = 0.0;
      for (const auto& it : items) {
        cover.push_back(it);
        weight += it.second;
        if (weight > bound + 1e-9) break;
      }
      if (weight <= bound + 1e-9) continue;  // row not coverable

      // Minimalise: drop the smallest weights that keep it a cover
      // (required for the extended-cover inequality to be valid).
      std::sort(cover.begin(), cover.end(),
                [](const auto& a, const auto& b) {
                  return a.second < b.second;
                });
      for (size_t i = 0; i < cover.size();) {
        if (weight - cover[i].second > bound + 1e-9) {
          weight -= cover[i].second;
          cover.erase(cover.begin() + static_cast<long>(i));
        } else {
          ++i;
        }
      }
      if (cover.size() < 2) continue;

      // Extended cover: every item at least as heavy as the heaviest
      // cover member also gets coefficient 1.
      double max_weight = 0.0;
      for (const auto& [v, a] : cover) max_weight = std::max(max_weight, a);
      std::vector<int> members;
      for (const auto& [v, a] : cover) members.push_back(v);
      for (const auto& [v, a] : items) {
        if (a >= max_weight - 1e-12 &&
            std::find(members.begin(), members.end(), v) == members.end()) {
          members.push_back(v);
        }
      }

      const double rhs = static_cast<double>(cover.size()) - 1.0;
      double lhs = 0.0;
      for (int v : members) lhs += x[v];
      if (lhs <= rhs + options_.min_violation) continue;

      std::vector<std::pair<int, double>> terms;
      terms.reserve(members.size());
      for (int v : members) terms.emplace_back(v, 1.0);
      work->AddRow(-lp::kInf, rhs, std::move(terms), "cover");
      cover_used_[r] = true;
      ++added;
      ++total_cover_;
      break;  // one cut per source row
    }
  }
  return added;
}

int CutGenerator::SeparateGomory(const lp::SimplexResult& rel,
                                 lp::Model* work) {
  const int n = work->num_variables();
  const int m = work->num_rows();
  if (m == 0) return 0;
  if (static_cast<int>(rel.basis_state.size()) != n + m) return 0;

  // Column bounds and values in the slack-form space (structural 0..n-1,
  // slack n..n+m-1 with coefficient -1; slack value = row activity).
  std::vector<double> lb(n + m), ub(n + m), val(n + m);
  for (int v = 0; v < n; ++v) {
    lb[v] = work->variable_lb(v);
    ub[v] = work->variable_ub(v);
    val[v] = rel.values[v];
  }
  for (int r = 0; r < m; ++r) {
    lb[n + r] = work->row_lb(r);
    ub[n + r] = work->row_ub(r);
    double act = 0.0;
    for (const auto& [v, coef] : work->row_terms(r)) act += coef * val[v];
    val[n + r] = act;
  }

  std::vector<int> basic_cols;
  basic_cols.reserve(m);
  for (int c = 0; c < n + m; ++c) {
    if (rel.basis_state[c] == lp::BasisState::kBasic) basic_cols.push_back(c);
  }
  if (static_cast<int>(basic_cols.size()) != m) return 0;

  // Dense basis matrix (row-major) and its inverse.
  std::vector<int> basic_pos(n + m, -1);
  for (int k = 0; k < m; ++k) basic_pos[basic_cols[k]] = k;
  std::vector<double> binv(static_cast<size_t>(m) * m, 0.0);
  for (int k = 0; k < m; ++k) {
    const int c = basic_cols[k];
    if (c >= n) binv[static_cast<size_t>(c - n) * m + k] = -1.0;
  }
  for (int r = 0; r < m; ++r) {
    for (const auto& [v, coef] : work->row_terms(r)) {
      const int k = basic_pos[v];
      if (k >= 0) binv[static_cast<size_t>(r) * m + k] = coef;
    }
  }
  if (!InvertDense(&binv, m)) return 0;

  // Candidate rows: basic *structural integer* columns at fractional
  // values, most fractional first.
  std::vector<std::pair<double, int>> candidates;  // (frac-dist, k)
  for (int k = 0; k < m; ++k) {
    const int c = basic_cols[k];
    if (c >= n || !integer_[c]) continue;
    const double f = Frac(val[c]);
    const double dist = std::min(f, 1.0 - f);
    if (f < 0.01 || f > 0.99) continue;  // numerically safe band
    candidates.emplace_back(-dist, k);
  }
  std::sort(candidates.begin(), candidates.end());

  // A GMI term: coefficient g on the bound-shifted nonbasic column j,
  // shifted from its upper bound when from_upper.
  struct GammaTerm {
    int j;
    double g;
    bool from_upper;
  };
  int added = 0;
  std::vector<double> w(m), alpha(n + m), coef(n);
  std::vector<GammaTerm> gamma;
  for (const auto& [neg_dist, k] : candidates) {
    if (added >= options_.max_cuts_per_round) break;
    // w = row k of B^-1.
    for (int i = 0; i < m; ++i) w[i] = binv[static_cast<size_t>(k) * m + i];

    // alpha_j = w . A_j over all columns. Structural: accumulate by
    // scanning rows once; slack j (row r): -w[r].
    alpha.assign(n + m, 0.0);
    for (int r = 0; r < m; ++r) {
      if (w[r] == 0.0) continue;
      for (const auto& [v, a] : work->row_terms(r)) alpha[v] += w[r] * a;
      alpha[n + r] = -w[r];
    }

    const double beta0 = val[basic_cols[k]];
    const double f0 = Frac(beta0);

    // GMI coefficients on the bound-shifted nonbasics t_j >= 0, where
    // the tableau row reads  x_B + sum abar_j t_j = beta0.
    bool ok = true;
    gamma.clear();
    for (int j = 0; j < n + m && ok; ++j) {
      if (rel.basis_state[j] == lp::BasisState::kBasic) continue;
      if (std::abs(alpha[j]) <= kAlphaTol) continue;
      double abar;
      bool from_upper;
      switch (rel.basis_state[j]) {
        case lp::BasisState::kAtLower:
          abar = alpha[j];
          from_upper = false;
          break;
        case lp::BasisState::kAtUpper:
          abar = -alpha[j];
          from_upper = true;
          break;
        default:
          ok = false;  // free nonbasic: shift undefined
          continue;
      }
      const bool j_integer = j < n && integer_[j] && std::isfinite(lb[j]) &&
                             std::isfinite(ub[j]);
      double g;
      if (j_integer) {
        const double fj = Frac(abar);
        g = fj <= f0 + 1e-12 ? fj : f0 * (1.0 - fj) / (1.0 - f0);
      } else {
        g = abar > 0.0 ? abar : f0 * (-abar) / (1.0 - f0);
      }
      if (g <= kCoefDropTol) continue;
      gamma.push_back({j, g, from_upper});
    }
    if (!ok || gamma.empty()) continue;

    // Translate  sum gamma_j t_j >= f0  back to structural space.
    coef.assign(n, 0.0);
    double rhs = f0;
    bool numerically_sane = true;
    for (const auto& [j, g, from_upper] : gamma) {
      const double shift_bound = from_upper ? ub[j] : lb[j];
      if (!std::isfinite(shift_bound)) {
        numerically_sane = false;
        break;
      }
      const double s = from_upper ? -g : g;
      if (j < n) {
        coef[j] += s;
      } else {
        for (const auto& [v, a] : work->row_terms(j - n)) {
          coef[v] += s * a;
        }
      }
      rhs += s * shift_bound;
    }
    if (!numerically_sane) continue;

    std::vector<std::pair<int, double>> terms;
    double max_c = 0.0, min_c = lp::kInf;
    for (int v = 0; v < n; ++v) {
      const double c = coef[v];
      if (std::abs(c) <= kCoefDropTol) {
        // Dropping a coefficient is only safe when the variable cannot
        // move the row materially.
        const double reach =
            std::max(std::abs(work->variable_lb(v)),
                     std::abs(work->variable_ub(v)));
        if (std::isfinite(reach) && std::abs(c) * reach < 1e-9) continue;
        if (c == 0.0) continue;
        numerically_sane = false;
        break;
      }
      terms.emplace_back(v, c);
      max_c = std::max(max_c, std::abs(c));
      min_c = std::min(min_c, std::abs(c));
    }
    if (!numerically_sane || terms.empty()) continue;
    if (max_c / min_c > options_.max_dynamism) continue;

    // Require genuine violation at the current point.
    double lhs = 0.0;
    for (const auto& [v, c] : terms) lhs += c * val[v];
    if (lhs >= rhs - options_.min_violation) continue;

    work->AddRow(rhs, lp::kInf, std::move(terms), "gmi");
    ++added;
    ++total_gomory_;
  }
  return added;
}

}  // namespace milp
}  // namespace sqpr
