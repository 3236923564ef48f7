#include "milp/simplex/dual_simplex.h"

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>

#include "util/kernels.h"
#include "util/stopwatch.h"

namespace wnet::milp::simplex {

DualSimplex::DualSimplex(const StandardLp& lp, LpOptions opts) : lp_(&lp), opts_(opts) {}

LuStats& LuStats::operator+=(const LuStats& o) {
  cold += o.cold;
  node_switch += o.node_switch;
  interval += o.interval;
  update_rejected += o.update_rejected;
  stale_retry += o.stale_retry;
  factorizations += o.factorizations;
  factor_s += o.factor_s;
  return *this;
}

LuStats DualSimplex::lu_stats() const {
  LuStats s = lu_stats_;
  s.factorizations = lu_.factorize_calls();
  return s;
}

void DualSimplex::reset_costs() {
  perturbed_ = opts_.perturb;
  if (!opts_.perturb) {
    cost_ = lp_->c();
    return;
  }
  if (jittered_.size() != lp_->c().size()) {
    // Deterministic jitter, large against dual_tol but invisible in the
    // objective (the exact costs are restored before termination).
    jittered_ = lp_->c();
    std::mt19937 rng(0x5eedu);
    std::uniform_real_distribution<double> u(0.5, 1.5);
    for (double& c : jittered_) {
      const double eps = 1e-6 * (1.0 + std::abs(c)) * u(rng);
      c += (rng() & 1) != 0u ? eps : -eps;
    }
  }
  cost_ = jittered_;
}

double DualSimplex::violation(int j, double v) const {
  const double lb = lp_->lb()[static_cast<size_t>(j)];
  const double ub = lp_->ub()[static_cast<size_t>(j)];
  if (v > ub + opts_.feas_tol) return v - ub;
  if (v < lb - opts_.feas_tol) return v - lb;
  return 0.0;
}

void DualSimplex::start_from_slack_basis() {
  const int m = lp_->num_rows();
  const int n = lp_->num_cols();
  const int n_struct = n - m;
  basis_.basic.resize(static_cast<size_t>(m));
  basis_.status.assign(static_cast<size_t>(n), ColStatus::kAtLower);
  for (int i = 0; i < m; ++i) {
    basis_.basic[static_cast<size_t>(i)] = n_struct + i;
    basis_.status[static_cast<size_t>(n_struct + i)] = ColStatus::kBasic;
  }
  // Nonbasic structurals at the dual-feasible bound for their cost sign;
  // cost-neutral columns rest at whichever bound is finite.
  for (int j = 0; j < n_struct; ++j) {
    const double c = cost_[static_cast<size_t>(j)];
    if (c < 0) {
      basis_.status[static_cast<size_t>(j)] = ColStatus::kAtUpper;
    } else if (c > 0 || std::isfinite(lp_->lb()[static_cast<size_t>(j)])) {
      basis_.status[static_cast<size_t>(j)] = ColStatus::kAtLower;
    } else {
      basis_.status[static_cast<size_t>(j)] = ColStatus::kAtUpper;
    }
  }
  install_basis(basis_);
}

void DualSimplex::install_basis(const Basis& basis) {
  const int m = lp_->num_rows();
  const int n = lp_->num_cols();
  if (static_cast<int>(basis.basic.size()) != m || static_cast<int>(basis.status.size()) != n) {
    throw std::invalid_argument("DualSimplex: basis dimension mismatch");
  }
  basis_ = basis;
  in_basis_.assign(static_cast<size_t>(n), 0);
  for (int col : basis_.basic) in_basis_[static_cast<size_t>(col)] = 1;
  values_.assign(static_cast<size_t>(n), 0.0);
  for (int j = 0; j < n; ++j) {
    double v = 0.0;
    switch (basis_.status[static_cast<size_t>(j)]) {
      case ColStatus::kAtLower: v = lp_->lb()[static_cast<size_t>(j)]; break;
      case ColStatus::kAtUpper: v = lp_->ub()[static_cast<size_t>(j)]; break;
      case ColStatus::kBasic: continue;
    }
    if (!std::isfinite(v)) {
      // A warm basis can point a nonbasic column at a bound that became
      // infinite; rest it at the finite side (or zero) instead.
      const double lb = lp_->lb()[static_cast<size_t>(j)];
      const double ub = lp_->ub()[static_cast<size_t>(j)];
      if (std::isfinite(lb)) {
        basis_.status[static_cast<size_t>(j)] = ColStatus::kAtLower;
        v = lb;
      } else if (std::isfinite(ub)) {
        basis_.status[static_cast<size_t>(j)] = ColStatus::kAtUpper;
        v = ub;
      } else {
        v = 0.0;
      }
    }
    values_[static_cast<size_t>(j)] = v;
  }
}

void DualSimplex::repair_nonbasic_statuses() {
  const int n = lp_->num_cols();
  for (int j = 0; j < n; ++j) {
    if (basis_.status[static_cast<size_t>(j)] == ColStatus::kBasic) continue;
    const double d = dj_[static_cast<size_t>(j)];
    if (basis_.status[static_cast<size_t>(j)] == ColStatus::kAtLower && d < -opts_.dual_tol &&
        std::isfinite(lp_->ub()[static_cast<size_t>(j)])) {
      basis_.status[static_cast<size_t>(j)] = ColStatus::kAtUpper;
      values_[static_cast<size_t>(j)] = lp_->ub()[static_cast<size_t>(j)];
    } else if (basis_.status[static_cast<size_t>(j)] == ColStatus::kAtUpper &&
               d > opts_.dual_tol && std::isfinite(lp_->lb()[static_cast<size_t>(j)])) {
      basis_.status[static_cast<size_t>(j)] = ColStatus::kAtLower;
      values_[static_cast<size_t>(j)] = lp_->lb()[static_cast<size_t>(j)];
    }
  }
}

bool DualSimplex::refactorize(FactorCause cause) {
  switch (cause) {
    case FactorCause::kCold: ++lu_stats_.cold; break;
    case FactorCause::kNodeSwitch: ++lu_stats_.node_switch; break;
    case FactorCause::kInterval: ++lu_stats_.interval; break;
    case FactorCause::kUpdateRejected: ++lu_stats_.update_rejected; break;
    case FactorCause::kStaleRetry: ++lu_stats_.stale_retry; break;
  }
  const util::Stopwatch sw;
  lu_valid_ = lu_.factorize(lp_->a(), basis_.basic);
  lu_stats_.factor_s += sw.seconds();
  return lu_valid_;
}

void DualSimplex::recompute_basics() {
  const int m = lp_->num_rows();
  const int n = lp_->num_cols();
  std::vector<double> r = lp_->b();
  for (int j = 0; j < n; ++j) {
    if (in_basis_[static_cast<size_t>(j)]) continue;
    const double v = values_[static_cast<size_t>(j)];
    if (v != 0.0) lp_->a().axpy_column(j, -v, r);
  }
  lu_.ftran(r);  // r now holds x_B by basis position
  for (int pos = 0; pos < m; ++pos) {
    values_[static_cast<size_t>(basis_.basic[static_cast<size_t>(pos)])] =
        r[static_cast<size_t>(pos)];
  }
}

void DualSimplex::compute_duals() {
  const int m = lp_->num_rows();
  const int n = lp_->num_cols();
  duals_.assign(static_cast<size_t>(m), 0.0);
  for (int pos = 0; pos < m; ++pos) {
    duals_[static_cast<size_t>(pos)] =
        cost_[static_cast<size_t>(basis_.basic[static_cast<size_t>(pos)])];
  }
  lu_.btran(duals_);  // y by row
  dj_.assign(static_cast<size_t>(n), 0.0);
  for (int j = 0; j < n; ++j) {
    if (in_basis_[static_cast<size_t>(j)]) continue;
    dj_[static_cast<size_t>(j)] = cost_[static_cast<size_t>(j)] - lp_->a().dot_column(j, duals_);
  }
}

LpResult DualSimplex::solve() {
  info_ = {};
  reset_costs();
  start_from_slack_basis();
  if (!refactorize(FactorCause::kCold)) {
    // The slack basis is the identity; failure here is impossible unless
    // the instance is malformed.
    LpResult res;
    res.status = LpStatus::kNumericalTrouble;
    return res;
  }
  recompute_basics();
  compute_duals();
  return run();
}

LpResult DualSimplex::solve_from(const Basis& basis) {
  reset_costs();
  // The factorization depends only on the basic column sequence; reuse it
  // when the caller's basis matches (the common branch-and-bound case).
  const bool same_basis = lu_valid_ && basis.basic == basis_.basic;
  install_basis(basis);
  if (!same_basis && !refactorize(FactorCause::kNodeSwitch)) {
    // Clean cold fallback: the inherited basis is numerically unusable.
    LpResult res = solve();
    info_.refactor_fallback = true;
    return res;
  }
  info_ = {/*warm=*/true, /*reused_lu=*/same_basis, /*refactor_fallback=*/false};
  recompute_basics();
  compute_duals();
  repair_nonbasic_statuses();
  recompute_basics();  // bound flips moved nonbasic values
  return run();
}

LpResult DualSimplex::run() {
  const int m = lp_->num_rows();
  const int n = lp_->num_cols();

  if (m == 0) {  // pure box problem: the start values are already optimal
    return finish(LpStatus::kOptimal, 0);
  }

  std::vector<double> rho(static_cast<size_t>(m));
  std::vector<double> w(static_cast<size_t>(m));
  util::Stopwatch clock;

  int stall = 0;
  double last_inf_sum = kInf;
  bool bland = false;
  banned_.clear();
  banned_rows_.clear();
  devex_.assign(static_cast<size_t>(m), 1.0);  // fresh reference framework

  for (int iter = 0; iter < opts_.max_iters; ++iter) {
    if ((iter & 63) == 63) {
      if (clock.seconds() > opts_.time_limit_s) return finish(LpStatus::kTimeLimit, iter);
      if (opts_.cancel.cancelled()) return finish(LpStatus::kCancelled, iter);
    }
    // --- Leaving variable: dual Devex pricing, the largest violation² over
    // the row's reference weight, lowest position on ties (or lowest column
    // index in Bland mode to break degenerate cycles).
    int r = -1;
    double best_viol = 0.0;
    double best_score = 0.0;
    double inf_sum = 0.0;
    for (int pos = 0; pos < m; ++pos) {
      const int col = basis_.basic[static_cast<size_t>(pos)];
      const double v = violation(col, values_[static_cast<size_t>(col)]);
      if (v == 0.0) continue;
      if (!banned_rows_.empty() &&
          std::find(banned_rows_.begin(), banned_rows_.end(), pos) != banned_rows_.end()) {
        continue;
      }
      inf_sum += std::abs(v);
      if (bland) {
        if (r == -1 || col < basis_.basic[static_cast<size_t>(r)]) {
          r = pos;
          best_viol = v;
        }
      } else if (const double score = v * v / devex_[static_cast<size_t>(pos)];
                 r == -1 || score > best_score) {
        r = pos;
        best_viol = v;
        best_score = score;
      }
    }
    if (r == -1) {
      if (!perturbed_) return finish(LpStatus::kOptimal, iter);
      // Primal feasible under jittered costs: restore the exact costs and
      // re-optimize (usually a handful of clean-up pivots).
      cost_ = lp_->c();
      perturbed_ = false;
      compute_duals();
      repair_nonbasic_statuses();
      recompute_basics();
      continue;
    }

    if (inf_sum >= last_inf_sum - 1e-12) {
      if (++stall > 200) bland = true;
    } else {
      stall = 0;
      bland = false;
    }
    last_inf_sum = inf_sum;

    const int leaving_col = basis_.basic[static_cast<size_t>(r)];
    const double sigma = best_viol > 0 ? 1.0 : -1.0;

    // --- Row r of B^{-1}: rho = B^{-T} e_r.
    std::fill(rho.begin(), rho.end(), 0.0);
    rho[static_cast<size_t>(r)] = 1.0;
    lu_.btran(rho);

    // --- Dual ratio test over nonbasic columns. The alphas double as the
    // pivot row needed for the incremental reduced-cost update below.
    cands_.clear();
    alphas_.assign(static_cast<size_t>(n), 0.0);
    for (int j = 0; j < n; ++j) {
      if (in_basis_[static_cast<size_t>(j)]) continue;
      if (lp_->lb()[static_cast<size_t>(j)] == lp_->ub()[static_cast<size_t>(j)]) {
        continue;  // fixed, can never move
      }
      const double alpha = lp_->a().dot_column(j, rho);
      alphas_[static_cast<size_t>(j)] = alpha;
      if (!banned_.empty() &&
          std::find(banned_.begin(), banned_.end(), j) != banned_.end()) {
        continue;
      }
      const double sa = sigma * alpha;
      const ColStatus st = basis_.status[static_cast<size_t>(j)];
      if (st == ColStatus::kAtLower && sa > opts_.pivot_tol) {
        cands_.push_back({j, alpha, std::max(0.0, dj_[static_cast<size_t>(j)]) / sa});
      } else if (st == ColStatus::kAtUpper && sa < -opts_.pivot_tol) {
        cands_.push_back({j, alpha, std::max(0.0, -dj_[static_cast<size_t>(j)]) / (-sa)});
      }
    }
    const auto& cands = cands_;
    if (cands.empty()) {
      if (!banned_.empty()) {
        // Every candidate for this row was banned for a knife-edge pivot.
        // With an exact factorization the FTRAN values are trustworthy: the
        // row's true pivot row is numerically zero against every eligible
        // column, so its (tiny) violation cannot be repaired by any pivot.
        // Accept the violation and skip the row from now on — refactorizing
        // would re-derive the same dead end forever (observed as the
        // dominant solver cost on degenerate instances). A large violation
        // means something is genuinely wrong: report numerical trouble so
        // the caller's escalation path takes over.
        banned_.clear();
        if (lu_.num_updates() == 0) {
          if (std::abs(best_viol) > 16.0 * opts_.feas_tol) {
            return finish(LpStatus::kNumericalTrouble, iter);
          }
          banned_rows_.push_back(r);
          continue;
        }
        // Stale LU updates: the bans may have been spurious; retry from an
        // exact factorization.
        if (!refactorize(FactorCause::kStaleRetry)) {
          return finish(LpStatus::kNumericalTrouble, iter);
        }
        recompute_basics();
        compute_duals();
        continue;
      }
      return finish(LpStatus::kPrimalInfeasible, iter);
    }

    int q = -1;
    double best_alpha = 0.0;
    if (bland) {
      // Bland-style anti-cycling: smallest column index among those within
      // tolerance of the minimal ratio.
      double rmin = kInf;
      for (const auto& c : cands) rmin = std::min(rmin, c.ratio);
      for (const auto& c : cands) {
        if (c.ratio <= rmin + opts_.dual_tol && (q == -1 || c.col < q)) {
          q = c.col;
          best_alpha = c.alpha;
        }
      }
    } else {
      double best_ratio = kInf;
      for (const auto& c : cands) {
        if (c.ratio < best_ratio - 1e-12 ||
            (c.ratio < best_ratio + 1e-12 && std::abs(c.alpha) > std::abs(best_alpha))) {
          q = c.col;
          best_alpha = c.alpha;
          best_ratio = c.ratio;
        }
      }
    }

    // --- FTRAN the entering column. Slack and singleton structural columns
    // (a large share of the entering columns on these models) take the
    // hyper-sparse single-nonzero path.
    const auto& qcol = lp_->a().column(q);
    w.assign(static_cast<size_t>(m), 0.0);
    if (qcol.size() == 1) {
      lu_.ftran_unit(w, qcol[0].row, qcol[0].value);
    } else {
      for (const Entry& e : qcol) w[static_cast<size_t>(e.row)] = e.value;
      lu_.ftran(w);
    }
    const double alpha_rq = w[static_cast<size_t>(r)];
    if (std::abs(alpha_rq) < opts_.pivot_tol) {
      if (lu_.num_updates() == 0) {
        // The factorization is exact, so the FTRAN value is trustworthy and
        // this candidate's pivot is genuinely tiny — the BTRAN-priced alpha
        // was the knife-edge one. Refactorizing again would reproduce the
        // same choice forever (the dominant solver cost on degenerate
        // models); exclude the column from this ratio test instead.
        banned_.push_back(q);
        continue;
      }
      // Stale LU updates: refactorize and retry the iteration.
      if (!refactorize(FactorCause::kStaleRetry)) {
        return finish(LpStatus::kNumericalTrouble, iter);
      }
      recompute_basics();
      compute_duals();
      continue;
    }

    // --- Devex update from the entering column already at hand: row i's
    // reference weight grows to at least (w_i / alpha_rq)² times row r's,
    // and position r (now holding q) takes row r's weight over alpha_rq².
    const double devex_r = devex_[static_cast<size_t>(r)];
    for (int i = 0; i < m; ++i) {
      const double wi = w[static_cast<size_t>(i)];
      if (wi == 0.0 || i == r) continue;
      const double ratio = wi / alpha_rq;
      double& di = devex_[static_cast<size_t>(i)];
      di = std::max(di, ratio * ratio * devex_r);
    }
    devex_[static_cast<size_t>(r)] = std::max(devex_r / (alpha_rq * alpha_rq), 1.0);

    // --- Pivot: leaving goes to its violated bound, entering becomes basic.
    const double delta = best_viol;           // signed distance past the bound
    const double step = delta / alpha_rq;     // change of the entering value
    // values_[basic[pos]] -= w[pos] * step as a kernel scatter (basic
    // positions are distinct by construction).
    static_assert(sizeof(int) == sizeof(int32_t));
    util::kernels::scatter_axpy(
        reinterpret_cast<const int32_t*>(basis_.basic.data()), w.data(), m, -step,
        values_.data());
    values_[static_cast<size_t>(q)] += step;
    values_[static_cast<size_t>(leaving_col)] =
        sigma > 0 ? lp_->ub()[static_cast<size_t>(leaving_col)]
                  : lp_->lb()[static_cast<size_t>(leaving_col)];

    basis_.status[static_cast<size_t>(leaving_col)] =
        sigma > 0 ? ColStatus::kAtUpper : ColStatus::kAtLower;
    basis_.status[static_cast<size_t>(q)] = ColStatus::kBasic;
    basis_.basic[static_cast<size_t>(r)] = q;
    in_basis_[static_cast<size_t>(leaving_col)] = 0;
    in_basis_[static_cast<size_t>(q)] = 1;
    banned_.clear();
    banned_rows_.clear();

    const bool at_interval = lu_.num_updates() >= opts_.refactor_interval;
    if (at_interval || !lu_.update(r, w)) {
      if (!refactorize(at_interval ? FactorCause::kInterval : FactorCause::kUpdateRejected)) {
        return finish(LpStatus::kNumericalTrouble, iter);
      }
      recompute_basics();
      compute_duals();  // fresh duals at every refactorization
    } else {
      // Incremental reduced-cost update: one dual pivot of size
      // theta = d_q / alpha_q; every nonbasic j moves by -theta * alpha_j
      // and the leaving column picks up -theta. Saves a BTRAN plus a full
      // pricing pass per iteration; drift is repaired at refactorization.
      const double theta = dj_[static_cast<size_t>(q)] / alpha_rq;
      if (theta != 0.0) {
        // Branchless dense kernel: dj += (-theta) * alphas. The zero-alpha
        // guard the scalar loop used to carry is dropped — adding an exact
        // ±0 product leaves dj unchanged through every comparison
        // downstream, and the straight-line form vectorizes.
        util::kernels::dense_axpy(dj_.data(), alphas_.data(), -theta, n);
      }
      dj_[static_cast<size_t>(q)] = 0.0;
      dj_[static_cast<size_t>(leaving_col)] = -theta;
    }
  }
  return finish(LpStatus::kIterLimit, opts_.max_iters);
}

LpResult DualSimplex::finish(LpStatus status, int iters) {
  LpResult res;
  res.status = status;
  res.iterations = iters;
  res.x = values_;
  res.reduced_costs = dj_;
  res.objective = lp_->objective_value(values_);
  if (status == LpStatus::kOptimal) {
    // A solution resting on a synthetic bound means the true problem is
    // unbounded in that direction (or the bound is simply not binding —
    // only flag when the synthetic bound is active).
    for (int j = 0; j < lp_->num_cols(); ++j) {
      const double v = values_[static_cast<size_t>(j)];
      if ((lp_->lb_synthetic(j) && v <= -kBigBound + 1.0) ||
          (lp_->ub_synthetic(j) && v >= kBigBound - 1.0)) {
        res.status = LpStatus::kUnbounded;
        break;
      }
    }
  }
  return res;
}

}  // namespace wnet::milp::simplex
