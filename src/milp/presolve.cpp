#include "milp/presolve.h"

#include <cmath>
#include <cstdint>
#include <deque>

#include "util/kernels.h"

namespace wnet::milp {

RowSystem::RowSystem(const Model& m) {
  const int n = m.num_vars();
  is_int.assign(static_cast<size_t>(n), 0);
  for (int j = 0; j < n; ++j) {
    is_int[static_cast<size_t>(j)] =
        m.vars()[static_cast<size_t>(j)].type != VarType::kContinuous ? 1 : 0;
  }
  var_rows.assign(static_cast<size_t>(n), {});
  row_start.push_back(0);
  for (int r = 0; r < m.num_constrs(); ++r) {
    const Constraint& cn = m.constrs()[static_cast<size_t>(r)];
    for (const auto& [v, a] : cn.expr.terms()) {
      if (a == 0.0) continue;
      col.push_back(v.id);
      coef.push_back(a);
      var_rows[static_cast<size_t>(v.id)].push_back(r);
    }
    row_start.push_back(static_cast<int>(col.size()));
    sense.push_back(cn.sense);
    rhs.push_back(cn.rhs);
  }
}

namespace {

/// Tightens the bounds of one row's variables given `row sense rhs`, using
/// the activity of the row excluding each variable in turn. Bounds live in
/// the caller's arrays. Returns the number of bounds changed, or -1 on
/// proven infeasibility; tightened variable ids are appended to `changed`
/// when non-null.
int tighten_row(const RowSystem& rs, int row, std::vector<double>& lb, std::vector<double>& ub,
                double tol, bool integers_only, std::vector<int>* changed) {
  const int begin = rs.row_start[static_cast<size_t>(row)];
  const int end = rs.row_start[static_cast<size_t>(row) + 1];
  const Sense sense = rs.sense[static_cast<size_t>(row)];
  const double rhs = rs.rhs[static_cast<size_t>(row)];

  // Row activity bounds including every term, as the min/max kernel: with
  // lb <= ub and a != 0 (zero coefficients are dropped at RowSystem
  // construction), min(a*lb, a*ub) equals the branchy a >= 0 selection
  // bit-for-bit; the sums follow the kernel's fixed 4-lane order.
  static_assert(sizeof(int) == sizeof(int32_t));
  double act_lo = 0.0;
  double act_hi = 0.0;
  util::kernels::row_activity(
      reinterpret_cast<const int32_t*>(rs.col.data()) + begin, rs.coef.data() + begin,
      end - begin, lb.data(), ub.data(), &act_lo, &act_hi);

  // Quick infeasibility / redundancy screening.
  if (sense != Sense::kGe && act_lo > rhs + tol) return -1;
  if (sense != Sense::kLe && act_hi < rhs - tol) return -1;

  int count = 0;
  for (int t = begin; t < end; ++t) {
    const double a = rs.coef[static_cast<size_t>(t)];
    const int jc = rs.col[static_cast<size_t>(t)];
    const size_t j = static_cast<size_t>(jc);
    if (integers_only && rs.is_int[j] == 0) continue;
    // Activity of the row without this term (subtract its own extreme).
    const double own_lo = a >= 0 ? a * lb[j] : a * ub[j];
    const double own_hi = a >= 0 ? a * ub[j] : a * lb[j];

    double new_lb = lb[j];
    double new_ub = ub[j];

    if (sense != Sense::kGe && std::isfinite(act_lo)) {
      // sum <= rhs: a*x <= rhs - (act_lo - own_lo)
      const double cap = rhs - (act_lo - own_lo);
      if (a > 0) {
        new_ub = std::min(new_ub, cap / a);
      } else {
        new_lb = std::max(new_lb, cap / a);
      }
    }
    if (sense != Sense::kLe && std::isfinite(act_hi)) {
      // sum >= rhs: a*x >= rhs - (act_hi - own_hi)
      const double floor_v = rhs - (act_hi - own_hi);
      if (a > 0) {
        new_lb = std::max(new_lb, floor_v / a);
      } else {
        new_ub = std::min(new_ub, floor_v / a);
      }
    }

    if (rs.is_int[j] != 0) {
      // Round inward, with a small epsilon so 2.9999999 stays 3.
      new_lb = std::ceil(new_lb - 1e-9);
      new_ub = std::floor(new_ub + 1e-9);
    }
    if (new_lb > new_ub + tol) return -1;
    new_ub = std::max(new_ub, new_lb);

    if (new_lb > lb[j] + tol || new_ub < ub[j] - tol) {
      lb[j] = std::max(new_lb, lb[j]);
      ub[j] = std::min(new_ub, ub[j]);
      // Keep the running activities consistent with the tightened bounds so
      // later terms of this row see the update (skipped when the old
      // extreme was infinite: the delta would be ill-defined, and the
      // stale — merely conservative — activity is still valid).
      if (std::isfinite(own_lo)) act_lo += (a >= 0 ? a * lb[j] : a * ub[j]) - own_lo;
      if (std::isfinite(own_hi)) act_hi += (a >= 0 ? a * ub[j] : a * lb[j]) - own_hi;
      if (changed != nullptr) changed->push_back(jc);
      ++count;
    }
  }
  return count;
}

}  // namespace

PropagateResult propagate_bounds(const RowSystem& rs, std::vector<double>& lb,
                                 std::vector<double>& ub, const std::vector<int>& seed_cols,
                                 const PropagateOptions& opts) {
  PropagateResult out;
  const int rows = rs.num_rows();
  if (rows == 0) return out;

  std::vector<int> visits(static_cast<size_t>(rows), 0);
  std::vector<char> queued(static_cast<size_t>(rows), 0);
  std::deque<int> q;
  const auto enqueue = [&](int r) {
    if (queued[static_cast<size_t>(r)] == 0) {
      queued[static_cast<size_t>(r)] = 1;
      q.push_back(r);
    }
  };
  if (seed_cols.empty()) {
    for (int r = 0; r < rows; ++r) enqueue(r);
  } else {
    for (int c : seed_cols) {
      for (int r : rs.var_rows[static_cast<size_t>(c)]) enqueue(r);
    }
  }

  std::vector<int> changed;
  while (!q.empty()) {
    const int r = q.front();
    q.pop_front();
    queued[static_cast<size_t>(r)] = 0;
    if (visits[static_cast<size_t>(r)] >= opts.max_sweeps) continue;
    ++visits[static_cast<size_t>(r)];

    changed.clear();
    const int c = tighten_row(rs, r, lb, ub, opts.tol, opts.integers_only, &changed);
    if (c < 0) {
      out.infeasible = true;
      return out;
    }
    out.tightened += c;
    for (int cc : changed) {
      for (int rr : rs.var_rows[static_cast<size_t>(cc)]) enqueue(rr);
    }
  }
  return out;
}

}  // namespace wnet::milp
