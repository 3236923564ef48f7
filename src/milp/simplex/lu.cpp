#include "milp/simplex/lu.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <utility>

#include "util/kernels.h"

namespace wnet::milp::simplex {

namespace {
using util::kernels::gather_dot;
using util::kernels::scatter_axpy;
}  // namespace

void BasisLu::debug_check_solve(const std::vector<double>& v) const {
#ifndef NDEBUG
  assert(static_cast<int>(v.size()) >= m_ &&
         "BasisLu solve: dense operand smaller than basis dimension");
#else
  (void)v;
#endif
}

bool BasisLu::factorize(const SparseMatrix& a, const std::vector<int>& basis_cols,
                        double singular_tol) {
  ++factorize_calls_;
  m_ = static_cast<int>(basis_cols.size());
  if (a.num_rows() != m_) throw std::invalid_argument("BasisLu: basis must be square");
  const size_t m = static_cast<size_t>(m_);

  l_rows_.clear();
  l_vals_.clear();
  l_steps_.clear();
  l_start_.assign(m + 1, 0);
  u_rows_.clear();
  u_vals_.clear();
  u_start_.assign(m + 1, 0);
  u_diag_.assign(m, 0.0);
  p_.assign(m, -1);
  pinv_.assign(m, -1);
  q_.resize(m);
  etas_.clear();
  eta_rows_.clear();
  eta_vals_.clear();
  work2_.assign(m, 0.0);
  // work_, queued_ and mark_ are self-cleaning (every entry set is reset
  // before factorize or ftran_unit returns), so only (re)size them here.
  if (work_.size() != m) work_.assign(m, 0.0);
  if (queued_.size() != m) queued_.assign(m, 0);
  if (mark_.size() != m) mark_.assign(m, 0);
  heap_.clear();

  // Column pre-ordering by nonzero count (cheap fill reduction): a stable
  // counting sort, i.e. count ascending, then basis position ascending.
  const auto nnz = [&](size_t k) { return a.column(basis_cols[k]).size(); };
  size_t max_nnz = 0;
  for (size_t k = 0; k < m; ++k) max_nnz = std::max(max_nnz, nnz(k));
  bucket_.assign(max_nnz + 1, 0);
  for (size_t k = 0; k < m; ++k) ++bucket_[nnz(k)];
  size_t next = 0;
  for (size_t& b : bucket_) next += std::exchange(b, next);
  for (size_t k = 0; k < m; ++k) q_[bucket_[nnz(k)]++] = static_cast<int>(k);

  std::vector<double>& x = work_;
  // Min-heap of pivot steps whose rows currently hold nonzeros; drives the
  // left-looking elimination in topological (step) order. pattern_ lists
  // every row written for the current column (mark_ flags membership), so
  // pivot search, L extraction and cleanup touch only those rows: the work
  // per column is proportional to its fill, not O(m).
  const auto push_step = [&](int t) {
    if (t >= 0 && !queued_[static_cast<size_t>(t)]) {
      queued_[static_cast<size_t>(t)] = 1;
      heap_.push_back(t);
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
    }
  };
  const auto touch_row = [&](int row) {
    if (!mark_[static_cast<size_t>(row)]) {
      mark_[static_cast<size_t>(row)] = 1;
      pattern_.push_back(row);
    }
  };

  for (int k = 0; k < m_; ++k) {
    pattern_.clear();
    // Scatter the k-th factored column and enqueue already-pivoted rows.
    for (const Entry& e :
         a.column(basis_cols[static_cast<size_t>(q_[static_cast<size_t>(k)])])) {
      x[static_cast<size_t>(e.row)] = e.value;
      touch_row(e.row);
      push_step(pinv_[static_cast<size_t>(e.row)]);
    }

    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
      const int t = heap_.back();
      heap_.pop_back();
      queued_[static_cast<size_t>(t)] = 0;
      const int prow = p_[static_cast<size_t>(t)];
      const double xv = x[static_cast<size_t>(prow)];
      x[static_cast<size_t>(prow)] = 0.0;  // consumed into U
      if (xv == 0.0) continue;             // numerically cancelled
      u_rows_.push_back(t);
      u_vals_.push_back(xv);
      // Eliminate with L column t: x -= xv * L_t (kernel scatter — row
      // indices within a column are distinct), then record the written rows
      // and enqueue newly reached pivoted ones. The bookkeeping depends only
      // on pinv_/queued_/mark_, never on x values, and the heap pops in step
      // order regardless of push order.
      const int64_t s = l_start_[static_cast<size_t>(t)];
      const int len = static_cast<int>(l_start_[static_cast<size_t>(t) + 1] - s);
      scatter_axpy(l_rows_.data() + s, l_vals_.data() + s, len, -xv, x.data());
      for (int i = 0; i < len; ++i) {
        const int row = l_rows_[static_cast<size_t>(s + i)];
        touch_row(row);
        push_step(pinv_[static_cast<size_t>(row)]);
      }
    }
    u_start_[static_cast<size_t>(k) + 1] = static_cast<int64_t>(u_rows_.size());

    // Partial pivoting over the not-yet-pivoted rows of the pattern (rows
    // outside it hold exact zeros). Same rule as an ascending dense scan:
    // max |x|, lowest row on ties, never 0 or NaN.
    int pivot_row = -1;
    double best = 0.0;
    for (const int i : pattern_) {
      if (pinv_[static_cast<size_t>(i)] >= 0) continue;
      const double v = std::abs(x[static_cast<size_t>(i)]);
      if (v > best || (v == best && v > 0 && i < pivot_row)) {
        best = v;
        pivot_row = i;
      }
    }
    if (pivot_row < 0 || best < singular_tol) {
      // Clean scratch before reporting singularity.
      for (const int i : pattern_) {
        x[static_cast<size_t>(i)] = 0.0;
        mark_[static_cast<size_t>(i)] = 0;
      }
      return false;
    }

    const double pivot = x[static_cast<size_t>(pivot_row)];
    p_[static_cast<size_t>(k)] = pivot_row;
    pinv_[static_cast<size_t>(pivot_row)] = k;
    u_diag_[static_cast<size_t>(k)] = pivot;
    x[static_cast<size_t>(pivot_row)] = 0.0;

    // L column in ascending row order, as the dense scan produced it:
    // btran() gathers it with the 4-lane gather_dot, whose summation order
    // follows entry order.
    std::sort(pattern_.begin(), pattern_.end());
    for (const int i : pattern_) {
      mark_[static_cast<size_t>(i)] = 0;
      const double v = x[static_cast<size_t>(i)];
      if (v == 0.0) continue;
      x[static_cast<size_t>(i)] = 0.0;
      if (pinv_[static_cast<size_t>(i)] >= 0) continue;  // stale zero-cancelled entry
      l_rows_.push_back(i);
      l_vals_.push_back(v / pivot);
    }
    l_start_[static_cast<size_t>(k) + 1] = static_cast<int64_t>(l_rows_.size());
  }

  // Step index of every L entry's row (all rows end up pivoted), so the
  // BTRAN L^T pass can gather straight from step space.
  l_steps_.resize(l_rows_.size());
  for (size_t i = 0; i < l_rows_.size(); ++i) {
    l_steps_[i] = pinv_[static_cast<size_t>(l_rows_[i])];
  }
  return true;
}

void BasisLu::ftran(std::vector<double>& x) const {
  debug_check_solve(x);
  // Forward: y = L^{-1} P x, working in original-row space.
  for (int t = 0; t < m_; ++t) {
    const double v = x[static_cast<size_t>(p_[static_cast<size_t>(t)])];
    if (v == 0.0) continue;
    const int64_t s = l_start_[static_cast<size_t>(t)];
    const int len = static_cast<int>(l_start_[static_cast<size_t>(t) + 1] - s);
    scatter_axpy(l_rows_.data() + s, l_vals_.data() + s, len, -v, x.data());
  }
  // Gather into step space.
  std::vector<double>& y = work2_;
  for (int t = 0; t < m_; ++t) {
    y[static_cast<size_t>(t)] = x[static_cast<size_t>(p_[static_cast<size_t>(t)])];
  }

  // Backward: z = U^{-1} y (column-oriented back substitution).
  for (int k = m_ - 1; k >= 0; --k) {
    const double zk = y[static_cast<size_t>(k)] / u_diag_[static_cast<size_t>(k)];
    y[static_cast<size_t>(k)] = zk;
    if (zk == 0.0) continue;
    const int64_t s = u_start_[static_cast<size_t>(k)];
    const int len = static_cast<int>(u_start_[static_cast<size_t>(k) + 1] - s);
    scatter_axpy(u_rows_.data() + s, u_vals_.data() + s, len, -zk, y.data());
  }

  // Un-permute columns: x[basis position q_[k]] = z[k].
  for (int k = 0; k < m_; ++k) {
    x[static_cast<size_t>(q_[static_cast<size_t>(k)])] = y[static_cast<size_t>(k)];
  }

  // Apply eta transformations in application order.
  for (const Eta& e : etas_) {
    const double xr = x[static_cast<size_t>(e.pos)] / e.pivot;
    x[static_cast<size_t>(e.pos)] = xr;
    if (xr == 0.0) continue;
    scatter_axpy(eta_rows_.data() + e.start, eta_vals_.data() + e.start, e.len, -xr,
                 x.data());
  }
}

void BasisLu::ftran_unit(std::vector<double>& x, int row, double value) const {
  debug_check_solve(x);
  x[static_cast<size_t>(row)] = value;
  // queued_ is self-cleaning (flags drop on pop), so only (re)size it here.
  if (queued_.size() != static_cast<size_t>(m_)) queued_.assign(static_cast<size_t>(m_), 0);
  heap_.clear();
  touched_.clear();

  // Forward: reach-based L pass. Updates from step t only create nonzeros at
  // rows pivoted later, so popping the pending steps in increasing order
  // replays the dense loop's visit order restricted to reachable steps.
  const auto push_step = [&](int t) {
    if (!queued_[static_cast<size_t>(t)]) {
      queued_[static_cast<size_t>(t)] = 1;
      heap_.push_back(t);
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
    }
  };
  push_step(pinv_[static_cast<size_t>(row)]);
  int kmax = -1;
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
    const int t = heap_.back();
    heap_.pop_back();
    queued_[static_cast<size_t>(t)] = 0;
    touched_.push_back(t);
    kmax = t;
    const double v = x[static_cast<size_t>(p_[static_cast<size_t>(t)])];
    if (v == 0.0) continue;  // numerically cancelled
    const int64_t s = l_start_[static_cast<size_t>(t)];
    const int len = static_cast<int>(l_start_[static_cast<size_t>(t) + 1] - s);
    scatter_axpy(l_rows_.data() + s, l_vals_.data() + s, len, -v, x.data());
    for (int i = 0; i < len; ++i) {
      push_step(pinv_[static_cast<size_t>(l_rows_[static_cast<size_t>(s + i)])]);
    }
  }

  // Gather into step space: only steps <= kmax can hold nonzeros.
  std::vector<double>& y = work2_;
  std::fill(y.begin(), y.begin() + (kmax + 1), 0.0);
  for (const int t : touched_) {
    y[static_cast<size_t>(t)] = x[static_cast<size_t>(p_[static_cast<size_t>(t)])];
    x[static_cast<size_t>(p_[static_cast<size_t>(t)])] = 0.0;  // clear row-space residue
  }

  // Backward: U substitution scatters strictly upward (step t < k), so
  // everything above the deepest touched step stays exactly zero.
  for (int k = kmax; k >= 0; --k) {
    const double zk = y[static_cast<size_t>(k)] / u_diag_[static_cast<size_t>(k)];
    y[static_cast<size_t>(k)] = zk;
    if (zk == 0.0) continue;
    const int64_t s = u_start_[static_cast<size_t>(k)];
    const int len = static_cast<int>(u_start_[static_cast<size_t>(k) + 1] - s);
    scatter_axpy(u_rows_.data() + s, u_vals_.data() + s, len, -zk, y.data());
  }

  // Un-permute columns; x above was restored to all-zero, so positions past
  // kmax already hold their (zero) solution values.
  for (int k = 0; k <= kmax; ++k) {
    x[static_cast<size_t>(q_[static_cast<size_t>(k)])] = y[static_cast<size_t>(k)];
  }

  // Apply eta transformations in application order (same as ftran()).
  for (const Eta& e : etas_) {
    const double xr = x[static_cast<size_t>(e.pos)] / e.pivot;
    x[static_cast<size_t>(e.pos)] = xr;
    if (xr == 0.0) continue;
    scatter_axpy(eta_rows_.data() + e.start, eta_vals_.data() + e.start, e.len, -xr,
                 x.data());
  }
}

void BasisLu::btran(std::vector<double>& y) const {
  debug_check_solve(y);
  // Etas transposed, newest first: y <- E^{-T} y. The dot is the 4-lane
  // kernel (acc = y[pos] - Σ lanes).
  for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
    const double dot = gather_dot(eta_rows_.data() + it->start, eta_vals_.data() + it->start,
                                  it->len, y.data());
    y[static_cast<size_t>(it->pos)] = (y[static_cast<size_t>(it->pos)] - dot) / it->pivot;
  }

  // Permute into step space: c_q[k] = y[q_[k]].
  std::vector<double>& w = work2_;
  for (int k = 0; k < m_; ++k) {
    w[static_cast<size_t>(k)] = y[static_cast<size_t>(q_[static_cast<size_t>(k)])];
  }

  // Solve U^T w' = c_q forward over steps (U stored by column). Most
  // columns are empty; they skip the kernel call, whose empty dot is +0 and
  // would leave w[k] bit for bit unchanged (signed zeros included).
  for (int k = 0; k < m_; ++k) {
    const int64_t s = u_start_[static_cast<size_t>(k)];
    const int len = static_cast<int>(u_start_[static_cast<size_t>(k) + 1] - s);
    double wk = w[static_cast<size_t>(k)];
    if (len != 0) wk -= gather_dot(u_rows_.data() + s, u_vals_.data() + s, len, w.data());
    w[static_cast<size_t>(k)] = wk / u_diag_[static_cast<size_t>(k)];
  }

  // Solve L^T t = w backward; L column entries live in original-row space,
  // l_steps_ carries their precomputed step indices for the gather. Empty
  // columns are skipped for the same reason.
  for (int k = m_ - 1; k >= 0; --k) {
    const int64_t s = l_start_[static_cast<size_t>(k)];
    const int len = static_cast<int>(l_start_[static_cast<size_t>(k) + 1] - s);
    if (len == 0) continue;
    const double dot = gather_dot(l_steps_.data() + s, l_vals_.data() + s, len, w.data());
    w[static_cast<size_t>(k)] = w[static_cast<size_t>(k)] - dot;
  }

  // Un-permute rows: y[p_[k]] = t[k].
  for (int k = 0; k < m_; ++k) {
    y[static_cast<size_t>(p_[static_cast<size_t>(k)])] = w[static_cast<size_t>(k)];
  }
}

bool BasisLu::update(int pos, const std::vector<double>& w, double pivot_tol) {
  const double pivot = w[static_cast<size_t>(pos)];
  if (std::abs(pivot) < pivot_tol) return false;
  Eta e;
  e.pos = pos;
  e.pivot = pivot;
  e.start = static_cast<int64_t>(eta_rows_.size());
  for (int i = 0; i < m_; ++i) {
    if (i == pos) continue;
    const double v = w[static_cast<size_t>(i)];
    if (v != 0.0) {
      eta_rows_.push_back(i);
      eta_vals_.push_back(v);
    }
  }
  e.len = static_cast<int>(static_cast<int64_t>(eta_rows_.size()) - e.start);
  etas_.push_back(e);
  return true;
}

}  // namespace wnet::milp::simplex
