#include "milp/simplex/lu.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <queue>
#include <random>
#include <string>
#include <vector>

#include "milp/simplex/sparse.h"
#include "util/kernels.h"

namespace wnet::milp::simplex {

/// Reference side of the factorization oracle: the dense-scan factorize()
/// that the pattern-driven one replaced, step for step. Each column pays an
/// O(m) pivot scan and an O(m) L extraction in ascending row order, which
/// makes its pivot choice and its L entry order self-evidently "max |x|,
/// lowest row on ties" and "ascending rows".
struct BasisLuTestAccess {
  static bool dense_factorize(BasisLu& lu, const SparseMatrix& a,
                              const std::vector<int>& basis_cols, double singular_tol = 1e-10) {
    lu.m_ = static_cast<int>(basis_cols.size());
    const size_t m = static_cast<size_t>(lu.m_);
    lu.l_rows_.clear();
    lu.l_vals_.clear();
    lu.l_steps_.clear();
    lu.l_start_.assign(m + 1, 0);
    lu.u_rows_.clear();
    lu.u_vals_.clear();
    lu.u_start_.assign(m + 1, 0);
    lu.u_diag_.assign(m, 0.0);
    lu.p_.assign(m, -1);
    lu.pinv_.assign(m, -1);
    lu.q_.resize(m);
    lu.etas_.clear();
    lu.eta_rows_.clear();
    lu.eta_vals_.clear();
    lu.work_.assign(m, 0.0);
    lu.work2_.assign(m, 0.0);

    std::iota(lu.q_.begin(), lu.q_.end(), 0);
    std::sort(lu.q_.begin(), lu.q_.end(), [&](int x, int y) {
      const size_t nx = a.column(basis_cols[static_cast<size_t>(x)]).size();
      const size_t ny = a.column(basis_cols[static_cast<size_t>(y)]).size();
      if (nx != ny) return nx < ny;
      return x < y;
    });

    std::vector<double>& x = lu.work_;
    std::priority_queue<int, std::vector<int>, std::greater<>> steps;
    std::vector<char> queued(m, 0);
    for (int k = 0; k < lu.m_; ++k) {
      const int col = basis_cols[static_cast<size_t>(lu.q_[static_cast<size_t>(k)])];
      for (const Entry& e : a.column(col)) {
        x[static_cast<size_t>(e.row)] = e.value;
        const int t = lu.pinv_[static_cast<size_t>(e.row)];
        if (t >= 0 && !queued[static_cast<size_t>(t)]) {
          queued[static_cast<size_t>(t)] = 1;
          steps.push(t);
        }
      }
      while (!steps.empty()) {
        const int t = steps.top();
        steps.pop();
        queued[static_cast<size_t>(t)] = 0;
        const int prow = lu.p_[static_cast<size_t>(t)];
        const double xv = x[static_cast<size_t>(prow)];
        x[static_cast<size_t>(prow)] = 0.0;
        if (xv == 0.0) continue;
        lu.u_rows_.push_back(t);
        lu.u_vals_.push_back(xv);
        const int64_t s = lu.l_start_[static_cast<size_t>(t)];
        const int len = static_cast<int>(lu.l_start_[static_cast<size_t>(t) + 1] - s);
        util::kernels::scatter_axpy(lu.l_rows_.data() + s, lu.l_vals_.data() + s, len, -xv,
                                    x.data());
        for (int i = 0; i < len; ++i) {
          const int ts = lu.pinv_[static_cast<size_t>(lu.l_rows_[static_cast<size_t>(s + i)])];
          if (ts >= 0 && !queued[static_cast<size_t>(ts)]) {
            queued[static_cast<size_t>(ts)] = 1;
            steps.push(ts);
          }
        }
      }
      lu.u_start_[static_cast<size_t>(k) + 1] = static_cast<int64_t>(lu.u_rows_.size());

      int pivot_row = -1;
      double best = 0.0;
      for (int i = 0; i < lu.m_; ++i) {
        if (lu.pinv_[static_cast<size_t>(i)] >= 0) continue;
        const double v = std::abs(x[static_cast<size_t>(i)]);
        if (v > best) {
          best = v;
          pivot_row = i;
        }
      }
      if (pivot_row < 0 || best < singular_tol) {
        std::fill(x.begin(), x.end(), 0.0);
        return false;
      }
      const double pivot = x[static_cast<size_t>(pivot_row)];
      lu.p_[static_cast<size_t>(k)] = pivot_row;
      lu.pinv_[static_cast<size_t>(pivot_row)] = k;
      lu.u_diag_[static_cast<size_t>(k)] = pivot;
      x[static_cast<size_t>(pivot_row)] = 0.0;
      for (int i = 0; i < lu.m_; ++i) {
        const double v = x[static_cast<size_t>(i)];
        if (v == 0.0) continue;
        x[static_cast<size_t>(i)] = 0.0;
        if (lu.pinv_[static_cast<size_t>(i)] >= 0) continue;
        lu.l_rows_.push_back(i);
        lu.l_vals_.push_back(v / pivot);
      }
      lu.l_start_[static_cast<size_t>(k) + 1] = static_cast<int64_t>(lu.l_rows_.size());
    }
    lu.l_steps_.resize(lu.l_rows_.size());
    for (size_t i = 0; i < lu.l_rows_.size(); ++i) {
      lu.l_steps_[i] = lu.pinv_[static_cast<size_t>(lu.l_rows_[i])];
    }
    return true;
  }

  /// The work vector and the flag arrays are all zero and the heap empty,
  /// as factorize() must leave them on every return path.
  static bool scratch_is_clean(const BasisLu& lu) {
    const auto zero = [](const auto& v) {
      return std::all_of(v.begin(), v.end(), [](auto e) { return e == 0; });
    };
    return zero(lu.work_) && zero(lu.mark_) && zero(lu.queued_) && lu.heap_.empty();
  }

  /// Every factor array, entry order included.
  static void expect_same_factors(const BasisLu& got, const BasisLu& want) {
    EXPECT_EQ(got.p_, want.p_);
    EXPECT_EQ(got.q_, want.q_);
    EXPECT_EQ(got.l_start_, want.l_start_);
    EXPECT_EQ(got.l_rows_, want.l_rows_);
    EXPECT_EQ(got.l_vals_, want.l_vals_);
    EXPECT_EQ(got.l_steps_, want.l_steps_);
    EXPECT_EQ(got.u_start_, want.u_start_);
    EXPECT_EQ(got.u_rows_, want.u_rows_);
    EXPECT_EQ(got.u_vals_, want.u_vals_);
    EXPECT_EQ(got.u_diag_, want.u_diag_);
  }
};

namespace {

/// Builds a sparse matrix from dense data (rows x cols).
SparseMatrix from_dense(const std::vector<std::vector<double>>& d) {
  const int rows = static_cast<int>(d.size());
  const int cols = rows > 0 ? static_cast<int>(d[0].size()) : 0;
  SparseMatrix a(rows, cols);
  for (int j = 0; j < cols; ++j) {
    std::vector<Entry> col;
    for (int i = 0; i < rows; ++i) {
      if (d[static_cast<size_t>(i)][static_cast<size_t>(j)] != 0.0) {
        col.push_back({i, d[static_cast<size_t>(i)][static_cast<size_t>(j)]});
      }
    }
    a.set_column(j, std::move(col));
  }
  return a;
}

std::vector<double> mat_vec(const std::vector<std::vector<double>>& d,
                            const std::vector<double>& x) {
  std::vector<double> y(d.size(), 0.0);
  for (size_t i = 0; i < d.size(); ++i) {
    for (size_t j = 0; j < x.size(); ++j) y[i] += d[i][j] * x[j];
  }
  return y;
}

std::vector<double> mat_t_vec(const std::vector<std::vector<double>>& d,
                              const std::vector<double>& x) {
  std::vector<double> y(d[0].size(), 0.0);
  for (size_t i = 0; i < d.size(); ++i) {
    for (size_t j = 0; j < y.size(); ++j) y[j] += d[i][j] * x[i];
  }
  return y;
}

TEST(BasisLu, IdentityRoundTrip) {
  const auto a = from_dense({{1, 0, 0}, {0, 1, 0}, {0, 0, 1}});
  BasisLu lu;
  ASSERT_TRUE(lu.factorize(a, {0, 1, 2}));
  std::vector<double> x{3.0, -1.0, 2.0};
  lu.ftran(x);
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], -1.0, 1e-12);
  EXPECT_NEAR(x[2], 2.0, 1e-12);
  std::vector<double> y{1.0, 2.0, 3.0};
  lu.btran(y);
  EXPECT_NEAR(y[2], 3.0, 1e-12);
}

TEST(BasisLu, SolvesGeneralSystem) {
  // B = [[2,1,0],[1,3,1],[0,1,4]] (columns 0..2).
  const std::vector<std::vector<double>> dense{{2, 1, 0}, {1, 3, 1}, {0, 1, 4}};
  const auto a = from_dense(dense);
  BasisLu lu;
  ASSERT_TRUE(lu.factorize(a, {0, 1, 2}));

  const std::vector<double> x_true{1.0, -2.0, 0.5};
  std::vector<double> rhs = mat_vec(dense, x_true);
  lu.ftran(rhs);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(rhs[static_cast<size_t>(i)], x_true[static_cast<size_t>(i)], 1e-10);

  const std::vector<double> y_true{0.5, 1.5, -1.0};
  std::vector<double> c = mat_t_vec(dense, y_true);
  lu.btran(c);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(c[static_cast<size_t>(i)], y_true[static_cast<size_t>(i)], 1e-10);
}

TEST(BasisLu, DetectsSingularBasis) {
  const auto a = from_dense({{1, 2, 3}, {2, 4, 6}, {1, 1, 1}});  // col1 = 2*col0
  BasisLu lu;
  EXPECT_FALSE(lu.factorize(a, {0, 1, 2}));
}

TEST(BasisLu, SubsetOfWiderMatrixAsBasis) {
  // A has 5 columns; basis picks {4, 1, 3}.
  const std::vector<std::vector<double>> dense{
      {1, 0, 2, 0, 1}, {0, 3, 0, 1, 0}, {2, 0, 0, 5, 1}};
  const auto a = from_dense(dense);
  BasisLu lu;
  ASSERT_TRUE(lu.factorize(a, {4, 1, 3}));
  // B = columns 4,1,3: [[1,0,0],[0,3,1],[1,0,5]].
  const std::vector<std::vector<double>> b{{1, 0, 0}, {0, 3, 1}, {1, 0, 5}};
  const std::vector<double> x_true{2.0, 1.0, -1.0};
  std::vector<double> rhs = mat_vec(b, x_true);
  lu.ftran(rhs);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(rhs[static_cast<size_t>(i)], x_true[static_cast<size_t>(i)], 1e-10);
}

TEST(BasisLu, EtaUpdateMatchesRefactorization) {
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> u(-2.0, 2.0);
  const int m = 12;
  // Random well-conditioned dense-ish matrix with extra columns to swap in.
  std::vector<std::vector<double>> dense(static_cast<size_t>(m),
                                         std::vector<double>(static_cast<size_t>(m) + 4, 0.0));
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < m + 4; ++j) {
      if ((i + j) % 3 == 0 || i == j) dense[static_cast<size_t>(i)][static_cast<size_t>(j)] = u(rng);
    }
    dense[static_cast<size_t>(i)][static_cast<size_t>(i)] += 4.0;  // diagonal dominance
  }
  const auto a = from_dense(dense);
  std::vector<int> basis(static_cast<size_t>(m));
  for (int i = 0; i < m; ++i) basis[static_cast<size_t>(i)] = i;

  BasisLu lu;
  ASSERT_TRUE(lu.factorize(a, basis));

  // Replace the basis position with the strongest pivot by column m
  // (outside the current basis) so the new basis stays well conditioned.
  const int entering = m;
  std::vector<double> w(static_cast<size_t>(m), 0.0);
  for (const Entry& e : a.column(entering)) w[static_cast<size_t>(e.row)] = e.value;
  lu.ftran(w);
  int pos = 0;
  for (int i = 1; i < m; ++i) {
    if (std::abs(w[static_cast<size_t>(i)]) > std::abs(w[static_cast<size_t>(pos)])) pos = i;
  }
  ASSERT_TRUE(lu.update(pos, w));
  basis[static_cast<size_t>(pos)] = entering;

  BasisLu fresh;
  ASSERT_TRUE(fresh.factorize(a, basis));

  std::vector<double> rhs(static_cast<size_t>(m));
  for (int i = 0; i < m; ++i) rhs[static_cast<size_t>(i)] = u(rng);
  std::vector<double> via_eta = rhs;
  std::vector<double> via_fresh = rhs;
  lu.ftran(via_eta);
  fresh.ftran(via_fresh);
  for (int i = 0; i < m; ++i) EXPECT_NEAR(via_eta[static_cast<size_t>(i)], via_fresh[static_cast<size_t>(i)], 1e-8);

  std::vector<double> c(static_cast<size_t>(m));
  for (int i = 0; i < m; ++i) c[static_cast<size_t>(i)] = u(rng);
  std::vector<double> bt_eta = c;
  std::vector<double> bt_fresh = c;
  lu.btran(bt_eta);
  fresh.btran(bt_fresh);
  for (int i = 0; i < m; ++i) EXPECT_NEAR(bt_eta[static_cast<size_t>(i)], bt_fresh[static_cast<size_t>(i)], 1e-8);
}

TEST(BasisLu, RandomSparseSystemsProperty) {
  std::mt19937 rng(42);
  std::uniform_real_distribution<double> u(-3.0, 3.0);
  for (int trial = 0; trial < 20; ++trial) {
    const int m = 5 + trial;
    std::vector<std::vector<double>> dense(static_cast<size_t>(m),
                                           std::vector<double>(static_cast<size_t>(m), 0.0));
    for (int i = 0; i < m; ++i) {
      dense[static_cast<size_t>(i)][static_cast<size_t>(i)] = 5.0 + std::abs(u(rng));
      for (int k = 0; k < 3; ++k) {
        const int j = static_cast<int>(rng() % static_cast<unsigned>(m));
        if (j != i) dense[static_cast<size_t>(i)][static_cast<size_t>(j)] = u(rng);
      }
    }
    const auto a = from_dense(dense);
    std::vector<int> basis(static_cast<size_t>(m));
    for (int i = 0; i < m; ++i) basis[static_cast<size_t>(i)] = i;
    BasisLu lu;
    ASSERT_TRUE(lu.factorize(a, basis));
    std::vector<double> x_true(static_cast<size_t>(m));
    for (int i = 0; i < m; ++i) x_true[static_cast<size_t>(i)] = u(rng);
    std::vector<double> rhs = mat_vec(dense, x_true);
    lu.ftran(rhs);
    for (int i = 0; i < m; ++i) {
      EXPECT_NEAR(rhs[static_cast<size_t>(i)], x_true[static_cast<size_t>(i)], 1e-8)
          << "trial " << trial << " row " << i;
    }
  }
}

TEST(BasisLu, FtranUnitMatchesDenseFtranBitwise) {
  // The hyper-sparse single-nonzero path must reproduce the dense ftran()
  // exactly: every iteration it skips operates on an exact zero.
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> u(-3.0, 3.0);
  for (int trial = 0; trial < 15; ++trial) {
    const int m = 6 + trial;
    std::vector<std::vector<double>> dense(static_cast<size_t>(m),
                                           std::vector<double>(static_cast<size_t>(m), 0.0));
    for (int i = 0; i < m; ++i) {
      dense[static_cast<size_t>(i)][static_cast<size_t>(i)] = 4.0 + std::abs(u(rng));
      for (int k = 0; k < 2; ++k) {
        const int j = static_cast<int>(rng() % static_cast<unsigned>(m));
        if (j != i) dense[static_cast<size_t>(i)][static_cast<size_t>(j)] = u(rng);
      }
    }
    const auto a = from_dense(dense);
    std::vector<int> basis(static_cast<size_t>(m));
    for (int i = 0; i < m; ++i) basis[static_cast<size_t>(i)] = i;
    BasisLu lu;
    ASSERT_TRUE(lu.factorize(a, basis));

    // A couple of eta updates so the sweep is exercised too.
    for (int upd = 0; upd < 2; ++upd) {
      std::vector<double> w(static_cast<size_t>(m), 0.0);
      w[static_cast<size_t>((upd * 3) % m)] = 1.0;
      lu.ftran(w);
      int pos = 0;
      for (int i = 1; i < m; ++i) {
        if (std::abs(w[static_cast<size_t>(i)]) > std::abs(w[static_cast<size_t>(pos)])) pos = i;
      }
      ASSERT_TRUE(lu.update(pos, w));
    }

    for (int row = 0; row < m; ++row) {
      const double value = u(rng);
      std::vector<double> via_dense(static_cast<size_t>(m), 0.0);
      via_dense[static_cast<size_t>(row)] = value;
      lu.ftran(via_dense);
      std::vector<double> via_unit(static_cast<size_t>(m), 0.0);
      lu.ftran_unit(via_unit, row, value);
      for (int i = 0; i < m; ++i) {
        EXPECT_EQ(via_unit[static_cast<size_t>(i)], via_dense[static_cast<size_t>(i)])
            << "trial " << trial << " row " << row << " pos " << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Bitwise oracle: the pattern-driven factorize() against the dense-scan
// reference, on bases shaped like table3's (slack-heavy, entries in
// {±1, ±2, ±0.5}, so |x| ties and exact cancellations are common).
// ---------------------------------------------------------------------------

/// Random m x 2m matrix shaped like a table3 standard form: m structural
/// columns, each with an entry in its own "home" row (a random permutation)
/// plus 0..5 more, all from {±1, ±2, ±0.5}; then the m slack columns
/// (identity).
struct Table3Like {
  SparseMatrix a;
  std::vector<int> home;  ///< home row of each structural column
};

Table3Like random_table3_like(std::mt19937& rng, int m) {
  static constexpr double kValues[] = {1.0, -1.0, 2.0, -2.0, 0.5, -0.5};
  Table3Like t{SparseMatrix(m, 2 * m), std::vector<int>(static_cast<size_t>(m))};
  std::iota(t.home.begin(), t.home.end(), 0);
  std::shuffle(t.home.begin(), t.home.end(), rng);
  std::vector<int> rows(static_cast<size_t>(m));
  std::iota(rows.begin(), rows.end(), 0);
  for (int j = 0; j < m; ++j) {
    const int extra = std::min(m - 1, static_cast<int>(rng() % 6));
    std::shuffle(rows.begin(), rows.end(), rng);
    std::vector<int> pick{t.home[static_cast<size_t>(j)]};
    for (size_t k = 0; static_cast<int>(pick.size()) <= extra; ++k) {
      if (rows[k] != pick[0]) pick.push_back(rows[k]);
    }
    std::sort(pick.begin(), pick.end());
    std::vector<Entry> col;
    for (const int r : pick) col.push_back({r, kValues[rng() % 6]});
    t.a.set_column(j, col);
  }
  for (int i = 0; i < m; ++i) t.a.set_column(m + i, {{i, 1.0}});
  return t;
}

/// A basis of `m` columns: random structurals, and a `slack_share`
/// fraction of slacks covering the rows the structurals do not call home,
/// in shuffled positions. Usually nonsingular; exact cancellations among
/// the off-home entries make some of them singular.
std::vector<int> random_basis(std::mt19937& rng, const Table3Like& t, double slack_share) {
  const int m = static_cast<int>(t.home.size());
  std::vector<int> structs(static_cast<size_t>(m));
  std::iota(structs.begin(), structs.end(), 0);
  std::shuffle(structs.begin(), structs.end(), rng);
  const int n_struct = m - static_cast<int>(std::lround(slack_share * m));
  std::vector<int> basis(structs.begin(), structs.begin() + n_struct);
  std::vector<char> homed(static_cast<size_t>(m), 0);
  for (const int j : basis) homed[static_cast<size_t>(t.home[static_cast<size_t>(j)])] = 1;
  for (int i = 0; i < m; ++i) {
    if (!homed[static_cast<size_t>(i)]) basis.push_back(m + i);
  }
  std::shuffle(basis.begin(), basis.end(), rng);
  return basis;
}

/// Factorizes `basis` with the production and the reference factorization
/// and compares them: same return value, same factors, and bitwise-equal
/// ftran / ftran_unit / btran on unit and random right-hand sides, before
/// and after two eta updates. `lu` is reused across calls on purpose: its
/// scratch must come back clean from every return path, singular included.
/// Returns whether the basis was nonsingular.
bool expect_matches_reference(BasisLu& lu, const SparseMatrix& a, const std::vector<int>& basis,
                              std::mt19937& rng, const std::string& label,
                              double singular_tol = 1e-10) {
  SCOPED_TRACE(label);
  BasisLu ref;
  const bool ok = BasisLuTestAccess::dense_factorize(ref, a, basis, singular_tol);
  EXPECT_EQ(lu.factorize(a, basis, singular_tol), ok);
  EXPECT_TRUE(BasisLuTestAccess::scratch_is_clean(lu));
  if (!ok) return false;
  BasisLuTestAccess::expect_same_factors(lu, ref);

  const int m = static_cast<int>(basis.size());
  std::uniform_real_distribution<double> u(-3.0, 3.0);
  const auto check_solves = [&](const char* phase) {
    SCOPED_TRACE(phase);
    for (int row = 0; row < m; ++row) {
      const double value = u(rng);
      std::vector<double> got(static_cast<size_t>(m), 0.0);
      std::vector<double> want(static_cast<size_t>(m), 0.0);
      lu.ftran_unit(got, row, value);
      ref.ftran_unit(want, row, value);
      EXPECT_EQ(got, want) << "ftran_unit row " << row;
      std::fill(got.begin(), got.end(), 0.0);
      std::fill(want.begin(), want.end(), 0.0);
      got[static_cast<size_t>(row)] = want[static_cast<size_t>(row)] = value;
      lu.ftran(got);
      ref.ftran(want);
      EXPECT_EQ(got, want) << "ftran unit row " << row;
      std::fill(got.begin(), got.end(), 0.0);
      std::fill(want.begin(), want.end(), 0.0);
      got[static_cast<size_t>(row)] = want[static_cast<size_t>(row)] = value;
      lu.btran(got);
      ref.btran(want);
      EXPECT_EQ(got, want) << "btran unit position " << row;
    }
    for (int trial = 0; trial < 4; ++trial) {
      std::vector<double> rhs(static_cast<size_t>(m));
      for (double& v : rhs) v = u(rng);
      std::vector<double> got = rhs;
      std::vector<double> want = rhs;
      lu.ftran(got);
      ref.ftran(want);
      EXPECT_EQ(got, want) << "ftran random rhs " << trial;
      got = rhs;
      want = rhs;
      lu.btran(got);
      ref.btran(want);
      EXPECT_EQ(got, want) << "btran random rhs " << trial;
    }
  };
  check_solves("fresh factors");

  // Two eta updates: swap in structural columns at their largest FTRAN
  // entry (a real simplex pivot), identically on both sides.
  for (int upd = 0; upd < 2; ++upd) {
    const int entering = static_cast<int>(rng() % static_cast<unsigned>(m));
    std::vector<double> w(static_cast<size_t>(m), 0.0);
    for (const Entry& e : a.column(entering)) w[static_cast<size_t>(e.row)] = e.value;
    std::vector<double> w_ref = w;
    lu.ftran(w);
    ref.ftran(w_ref);
    EXPECT_EQ(w, w_ref) << "entering column " << entering;
    int pos = 0;
    for (int i = 1; i < m; ++i) {
      if (std::abs(w[static_cast<size_t>(i)]) > std::abs(w[static_cast<size_t>(pos)])) pos = i;
    }
    const bool upd_ok = lu.update(pos, w);
    EXPECT_EQ(upd_ok, ref.update(pos, w_ref));
    if (!upd_ok) break;
  }
  check_solves("after eta updates");
  return true;
}

TEST(BasisLuOracle, RandomTable3LikeBasesMatchDenseScanBitwise) {
  std::mt19937 rng(2018);
  BasisLu lu;  // shared across every case below
  int nonsingular = 0;
  int cases = 0;
  const double shares[] = {0.9, 0.75, 0.5, 0.25};
  for (int m = 1; m <= 300; m += (m < 24 ? 1 : 23)) {
    for (const double share : shares) {
      const Table3Like t = random_table3_like(rng, m);
      const std::vector<int> basis = random_basis(rng, t, share);
      ++cases;
      if (expect_matches_reference(lu, t.a, basis, rng,
                                   "m=" + std::to_string(m) + " slack_share=" +
                                       std::to_string(share))) {
        ++nonsingular;
      }
      if (HasFailure()) return;
    }
  }
  // The comparison is only as strong as the nonsingular share.
  EXPECT_GE(nonsingular, cases / 3) << nonsingular << " of " << cases;
}

TEST(BasisLuOracle, SingularBasesFailOnBothSidesAndLeaveCleanScratch) {
  std::mt19937 rng(7);
  BasisLu lu;
  for (int m = 2; m <= 120; m += 17) {
    const Table3Like t = random_table3_like(rng, m);
    std::vector<int> basis = random_basis(rng, t, 0.5);
    basis[static_cast<size_t>(m - 1)] = basis[0];  // B has two equal columns
    EXPECT_FALSE(expect_matches_reference(lu, t.a, basis, rng, "m=" + std::to_string(m)));
    // A pivot threshold above every entry stops at the first column, with
    // its nonzeros still in the work vector.
    EXPECT_FALSE(expect_matches_reference(lu, t.a, basis, rng, "tol m=" + std::to_string(m),
                                          /*singular_tol=*/4.0));
    // A nonsingular factorization right after must not see stale scratch.
    std::vector<int> slacks(static_cast<size_t>(m));
    std::iota(slacks.begin(), slacks.end(), m);
    EXPECT_TRUE(expect_matches_reference(lu, t.a, slacks, rng, "slacks m=" + std::to_string(m)));
  }
}

TEST(BasisLuOracle, PivotTieGoesToLowestRowWhenFoundOutOfOrder) {
  // Column 0 (factored first, fewest nonzeros) pivots on row 2 and leaves
  // L_0 = {row 0: 0.5}. Column 1 scatters rows 1 and 2; eliminating step 0
  // then writes row 0 = 0 - 2 * 0.5 = -1, after row 1 = 1 joined the
  // pattern. |x| ties at 1 between rows 1 and 0, found in the order 1, 0:
  // the pivot must still be row 0, as an ascending scan picks it.
  const std::vector<std::vector<double>> dense{{1, 0, 1}, {0, 1, 1}, {2, 2, 1}};
  const SparseMatrix a = from_dense(dense);
  BasisLu lu;
  std::mt19937 rng(3);
  ASSERT_TRUE(expect_matches_reference(lu, a, {0, 1, 2}, rng, "tie"));
  std::vector<double> e0{1.0, 0.0, 0.0};
  lu.ftran(e0);  // column 0 of B^{-1}; sanity that the factors solve B
  const std::vector<double> back = mat_vec(dense, e0);
  EXPECT_NEAR(back[0], 1.0, 1e-12);
  EXPECT_NEAR(back[1], 0.0, 1e-12);
  EXPECT_NEAR(back[2], 0.0, 1e-12);
}

}  // namespace
}  // namespace wnet::milp::simplex
