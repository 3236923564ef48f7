#pragma once

#include <cstdint>
#include <vector>

#include "milp/simplex/sparse.h"

namespace wnet::milp::simplex {

/// Sparse LU factorization of a simplex basis with partial pivoting
/// (left-looking Gilbert-Peierls style) plus product-form-of-the-inverse
/// eta updates between refactorizations.
///
/// Spaces: FTRAN input is indexed by constraint row, output by *basis
/// position*; BTRAN input by basis position, output by constraint row.
/// Eta updates live purely in basis-position space.
///
/// Storage is structure-of-arrays: L, U and the eta file each keep one flat
/// int32 index pool and one flat double value pool with per-column start
/// offsets (columns are built strictly in factorization order, so no
/// capacity slack is needed). The split arrays feed the gather/scatter
/// kernels directly (see util/kernels.h for their lane-order contract).
///
/// Bitwise contract: the factors are a pure function of the basis columns.
/// The pivot of each column is the not-yet-pivoted row of largest |x|, the
/// lowest such row on ties, and never an exact 0 or a NaN. The entries of
/// every L column are stored in ascending row order. That order matters:
/// btran() reduces each L column with the 4-lane gather_dot, whose lane
/// assignment and summation order follow entry order, so a permuted column
/// gives a different roundoff. factorize() visits only the rows a column
/// actually writes, and sorts them, so it reproduces exactly the factors of
/// an ascending dense scan over all m rows.
class BasisLu {
 public:
  /// Factorizes B = A[:, basis_cols]. Columns are pre-ordered by increasing
  /// nonzero count (ties by basis position) to curb fill-in. Returns false
  /// if the basis is singular (pivot below `singular_tol`). Costs the
  /// basis' fill plus O(m); it allocates only when m or the fill grows.
  bool factorize(const SparseMatrix& a, const std::vector<int>& basis_cols,
                 double singular_tol = 1e-10);

  /// Solves B x = b. `x` is b on input (indexed by row) and the solution on
  /// output (indexed by basis position).
  void ftran(std::vector<double>& x) const;

  /// Hyper-sparse FTRAN for a right-hand side with a single nonzero
  /// (`value` at original row `row`, i.e. a slack or singleton structural
  /// column). `x` must be all-zero on entry and receives the solution in
  /// basis-position space. The forward pass walks only the steps actually
  /// reached from the seed row (topological order via a step heap) and the
  /// backward pass starts at the deepest touched step, so the cost is
  /// proportional to the solution's fill instead of O(m). Arithmetic is
  /// bitwise-identical to ftran() on the equivalent dense input: every
  /// skipped iteration would have operated on an exact zero.
  void ftran_unit(std::vector<double>& x, int row, double value) const;

  /// Solves B^T y = c. `y` is c on input (indexed by basis position) and
  /// the solution on output (indexed by row).
  void btran(std::vector<double>& y) const;

  /// Records the replacement of basis position `pos` by a column whose
  /// FTRAN representation is `w` (dense, basis-position space). Returns
  /// false if |w[pos]| is too small to pivot on — caller must refactorize.
  bool update(int pos, const std::vector<double>& w, double pivot_tol = 1e-9);

  [[nodiscard]] int num_updates() const { return static_cast<int>(etas_.size()); }
  /// Number of factorize() calls over this object's lifetime.
  [[nodiscard]] long factorize_calls() const { return factorize_calls_; }
  [[nodiscard]] int dim() const { return m_; }

  /// Total nonzeros in L + U + etas (refactorization trigger heuristic).
  [[nodiscard]] size_t fill() const {
    return l_rows_.size() + u_rows_.size() + eta_rows_.size() + etas_.size();
  }

 private:
  struct Eta {
    int pos;        ///< replaced basis position
    double pivot;   ///< w[pos]
    int64_t start;  ///< offset into eta_rows_/eta_vals_
    int len;        ///< number of off-pivot entries
  };

  void debug_check_solve(const std::vector<double>& v) const;

  int m_ = 0;
  long factorize_calls_ = 0;
  // L: column t holds entries (original row i, value) with pinv_[i] > t;
  // implicit unit diagonal at row p_[t]. l_steps_ mirrors l_rows_ mapped
  // through pinv_ (filled once factorization completes) so the BTRAN L^T
  // pass can gather directly in step space.
  std::vector<int32_t> l_rows_;
  std::vector<double> l_vals_;
  std::vector<int32_t> l_steps_;
  std::vector<int64_t> l_start_;  ///< size m_ + 1
  // U: column k holds strictly-upper entries (step t < k, value); diagonal
  // stored separately.
  std::vector<int32_t> u_rows_;
  std::vector<double> u_vals_;
  std::vector<int64_t> u_start_;  ///< size m_ + 1
  std::vector<double> u_diag_;
  std::vector<int> p_;     ///< p_[step] = original row
  std::vector<int> pinv_;  ///< pinv_[original row] = step
  std::vector<int> q_;     ///< q_[step] = basis position of factored column
  std::vector<Eta> etas_;
  std::vector<int32_t> eta_rows_;  ///< basis-position space
  std::vector<double> eta_vals_;

  mutable std::vector<double> work_;   ///< dense scratch, size m
  mutable std::vector<double> work2_;  ///< dense scratch, size m
  mutable std::vector<int> heap_;      ///< pending-step min-heap (factorize, ftran_unit)
  mutable std::vector<int> touched_;   ///< steps reached by the forward pass
  mutable std::vector<char> queued_;   ///< step already in heap_, size m
  std::vector<int> pattern_;           ///< rows written for the current column (factorize)
  std::vector<char> mark_;             ///< row already in pattern_, size m
  std::vector<size_t> bucket_;         ///< counting-sort offsets by nonzero count

  /// Test-only access to the factors, so a reference factorization can be
  /// installed and compared bit for bit.
  friend struct BasisLuTestAccess;
};

}  // namespace wnet::milp::simplex
