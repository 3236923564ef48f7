#pragma once

#include <vector>

#include "milp/model.h"

namespace wnet::milp {

struct PropagateOptions {
  /// Work budget: each row may be re-processed at most this many times.
  int max_sweeps = 2;
  /// Tighten only integer/binary variable bounds (activities are still
  /// computed over every variable). This is what branch-and-bound wants at
  /// a node: continuous bounds stay put so the warm basis stays meaningful.
  bool integers_only = false;
  double tol = 1e-9;
};

struct PropagateResult {
  bool infeasible = false;  ///< some row's activity cannot meet its rhs
  int tightened = 0;        ///< number of bound changes applied
};

/// Flattened (CSR) snapshot of a model's rows plus the transpose incidence,
/// built once per solve. Per-node propagation runs thousands of row sweeps;
/// iterating LinExpr's std::map there is an order of magnitude too slow, so
/// propagation reads these contiguous arrays instead.
struct RowSystem {
  explicit RowSystem(const Model& m);

  std::vector<int> row_start;  ///< size rows+1, offsets into col/coef
  std::vector<int> col;
  std::vector<double> coef;
  std::vector<Sense> sense;   ///< per row
  std::vector<double> rhs;    ///< per row
  std::vector<char> is_int;   ///< per variable: integer/binary?
  std::vector<std::vector<int>> var_rows;  ///< variable -> incident row indices

  [[nodiscard]] int num_rows() const { return static_cast<int>(rhs.size()); }
};

/// Activity-based bound propagation over explicit bound arrays: the root
/// bound propagation and every branch-and-bound node run it.
///
/// No model is touched: `lb`/`ub` (indexed by variable id, the root's or a
/// node's current local bounds) are tightened in place; integer bounds are
/// rounded inward. Only bounds change (no rows or columns are removed), so
/// any point inside the tightened box that the model accepts is a solution
/// of the original model. Propagation is worklist-driven: only the rows
/// incident to `seed_cols` are processed, plus rows woken transitively by
/// new tightenings — an empty seed list means one full sweep first.
/// Deterministic: rows are processed in FIFO order seeded in ascending
/// index order.
[[nodiscard]] PropagateResult propagate_bounds(const RowSystem& rs, std::vector<double>& lb,
                                               std::vector<double>& ub,
                                               const std::vector<int>& seed_cols,
                                               const PropagateOptions& opts = {});

}  // namespace wnet::milp
