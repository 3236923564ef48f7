#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/kernels.h"

namespace wnet::milp::simplex {

/// One nonzero entry of a sparse column (the element type handed across the
/// API; storage is structure-of-arrays, see SparseMatrix).
struct Entry {
  int row;
  double value;
};

/// Lightweight read view of one column: parallel int32 row-index and double
/// value arrays. Iterates and indexes as Entry values so call sites written
/// against the old array-of-structs layout keep working.
class ColumnView {
 public:
  ColumnView(const int32_t* rows, const double* values, int len)
      : rows_(rows), values_(values), len_(len) {}

  [[nodiscard]] size_t size() const { return static_cast<size_t>(len_); }
  [[nodiscard]] bool empty() const { return len_ == 0; }
  [[nodiscard]] Entry operator[](int i) const {
    return Entry{static_cast<int>(rows_[i]), values_[i]};
  }
  [[nodiscard]] const int32_t* rows() const { return rows_; }
  [[nodiscard]] const double* values() const { return values_; }

  class iterator {
   public:
    iterator(const ColumnView* v, int i) : v_(v), i_(i) {}
    Entry operator*() const { return (*v_)[i_]; }
    iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator!=(const iterator& o) const { return i_ != o.i_; }

   private:
    const ColumnView* v_;
    int i_;
  };
  [[nodiscard]] iterator begin() const { return {this, 0}; }
  [[nodiscard]] iterator end() const { return {this, len_}; }

 private:
  const int32_t* rows_;
  const double* values_;
  int len_;
};

/// Column-major sparse matrix in structure-of-arrays CSC form: one flat
/// pooled int32 row-index array and one flat double value array shared by
/// all columns, with per-column {start, len, cap} metadata. The split
/// layout feeds the gather/scatter kernels (util/kernels.h) directly —
/// `dot_column` is a gather-dot, `axpy_column` a scatter-axpy — and halves
/// the bytes streamed per pricing pass vs the old interleaved
/// Entry{int,double} layout (12 packed -> 8+4 split, no padding).
///
/// Columns are allocated in the pool with capacity slack; `append_entry`
/// on a full column relocates it to the pool tail (StandardLp::add_row
/// appends a coefficient to arbitrary structural columns mid-solve).
/// Abandoned slots are garbage until the matrix is rebuilt — acceptable:
/// row appends are rare (lazy cuts) and bounded per solve.
class SparseMatrix {
 public:
  SparseMatrix(int rows, int cols) : rows_(rows), meta_(static_cast<size_t>(cols)) {}

  void set_column(int j, const std::vector<Entry>& entries) {
    Col& m = meta_[static_cast<size_t>(j)];
    nnz_ -= static_cast<size_t>(m.len);
    nnz_ += entries.size();
    const int n = static_cast<int>(entries.size());
    if (n > m.cap) {
      m.start = static_cast<int64_t>(rows_pool_.size());
      m.cap = n;
      rows_pool_.resize(rows_pool_.size() + static_cast<size_t>(n));
      values_pool_.resize(values_pool_.size() + static_cast<size_t>(n));
    }
    m.len = n;
    int32_t* r = rows_pool_.data() + m.start;
    double* v = values_pool_.data() + m.start;
    for (int i = 0; i < n; ++i) {
      r[i] = static_cast<int32_t>(entries[static_cast<size_t>(i)].row);
      v[i] = entries[static_cast<size_t>(i)].value;
    }
  }

  /// Appends one entry to an existing column. The caller must keep the
  /// sorted-by-row invariant — appending an entry for a brand-new largest
  /// row index (row growth) preserves it by construction.
  void append_entry(int j, Entry e) {
    Col& m = meta_[static_cast<size_t>(j)];
    if (m.len == m.cap) relocate(m, m.len == 0 ? 4 : 2 * m.len);
    rows_pool_[static_cast<size_t>(m.start + m.len)] = static_cast<int32_t>(e.row);
    values_pool_[static_cast<size_t>(m.start + m.len)] = e.value;
    ++m.len;
    ++nnz_;
  }

  /// Appends a new column at the end; returns its index.
  int add_column(const std::vector<Entry>& entries) {
    meta_.emplace_back();
    set_column(static_cast<int>(meta_.size()) - 1, entries);
    return static_cast<int>(meta_.size()) - 1;
  }

  /// Grows the row count (row data lives inside the columns).
  void set_num_rows(int rows) { rows_ = rows; }

  [[nodiscard]] ColumnView column(int j) const {
    const Col& m = meta_[static_cast<size_t>(j)];
    return {rows_pool_.data() + m.start, values_pool_.data() + m.start, m.len};
  }

  [[nodiscard]] int num_rows() const { return rows_; }
  [[nodiscard]] int num_cols() const { return static_cast<int>(meta_.size()); }
  [[nodiscard]] size_t nonzeros() const { return nnz_; }

  /// Dot product of column j with a dense vector.
  [[nodiscard]] double dot_column(int j, const std::vector<double>& dense) const {
    const Col& m = meta_[static_cast<size_t>(j)];
    debug_check_bounds(m, dense.size());
    return util::kernels::gather_dot(rows_pool_.data() + m.start,
                                     values_pool_.data() + m.start, m.len, dense.data());
  }

  /// dense += scale * column j.
  void axpy_column(int j, double scale, std::vector<double>& dense) const {
    const Col& m = meta_[static_cast<size_t>(j)];
    debug_check_bounds(m, dense.size());
    util::kernels::scatter_axpy(rows_pool_.data() + m.start, values_pool_.data() + m.start,
                                m.len, scale, dense.data());
  }

 private:
  struct Col {
    int64_t start = 0;
    int len = 0;
    int cap = 0;
  };

  void relocate(Col& m, int new_cap) {
    const int64_t start = static_cast<int64_t>(rows_pool_.size());
    rows_pool_.resize(rows_pool_.size() + static_cast<size_t>(new_cap));
    values_pool_.resize(values_pool_.size() + static_cast<size_t>(new_cap));
    // resize may reallocate, so re-derive the source after it.
    for (int i = 0; i < m.len; ++i) {
      rows_pool_[static_cast<size_t>(start + i)] =
          rows_pool_[static_cast<size_t>(m.start + i)];
      values_pool_[static_cast<size_t>(start + i)] =
          values_pool_[static_cast<size_t>(m.start + i)];
    }
    m.start = start;
    m.cap = new_cap;
  }

  /// Debug-only guard for the kernel entry points: every row index must
  /// address the dense operand (the PR 8 shared-pool bug class — silent OOB
  /// reads in release).
  void debug_check_bounds(const Col& m, size_t dense_size) const {
#ifndef NDEBUG
    for (int i = 0; i < m.len; ++i) {
      const int32_t r = rows_pool_[static_cast<size_t>(m.start + i)];
      assert(r >= 0 && static_cast<size_t>(r) < dense_size &&
             "sparse kernel row index out of bounds for dense operand");
    }
#else
    (void)m;
    (void)dense_size;
#endif
  }

  int rows_;
  std::vector<Col> meta_;
  std::vector<int32_t> rows_pool_;
  std::vector<double> values_pool_;
  size_t nnz_ = 0;
};

}  // namespace wnet::milp::simplex
