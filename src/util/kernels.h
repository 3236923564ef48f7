#pragma once

/// The hot inner loops of the pipeline as plain functions: simplex gather
/// dot-products and scatter updates (SparseMatrix / BasisLu), the bound
/// propagation row-activity accumulation, wall-crossing segment
/// classification and batched path-loss distance evaluation.
///
/// They live in one translation unit (kernels.cpp), compiled with
/// `-ffp-contract=off -fno-math-errno -fno-trapping-math
/// -fvect-cost-model=dynamic` so the compiler vectorizes the plain loops for
/// the target's baseline ISA. None of these flags changes a value: nothing
/// is reassociated or contracted, and no caller reads `errno` or the FP
/// exception flags. No ISA is selected at run time.
///
/// Result contract
/// ---------------
///  - Accumulating kernels (`gather_dot`, `row_activity`): logical lane
///    `l` sums the elements `i` with `i % 4 == l` in increasing `i`; the
///    final reduction is `(lane0 + lane2) + (lane1 + lane3)`. The tail
///    (`n % 4` trailing elements) is folded into lanes `0..n%4-1` after the
///    main loop, exactly one extra addend per lane.
///  - Element-wise kernels (`scatter_axpy`, `dense_axpy`, `pair_distances`,
///    `segment_classify`): one IEEE rounding per arithmetic step, never
///    fused, so a multiply-add is always round(round(a*b) + c).
///  - min/max follow the x86 MINPD/MAXPD selection rule
///    `min(x,y) = x < y ? x : y` (second operand on ties/NaN).

#include <cstdint>

namespace wnet::util::kernels {

/// Σ values[i] * dense[rows[i]] with the 4-lane accumulation order.
double gather_dot(const int32_t* rows, const double* values, int n, const double* dense);

/// dense[rows[i]] += scale * values[i] for each i. Row indices must be
/// distinct (CSC columns / LU columns are); each element performs one
/// rounded multiply then one rounded add.
void scatter_axpy(const int32_t* rows, const double* values, int n, double scale,
                  double* dense);

/// y[i] += a * x[i] for i in [0, n); branchless, one mul + one add per
/// element regardless of zeros.
void dense_axpy(double* y, const double* x, double a, int n);

/// Row-activity range for bound propagation: accumulates
///   lo_lane += min(a*lb, a*ub),  hi_lane += max(a*lb, a*ub)
/// over the row's columns with the 4-lane order, where lb/ub are gathered
/// via cols[i]. min/max use the MINPD selection rule.
void row_activity(const int32_t* cols, const double* coef, int n, const double* lb,
                  const double* ub, double* act_lo, double* act_hi);

/// Classifies each wall segment (wa[i] -> wb[i]) against the link segment
/// (sa -> sb) using the repo's eps-scaled orientation test:
///   out[i] = 0  definitely no proper crossing
///   out[i] = 1  definitely a proper crossing (all four orientations
///               nonzero and o1 != o2 && o3 != o4)
///   out[i] = 2  some orientation is zero within tolerance — caller must
///               fall back to the exact scalar segments_intersect.
void segment_classify(double sax, double say, double sbx, double sby, const double* wax,
                      const double* way, const double* wbx, const double* wby, int n,
                      double eps, uint8_t* out);

/// out[i] = sqrt((xs[i]-x0)^2 + (ys[i]-y0)^2), one rounding per step
/// (sub, mul, add, IEEE sqrt).
void pair_distances(const double* xs, const double* ys, int n, double x0, double y0,
                    double* out);

}  // namespace wnet::util::kernels
