/// Plain-loop kernels (see kernels.h for the result contract). The loops
/// are written so GCC's vectorizer can take them on the baseline ISA
/// without changing a bit: the accumulators are four explicit lanes (a
/// vector of lanes never reassociates a sum), and segment_classify is
/// branch-free arithmetic on 0/1 doubles.

#include "util/kernels.h"

#include <algorithm>
#include <cmath>

namespace wnet::util::kernels {

double gather_dot(const int32_t* rows, const double* values, int n, const double* dense) {
  double lanes[4] = {0.0, 0.0, 0.0, 0.0};
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    lanes[0] += values[i] * dense[rows[i]];
    lanes[1] += values[i + 1] * dense[rows[i + 1]];
    lanes[2] += values[i + 2] * dense[rows[i + 2]];
    lanes[3] += values[i + 3] * dense[rows[i + 3]];
  }
  for (int l = 0; i < n; ++i, ++l) lanes[l] += values[i] * dense[rows[i]];
  return (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]);
}

void scatter_axpy(const int32_t* rows, const double* values, int n, double scale,
                  double* dense) {
  // Stays scalar: the baseline ISA has no scatter store, and vectorizing
  // only the products (through a buffer) measured slower than this loop.
  for (int i = 0; i < n; ++i) dense[rows[i]] += scale * values[i];
}

void dense_axpy(double* y, const double* x, double a, int n) {
  for (int i = 0; i < n; ++i) y[i] += a * x[i];
}

void row_activity(const int32_t* cols, const double* coef, int n, const double* lb,
                  const double* ub, double* act_lo, double* act_hi) {
  double lo[4] = {0.0, 0.0, 0.0, 0.0};
  double hi[4] = {0.0, 0.0, 0.0, 0.0};
  const auto term = [&](int i, double* lo_lane, double* hi_lane) {
    const double pl = coef[i] * lb[cols[i]];
    const double pu = coef[i] * ub[cols[i]];
    *lo_lane += pl < pu ? pl : pu;
    *hi_lane += pl > pu ? pl : pu;
  };
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    term(i, &lo[0], &hi[0]);
    term(i + 1, &lo[1], &hi[1]);
    term(i + 2, &lo[2], &hi[2]);
    term(i + 3, &lo[3], &hi[3]);
  }
  for (int l = 0; i < n; ++i, ++l) term(i, &lo[l], &hi[l]);
  *act_lo = (lo[0] + lo[2]) + (lo[1] + lo[3]);
  *act_hi = (hi[0] + hi[2]) + (hi[1] + hi[3]);
}

void segment_classify(double sax, double say, double sbx, double sby, const double* wax,
                      const double* way, const double* wbx, const double* wby, int n,
                      double eps, uint8_t* out) {
  // Link direction, its length and max(1, |link|) are loop constants.
  const double dlx = sbx - sax;
  const double dly = sby - say;
  const double nl = std::sqrt(dlx * dlx + dly * dly);
  const double base_l = 1.0 > nl ? 1.0 : nl;
  // Classes are computed as exact small doubles into a chunk buffer, then
  // narrowed: the compare-and-combine loop stays in one lane width.
  constexpr int kChunk = 64;
  double cls[kChunk];
  for (int off = 0; off < n; off += kChunk) {
    const int len = std::min(kChunk, n - off);
    for (int i = 0; i < len; ++i) {
      const double ax = wax[off + i], ay = way[off + i], bx = wbx[off + i], by = wby[off + i];
      // o1 = orientation(s.a, s.b, w.a), o2 = orientation(s.a, s.b, w.b)
      const double r1x = ax - sax, r1y = ay - say;
      const double r2x = bx - sax, r2y = by - say;
      const double c1 = dlx * r1y - dly * r1x;
      const double c2 = dlx * r2y - dly * r2x;
      const double n1 = std::sqrt(r1x * r1x + r1y * r1y);
      const double n2 = std::sqrt(r2x * r2x + r2y * r2y);
      // o3 = orientation(w.a, w.b, s.a), o4 = orientation(w.a, w.b, s.b)
      const double dwx = bx - ax, dwy = by - ay;
      const double r3x = sax - ax, r3y = say - ay;
      const double r4x = sbx - ax, r4y = sby - ay;
      const double c3 = dwx * r3y - dwy * r3x;
      const double c4 = dwx * r4y - dwy * r4x;
      const double nw = std::sqrt(dwx * dwx + dwy * dwy);
      const double n3 = n1;  // |s.a - w.a| == |w.a - s.a| bit for bit
      const double n4 = std::sqrt(r4x * r4x + r4y * r4y);
      // tolerance = eps * max(max(1, |dir|), |rel|), MAXPD selection order.
      const double base_w = 1.0 > nw ? 1.0 : nw;
      const double t1 = eps * (base_l > n1 ? base_l : n1);
      const double t2 = eps * (base_l > n2 ? base_l : n2);
      const double t3 = eps * (base_w > n3 ? base_w : n3);
      const double t4 = eps * (base_w > n4 ? base_w : n4);
      // Orientation signs as 0/1 doubles; with t >= 0, g and l of one
      // orientation are never both 1, so every sum and product stays 0 or 1.
      const double g1 = c1 > t1 ? 1.0 : 0.0, l1 = c1 < -t1 ? 1.0 : 0.0;
      const double g2 = c2 > t2 ? 1.0 : 0.0, l2 = c2 < -t2 ? 1.0 : 0.0;
      const double g3 = c3 > t3 ? 1.0 : 0.0, l3 = c3 < -t3 ? 1.0 : 0.0;
      const double g4 = c4 > t4 ? 1.0 : 0.0, l4 = c4 < -t4 ? 1.0 : 0.0;
      const double nonzero = ((g1 + l1) * (g2 + l2)) * ((g3 + l3) * (g4 + l4));
      const double cross = (g1 * l2 + l1 * g2) * (g3 * l4 + l3 * g4);
      // nonzero ? cross : 2
      cls[i] = 2.0 - nonzero * (2.0 - cross);
    }
    for (int i = 0; i < len; ++i) out[off + i] = static_cast<uint8_t>(cls[i]);
  }
}

void pair_distances(const double* xs, const double* ys, int n, double x0, double y0,
                    double* out) {
  for (int i = 0; i < n; ++i) {
    const double dx = xs[i] - x0;
    const double dy = ys[i] - y0;
    out[i] = std::sqrt(dx * dx + dy * dy);
  }
}

}  // namespace wnet::util::kernels
