/// Tests for the plain-loop kernels (util/kernels.h). The accumulating and
/// element-wise kernels are compared bitwise against references that spell
/// out the result contract (4-lane order, one rounding per step); the
/// geometry kernels against Vec2::dist and the exact segments_intersect
/// oracle, directly and through FloorPlan.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <random>
#include <vector>

#include "geometry/floorplan.h"
#include "geometry/segment.h"
#include "util/kernels.h"

namespace wnet::util::kernels {
namespace {

uint64_t bits(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

/// Random sparse column: `len` distinct row indices below `dim` (sorted,
/// as CSC columns are) with signed values spanning many magnitudes.
struct SparseColumn {
  std::vector<int32_t> rows;
  std::vector<double> values;
};

SparseColumn random_column(std::mt19937_64& rng, int dim, int len) {
  std::vector<int> all(static_cast<size_t>(dim));
  std::iota(all.begin(), all.end(), 0);
  std::shuffle(all.begin(), all.end(), rng);
  all.resize(static_cast<size_t>(len));
  std::sort(all.begin(), all.end());
  std::uniform_real_distribution<double> mag(-8.0, 8.0);
  SparseColumn c;
  for (int r : all) {
    c.rows.push_back(static_cast<int32_t>(r));
    c.values.push_back(std::ldexp(mag(rng), static_cast<int>(mag(rng))));
  }
  return c;
}

std::vector<double> random_dense(std::mt19937_64& rng, int n) {
  std::uniform_real_distribution<double> mag(-8.0, 8.0);
  std::vector<double> v(static_cast<size_t>(n));
  for (double& x : v) x = std::ldexp(mag(rng), static_cast<int>(mag(rng)));
  return v;
}

/// Lane of element i under the contract: the main loop covers the first
/// n - n % 4 elements by i % 4, the tail folds into lanes 0..n%4-1.
int lane_of(int i, int n) {
  const int main_end = n - n % 4;
  return i < main_end ? i % 4 : i - main_end;
}

TEST(Kernels, GatherDotFollowsLaneOrder) {
  std::mt19937_64 rng(20260808);
  const int kDim = 512;
  for (int trial = 0; trial < 1000; ++trial) {
    const int len = static_cast<int>(rng() % 65);  // 0..64 covers tails 0..3
    const SparseColumn c = random_column(rng, kDim, len);
    const std::vector<double> dense = random_dense(rng, kDim);
    double lanes[4] = {0.0, 0.0, 0.0, 0.0};
    for (int i = 0; i < len; ++i) {
      const size_t u = static_cast<size_t>(i);
      lanes[lane_of(i, len)] += c.values[u] * dense[static_cast<size_t>(c.rows[u])];
    }
    const double ref = (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]);
    const double got = gather_dot(c.rows.data(), c.values.data(), len, dense.data());
    ASSERT_EQ(bits(ref), bits(got)) << "trial " << trial << " len " << len;
  }
}

TEST(Kernels, RowActivityFollowsLaneOrder) {
  std::mt19937_64 rng(4242);
  const int kDim = 300;
  for (int trial = 0; trial < 1000; ++trial) {
    const int len = static_cast<int>(rng() % 49);
    const SparseColumn c = random_column(rng, kDim, len);
    const std::vector<double> lb = random_dense(rng, kDim);
    std::vector<double> ub = lb;
    for (double& u : ub) u += 1.0;
    double lo[4] = {0.0, 0.0, 0.0, 0.0};
    double hi[4] = {0.0, 0.0, 0.0, 0.0};
    for (int i = 0; i < len; ++i) {
      const size_t u = static_cast<size_t>(i);
      const size_t j = static_cast<size_t>(c.rows[u]);
      const double pl = c.values[u] * lb[j];
      const double pu = c.values[u] * ub[j];
      // MINPD/MAXPD selection: the second operand on ties.
      lo[lane_of(i, len)] += pl < pu ? pl : pu;
      hi[lane_of(i, len)] += pl > pu ? pl : pu;
    }
    double act_lo = 0.0, act_hi = 0.0;
    row_activity(c.rows.data(), c.values.data(), len, lb.data(), ub.data(), &act_lo,
                 &act_hi);
    ASSERT_EQ(bits((lo[0] + lo[2]) + (lo[1] + lo[3])), bits(act_lo)) << "trial " << trial;
    ASSERT_EQ(bits((hi[0] + hi[2]) + (hi[1] + hi[3])), bits(act_hi)) << "trial " << trial;
  }
}

TEST(Kernels, ScatterAxpyOneRoundingPerStep) {
  std::mt19937_64 rng(777);
  const int kDim = 512;
  std::uniform_real_distribution<double> sc(-4.0, 4.0);
  for (int trial = 0; trial < 1000; ++trial) {
    const int len = static_cast<int>(rng() % 65);
    const SparseColumn c = random_column(rng, kDim, len);
    const std::vector<double> base = random_dense(rng, kDim);
    const double scale = sc(rng);
    std::vector<double> ref = base;
    for (int i = 0; i < len; ++i) {
      const size_t u = static_cast<size_t>(i);
      const double product = scale * c.values[u];
      ref[static_cast<size_t>(c.rows[u])] += product;
    }
    std::vector<double> got = base;
    scatter_axpy(c.rows.data(), c.values.data(), len, scale, got.data());
    for (int i = 0; i < kDim; ++i) {
      ASSERT_EQ(bits(ref[static_cast<size_t>(i)]), bits(got[static_cast<size_t>(i)]))
          << "trial " << trial << " row " << i;
    }
  }
}

TEST(Kernels, DenseAxpyOneRoundingPerStep) {
  std::mt19937_64 rng(31337);
  std::uniform_real_distribution<double> sc(-4.0, 4.0);
  for (int trial = 0; trial < 1000; ++trial) {
    const int n = static_cast<int>(rng() % 130);
    const std::vector<double> x = random_dense(rng, n);
    const std::vector<double> base = random_dense(rng, n);
    const double a = sc(rng);
    std::vector<double> got = base;
    dense_axpy(got.data(), x.data(), a, n);
    for (int i = 0; i < n; ++i) {
      const size_t u = static_cast<size_t>(i);
      const double product = a * x[u];
      ASSERT_EQ(bits(base[u] + product), bits(got[u])) << "trial " << trial << " i " << i;
    }
  }
}

TEST(Kernels, PairDistancesMatchVec2Dist) {
  std::mt19937_64 rng(99);
  std::uniform_real_distribution<double> pos(-100.0, 100.0);
  for (int trial = 0; trial < 500; ++trial) {
    const int n = static_cast<int>(rng() % 70);
    std::vector<double> xs(static_cast<size_t>(n)), ys(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      xs[static_cast<size_t>(i)] = pos(rng);
      ys[static_cast<size_t>(i)] = pos(rng);
    }
    const double x0 = pos(rng), y0 = pos(rng);
    std::vector<double> got(static_cast<size_t>(n));
    pair_distances(xs.data(), ys.data(), n, x0, y0, got.data());
    // The propagation batch API's bit-identity hinges on this.
    for (int i = 0; i < n; ++i) {
      const geom::Vec2 a{x0, y0};
      const geom::Vec2 b{xs[static_cast<size_t>(i)], ys[static_cast<size_t>(i)]};
      ASSERT_EQ(bits(a.dist(b)), bits(got[static_cast<size_t>(i)]))
          << "trial " << trial << " i " << i;
    }
  }
}

TEST(Kernels, SegmentClassifyMatchesOracle) {
  std::mt19937_64 rng(2718);
  // Half the corpus on a coarse integer grid to force collinear/touching
  // configurations (class 2), half continuous for the decisive classes.
  std::uniform_real_distribution<double> cont(-10.0, 10.0);
  std::uniform_int_distribution<int> grid(-4, 4);
  constexpr double kEps = 1e-12;
  int counts[3] = {0, 0, 0};
  for (int trial = 0; trial < 1000; ++trial) {
    const bool coarse = (trial % 2) == 0;
    const auto coord = [&] { return coarse ? static_cast<double>(grid(rng)) : cont(rng); };
    const double sax = coord(), say = coord(), sbx = coord(), sby = coord();
    // Mostly short batches; every fifth may span several internal chunks.
    const int n = static_cast<int>(trial % 5 == 0 ? rng() % 300 : rng() % 10);
    std::vector<double> wax(static_cast<size_t>(n)), way(static_cast<size_t>(n)),
        wbx(static_cast<size_t>(n)), wby(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      wax[static_cast<size_t>(i)] = coord();
      way[static_cast<size_t>(i)] = coord();
      wbx[static_cast<size_t>(i)] = coord();
      wby[static_cast<size_t>(i)] = coord();
    }
    std::vector<uint8_t> cls(static_cast<size_t>(n), 255);
    segment_classify(sax, say, sbx, sby, wax.data(), way.data(), wbx.data(), wby.data(), n,
                     kEps, cls.data());
    // Class 0/1 must already be the exact answer; class 2 defers to
    // segments_intersect.
    const geom::Segment link{{sax, say}, {sbx, sby}};
    for (int i = 0; i < n; ++i) {
      const geom::Segment wall{{wax[static_cast<size_t>(i)], way[static_cast<size_t>(i)]},
                               {wbx[static_cast<size_t>(i)], wby[static_cast<size_t>(i)]}};
      const bool oracle = geom::segments_intersect(link, wall);
      const uint8_t c = cls[static_cast<size_t>(i)];
      ASSERT_LE(c, 2) << "trial " << trial << " wall " << i;
      ++counts[c];
      const bool resolved = c == 1 || (c == 2 && oracle);
      ASSERT_EQ(oracle, resolved) << "trial " << trial << " wall " << i << " class "
                                  << static_cast<int>(c);
    }
  }
  // The corpus must exercise every class, or the oracle check is vacuous.
  EXPECT_GT(counts[0], 0);
  EXPECT_GT(counts[1], 0);
  EXPECT_GT(counts[2], 0);
}

/// wall_loss_db / walls_crossed against a per-wall segments_intersect sum
/// in wall order. Every other link has its endpoints snapped to a 5 m grid.
void expect_plan_matches_oracle(const geom::FloorPlan& plan, std::mt19937_64& rng,
                                int trials) {
  std::uniform_real_distribution<double> px(0.0, plan.width()), py(0.0, plan.height());
  for (int trial = 0; trial < trials; ++trial) {
    const auto snap = [&](double v) { return trial % 2 == 0 ? v : 5.0 * std::round(v / 5.0); };
    const geom::Vec2 a{snap(px(rng)), snap(py(rng))};
    const geom::Vec2 b{snap(px(rng)), snap(py(rng))};
    const geom::Segment link{a, b};
    double loss = 0.0;
    int crossed = 0;
    for (const geom::Wall& w : plan.walls()) {
      if (geom::segments_intersect(link, w.span)) {
        loss += w.loss_db;
        ++crossed;
      }
    }
    ASSERT_EQ(bits(loss), bits(plan.wall_loss_db(a, b))) << "trial " << trial;
    ASSERT_EQ(crossed, plan.walls_crossed(a, b)) << "trial " << trial;
  }
}

TEST(Kernels, FloorPlanCrossingsMatchPerWallOracle) {
  std::mt19937_64 rng(60221023);
  expect_plan_matches_oracle(geom::make_office_floor(80.0, 45.0, 8), rng, 200);

  // More walls than one classify chunk, half of them on a coarse grid so
  // some links run along or end on a wall.
  geom::FloorPlan big(40.0, 40.0);
  std::uniform_real_distribution<double> cont(0.0, 40.0);
  std::uniform_int_distribution<int> grid(0, 8);
  for (int i = 0; i < 600; ++i) {
    const auto coord = [&] { return i % 2 == 0 ? 5.0 * grid(rng) : cont(rng); };
    big.add_wall({coord(), coord()}, {coord(), coord()},
                 static_cast<geom::WallMaterial>(i % 5));
  }
  expect_plan_matches_oracle(big, rng, 200);
}

}  // namespace
}  // namespace wnet::util::kernels
