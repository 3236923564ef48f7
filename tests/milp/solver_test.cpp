#include "milp/solver.h"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

#include "milp/model.h"

namespace wnet::milp {
namespace {

TEST(MipSolver, PureLpPassThrough) {
  Model m;
  const Var x = m.add_continuous("x", 0.0, 3.0);
  const Var y = m.add_continuous("y", 0.0, 2.0);
  m.add_le(LinExpr(x) + LinExpr(y), 4.0);
  m.minimize(-1.0 * LinExpr(x) - 2.0 * LinExpr(y));
  const auto res = solve(m);
  ASSERT_EQ(res.status, SolveStatus::kOptimal);
  EXPECT_NEAR(res.objective, -6.0, 1e-6);
}

TEST(MipSolver, SimpleKnapsack) {
  // max 10a + 6b + 4c s.t. a+b+c <= 2 (binary)  ->  min negated.
  Model m;
  const Var a = m.add_binary("a");
  const Var b = m.add_binary("b");
  const Var c = m.add_binary("c");
  m.add_le(LinExpr(a) + LinExpr(b) + LinExpr(c), 2.0);
  m.minimize(-10.0 * LinExpr(a) - 6.0 * LinExpr(b) - 4.0 * LinExpr(c));
  const auto res = solve(m);
  ASSERT_EQ(res.status, SolveStatus::kOptimal);
  EXPECT_NEAR(res.objective, -16.0, 1e-6);
  EXPECT_NEAR(res.x[0], 1.0, 1e-6);
  EXPECT_NEAR(res.x[1], 1.0, 1e-6);
  EXPECT_NEAR(res.x[2], 0.0, 1e-6);
}

TEST(MipSolver, WeightedKnapsackNeedsBranching) {
  // max 5x1 + 4x2 + 3x3  s.t. 2x1 + 3x2 + x3 <= 5, binaries.
  // Subsets: {x1,x2} weight 5 value 9; {x1,x3} weight 3 value 8;
  // {x2,x3} weight 4 value 7; all three weight 6 infeasible. Optimum 9.
  Model m;
  const Var x1 = m.add_binary("x1");
  const Var x2 = m.add_binary("x2");
  const Var x3 = m.add_binary("x3");
  m.add_le(2.0 * LinExpr(x1) + 3.0 * LinExpr(x2) + LinExpr(x3), 5.0);
  m.minimize(-5.0 * LinExpr(x1) - 4.0 * LinExpr(x2) - 3.0 * LinExpr(x3));
  const auto res = solve(m);
  ASSERT_EQ(res.status, SolveStatus::kOptimal);
  EXPECT_NEAR(res.objective, -9.0, 1e-6);
}

TEST(MipSolver, IntegerVariablesGeneralBounds) {
  // min x + y s.t. 3x + 2y >= 12, x,y integer in [0,10].
  // Candidates: x=4,y=0 (4); x=2,y=3 (5); x=0,y=6 (6); x=3, y=2 (5) ... best 4.
  Model m;
  const Var x = m.add_integer("x", 0, 10);
  const Var y = m.add_integer("y", 0, 10);
  m.add_ge(3.0 * LinExpr(x) + 2.0 * LinExpr(y), 12.0);
  m.minimize(LinExpr(x) + LinExpr(y));
  const auto res = solve(m);
  ASSERT_EQ(res.status, SolveStatus::kOptimal);
  EXPECT_NEAR(res.objective, 4.0, 1e-6);
}

TEST(MipSolver, InfeasibleIntegerProgram) {
  // 2x = 3 with x integer.
  Model m;
  const Var x = m.add_integer("x", 0, 10);
  m.add_eq(2.0 * LinExpr(x), 3.0);
  m.minimize(LinExpr(x));
  const auto res = solve(m);
  EXPECT_EQ(res.status, SolveStatus::kInfeasible);
}

TEST(MipSolver, InfeasibleLpRelaxation) {
  Model m;
  const Var x = m.add_binary("x");
  m.add_ge(LinExpr(x), 2.0);
  m.minimize(LinExpr(x));
  const auto res = solve(m);
  EXPECT_EQ(res.status, SolveStatus::kInfeasible);
}

TEST(MipSolver, EqualityConstrainedAssignment) {
  // 3x3 assignment problem with known optimum.
  const double cost[3][3] = {{4, 2, 8}, {4, 3, 7}, {3, 1, 6}};
  Model m;
  std::vector<std::vector<Var>> a(3, std::vector<Var>(3));
  LinExpr obj;
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      a[static_cast<size_t>(i)][static_cast<size_t>(j)] = m.add_binary("a");
      obj += cost[i][j] * LinExpr(a[static_cast<size_t>(i)][static_cast<size_t>(j)]);
    }
  }
  for (int i = 0; i < 3; ++i) {
    LinExpr row, col;
    for (int j = 0; j < 3; ++j) {
      row += LinExpr(a[static_cast<size_t>(i)][static_cast<size_t>(j)]);
      col += LinExpr(a[static_cast<size_t>(j)][static_cast<size_t>(i)]);
    }
    m.add_eq(std::move(row), 1.0);
    m.add_eq(std::move(col), 1.0);
  }
  m.minimize(obj);
  const auto res = solve(m);
  ASSERT_EQ(res.status, SolveStatus::kOptimal);
  // Optimal assignment: (0,1)=2? Let's enumerate: perms of {0,1,2}:
  // 012: 4+3+6=13; 021: 4+7+1=12; 102: 2+4+6=12; 120: 2+7+3=12;
  // 201: 8+4+1=13; 210: 8+3+3=14. Min = 12.
  EXPECT_NEAR(res.objective, 12.0, 1e-6);
}

TEST(MipSolver, BigMIndicatorStructure) {
  // y >= x - M(1-b): if b then y >= x. Minimizing y with b forced on.
  Model m;
  const Var b = m.add_binary("b");
  const Var x = m.add_continuous("x", 0.0, 10.0);
  const Var y = m.add_continuous("y", 0.0, 10.0);
  m.add_ge(LinExpr(b), 1.0);
  m.add_ge(LinExpr(x), 7.0);
  m.add_ge(LinExpr(y) - LinExpr(x) - 10.0 * LinExpr(b), -10.0);  // y >= x - 10(1-b)
  m.minimize(LinExpr(y));
  const auto res = solve(m);
  ASSERT_EQ(res.status, SolveStatus::kOptimal);
  EXPECT_NEAR(res.objective, 7.0, 1e-6);
}

TEST(MipSolver, RespectsTimeLimitGracefully) {
  Model m;
  // A small but nontrivial set covering-ish model; limit time to 0 seconds:
  // must return promptly without crashing.
  std::vector<Var> xs;
  for (int i = 0; i < 20; ++i) xs.push_back(m.add_binary("x"));
  for (int r = 0; r < 15; ++r) {
    LinExpr e;
    for (int i = 0; i < 20; i += (r % 3) + 1) e += LinExpr(xs[static_cast<size_t>(i)]);
    m.add_ge(std::move(e), 2.0);
  }
  LinExpr obj;
  for (int i = 0; i < 20; ++i) obj += (1.0 + i % 5) * LinExpr(xs[static_cast<size_t>(i)]);
  m.minimize(obj);
  SolveOptions opts;
  opts.time_limit_s = 0.0;
  const auto res = solve(m, opts);
  // Either got lucky at the root or stopped early; both acceptable.
  SUCCEED() << to_string(res.status);
}

/// Brute force over all integer assignments (vars all integer, small boxes).
double brute_force_min(const Model& m) {
  const int n = m.num_vars();
  std::vector<double> x(static_cast<size_t>(n));
  std::vector<int> lo(static_cast<size_t>(n)), hi(static_cast<size_t>(n));
  for (int j = 0; j < n; ++j) {
    lo[static_cast<size_t>(j)] = static_cast<int>(std::ceil(m.vars()[static_cast<size_t>(j)].lb));
    hi[static_cast<size_t>(j)] = static_cast<int>(std::floor(m.vars()[static_cast<size_t>(j)].ub));
  }
  double best = kInf;
  std::vector<int> cur(static_cast<size_t>(n));
  for (int j = 0; j < n; ++j) cur[static_cast<size_t>(j)] = lo[static_cast<size_t>(j)];
  while (true) {
    for (int j = 0; j < n; ++j) x[static_cast<size_t>(j)] = cur[static_cast<size_t>(j)];
    if (m.is_feasible(x, 1e-9)) best = std::min(best, m.objective().evaluate(x));
    int j = 0;
    while (j < n) {
      if (++cur[static_cast<size_t>(j)] <= hi[static_cast<size_t>(j)]) break;
      cur[static_cast<size_t>(j)] = lo[static_cast<size_t>(j)];
      ++j;
    }
    if (j == n) break;
  }
  return best;
}

class RandomMipProperty : public ::testing::TestWithParam<int> {};

TEST_P(RandomMipProperty, MatchesBruteForce) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  std::uniform_int_distribution<int> coef(-4, 4);
  std::uniform_int_distribution<int> nvars(3, 6);
  std::uniform_int_distribution<int> nrows(2, 6);

  Model m;
  const int n = nvars(rng);
  std::vector<Var> xs;
  for (int j = 0; j < n; ++j) xs.push_back(m.add_integer("x", 0, 3));
  const int rows = nrows(rng);
  for (int r = 0; r < rows; ++r) {
    LinExpr e;
    bool nonzero = false;
    for (int j = 0; j < n; ++j) {
      const int c = coef(rng);
      if (c != 0) {
        e.add_term(xs[static_cast<size_t>(j)], c);
        nonzero = true;
      }
    }
    if (!nonzero) continue;
    const int rhs = coef(rng) + 3;
    const int sense = static_cast<int>(rng() % 3);
    if (sense == 0) {
      m.add_le(std::move(e), rhs);
    } else if (sense == 1) {
      m.add_ge(std::move(e), -rhs);
    } else {
      m.add_le(std::move(e), rhs + 4);
    }
  }
  LinExpr obj;
  for (int j = 0; j < n; ++j) obj += static_cast<double>(coef(rng)) * LinExpr(xs[static_cast<size_t>(j)]);
  m.minimize(obj);

  const double expect = brute_force_min(m);
  const auto res = solve(m);
  if (expect == kInf) {
    EXPECT_EQ(res.status, SolveStatus::kInfeasible) << "seed " << GetParam();
  } else {
    ASSERT_EQ(res.status, SolveStatus::kOptimal) << "seed " << GetParam();
    EXPECT_NEAR(res.objective, expect, 1e-6) << "seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomMipProperty, ::testing::Range(0, 40));

TEST(MipSolver, RecoversFromLpIterationStarvation) {
  // Regression for numerical-failure handling: with a starved per-LP
  // iteration budget the old single x2 retry still hit the limit and the
  // solve aborted with kNoSolution. Escalating cold retries (x10 per
  // attempt) must recover the node LP and still prove optimality.
  Model m;
  const Var x1 = m.add_binary("x1");
  const Var x2 = m.add_binary("x2");
  const Var x3 = m.add_binary("x3");
  m.add_le(2.0 * LinExpr(x1) + 3.0 * LinExpr(x2) + LinExpr(x3), 5.0);
  m.minimize(-5.0 * LinExpr(x1) - 4.0 * LinExpr(x2) - 3.0 * LinExpr(x3));

  SolveOptions opts;
  opts.lp.max_iters = 1;
  const auto res = solve(m, opts);
  ASSERT_EQ(res.status, SolveStatus::kOptimal);
  EXPECT_NEAR(res.objective, -9.0, 1e-6);
  EXPECT_GT(res.stats.numerical_failures, 0);
}

TEST(MipSolver, RetryEscalationIsBounded) {
  // With escalation disabled entirely the starved solve must fail the same
  // way the pre-hardening solver did — proving the retries are what save
  // RecoversFromLpIterationStarvation, and that the knob bounds the work.
  Model m;
  const Var x1 = m.add_binary("x1");
  const Var x2 = m.add_binary("x2");
  m.add_le(LinExpr(x1) + LinExpr(x2), 1.0);
  m.minimize(-2.0 * LinExpr(x1) - LinExpr(x2));

  SolveOptions opts;
  opts.lp.max_iters = 1;
  opts.max_numerical_retries = 0;
  const auto res = solve(m, opts);
  EXPECT_FALSE(res.has_solution());
  EXPECT_GT(res.stats.numerical_failures, 0);
}

TEST(MipSolver, ColdNumericalTroubleIsNotRetried) {
  // A negative pivot tolerance admits zero pivots, so the root LP's first
  // pivot leaves a singular basis and the cold solve ends in numerical
  // trouble after one iteration. A cold retry would replay that pivot path
  // bit for bit (the cost jitter is seeded), so the failure is final: one
  // failure, one attempt's iterations, no retries.
  Model m;
  const Var x1 = m.add_binary("x1");
  const Var x2 = m.add_binary("x2");
  const Var x3 = m.add_continuous("x3", 0.0, 10.0);
  m.add_ge(2.0 * LinExpr(x1) + 3.0 * LinExpr(x2) + LinExpr(x3), 4.0);
  m.add_ge(LinExpr(x1) + LinExpr(x3), 1.5);
  m.minimize(5.0 * LinExpr(x1) + 4.0 * LinExpr(x2) + 3.0 * LinExpr(x3));

  SolveOptions opts;
  opts.lp.pivot_tol = -1.0;
  const auto res = solve(m, opts);
  EXPECT_FALSE(res.has_solution());
  EXPECT_EQ(res.stats.numerical_failures, 1);
  EXPECT_EQ(res.stats.lp_iterations, 1);
}

}  // namespace
}  // namespace wnet::milp
