#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "milp/simplex/dual_simplex.h"
#include "milp/solver.h"
#include "milp/test_models.h"

namespace wnet::milp {
namespace {

TEST(MipStart, AcceptedAsIncumbent) {
  // Knapsack where the trivial rounding fails but a known-good start exists.
  Model m;
  const Var a = m.add_binary("a");
  const Var b = m.add_binary("b");
  const Var c = m.add_binary("c");
  m.add_le(2.0 * LinExpr(a) + 3.0 * LinExpr(b) + LinExpr(c), 5.0);
  m.minimize(-5.0 * LinExpr(a) - 4.0 * LinExpr(b) - 3.0 * LinExpr(c));
  SolveOptions opts;
  opts.mip_start = {1.0, 1.0, 0.0};  // value 9, feasible
  opts.node_limit = 0;               // no search at all: only root heuristics
  opts.root_dive = false;
  const auto res = solve(m, opts);
  ASSERT_TRUE(res.has_solution());
  EXPECT_LE(res.objective, -9.0 + 1e-9);
}

TEST(MipStart, InfeasibleStartIgnored) {
  Model m;
  const Var a = m.add_binary("a");
  m.add_le(LinExpr(a), 0.0);
  m.minimize(-1.0 * LinExpr(a));
  SolveOptions opts;
  opts.mip_start = {1.0};  // violates a <= 0
  const auto res = solve(m, opts);
  ASSERT_EQ(res.status, SolveStatus::kOptimal);
  EXPECT_NEAR(res.objective, 0.0, 1e-9);
  EXPECT_NEAR(res.x[0], 0.0, 1e-9);
}

TEST(DualSimplexResolve, TracksBoundChanges) {
  Model m;
  const Var x = m.add_continuous("x", 0.0, 3.0);
  const Var y = m.add_continuous("y", 0.0, 2.0);
  m.add_le(LinExpr(x) + LinExpr(y), 4.0);
  m.minimize(-1.0 * LinExpr(x) - 2.0 * LinExpr(y));
  simplex::StandardLp lp(m);
  simplex::DualSimplex ds(lp);
  auto r1 = ds.solve();
  ASSERT_EQ(r1.status, simplex::LpStatus::kOptimal);
  EXPECT_NEAR(r1.objective, -6.0, 1e-8);

  // Re-solve after a bound change from the engine's own basis, the way
  // branch-and-bound warm-starts a child node.
  lp.set_bounds(0, 0.0, 1.0);
  auto r2 = ds.solve_from(ds.basis());
  ASSERT_EQ(r2.status, simplex::LpStatus::kOptimal);
  EXPECT_NEAR(r2.objective, -5.0, 1e-8);

  lp.set_bounds(0, 0.0, 3.0);
  auto r3 = ds.solve_from(ds.basis());
  ASSERT_EQ(r3.status, simplex::LpStatus::kOptimal);
  EXPECT_NEAR(r3.objective, -6.0, 1e-8);
}

TEST(DualSimplexResolve, DetectsInfeasibilityAfterTightening) {
  Model m;
  const Var x = m.add_continuous("x", 0.0, 10.0);
  m.add_ge(LinExpr(x), 5.0);
  m.minimize(LinExpr(x));
  simplex::StandardLp lp(m);
  simplex::DualSimplex ds(lp);
  ASSERT_EQ(ds.solve().status, simplex::LpStatus::kOptimal);
  lp.set_bounds(0, 0.0, 4.0);
  EXPECT_EQ(ds.solve_from(ds.basis()).status, simplex::LpStatus::kPrimalInfeasible);
}

TEST(DualSimplexRowAppend, StaleBasisExtendsAcrossAppendedRow) {
  // A basis recorded before a row append is too short for the grown LP.
  // Extended the way the solver's separation path extends it — the new
  // row's slack basic in its own row — it must stay a valid warm start
  // and land on the same optimum as a cold solve of the grown LP.
  Model m;
  const Var x = m.add_continuous("x", 0.0, 3.0);
  const Var y = m.add_continuous("y", 0.0, 2.0);
  m.add_le(LinExpr(x) + LinExpr(y), 4.0);
  m.minimize(-1.0 * LinExpr(x) - 2.0 * LinExpr(y));
  simplex::StandardLp lp(m);
  {
    simplex::DualSimplex ds(lp);
    ASSERT_EQ(ds.solve().status, simplex::LpStatus::kOptimal);
    simplex::Basis stale = ds.basis();  // m = 1: one basic column
    ASSERT_EQ(stale.basic.size(), 1u);

    // Append x <= 1, which the incumbent optimum (2, 2) violates.
    const int r = lp.add_row({{0, 1.0}}, Sense::kLe, 1.0);
    EXPECT_EQ(r, 1);
    EXPECT_EQ(lp.num_rows(), 2);

    stale.status.resize(static_cast<size_t>(lp.num_cols()), simplex::ColStatus::kBasic);
    stale.basic.push_back(lp.num_structural() + r);

    simplex::DualSimplex warm(lp);  // fresh engine: the old one has stale dims
    const auto wres = warm.solve_from(stale);
    ASSERT_EQ(wres.status, simplex::LpStatus::kOptimal);
    EXPECT_NEAR(wres.objective, -5.0, 1e-8);  // x = 1, y = 2
    EXPECT_NEAR(wres.x[0], 1.0, 1e-8);
    EXPECT_NEAR(wres.x[1], 2.0, 1e-8);
  }
  simplex::DualSimplex cold(lp);
  const auto cres = cold.solve();
  ASSERT_EQ(cres.status, simplex::LpStatus::kOptimal);
  EXPECT_NEAR(cres.objective, -5.0, 1e-8);
}

TEST(WarmStartWithCuts, MidTreeRowAppendKeepsWarmAndColdOptimaEqual) {
  // Lazy separation appends rows mid-tree, invalidating every stored
  // parent basis (they are short for the grown LP). Warm-started and cold
  // solves must still both land on the full model's optimum, and the
  // corpus must actually exercise the combination (warm attempts on a
  // solve that appended cut rows).
  int with_both = 0;
  for (unsigned seed = 301; seed <= 312; ++seed) {
    const Model full = tests::random_model(seed, 10, 2, 6);
    std::vector<bool> dropped(6, false);
    dropped[seed % 6] = true;
    dropped[(seed + 3) % 6] = true;
    const Model relaxed = tests::relax(full, dropped);

    SolveOptions warm;
    warm.cuts.separators.push_back(tests::dropped_row_separator(full, dropped));
    SolveOptions cold = warm;
    cold.warm_start = false;

    const MipResult ref = solve(full);
    const MipResult rw = solve(relaxed, warm);
    const MipResult rc = solve(relaxed, cold);
    ASSERT_EQ(rw.status, ref.status) << "seed " << seed;
    ASSERT_EQ(rc.status, ref.status) << "seed " << seed;
    if (ref.has_solution()) {
      const double tol = 1e-6 * std::max(1.0, std::abs(ref.objective));
      EXPECT_NEAR(rw.objective, ref.objective, tol) << "seed " << seed;
      EXPECT_NEAR(rc.objective, ref.objective, tol) << "seed " << seed;
      EXPECT_TRUE(full.is_feasible(rw.x)) << "seed " << seed;
      EXPECT_TRUE(full.is_feasible(rc.x)) << "seed " << seed;
    }
    EXPECT_EQ(rc.stats.warm_attempts, 0) << "seed " << seed;
    if (rw.stats.cuts_lp_rows > 0 && rw.stats.warm_attempts > 0) ++with_both;
  }
  EXPECT_GT(with_both, 0);
}

TEST(SolverStats, LuCausesAccountForEveryFactorizationAcrossEngineRebuilds) {
  // Lazy rows make branch-and-bound drop and rebuild its simplex engine
  // mid-tree; a small refactor interval adds interval refactorizations.
  // The summed LU counters must still attribute every factorize() call to
  // one cause, and agree with the independent warm-start counters: each
  // cold node LP (and each fallback) factorizes once from the slack basis,
  // and each warm start that could not reuse the cached LU refactorizes
  // once on its node switch.
  int rebuilt = 0;
  long interval = 0;
  for (unsigned seed = 301; seed <= 312; ++seed) {
    const Model full = tests::random_model(seed, 10, 2, 6);
    std::vector<bool> dropped(6, false);
    dropped[seed % 6] = true;
    dropped[(seed + 3) % 6] = true;
    SolveOptions opts;
    opts.cuts.separators.push_back(tests::dropped_row_separator(full, dropped));
    opts.lp.refactor_interval = 3;
    const MipResult r = solve(tests::relax(full, dropped), opts);
    const SolveStats& s = r.stats;
    ASSERT_EQ(s.numerical_failures, 0) << "seed " << seed;
    EXPECT_GT(s.lu.factorizations, 0) << "seed " << seed;
    EXPECT_EQ(s.lu.cold + s.lu.node_switch + s.lu.interval + s.lu.update_rejected +
                  s.lu.stale_retry,
              s.lu.factorizations)
        << "seed " << seed;
    EXPECT_EQ(s.lu.cold, s.cold_solves + s.warm_fallbacks) << "seed " << seed;
    EXPECT_EQ(s.lu.node_switch, s.warm_attempts - s.warm_lu_reused) << "seed " << seed;
    EXPECT_GE(s.lu.factor_s, 0.0);
    EXPECT_LE(s.lu.factor_s, s.time_s);
    EXPECT_NE(s.to_json().find("\"lu\": {\"factorizations\": "), std::string::npos);
    if (s.cuts_lp_rows > 0 && s.warm_attempts > 0) ++rebuilt;
    interval += s.lu.interval;
  }
  EXPECT_GT(rebuilt, 0);
  EXPECT_GT(interval, 0);
}

TEST(SolverStats, ReportsWork) {
  Model m;
  std::vector<Var> xs;
  for (int i = 0; i < 12; ++i) xs.push_back(m.add_binary("x"));
  for (int r = 0; r < 8; ++r) {
    LinExpr e;
    for (int i = r % 3; i < 12; i += 2) e += (1.0 + (i % 4)) * LinExpr(xs[static_cast<size_t>(i)]);
    m.add_ge(std::move(e), 6.0);
  }
  LinExpr obj;
  for (int i = 0; i < 12; ++i) obj += (1.0 + (i * 7) % 5) * LinExpr(xs[static_cast<size_t>(i)]);
  m.minimize(obj);
  const auto res = solve(m);
  ASSERT_EQ(res.status, SolveStatus::kOptimal);
  EXPECT_GT(res.stats.lp_iterations, 0);
  EXPECT_GE(res.stats.time_s, 0.0);
  EXPECT_GE(res.bound, res.stats.root_bound - 1e-9);
  EXPECT_NEAR(res.bound, res.objective, 1e-6 * std::max(1.0, std::abs(res.objective)));
}

TEST(LpTimeLimit, ExpiresGracefully) {
  // A moderately large LP with a zero time budget must come back quickly
  // with kIterLimit rather than hanging.
  Model m;
  std::vector<Var> xs;
  const int n = 40;
  for (int i = 0; i < n; ++i) xs.push_back(m.add_continuous("x", 0.0, 10.0));
  for (int r = 0; r < n; ++r) {
    LinExpr e;
    for (int i = 0; i < n; ++i) {
      if ((i + r) % 3 == 0) e += (1.0 + (i % 5)) * LinExpr(xs[static_cast<size_t>(i)]);
    }
    m.add_ge(std::move(e), 5.0 + r % 7);
  }
  LinExpr obj;
  for (int i = 0; i < n; ++i) obj += LinExpr(xs[static_cast<size_t>(i)]);
  m.minimize(obj);
  simplex::StandardLp lp(m);
  simplex::LpOptions opts;
  opts.time_limit_s = 0.0;
  simplex::DualSimplex ds(lp, opts);
  const auto res = ds.solve();
  EXPECT_TRUE(res.status == simplex::LpStatus::kIterLimit ||
              res.status == simplex::LpStatus::kOptimal);  // tiny LPs may finish in <64 iters
}

}  // namespace
}  // namespace wnet::milp
