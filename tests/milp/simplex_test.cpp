#include "milp/simplex/dual_simplex.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <random>
#include <string>

#include "core/encode/encoder.h"
#include "core/workloads/scenarios.h"
#include "milp/model.h"
#include "milp/simplex/standard_lp.h"

namespace wnet::milp::simplex {

/// Reads the engine's Devex reference weights, left as the last run() ended.
struct DualSimplexTestAccess {
  static const std::vector<double>& devex(const DualSimplex& ds) { return ds.devex_; }
};

namespace {

LpResult solve_lp(const Model& m) {
  StandardLp lp(m);
  DualSimplex ds(lp);
  return ds.solve();
}

TEST(DualSimplex, TrivialBoxProblem) {
  Model m;
  const Var x = m.add_continuous("x", 1.0, 4.0);
  m.minimize(LinExpr(x));
  const auto res = solve_lp(m);
  ASSERT_EQ(res.status, LpStatus::kOptimal);
  EXPECT_NEAR(res.objective, 1.0, 1e-9);
}

TEST(DualSimplex, TwoVarLp) {
  // min -x - 2y  s.t. x + y <= 4, x <= 3, y <= 2, x,y >= 0. Opt: x=2,y=2 -> -6.
  Model m;
  const Var x = m.add_continuous("x", 0.0, 3.0);
  const Var y = m.add_continuous("y", 0.0, 2.0);
  m.add_le(LinExpr(x) + LinExpr(y), 4.0);
  m.minimize(-1.0 * LinExpr(x) - 2.0 * LinExpr(y));
  const auto res = solve_lp(m);
  ASSERT_EQ(res.status, LpStatus::kOptimal);
  EXPECT_NEAR(res.objective, -6.0, 1e-8);
  EXPECT_NEAR(res.x[0], 2.0, 1e-8);
  EXPECT_NEAR(res.x[1], 2.0, 1e-8);
}

TEST(DualSimplex, EqualityConstraint) {
  // min x + y  s.t. x + 2y = 3, 0 <= x,y <= 10. Opt: x=0, y=1.5 -> 1.5.
  Model m;
  const Var x = m.add_continuous("x", 0.0, 10.0);
  const Var y = m.add_continuous("y", 0.0, 10.0);
  m.add_eq(LinExpr(x) + 2.0 * LinExpr(y), 3.0);
  m.minimize(LinExpr(x) + LinExpr(y));
  const auto res = solve_lp(m);
  ASSERT_EQ(res.status, LpStatus::kOptimal);
  EXPECT_NEAR(res.objective, 1.5, 1e-8);
}

TEST(DualSimplex, GreaterEqualRows) {
  // min 2x + 3y  s.t. x + y >= 4, x - y >= -2, 0 <= x,y <= 10.
  // Opt at intersection? Candidates: x=1,y=3 (cost 11), x=4,y=0 (cost 8).
  Model m;
  const Var x = m.add_continuous("x", 0.0, 10.0);
  const Var y = m.add_continuous("y", 0.0, 10.0);
  m.add_ge(LinExpr(x) + LinExpr(y), 4.0);
  m.add_ge(LinExpr(x) - LinExpr(y), -2.0);
  m.minimize(2.0 * LinExpr(x) + 3.0 * LinExpr(y));
  const auto res = solve_lp(m);
  ASSERT_EQ(res.status, LpStatus::kOptimal);
  EXPECT_NEAR(res.objective, 8.0, 1e-8);
  EXPECT_NEAR(res.x[0], 4.0, 1e-8);
  EXPECT_NEAR(res.x[1], 0.0, 1e-8);
}

TEST(DualSimplex, InfeasibleLp) {
  Model m;
  const Var x = m.add_continuous("x", 0.0, 1.0);
  m.add_ge(LinExpr(x), 2.0);
  m.minimize(LinExpr(x));
  const auto res = solve_lp(m);
  EXPECT_EQ(res.status, LpStatus::kPrimalInfeasible);
}

TEST(DualSimplex, InfeasibleByConflictingRows) {
  Model m;
  const Var x = m.add_continuous("x", 0.0, 10.0);
  const Var y = m.add_continuous("y", 0.0, 10.0);
  m.add_le(LinExpr(x) + LinExpr(y), 1.0);
  m.add_ge(LinExpr(x) + LinExpr(y), 2.0);
  m.minimize(LinExpr(x));
  const auto res = solve_lp(m);
  EXPECT_EQ(res.status, LpStatus::kPrimalInfeasible);
}

TEST(DualSimplex, UnboundedDetectedViaSyntheticBound) {
  Model m;
  const Var x = m.add_continuous("x", 0.0, kInf);
  m.minimize(-1.0 * LinExpr(x));
  const auto res = solve_lp(m);
  EXPECT_EQ(res.status, LpStatus::kUnbounded);
}

TEST(DualSimplex, NegativeLowerBounds) {
  // min x  s.t. x + y >= -5, -10 <= x <= 10, -2 <= y <= 2. Opt: x=-7? No:
  // x >= -5 - y, y max 2 -> x >= -7, within bounds -> obj -7.
  Model m;
  const Var x = m.add_continuous("x", -10.0, 10.0);
  const Var y = m.add_continuous("y", -2.0, 2.0);
  m.add_ge(LinExpr(x) + LinExpr(y), -5.0);
  m.minimize(LinExpr(x));
  const auto res = solve_lp(m);
  ASSERT_EQ(res.status, LpStatus::kOptimal);
  EXPECT_NEAR(res.objective, -7.0, 1e-8);
}

TEST(DualSimplex, DegenerateLpTerminates) {
  // Many redundant constraints through the same vertex.
  Model m;
  const Var x = m.add_continuous("x", 0.0, 10.0);
  const Var y = m.add_continuous("y", 0.0, 10.0);
  for (int k = 1; k <= 10; ++k) {
    m.add_le(static_cast<double>(k) * LinExpr(x) + static_cast<double>(k) * LinExpr(y),
             4.0 * k);
  }
  m.minimize(-1.0 * LinExpr(x) - LinExpr(y));
  const auto res = solve_lp(m);
  ASSERT_EQ(res.status, LpStatus::kOptimal);
  EXPECT_NEAR(res.objective, -4.0, 1e-8);
}

TEST(DualSimplex, WarmStartAfterBoundChange) {
  // Solve, tighten a bound, re-solve warm: like one B&B edge.
  Model m;
  const Var x = m.add_continuous("x", 0.0, 3.0);
  const Var y = m.add_continuous("y", 0.0, 2.0);
  m.add_le(LinExpr(x) + LinExpr(y), 4.0);
  m.minimize(-1.0 * LinExpr(x) - 2.0 * LinExpr(y));
  StandardLp lp(m);
  DualSimplex ds(lp);
  auto res = ds.solve();
  ASSERT_EQ(res.status, LpStatus::kOptimal);
  const Basis warm = ds.basis();

  lp.set_bounds(0, 0.0, 1.0);  // x <= 1
  DualSimplex ds2(lp);
  auto res2 = ds2.solve_from(warm);
  ASSERT_EQ(res2.status, LpStatus::kOptimal);
  EXPECT_NEAR(res2.objective, -5.0, 1e-8);  // x=1, y=2
  EXPECT_LE(res2.iterations, res.iterations + 4);
}

TEST(DualSimplex, MediumRandomLpMatchesActivityBounds) {
  // Transportation-style LP with known optimum: min sum of shipments costs,
  // supply/demand balance. 3 suppliers x 4 consumers.
  Model m;
  const double cost[3][4] = {{4, 6, 8, 11}, {5, 3, 7, 9}, {6, 5, 4, 8}};
  const double supply[3] = {40, 50, 30};
  const double demand[4] = {25, 35, 30, 30};
  std::vector<std::vector<Var>> ship(3, std::vector<Var>(4));
  LinExpr obj;
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 4; ++j) {
      ship[static_cast<size_t>(i)][static_cast<size_t>(j)] =
          m.add_continuous("s", 0.0, 100.0);
      obj += cost[i][j] * LinExpr(ship[static_cast<size_t>(i)][static_cast<size_t>(j)]);
    }
  }
  for (int i = 0; i < 3; ++i) {
    LinExpr row;
    for (int j = 0; j < 4; ++j) row += LinExpr(ship[static_cast<size_t>(i)][static_cast<size_t>(j)]);
    m.add_le(std::move(row), supply[i]);
  }
  for (int j = 0; j < 4; ++j) {
    LinExpr col;
    for (int i = 0; i < 3; ++i) col += LinExpr(ship[static_cast<size_t>(i)][static_cast<size_t>(j)]);
    m.add_ge(std::move(col), demand[j]);
  }
  m.minimize(obj);
  const auto res = solve_lp(m);
  ASSERT_EQ(res.status, LpStatus::kOptimal);
  // Known optimum (computed by hand / cross-checked): 25*4+15*... verify by
  // weak duality sanity: objective within [sum(min col cost * demand), ...].
  double lo = 0.0;
  for (int j = 0; j < 4; ++j) {
    double c = kInf;
    for (int i = 0; i < 3; ++i) c = std::min(c, cost[i][j]);
    lo += c * demand[j];
  }
  EXPECT_GE(res.objective, lo - 1e-6);
  // Check primal feasibility of the returned point.
  std::vector<double> xs(res.x.begin(), res.x.begin() + 12);
  EXPECT_TRUE(m.is_feasible(xs, 1e-6));
}

/// Random LP: 8 columns in [0, 4], 6 mixed-sign rows, seeded costs from
/// {-2, -1, 0} — tied costs and alternative optima, so the pivot path and
/// the optimal vertex both depend on the cost jitter.
Model random_lp(unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> coef(-3, 3);
  std::uniform_int_distribution<int> cost(-2, 0);
  Model m;
  std::vector<Var> v;
  LinExpr obj;
  for (int j = 0; j < 8; ++j) {
    v.push_back(m.add_continuous("x" + std::to_string(j), 0.0, 4.0));
    obj += static_cast<double>(cost(rng)) * LinExpr(v.back());
  }
  m.minimize(std::move(obj));
  for (int r = 0; r < 6; ++r) {
    LinExpr e;
    for (const Var& x : v) e += static_cast<double>(coef(rng)) * LinExpr(x);
    if (r % 2 == 0) {
      m.add_le(std::move(e), 6.0);
    } else {
      m.add_ge(std::move(e), -6.0);
    }
  }
  return m;
}

void expect_bitwise_equal(const LpResult& got, const LpResult& want, const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(got.status, want.status);
  EXPECT_EQ(got.x, want.x);
  EXPECT_EQ(got.objective, want.objective);
  EXPECT_EQ(got.iterations, want.iterations);
}

void expect_causes_sum_to_factorizations(const LuStats& s) {
  EXPECT_EQ(s.cold + s.node_switch + s.interval + s.update_rejected + s.stale_retry,
            s.factorizations);
}

TEST(DualSimplex, CachedJitterMatchesFreshEngineAcrossRowAppend) {
  // One long-lived engine solves and warm-starts the LP under a sequence
  // of bound changes, with a row appended halfway. Every answer must be
  // bitwise the one a fresh engine gives on the same LP: the jittered
  // costs are drawn once per column count, never carried over stale. The
  // fresh side replays only what the answer depends on (a cold solve, or a
  // refactorizing solve_from).
  for (const bool perturb : {true, false}) {
    SCOPED_TRACE(perturb ? "perturb" : "exact costs");
    LpOptions opts;
    opts.perturb = perturb;
    StandardLp lp(random_lp(11));
    auto engine = std::make_unique<DualSimplex>(lp, opts);
    Basis prev;
    int warm_compared = 0;
    for (int round = 0; round < 8; ++round) {
      SCOPED_TRACE("round " + std::to_string(round));
      if (round == 4) {
        const int row = lp.add_row({{0, 1.0}, {3, 1.0}, {5, -1.0}}, Sense::kLe, 3.0);
        // The old engine stays usable for a cold solve of the grown LP; its
        // cached jitter must be redrawn for the new column count.
        expect_bitwise_equal(engine->solve(), DualSimplex(lp, opts).solve(), "stale-dims solve");
        // The rebuild branch-and-bound does after appending rows, with the
        // previous basis extended by the new slack.
        engine = std::make_unique<DualSimplex>(lp, opts);
        prev.status.resize(static_cast<size_t>(lp.num_cols()), ColStatus::kBasic);
        prev.basic.push_back(lp.num_structural() + row);
      }
      const int col = round % 8;
      lp.set_bounds(col, 0.0, 1.0 + 0.5 * (round % 3));
      expect_bitwise_equal(engine->solve(), DualSimplex(lp, opts).solve(), "solve");
      if (!prev.basic.empty() && engine->basis().basic != prev.basic) {
        DualSimplex fresh(lp, opts);
        expect_bitwise_equal(engine->solve_from(prev), fresh.solve_from(prev), "solve_from");
        EXPECT_FALSE(engine->last_solve_info().reused_lu);
        lp.set_bounds((col + 3) % 8, 0.5, 4.0);  // moves the next round's LP
        ++warm_compared;
      }
      prev = engine->basis();
    }
    EXPECT_GE(warm_compared, 3);
    expect_causes_sum_to_factorizations(engine->lu_stats());
  }
}

TEST(DualSimplex, LuStatsAttributeEveryFactorization) {
  // A tiny refactor interval forces interval refactorizations; warm starts
  // from a foreign basis force node switches. Every factorize() call the
  // BasisLu counts must carry exactly one cause.
  LpOptions opts;
  opts.refactor_interval = 1;
  StandardLp lp(random_lp(5));
  DualSimplex a(lp, opts);
  DualSimplex b(lp, opts);
  ASSERT_EQ(a.solve().status, LpStatus::kOptimal);
  lp.set_bounds(1, 0.0, 1.0);
  ASSERT_EQ(b.solve().status, LpStatus::kOptimal);
  const Basis foreign = b.basis();
  lp.set_bounds(1, 0.0, 4.0);
  ASSERT_NE(a.basis().basic, foreign.basic) << "the bound change must move the optimal basis";
  a.solve_from(foreign);
  a.solve_from(a.basis());
  const LuStats s = a.lu_stats();
  expect_causes_sum_to_factorizations(s);
  EXPECT_EQ(s.cold, 1);
  EXPECT_EQ(s.node_switch, 1);
  EXPECT_GE(s.interval, 1);
  EXPECT_GE(s.factor_s, 0.0);
}

void expect_devex_weights_sane(const DualSimplex& ds, int num_rows) {
  const std::vector<double>& w = DualSimplexTestAccess::devex(ds);
  ASSERT_EQ(static_cast<int>(w.size()), num_rows);
  for (size_t i = 0; i < w.size(); ++i) {
    EXPECT_TRUE(std::isfinite(w[i])) << "row " << i;
    EXPECT_GE(w[i], 1.0) << "row " << i;
  }
}

TEST(DualSimplexDevex, WeightsStayFiniteAndAtLeastOne) {
  // Cold solves and warm re-solves after random bound changes: every
  // reference weight starts at 1 and only grows by finite factors.
  int pivoted = 0;
  for (unsigned seed = 0; seed < 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    StandardLp lp(random_lp(seed));
    DualSimplex ds(lp);
    const LpResult cold = ds.solve();
    pivoted += cold.iterations > 0 ? 1 : 0;
    expect_devex_weights_sane(ds, lp.num_rows());
    std::mt19937 rng(seed + 1000);
    std::uniform_int_distribution<int> col(0, lp.num_structural() - 1);
    std::uniform_real_distribution<double> bound(0.0, 4.0);
    for (int round = 0; round < 10; ++round) {
      const double a = bound(rng);
      const double b = bound(rng);
      lp.set_bounds(col(rng), std::min(a, b), std::max(a, b));
      const Basis start = ds.basis();
      const LpResult warm = ds.solve_from(start);
      pivoted += warm.iterations > 0 ? 1 : 0;
      expect_devex_weights_sane(ds, lp.num_rows());
    }
  }
  EXPECT_GE(pivoted, 100) << "the sweep must exercise the weight update";
}

/// The Sec. 4.3 scalability instance at 30 nodes / 10 end devices, encoded
/// at K* = 6 as the solver profile encodes it.
Model table3_model() {
  archex::workloads::ScalableConfig cfg;
  cfg.total_nodes = 30;
  cfg.end_devices = 10;
  const auto sc = archex::workloads::make_scalable(cfg);
  archex::EncoderOptions eo;
  eo.k_star = 6;
  return archex::Encoder(*sc->tmpl, sc->spec, eo).encode().model;
}

TEST(DualSimplexDevex, Table3NodeSwitchesMatchColdAndIterationsStayLow) {
  // The root LP, then 30 branch-and-bound-like nodes: each restores the
  // model's bounds, fixes four seeded integer columns to 0 or 1 and
  // re-solves warm from the root basis on one engine. Every warm answer
  // must equal a cold solve's. The iteration total pins the row selection
  // rule: Devex takes 1792 pivots here, largest-violation selection 2648.
  const Model model = table3_model();
  StandardLp lp(model);
  DualSimplex ds(lp);
  const LpResult root = ds.solve();
  ASSERT_EQ(root.status, LpStatus::kOptimal);
  const Basis root_basis = ds.basis();
  std::vector<int> ints;
  for (int j = 0; j < model.num_vars(); ++j) {
    if (model.vars()[static_cast<size_t>(j)].type != VarType::kContinuous) ints.push_back(j);
  }
  std::mt19937 rng(7);
  long iterations = root.iterations;
  int optimal = 0;
  for (int node = 0; node < 30; ++node) {
    SCOPED_TRACE("node " + std::to_string(node));
    for (const int j : ints) {
      const VarData& v = model.vars()[static_cast<size_t>(j)];
      lp.set_bounds(j, v.lb, v.ub);
    }
    for (int k = 0; k < 4; ++k) {
      const int j = ints[rng() % ints.size()];
      const double fixed = (rng() & 1) != 0u ? 1.0 : 0.0;
      lp.set_bounds(j, fixed, fixed);
    }
    const LpResult warm = ds.solve_from(root_basis);
    const LpResult cold = DualSimplex(lp).solve();
    ASSERT_EQ(warm.status, cold.status);
    iterations += warm.iterations;
    if (warm.status != LpStatus::kOptimal) continue;
    ++optimal;
    EXPECT_NEAR(warm.objective, cold.objective, 1e-6 * (1.0 + std::abs(cold.objective)));
  }
  EXPECT_GE(optimal, 20);
  EXPECT_LE(iterations, 2100);
}

}  // namespace
}  // namespace wnet::milp::simplex
