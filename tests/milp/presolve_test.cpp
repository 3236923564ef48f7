#include "milp/presolve.h"

#include <gtest/gtest.h>

#include <vector>

#include "milp/solver.h"

namespace wnet::milp {
namespace {

/// A model's bounds after one full propagation pass over its rows: the
/// same propagate_bounds the solver runs at the root and at every node.
struct Propagated {
  std::vector<double> lb;
  std::vector<double> ub;
  PropagateResult res;
};

Propagated propagate(const Model& m) {
  Propagated p;
  for (const VarData& v : m.vars()) {
    p.lb.push_back(v.lb);
    p.ub.push_back(v.ub);
  }
  const RowSystem rs(m);
  p.res = propagate_bounds(rs, p.lb, p.ub, /*seed_cols=*/{});
  return p;
}

TEST(Presolve, TightensSingletonRow) {
  Model m;
  const Var x = m.add_continuous("x", 0.0, 100.0);
  m.add_le(2.0 * LinExpr(x), 10.0);
  const auto p = propagate(m);
  EXPECT_FALSE(p.res.infeasible);
  EXPECT_GE(p.res.tightened, 1);
  EXPECT_DOUBLE_EQ(p.ub[static_cast<size_t>(x.id)], 5.0);
}

TEST(Presolve, RoundsIntegerBoundsInward) {
  Model m;
  const Var x = m.add_integer("x", 0, 100);
  m.add_le(2.0 * LinExpr(x), 9.0);  // x <= 4.5 -> 4
  EXPECT_DOUBLE_EQ(propagate(m).ub[static_cast<size_t>(x.id)], 4.0);
}

TEST(Presolve, PropagatesAcrossRows) {
  Model m;
  const Var x = m.add_continuous("x", 0.0, 100.0);
  const Var y = m.add_continuous("y", 0.0, 100.0);
  m.add_le(LinExpr(x), 3.0);
  m.add_le(LinExpr(y) - LinExpr(x), 0.0);  // y <= x <= 3
  const auto p = propagate(m);
  EXPECT_FALSE(p.res.infeasible);
  EXPECT_DOUBLE_EQ(p.ub[static_cast<size_t>(y.id)], 3.0);
}

TEST(Presolve, DetectsInfeasibility) {
  Model m;
  const Var x = m.add_continuous("x", 0.0, 1.0);
  m.add_ge(LinExpr(x), 5.0);
  EXPECT_TRUE(propagate(m).res.infeasible);
}

TEST(Presolve, EqualityTightensBothSides) {
  Model m;
  const Var x = m.add_continuous("x", -50.0, 50.0);
  const Var y = m.add_continuous("y", 0.0, 2.0);
  m.add_eq(LinExpr(x) - LinExpr(y), 1.0);  // x = 1 + y in [1, 3]
  const auto p = propagate(m);
  EXPECT_DOUBLE_EQ(p.lb[static_cast<size_t>(x.id)], 1.0);
  EXPECT_DOUBLE_EQ(p.ub[static_cast<size_t>(x.id)], 3.0);
}

TEST(Presolve, PreservesOptimum) {
  // Solving inside the propagated box must not change the optimal value.
  Model m;
  const Var x = m.add_integer("x", 0, 50);
  const Var y = m.add_integer("y", 0, 50);
  m.add_ge(3.0 * LinExpr(x) + 2.0 * LinExpr(y), 12.0);
  m.add_le(LinExpr(x) + LinExpr(y), 30.0);
  m.minimize(LinExpr(x) + LinExpr(y));
  const auto p = propagate(m);
  Model tight = m;
  for (int j = 0; j < m.num_vars(); ++j) {
    tight.set_bounds(Var{j}, p.lb[static_cast<size_t>(j)], p.ub[static_cast<size_t>(j)]);
  }
  const auto r1 = solve(m);
  const auto r2 = solve(tight);
  ASSERT_EQ(r1.status, SolveStatus::kOptimal);
  ASSERT_EQ(r2.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r1.objective, r2.objective, 1e-6);
}

TEST(Presolve, NoChangeOnAlreadyTightModel) {
  Model m;
  const Var x = m.add_binary("x");
  const Var y = m.add_binary("y");
  m.add_le(LinExpr(x) + LinExpr(y), 2.0);  // redundant
  EXPECT_EQ(propagate(m).res.tightened, 0);
}

}  // namespace
}  // namespace wnet::milp
