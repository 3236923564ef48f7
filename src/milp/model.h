#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "milp/expr.h"

namespace wnet::milp {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

enum class VarType { kContinuous, kInteger, kBinary };

enum class Sense { kLe, kGe, kEq };

/// Variable metadata stored by the model.
struct VarData {
  std::string name;
  VarType type = VarType::kContinuous;
  double lb = 0.0;
  double ub = kInf;
  /// Branch-and-bound picks fractional variables from the highest priority
  /// class first (0 = default). Encoders use this to branch on structural
  /// decisions (path selectors) before sizing details.
  int branch_priority = 0;
};

/// A linear constraint  expr (<=, >=, =) rhs. The expression's constant is
/// folded into the rhs at construction.
struct Constraint {
  std::string name;
  LinExpr expr;  ///< constant already folded into rhs (constant() == 0)
  Sense sense = Sense::kLe;
  double rhs = 0.0;
};

/// Declarative MILP container: the encoders build one of these, the solver
/// consumes it. Plays the role CPLEX's model object plays in the paper's
/// toolchain.
class Model {
 public:
  /// Adds a variable and returns its handle. Binary variables get bounds
  /// clipped to [0,1].
  Var add_var(const std::string& name, VarType type, double lb, double ub);

  Var add_continuous(const std::string& name, double lb, double ub) {
    return add_var(name, VarType::kContinuous, lb, ub);
  }
  Var add_binary(const std::string& name) { return add_var(name, VarType::kBinary, 0, 1); }
  Var add_integer(const std::string& name, double lb, double ub) {
    return add_var(name, VarType::kInteger, lb, ub);
  }

  /// Adds `expr sense rhs`; returns the constraint index.
  int add_constr(LinExpr expr, Sense sense, double rhs, const std::string& name = "");

  /// Convenience forms.
  int add_le(LinExpr e, double rhs, const std::string& name = "") {
    return add_constr(std::move(e), Sense::kLe, rhs, name);
  }
  int add_ge(LinExpr e, double rhs, const std::string& name = "") {
    return add_constr(std::move(e), Sense::kGe, rhs, name);
  }
  int add_eq(LinExpr e, double rhs, const std::string& name = "") {
    return add_constr(std::move(e), Sense::kEq, rhs, name);
  }

  /// Sets the (minimization) objective.
  void minimize(LinExpr objective) { objective_ = std::move(objective); }

  [[nodiscard]] const LinExpr& objective() const { return objective_; }
  [[nodiscard]] int num_vars() const { return static_cast<int>(vars_.size()); }
  [[nodiscard]] int num_constrs() const { return static_cast<int>(constrs_.size()); }
  [[nodiscard]] const VarData& var(Var v) const { return vars_.at(static_cast<size_t>(v.id)); }
  [[nodiscard]] const std::vector<VarData>& vars() const { return vars_; }
  [[nodiscard]] const std::vector<Constraint>& constrs() const { return constrs_; }

  /// Number of integer-constrained (integer or binary) variables.
  [[nodiscard]] int num_integer_vars() const;

  /// Total number of nonzero coefficients across all constraints.
  [[nodiscard]] size_t num_nonzeros() const;

  /// Appends `delta`'s terms to an existing constraint's left-hand side,
  /// folding its constant into the rhs. Incremental encoders use this to
  /// widen a row (e.g. a selector disjunction) when new candidates arrive;
  /// terms on variables already present are merged additively.
  void add_terms_to_constr(int idx, const LinExpr& delta);

  /// Rewrites a constraint's right-hand side in place.
  void set_constr_rhs(int idx, double rhs);

  /// Tightens a variable's bounds in place (encoders, restricted probe models, tests).
  void set_bounds(Var v, double lb, double ub);

  /// Sets the branching priority class of a variable.
  void set_branch_priority(Var v, int priority) {
    vars_.at(static_cast<size_t>(v.id)).branch_priority = priority;
  }

  /// Checks a full assignment against every constraint, bounds, and
  /// integrality; returns true within tolerance `tol`. Used by the solver's
  /// incumbent acceptance and by tests as ground truth.
  [[nodiscard]] bool is_feasible(const std::vector<double>& x, double tol = 1e-6) const;

  /// Human-readable dump in an LP-like format (small models / debugging).
  [[nodiscard]] std::string to_lp_string() const;

 private:
  std::vector<VarData> vars_;
  std::vector<Constraint> constrs_;
  LinExpr objective_;
};

}  // namespace wnet::milp
