#pragma once

#include <cstdint>
#include <vector>

#include "milp/simplex/lu.h"
#include "milp/simplex/standard_lp.h"
#include "util/exec/exec.h"

namespace wnet::milp::simplex {

enum class LpStatus {
  kOptimal,
  kPrimalInfeasible,
  kUnbounded,        ///< optimum rests on a synthetic (clamped-infinite) bound
  kIterLimit,        ///< pivot budget (max_iters) exhausted
  kTimeLimit,        ///< wall-clock budget (time_limit_s) expired
  kCancelled,        ///< the cancellation token tripped mid-solve
  kNumericalTrouble,
};

struct LpOptions {
  double feas_tol = 1e-7;    ///< primal bound violation tolerance
  double dual_tol = 1e-7;    ///< reduced-cost sign tolerance
  double pivot_tol = 1e-8;   ///< minimum |pivot| admitted
  int max_iters = 200000;
  int refactor_interval = 100;
  /// Wall-clock budget for one solve; expiry reports kTimeLimit (distinct
  /// from kIterLimit, so callers never mistake a timeout for iteration
  /// exhaustion — they map to different TerminationReasons and only the
  /// latter warrants a numerical-retry escalation).
  double time_limit_s = 1e30;
  /// Cooperative cancellation: polled on the same cadence as the time
  /// limit; a tripped token reports kCancelled. Default: never cancels.
  util::exec::CancellationToken cancel;
  /// Anti-degeneracy cost perturbation: solve with slightly jittered costs
  /// (breaking the reduced-cost ties that cause stalling), then restore the
  /// exact costs and re-optimize — typically a handful of clean-up pivots.
  bool perturb = true;
};

enum class ColStatus : uint8_t { kBasic, kAtLower, kAtUpper };

/// A simplex basis: one basic column per row plus nonbasic bound statuses.
/// The MIP search passes these between parent and child nodes.
struct Basis {
  std::vector<int> basic;          ///< size m, column index per row position
  std::vector<ColStatus> status;   ///< size num_cols
};

struct LpResult {
  LpStatus status = LpStatus::kNumericalTrouble;
  double objective = 0.0;          ///< includes the model's objective constant
  std::vector<double> x;           ///< full column space (structurals first)
  std::vector<double> reduced_costs;  ///< per column (basic columns: 0)
  int iterations = 0;
};

/// How the most recent solve was started — the MIP layer's warm-start
/// telemetry reads this after each node LP.
struct SolveInfo {
  bool warm = false;               ///< started from a caller-supplied basis
  bool reused_lu = false;          ///< the cached factorization matched and was kept
  bool refactor_fallback = false;  ///< warm basis refused to factorize; fell back cold
};

/// Always-on factorization counters of one engine: refactorizations by
/// cause, and the time spent inside BasisLu::factorize.
struct LuStats {
  long cold = 0;             ///< solve() from the slack basis
  long node_switch = 0;      ///< solve_from() on a basis other than the factored one
  long interval = 0;         ///< refactor_interval eta updates reached
  long update_rejected = 0;  ///< BasisLu::update refused the pivot
  long stale_retry = 0;      ///< run() retried from a fresh factorization (stale etas)
  long factorizations = 0;   ///< BasisLu::factorize calls; the causes sum to this
  double factor_s = 0.0;     ///< wall time inside BasisLu::factorize

  LuStats& operator+=(const LuStats& o);
};

/// Bounded-variable dual simplex.
///
/// Because every column is bounded (infinities are clamped by StandardLp),
/// the all-slack basis with nonbasic statuses matched to cost signs is
/// always dual feasible, so one dual simplex run serves as both phase 1 and
/// phase 2. It is also the natural engine for branch-and-bound: after a
/// bound change the old basis stays dual feasible and only primal
/// feasibility needs repair. The leaving row is chosen by dual Devex pricing
/// (Forrest & Goldfarb 1992): the largest violation² / reference weight.
class DualSimplex {
 public:
  explicit DualSimplex(const StandardLp& lp, LpOptions opts = {});

  /// Solves from the fresh all-slack basis.
  LpResult solve();

  /// Solves warm-started from `basis` (e.g. the parent node's). Falls back
  /// to a fresh solve on numerical trouble.
  LpResult solve_from(const Basis& basis);

  /// Basis after the last solve (valid when status is kOptimal/kUnbounded).
  [[nodiscard]] const Basis& basis() const { return basis_; }

  /// Adjusts the per-solve wall-clock budget (branch-and-bound sets this to
  /// the remaining global budget before each node).
  void set_time_limit(double seconds) { opts_.time_limit_s = seconds; }

  /// Restores the per-solve pivot budget after a numerical-retry escalation
  /// inflated it, without discarding the cached factorization the way a
  /// from-scratch engine rebuild would.
  void set_iteration_limit(int max_iters) { opts_.max_iters = max_iters; }

  /// Start-mode telemetry for the most recent solve()/solve_from().
  [[nodiscard]] const SolveInfo& last_solve_info() const { return info_; }

  /// Factorization counters accumulated over this engine's lifetime.
  [[nodiscard]] LuStats lu_stats() const;

 private:
  void start_from_slack_basis();
  void install_basis(const Basis& basis);
  /// Repairs dual feasibility of nonbasic statuses by bound flips.
  void repair_nonbasic_statuses();
  enum class FactorCause { kCold, kNodeSwitch, kInterval, kUpdateRejected, kStaleRetry };
  bool refactorize(FactorCause cause);
  void recompute_basics();
  void compute_duals();
  LpResult run();
  LpResult finish(LpStatus status, int iters);

  /// Primal bound violation of column j at value v (positive above ub,
  /// negative below lb, 0 if inside).
  [[nodiscard]] double violation(int j, double v) const;

  /// Installs the (possibly perturbed) working costs.
  void reset_costs();

  const StandardLp* lp_;
  LpOptions opts_;
  BasisLu lu_;
  bool lu_valid_ = false;
  Basis basis_;
  std::vector<double> values_;  ///< current value of every column
  std::vector<double> duals_;   ///< y, per row
  std::vector<double> dj_;      ///< reduced costs, per column
  std::vector<char> in_basis_;  ///< fast basic-membership flag
  std::vector<double> cost_;    ///< working costs (perturbed while active)
  /// Jittered costs, drawn once per column count (StandardLp::add_row only
  /// appends a zero-cost slack; the costs are otherwise immutable).
  std::vector<double> jittered_;
  bool perturbed_ = false;      ///< true while cost_ != exact costs
  SolveInfo info_;              ///< start mode of the most recent solve
  LuStats lu_stats_;            ///< refactorization causes and factorize time

  /// Per-iteration scratch (kept as members to avoid reallocation).
  struct RatioCandidate {
    int col;
    double alpha;
    double ratio;
  };
  std::vector<RatioCandidate> cands_;
  std::vector<double> alphas_;  ///< pivot row alpha_j per column
  std::vector<int> banned_;      ///< columns excluded from the current ratio test
  std::vector<int> banned_rows_;  ///< rows skipped by leaving selection (knife-edge pivots)
  /// Dual Devex reference weight per basis position: an estimate of
  /// ||e_pos^T B^{-1}||², reset to 1 at the start of every run().
  std::vector<double> devex_;

  friend struct DualSimplexTestAccess;
};

}  // namespace wnet::milp::simplex
