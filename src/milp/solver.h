#pragma once

#include <functional>
#include <string>
#include <vector>

#include "milp/cuts.h"
#include "milp/model.h"
#include "milp/simplex/dual_simplex.h"
#include "util/exec/exec.h"

namespace wnet::milp {

enum class SolveStatus {
  kOptimal,    ///< proven optimal within the gap
  kFeasible,   ///< incumbent found but search stopped early (time/node limit)
  kInfeasible,
  kUnbounded,
  kNoSolution, ///< search stopped early with no incumbent
};

[[nodiscard]] const char* to_string(SolveStatus s);

struct SolveOptions {
  double time_limit_s = 300.0;
  long node_limit = 1000000;
  /// Request-level execution control: the effective deadline is the tighter
  /// of `exec.deadline` and `time_limit_s` from solve() entry, the token is
  /// polled at every node (and inside the dual simplex), and
  /// `exec.budget->charge_bb_nodes()` meters the node loop. Defaults never
  /// stop anything. On any early stop the solver still returns the best
  /// incumbent, the global dual bound and the gap (anytime contract), with
  /// SolveStats::termination saying why it stopped.
  util::exec::ExecControl exec;
  double rel_gap = 1e-6;     ///< relative optimality gap for termination
  double int_tol = 1e-6;     ///< integrality tolerance
  bool root_dive = true;     ///< run the diving heuristic after the root LP
  /// Optional MIP start: values for the model's variables. Accepted as the
  /// initial incumbent if it passes the model's own feasibility check.
  std::vector<double> mip_start;
  /// Optional primal cutoff: prune any subtree whose LP bound cannot beat
  /// this objective, even before an incumbent exists. Incremental rungs of
  /// the K* ladder install the previous rung's optimum here so each solve
  /// starts with a proven primal bound. Tie semantics are inclusive: an
  /// integer point whose objective *equals* the cutoff (within
  /// tol::kObjImprove) is still accepted as an incumbent before its region
  /// is pruned, so a caller racing heuristics (portfolio) that installs its
  /// best-known objective as the cutoff gets kFeasible/kOptimal back when
  /// the solver re-discovers a tie-equal optimum, never a spurious
  /// kNoSolution. Only when the cutoff exhausts the tree with no tie-equal
  /// point ever surfacing is the result kNoSolution (not kInfeasible —
  /// feasible-but-not-better regions were pruned unseen).
  double cutoff = kInf;
  simplex::LpOptions lp;

  /// Pseudocost branching: rank fractional variables by the observed
  /// per-unit objective degradation of past up/down branchings instead of
  /// raw fractionality. Directions with fewer than four observations
  /// blend toward the tree-wide average (and, before any branching history
  /// exists at all, the rule degenerates to most-fractional), so early
  /// branchings behave like the textbook rule and later ones exploit
  /// learned costs.
  bool pseudocost_branching = true;

  /// Node-level bound propagation: before each node LP, run activity-based
  /// tightening of the integer bounds implied by the node's branching
  /// chain. Nodes proven infeasible by propagation are pruned without any
  /// LP work; tightened bounds shrink the dual simplex's repair distance.
  bool node_propagation = true;

  /// Warm-start node LPs from the parent's final basis (dual simplex keeps
  /// dual feasibility across bound changes). Off = every node starts from
  /// the all-slack basis; exists mainly for A/B measurement.
  bool warm_start = true;

  /// Record the incumbent timeline (time / node / objective per accepted
  /// incumbent) in SolveStats. Cheap; off only for byte-stable comparisons.
  bool collect_timeline = true;

  /// Numerical-failure handling: when a node LP hits its iteration limit or
  /// a warm-started one hits numerical trouble, re-solve it from scratch
  /// (cold dual simplex, fresh factorization) with a 10x larger iteration
  /// budget per escalation — up to this many escalations — instead of
  /// abandoning the subtree. Numerical trouble on a cold solve is final: a
  /// cold retry would replay the same pivots. Past 25 accumulated
  /// failures, every node LP starts cold.
  int max_numerical_retries = 3;

  /// Cut separation: callbacks invoked on node LP points, a deduplicating
  /// pool, and the lazy-constraint gate on candidate incumbents. Empty
  /// separator list = the feature is fully off. Separated rows enter the
  /// LP through the warm-start path (parent bases are extended with the
  /// new slacks basic) and the loop honors `exec` cancellation/budget.
  CutOptions cuts;

  /// Bound-feedback hook: invoked on the serial spine whenever the proven
  /// global dual bound improves (root LP/separation, then every node-loop
  /// tightening past tol::kObjImprove). The portfolio runner feeds these
  /// into the tabu member as its aspiration level and into the combined
  /// anytime certificate's bound timeline. The callback must be cheap and
  /// must not re-enter the solver; calls are deterministic given the same
  /// model + options (wall time is not passed for exactly that reason).
  std::function<void(double)> on_bound_improved;
};

/// One accepted incumbent, for the convergence timeline.
struct IncumbentEvent {
  double time_s = 0.0;
  long nodes = 0;
  double objective = 0.0;
};

struct SolveStats {
  long nodes = 0;
  long lp_iterations = 0;
  double time_s = 0.0;
  double root_bound = 0.0;
  /// Why the solve returned, and the anytime certificate that goes with it:
  /// the proven global lower bound and the relative optimality gap (kInf
  /// when no incumbent exists). Mirrored from MipResult so every serialized
  /// report carries the certificate.
  util::exec::TerminationReason termination = util::exec::TerminationReason::kCompleted;
  double bound = 0.0;
  double gap = 0.0;
  long numerical_failures = 0;
  long rc_fixed = 0;  ///< binaries fixed by root reduced-cost fixing

  // Warm-start accounting (node LPs only; the root is always cold).
  long warm_attempts = 0;    ///< node LPs started from an inherited basis
  long warm_lu_reused = 0;   ///< warm starts that also reused the cached LU
  long warm_fallbacks = 0;   ///< warm starts that fell back cold (refactorization failed)
  long cold_solves = 0;      ///< node LPs deliberately started from scratch

  /// Basis factorizations by cause and time inside the factorization,
  /// summed over every simplex engine the solve built.
  simplex::LuStats lu;

  // Bound propagation.
  long propagation_tightenings = 0;  ///< integer bounds tightened across all nodes
  long propagation_prunes = 0;       ///< nodes pruned infeasible before any LP

  // Branching-rule mix.
  long pseudocost_branches = 0;  ///< branchings where the chosen variable was reliable
  long fractional_branches = 0;  ///< branchings decided by the fractionality fallback

  // Cut separation (all zero when SolveOptions::cuts has no separators).
  long cut_rounds = 0;          ///< separation rounds run (root + node + gate)
  long cuts_proposed = 0;       ///< cuts proposed by the separators
  long cuts_pooled = 0;         ///< distinct cuts accepted by the pool
  long cuts_duplicate = 0;      ///< proposals dropped by tolerance-aware dedup
  long cuts_lp_rows = 0;        ///< pooled cuts activated as LP rows this solve
  long cuts_purged = 0;         ///< pooled cuts aged out without activating
  long lazy_rejections = 0;     ///< integer points rejected by the lazy gate
  long cuts_dim_rejected = 0;   ///< shared-pool cuts fenced off: their column
                                ///< ids exceed this model's var count
  double separation_time_s = 0.0;  ///< wall time inside separators + selection

  long incumbents = 0;  ///< accepted incumbents (improvements only)
  bool mip_start_used = false;  ///< the supplied MIP start passed feasibility
  std::vector<IncumbentEvent> incumbent_timeline;

  /// Fraction of node LPs that reused an inherited basis (0 when no nodes).
  [[nodiscard]] double warm_start_hit_rate() const {
    const long total = warm_attempts + cold_solves;
    return total > 0 ? static_cast<double>(warm_attempts - warm_fallbacks) /
                           static_cast<double>(total)
                     : 0.0;
  }

  /// Machine-readable telemetry: every counter above plus the incumbent
  /// timeline, as one JSON object.
  [[nodiscard]] std::string to_json() const;
};

struct MipResult {
  SolveStatus status = SolveStatus::kNoSolution;
  double objective = 0.0;        ///< incumbent objective (valid unless kNoSolution)
  double bound = -kInf;          ///< proven lower bound
  std::vector<double> x;         ///< values for the Model's variables
  SolveStats stats;

  [[nodiscard]] bool has_solution() const {
    return status == SolveStatus::kOptimal || status == SolveStatus::kFeasible;
  }
};

/// Relative optimality gap of an incumbent against a lower bound:
/// (incumbent - bound) / max(1, |incumbent|, |bound|). kInf when there is
/// no incumbent or no finite bound (NaN on either side counts as missing).
/// 0 when incumbent <= bound + tol::kGapSlack — a bound nudged past the
/// incumbent by cut-tightened duals still reads as proven optimal, never a
/// negative gap. The denominator floors at 1 but also honors |bound|, so a
/// proven-optimal minimization with negative cost (incumbent -c, bound
/// one roundoff below) reports ~0, not the wild percentage the old
/// |incumbent|-only floor produced when the incumbent sat near zero.
[[nodiscard]] double relative_gap(double incumbent, double bound);

/// Solves a MILP by LP-based branch-and-bound: dual-simplex warm restarts
/// down the tree, reliability-blended pseudocost branching with plunge
/// ordering, node-level bound propagation, root rounding + diving
/// heuristics. Plays the role CPLEX plays in the paper's toolchain (see
/// DESIGN.md substitutions).
[[nodiscard]] MipResult solve(const Model& model, const SolveOptions& opts = {});

}  // namespace wnet::milp
