#pragma once

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/encode/encoder.h"
#include "core/faults/campaign.h"
#include "core/faults/fault_model.h"
#include "core/solution.h"
#include "milp/solver.h"

namespace wnet::archex {

/// End-to-end result of one exploration run: encode -> solve -> decode.
struct ExplorationResult {
  milp::SolveStatus status = milp::SolveStatus::kNoSolution;
  NetworkArchitecture architecture;  ///< valid when a solution exists
  double objective = 0.0;
  EncodeStats encode_stats;
  milp::SolveStats solve_stats;
  double total_time_s = 0.0;

  /// Why the run ended (anytime contract): kCompleted for a natural finish,
  /// otherwise the stop reason from whichever stage stopped first (an
  /// aborted encode never reaches the solver). `bound` and `gap` carry the
  /// matching optimality certificate: -inf/+inf when the run stopped before
  /// the solver proved anything.
  util::exec::TerminationReason termination = util::exec::TerminationReason::kCompleted;
  double bound = -milp::kInf;
  double gap = milp::kInf;

  [[nodiscard]] bool has_solution() const {
    return status == milp::SolveStatus::kOptimal || status == milp::SolveStatus::kFeasible;
  }

  /// Machine-readable run telemetry: status, objective and encode sizes
  /// wrapped around milp::SolveStats::to_json() (nodes, LP iterations,
  /// warm-start hit rate, propagation fixings, incumbent timeline). This is
  /// the JSON the `solver_profile` bench and the `--solver-json` flags emit.
  [[nodiscard]] std::string solver_json() const;
};

/// The top-level design-space explorer — the ArchEx flow of the paper:
/// compile the specification to a MILP with the chosen path encoding,
/// solve, decode the optimal architecture.
class Explorer {
 public:
  Explorer(const NetworkTemplate& tmpl, const Specification& spec);

  [[nodiscard]] const NetworkTemplate& tmpl() const { return *tmpl_; }
  [[nodiscard]] const Specification& spec() const { return *spec_; }

  /// One encode + solve + decode at k_star = eopts.k_star: a one-rung
  /// session through explore_rung, with the fixed-routing probe as its
  /// warm start unless `sopts.mip_start` supplies one.
  [[nodiscard]] ExplorationResult explore(const EncoderOptions& eopts = {},
                                          const milp::SolveOptions& sopts = {}) const;

  /// Systematic K* selection (paper Sec. 4.3): explore with increasing K*
  /// until the run time exceeds `time_threshold_s` or the objective stops
  /// improving by more than `min_improvement` (relative).
  struct KStarSearchOptions {
    std::vector<int> ladder = {1, 3, 5, 10, 20};
    double time_threshold_s = 600.0;
    double min_improvement = 1e-3;
  };
  struct KStarSearchResult {
    int chosen_k = 0;
    ExplorationResult best;
    std::vector<std::pair<int, ExplorationResult>> trace;
    /// kCompleted when the ladder ran to its natural stop rule; kDeadline /
    /// kCancelled / kNodeLimit when `sopts.exec` (the request control the
    /// scan checkpoints on) cut the search short. `best` and `trace` remain
    /// valid partial results either way.
    util::exec::TerminationReason termination = util::exec::TerminationReason::kCompleted;
  };
  /// Walks the ladder through one IncrementalEncoder session: each rung
  /// delta-extends the previous model (resumable Yen, appended selectors
  /// and rows) instead of re-encoding, installs the previous rung's
  /// incumbent as a MIP start, and — because a successful delta makes the
  /// feasible set a superset of the previous rung's — its objective as a
  /// primal cutoff. chosen_k and objectives match a scan over fresh
  /// explore() rungs; tie-broken architectures may differ.
  [[nodiscard]] KStarSearchResult search_k_star(const KStarSearchOptions& kopts,
                                                EncoderOptions eopts = {},
                                                const milp::SolveOptions& sopts = {}) const;
  [[nodiscard]] KStarSearchResult search_k_star() const {
    return search_k_star(KStarSearchOptions{});
  }

  /// Incumbent carried across the rungs of one incremental ladder: the
  /// previous rung's assignment (extended over appended variables as a MIP
  /// start) and its objective (installed as a primal cutoff). Starts empty;
  /// explore_rung updates it whenever a rung finds a solution.
  struct RungCarry {
    std::vector<double> x;
    double objective = milp::kInf;
  };

  /// Warm-start source for a rung whose carry does not extend: given the
  /// encoded problem and the solve options (lazy separators already
  /// installed), returns a MIP start, or empty for a cold solve.
  using RungStart =
      std::function<std::vector<double>(const EncodedProblem&, const milp::SolveOptions&)>;

  /// One rung against a caller-owned session: delta-extends (or builds) the
  /// session's model to k_star = k, installs the lazy separators, installs
  /// the carried incumbent as MIP start + cutoff — or, when the carry does
  /// not extend, the MIP start `start` returns (fixed_routing_start when
  /// `start` is empty) — solves, decodes, and updates `carry` on success.
  /// This is the one solve step behind explore(), search_k_star,
  /// explore_robust's repair iterations (with fixed_routing_start from the
  /// previous architecture as `start`) and the solve daemon's session
  /// cache: the daemon keeps the session (and the carry) alive across
  /// requests so repeated or extended ladders resume instead of
  /// re-deriving.
  ///
  /// The session must have been constructed against this explorer's
  /// template and specification; its options govern lazy separation and
  /// encoding mode. Respects `sopts.exec` for cancellation/deadlines — on a
  /// stopped encode the rung reports the reason and never solves.
  [[nodiscard]] ExplorationResult explore_rung(IncrementalEncoder& session, int k,
                                               RungCarry& carry,
                                               const milp::SolveOptions& sopts,
                                               const RungStart& start = {}) const;

  /// Counterexample-guided robust exploration (core/faults/robust.cpp).
  struct RobustExploreOptions {
    EncoderOptions encoder;
    milp::SolveOptions solver;
    faults::FaultModelConfig faults;

    /// Repair-loop budget: the loop stops after this many encode/solve/
    /// campaign iterations even if counterexamples remain.
    int max_repair_iterations = 8;
    /// Wall-clock budget across ALL iterations (encode + solve + campaign).
    /// Solver time limits shrink to the remaining budget; once it is spent
    /// the loop returns the best architecture found so far.
    double time_budget_s = 300.0;
    /// How far the repair loop may raise a route's replica count above the
    /// specification when hardening alone is infeasible.
    int max_extra_replicas = 1;
    /// Worker threads for the per-iteration fault campaigns (scenario
    /// scoring via faults::CampaignRunner) and for candidate generation
    /// inside the encoder. Reports and repair trajectories are identical
    /// for every value; <= 1 is fully serial.
    int threads = 1;
  };

  struct RobustExplorationResult {
    /// Best architecture found, ranked by campaign pass rate then objective.
    ExplorationResult best;
    /// Campaign report for `best` (machine-readable via to_json()).
    faults::CampaignReport report;
    int iterations = 0;
    bool robust = false;  ///< true iff `best` passes every scenario
    int hardenings_applied = 0;
    std::vector<int> raised_routes;  ///< routes whose N_rep the loop raised
    double total_time_s = 0.0;
    /// Why the repair loop returned. kCompleted covers the natural endings
    /// (campaign passed, iteration cap, nothing left to raise); kDeadline /
    /// kCancelled / kNodeLimit mean `ropts.solver.exec` (tightened by
    /// time_budget_s) stopped it — `best` and `report` remain the valid
    /// partial result found so far.
    util::exec::TerminationReason termination = util::exec::TerminationReason::kCompleted;
  };

  /// Explore, replay a deterministic fault-injection campaign against the
  /// result, turn every failure into encoder hardening constraints (avoid
  /// failed element sets, demand fading margins), and re-solve with a warm
  /// restart — iterating until the campaign passes or budgets run out.
  /// Degrades gracefully: always returns the best architecture seen.
  [[nodiscard]] RobustExplorationResult explore_robust(
      const RobustExploreOptions& ropts) const;
  [[nodiscard]] RobustExplorationResult explore_robust() const {
    return explore_robust(RobustExploreOptions{});
  }

 private:
  const NetworkTemplate* tmpl_;
  const Specification* spec_;
};

/// The Sec. 4.3 selection scan behind search_k_star and the solve daemon:
/// walks `kopts.ladder`, evaluating rung i (with K* = k) through
/// `rung(i, k)`, and keeps the first rung whose objective beats the best so
/// far by more than `min_improvement` (relative). Stops at the first rung
/// that does not improve once a solution exists, at the first rung whose
/// run time exceeds `time_threshold_s`, or — outranking both, and recorded
/// as the result's termination — when `exec` trips at a rung boundary or a
/// rung reports a stop imposed by the request control. `on_rung(k, r,
/// improved)`, when set, sees every evaluated rung in ladder order.
[[nodiscard]] Explorer::KStarSearchResult scan_k_star(
    const Explorer::KStarSearchOptions& kopts, const util::exec::ExecControl& exec,
    const std::function<ExplorationResult(size_t i, int k)>& rung,
    const std::function<void(int k, const ExplorationResult& r, bool improved)>& on_rung = {});

/// One candidate per (route, replica) group: a K* = 1 routing.
using RoutePicks = std::map<std::pair<int, int>, const CandidatePath*>;

/// Result of pick_fixed_routing: a pick for every group, plus whether the
/// pick is usable as a warm start.
struct FixedRouting {
  RoutePicks picks;
  /// True when every group got a pick edge-disjoint from the other replicas
  /// of its route and every kAvoid hardening has a compliant replica. False
  /// also when there are no candidate groups at all.
  bool complete = false;
};

/// The fixed-routing picker (the paper's K* = 1 regime as a heuristic):
///  1. keeps every route of `prev` still present verbatim among the
///     candidates;
///  2. fills each remaining group, in (route, replica) order, with its
///     cheapest candidate (first minimum in candidate order) that shares no
///     edge with the route's other picks, preferring candidates that
///     satisfy every kAvoid hardening of the route — or, when every
///     candidate clashes, with the group's first member (complete = false);
///  3. for each kAvoid hardening with no compliant replica, swaps the first
///     replica that has one to its cheapest compliant disjoint candidate
///     (complete = false when none has).
/// With no `prev` and no hardenings only step 2 acts. The explorer's probe
/// and explore_robust's repair start use the pick only when complete; the
/// tabu walk starts from it either way.
[[nodiscard]] FixedRouting pick_fixed_routing(
    const EncodedProblem& ep, const NetworkArchitecture& prev = {},
    const std::vector<HardeningConstraint>& hardening = {});

/// Copy of `ep.model` with every candidate selector fixed: to 1 for its
/// group's pick, to 0 otherwise. The one restriction behind both
/// solve_with_fixed_selectors and the tabu walk's evaluations.
[[nodiscard]] milp::Model restrict_to_picks(const EncodedProblem& ep, const RoutePicks& picked);

/// Solves restrict_to_picks(ep, picked) briefly: a slice of the caller's
/// time budget, a relative gap of at least 1%, no cutoff and no bound hook
/// (neither describes the restriction). Returns the full variable
/// assignment, or empty if the restricted model has no solution.
[[nodiscard]] std::vector<double> solve_with_fixed_selectors(const EncodedProblem& ep,
                                                             const RoutePicks& picked,
                                                             const milp::SolveOptions& sopts);

/// The fixed-routing warm start: pick_fixed_routing(ep, prev, hardening)
/// solved by solve_with_fixed_selectors, or empty when the pick is not
/// complete. explore_rung's default start (no history) and
/// explore_robust's repair start (the previous architecture and the
/// hardenings so far).
[[nodiscard]] std::vector<double> fixed_routing_start(
    const EncodedProblem& ep, const milp::SolveOptions& sopts,
    const NetworkArchitecture& prev = {},
    const std::vector<HardeningConstraint>& hardening = {});

}  // namespace wnet::archex
