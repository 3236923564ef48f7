#pragma once

/// Tabu search over direct topology assignments (PAPERS.md: "Tabu Search
/// for Tactical Wireless Network Design", Zaid & Hertz).
///
/// The search state is one Yen candidate per (route, replica) group of the
/// encoded problem, plus optional per-node component overrides. A state is
/// evaluated by fixing the matching selector binaries (restrict_to_picks,
/// the restriction the explorer's fixed-routing warm start solves), fixing
/// any mapping overrides, and solving the remaining sizing-only MILP with a
/// tight budget, so every tabu incumbent is a genuine full-model assignment
/// the exact solver can adopt as a MIP start. The walk starts from
/// pick_fixed_routing, the explorer probe's routing.
///
/// Move set (all sampled, seeded, deterministic):
///  - reroute: move one group to a different Yen candidate;
///  - swap replica placement: exchange the paths of two replica groups of
///    the same route (when each group's list carries the other's path);
///  - toggle component: force a different library component on a node used
///    by the current topology.
///
/// Tabu tenure bans reversing a move for `tenure` iterations; aspiration
/// on the objective overrides the ban when a move beats the global best.
/// Stalls trigger seeded restarts. The search is resumable: run(n) advances
/// n iterations and may be called again, which is how the portfolio runner
/// interleaves it with MILP rungs; between runs the MILP's proven dual
/// bound arrives via set_aspiration_bound() and stops the walk as soon as
/// its incumbent is certified optimal.
///
/// Determinism: everything is driven by the seeded Rng and the restricted
/// MILP solves (themselves deterministic), so a TabuSearch advanced by the
/// same run() schedule visits the same states for any thread count. The
/// exec control is only ever polled (stopped()), never checkpointed — the
/// search runs on portfolio worker threads.

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "core/encode/encoded_problem.h"
#include "core/explorer.h"
#include "milp/cuts.h"
#include "milp/solver.h"
#include "util/exec/exec.h"
#include "util/rng.h"

namespace wnet::archex::meta {

struct TabuOptions {
  uint64_t seed = 1;
  /// Iterations a reversed move stays banned.
  int tenure = 7;
  /// Candidate moves sampled (and evaluated) per iteration.
  int neighborhood = 12;
  /// Non-improving iterations before a seeded restart.
  int stall_before_restart = 20;
  int max_restarts = 6;

  /// Budget of one restricted sizing solve. The node limit keeps a single
  /// evaluation cheap; the restriction usually solves at the root.
  double eval_time_limit_s = 5.0;
  long eval_node_limit = 64;
  double eval_rel_gap = 1e-6;

  /// Polled (never checkpointed) between iterations and inside every
  /// restricted solve. Pass a worker_view() when running off-spine.
  util::exec::ExecControl exec;

  /// Separators for lazily encoded models: the restricted solves must be
  /// gated by the same omitted row families as the exact member, or a tabu
  /// incumbent could violate a lazy constraint. The search keeps a private
  /// pool so evaluations reuse each other's cuts without ever touching a
  /// pool owned by a concurrently running solver.
  std::vector<milp::SeparationCallback> separators;
};

struct TabuStats {
  long iterations = 0;
  long evaluations = 0;   ///< restricted MILP solves (cache misses)
  long cache_hits = 0;
  long restarts = 0;
  long moves_reroute = 0;
  long moves_swap = 0;
  long moves_toggle = 0;
  long infeasible_evals = 0;
  long aspiration_overrides = 0;  ///< tabu moves admitted by aspiration
  long adopted_incumbents = 0;    ///< external (MILP) incumbents adopted
};

/// Seeded tabu-search explorer over one EncodedProblem. Not thread-safe;
/// the portfolio runs it from exactly one member task per rung.
class TabuSearch {
 public:
  TabuSearch(const EncodedProblem& ep, TabuOptions opts);

  /// False when the problem has no candidate selectors to search over
  /// (full-path encoding mode): run() is then a no-op.
  [[nodiscard]] bool runnable() const { return !groups_.empty(); }

  /// Advances up to `iterations` move rounds (resumable). The first call
  /// also evaluates the fixed-routing pick — run(0) performs exactly
  /// that probe and nothing else, which is how the portfolio stamps its
  /// first incumbent before any local-search work.
  /// Returns true when the
  /// best incumbent improved during this call. Returns early when the
  /// incumbent is certified against the aspiration bound, the exec control
  /// stops, or the meta-iteration budget runs out.
  bool run(int iterations);

  [[nodiscard]] bool has_incumbent() const { return best_feasible_; }
  [[nodiscard]] double best_objective() const { return best_obj_; }
  /// Full model-variable assignment of the best incumbent (empty until one
  /// exists). Directly usable as milp::SolveOptions::mip_start.
  [[nodiscard]] const std::vector<double>& best_x() const { return best_x_; }

  /// Installs the MILP's proven global lower bound as the aspiration
  /// level: once best_objective() is within `rel_gap` of it, the incumbent
  /// is optimal and the walk stops. Monotone (only tightens upward).
  void set_aspiration_bound(double global_lower_bound);
  [[nodiscard]] double aspiration_bound() const { return aspiration_bound_; }

  /// True once the best incumbent is proven optimal against the installed
  /// aspiration bound (within rel_gap semantics of milp::relative_gap).
  [[nodiscard]] bool certified() const;

  /// Adopts an external full-model incumbent (the MILP member's) when it
  /// improves on ours: the walk re-anchors on its topology. The assignment
  /// is recovered from the selector values; x must cover the model's vars.
  void adopt_incumbent(const std::vector<double>& x, double objective);

  [[nodiscard]] const TabuStats& stats() const { return stats_; }
  /// Why the last run() returned: kCompleted covers the iteration count
  /// running out or certification; otherwise the exec stop reason.
  [[nodiscard]] util::exec::TerminationReason termination() const { return termination_; }

 private:
  struct EvalResult {
    bool feasible = false;
    double objective = 0.0;
    std::vector<double> x;
  };
  struct Move {
    enum class Kind : uint8_t { kReroute, kSwap, kToggle };
    Kind kind = Kind::kReroute;
    int group = -1, member = -1;      ///< reroute: group -> its member index
    int group_b = -1, member_b = -1;  ///< swap: second leg
    int node = -1, component = -1;    ///< toggle
  };

  /// Assignment = member index per group + component overrides; the hash
  /// keys the evaluation cache.
  [[nodiscard]] uint64_t state_hash() const;
  [[nodiscard]] const EvalResult& evaluate_current();
  void apply(const Move& m);
  void undo(const std::vector<int>& prev_assign, const std::map<int, int>& prev_overrides);
  /// A fresh sampler per iteration, seeded from (seed, iteration index), so
  /// the neighborhood at iteration k is the same however run() is chunked.
  [[nodiscard]] std::vector<Move> sample_moves(util::Rng& rng);
  /// The current assignment as one candidate per group.
  [[nodiscard]] RoutePicks current_picks() const;
  void seeded_restart();

  const EncodedProblem* ep_;
  TabuOptions opts_;

  /// (route, replica) groups in deterministic order with their candidate
  /// member indices (into ep_->candidates).
  std::vector<std::pair<int, int>> group_keys_;
  std::vector<std::vector<int>> groups_;

  std::vector<int> assignment_;        ///< member index per group
  std::map<int, int> overrides_;       ///< node -> forced library component

  bool best_feasible_ = false;
  double best_obj_ = milp::kInf;
  std::vector<double> best_x_;

  double aspiration_bound_ = -milp::kInf;
  util::exec::TerminationReason termination_ = util::exec::TerminationReason::kCompleted;

  /// Move-reversal bans: key -> iteration index until which it is banned.
  std::unordered_map<uint64_t, long> tabu_;
  long iteration_ = 0;
  int stall_ = 0;
  int restarts_ = 0;
  uint64_t rng_stream_ = 0;  ///< advances per iteration: sampling is
                             ///< position-keyed, independent of history

  std::unordered_map<uint64_t, EvalResult> cache_;
  milp::CutPool eval_pool_;  ///< private: shared across evals, never across threads

  TabuStats stats_;
};

}  // namespace wnet::archex::meta
