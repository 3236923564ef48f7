#include "milp/solver.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <sstream>
#include <vector>

#include "milp/presolve.h"
#include "milp/tol.h"
#include "util/obs/json.h"
#include "util/obs/trace.h"
#include "util/stopwatch.h"

namespace wnet::milp {

namespace {

using simplex::Basis;
using simplex::DualSimplex;
using simplex::LpResult;
using simplex::LpStatus;
using simplex::StandardLp;

/// Pseudocost directions with fewer observations than this blend toward
/// the tree-wide average (reliability branching).
constexpr int kPseudocostReliability = 4;
/// Activity-propagation sweeps per node before its LP.
constexpr int kNodePropagationRounds = 2;
/// Once this many numerical failures have accumulated in one solve, warm
/// bases are treated as tainted and every node LP starts cold.
constexpr long kColdRestartAfterFailures = 25;

/// One bound tightening on the path from the root to a node; chained via
/// shared parents so sibling subtrees share prefixes.
struct BoundChange {
  int col;
  double lb;
  double ub;
  std::shared_ptr<const BoundChange> parent;
};

struct Node {
  std::shared_ptr<const BoundChange> chain;
  Basis warm_basis;      ///< parent's final basis
  double parent_bound;   ///< LP bound of the parent (child bound >= this)
  int depth = 0;
  /// Branching that created this node, for pseudocost learning: once the
  /// node's own LP solves, (LP obj - parent_bound) / branch_frac is one
  /// observation of the branched variable's per-unit degradation.
  int branch_col = -1;
  bool branch_up = false;
  double branch_frac = 0.0;  ///< fractional distance to the branched bound
};

/// Per-variable, per-direction objective-degradation history.
struct Pseudocost {
  double sum = 0.0;  ///< sum of per-unit degradations
  long n = 0;        ///< observations
};

using util::exec::TerminationReason;

class BranchAndBound {
 public:
  BranchAndBound(const Model& model, const SolveOptions& opts)
      : model_(&model),
        opts_(opts),
        lp_(model),
        deadline_(opts.exec.deadline.tightened(opts.time_limit_s)) {
    // The dual simplex polls the same request token on its iteration
    // cadence, so cancellation reaches even a single long node LP.
    opts_.lp.cancel = opts_.exec.token;
    col_to_k_.assign(static_cast<size_t>(model.num_vars()), -1);
    for (int j = 0; j < model.num_vars(); ++j) {
      if (model.vars()[static_cast<size_t>(j)].type != VarType::kContinuous) {
        col_to_k_[static_cast<size_t>(j)] = static_cast<int>(int_cols_.size());
        int_cols_.push_back(j);
      }
    }
    root_lb_.reserve(int_cols_.size());
    root_ub_.reserve(int_cols_.size());
    for (int j : int_cols_) {
      root_lb_.push_back(lp_.lb()[static_cast<size_t>(j)]);
      root_ub_.push_back(lp_.ub()[static_cast<size_t>(j)]);
    }
    pc_up_.assign(int_cols_.size(), Pseudocost{});
    pc_down_.assign(int_cols_.size(), Pseudocost{});
    if (opts_.node_propagation && !int_cols_.empty()) {
      rows_ = std::make_unique<RowSystem>(model);
    }
    // External pool when supplied (shared across solves / audited by the
    // cut-safety oracle), else a private one. Stats snapshot lets finalize
    // report per-solve deltas even on a pre-populated shared pool.
    pool_ = opts_.cuts.shared_pool != nullptr ? opts_.cuts.shared_pool : &local_pool_;
    pool_stats_base_ = pool_->stats();
  }

  MipResult run();

 private:
  /// Resets integer bounds to root values, then applies a node's chain
  /// (leaf-most change per column wins).
  void apply_chain(const std::shared_ptr<const BoundChange>& chain);

  /// Activity-based bound propagation at the current node: tightens the
  /// LP's integer bounds from the rows woken by the chain's columns (the
  /// whole model when the chain is empty, i.e. at the root). Returns false
  /// when propagation proves the node infeasible.
  bool propagate_node(const std::shared_ptr<const BoundChange>& chain);

  /// Solves the current LP warm-started from `basis`; falls back to a cold
  /// solve on trouble. Updates stats.
  LpResult solve_lp(const Basis* basis);

  /// Branching variable for the LP point `x`, or -1 if integral. Highest
  /// priority class first; within the class, reliability-blended pseudocost
  /// score (pure fractionality until any branching history exists), with a
  /// deterministic lowest-index tie-break.
  [[nodiscard]] int pick_branch_var(const std::vector<double>& x) const;

  /// True when both directions of the variable's pseudocost history meet
  /// the reliability threshold (branching-mix telemetry).
  [[nodiscard]] bool pseudocost_reliable(int col) const {
    const int k = col_to_k_[static_cast<size_t>(col)];
    return pc_up_[static_cast<size_t>(k)].n >= kPseudocostReliability &&
           pc_down_[static_cast<size_t>(k)].n >= kPseudocostReliability;
  }

  /// Records one pseudocost observation from a solved child LP.
  void update_pseudocosts(const Node& node, double child_obj);

  /// Tries to accept `x` (column space) as incumbent; rounds integer vars
  /// and verifies against the Model — then against every separator (lazy
  /// rows are real constraints the Model does not carry). Returns true if
  /// the incumbent improved.
  bool try_incumbent(const std::vector<double>& x);

  /// One separation round on `x`: runs every separator into the pool, then
  /// appends the most-violated pooled cuts to the LP. Returns the number of
  /// rows appended; any growth drops the engine (stale dims/LU) — warm
  /// bases recorded against the old row count are extended in solve_lp.
  int separate(const std::vector<double>& x, int depth, bool integral, double lp_obj);

  /// Diving heuristic: repeatedly fix the least-fractional integer variable
  /// to its rounded value and re-solve. Starts from the current LP state.
  void dive(const std::shared_ptr<const BoundChange>& chain, const Basis& basis,
            const std::vector<double>& x0);

  /// Effective primal bound for pruning: the incumbent objective or, before
  /// one exists, the caller-supplied cutoff (whichever is smaller).
  [[nodiscard]] double prune_bound() const {
    return std::min(have_incumbent_ ? incumbent_obj_ : kInf, opts_.cutoff);
  }

  /// Root reduced-cost fixing: a nonbasic binary whose reduced cost alone
  /// pushes past the incumbent (or the caller's cutoff) can be fixed at its
  /// root bound globally.
  void apply_reduced_cost_fixing() {
    if (root_dj_.empty() || prune_bound() >= kInf) return;
    const double cutoff = prune_bound() - tol::kObjImprove;
    for (size_t k = 0; k < int_cols_.size(); ++k) {
      const int j = int_cols_[k];
      if (root_lb_[k] >= root_ub_[k]) continue;  // already fixed
      const double d = root_dj_[static_cast<size_t>(j)];
      const double v = root_x_[static_cast<size_t>(j)];
      if (d > tol::kReducedCost && v <= root_lb_[k] + tol::kAtBound &&
          root_bound_ + d > cutoff) {
        root_ub_[k] = root_lb_[k];
        ++stats_.rc_fixed;
      } else if (d < -tol::kReducedCost && v >= root_ub_[k] - tol::kAtBound &&
                 root_bound_ - d > cutoff) {
        root_lb_[k] = root_ub_[k];
        ++stats_.rc_fixed;
      }
    }
  }

  /// Bound-feedback hook driver: forwards monotonic improvements of the
  /// proven global lower bound to opts_.on_bound_improved. Serial-spine
  /// only; the published sequence is deterministic (no wall time involved).
  void publish_bound(double b) {
    if (!opts_.on_bound_improved) return;
    if (b > published_bound_ + tol::kObjImprove && b > -kInf && b < kInf) {
      published_bound_ = b;
      opts_.on_bound_improved(b);
    }
  }

  [[nodiscard]] bool gap_closed(double lower_bound) const {
    if (!have_incumbent_) return false;
    return incumbent_obj_ - lower_bound <=
           opts_.rel_gap * std::max(1.0, std::abs(incumbent_obj_)) + tol::kGapSlack;
  }

  const Model* model_;
  SolveOptions opts_;
  StandardLp lp_;
  std::vector<int> int_cols_;
  std::vector<int> col_to_k_;  ///< var id -> position in int_cols_ (-1 if continuous)
  std::vector<double> root_lb_;
  std::vector<double> root_ub_;
  std::unique_ptr<RowSystem> rows_;  ///< flattened rows + incidence for propagation
  std::vector<double> prop_lb_, prop_ub_;  ///< per-node propagation scratch

  std::vector<Pseudocost> pc_up_;    ///< by int_cols_ position
  std::vector<Pseudocost> pc_down_;
  Pseudocost pc_all_up_;    ///< tree-wide aggregate, fills in unreliable vars
  Pseudocost pc_all_down_;

  bool have_incumbent_ = false;
  double incumbent_obj_ = kInf;
  std::vector<double> incumbent_x_;  // structural space

  double root_bound_ = -kInf;
  double published_bound_ = -kInf;  ///< last bound sent through the hook
  std::vector<double> root_x_;   // root LP point (column space)
  std::vector<double> root_dj_;  // root reduced costs

  /// Seconds left on the effective deadline, floored at 0 — never the 1s
  /// floor the old per-node set_time_limit applied, which could grant a
  /// full extra second of work per LP after the budget was spent.
  [[nodiscard]] double remaining_s() const {
    return std::max(0.0, deadline_.remaining_s());
  }

  /// Fills the result's common tail: stats snapshot, wall time, and the
  /// anytime certificate (termination reason, bound, gap) every return
  /// path carries.
  void finalize(MipResult& out, TerminationReason why) {
    stats_.termination = why;
    stats_.bound = out.bound;
    stats_.gap = relative_gap(out.has_solution() ? out.objective : kInf, out.bound);
    const CutPoolStats& ps = pool_->stats();
    stats_.cuts_proposed = ps.proposed - pool_stats_base_.proposed;
    stats_.cuts_pooled = ps.pooled - pool_stats_base_.pooled;
    stats_.cuts_duplicate = ps.duplicates - pool_stats_base_.duplicates;
    stats_.cuts_purged = ps.purged - pool_stats_base_.purged;
    stats_.cuts_lp_rows = lp_.num_rows() - model_->num_constrs();
    // Shared-pool dimension fence: pooled rows whose column ids exceed this
    // model's var count were invisible to this solve (see CutPool::fits).
    stats_.cuts_dim_rejected = 0;
    for (size_t i = 0; i < pool_->size(); ++i) {
      if (!pool_->fits(i, model_->num_vars())) ++stats_.cuts_dim_rejected;
    }
    out.stats = stats_;
    if (engine_) out.stats.lu += engine_->lu_stats();
    out.stats.time_s = clock_.seconds();
  }

  /// Drops the simplex engine (its structures or budget went stale), first
  /// folding its factorization counters into the solve's.
  void retire_engine() {
    if (engine_) stats_.lu += engine_->lu_stats();
    engine_.reset();
  }

  SolveStats stats_;
  util::Stopwatch clock_;
  util::exec::Deadline deadline_;  ///< min(exec.deadline, time_limit_s from entry)
  Basis last_basis_;  ///< basis of the most recent LP solve
  std::unique_ptr<DualSimplex> engine_;  ///< persistent: caches the LU

  CutPool local_pool_;
  CutPool* pool_ = nullptr;  ///< opts_.cuts.shared_pool or &local_pool_
  CutPoolStats pool_stats_base_;  ///< pool stats at solve entry (delta reporting)
  std::vector<char> in_lp_;  ///< per pool row: appended to THIS solve's LP
  /// Row budget exhausted: fractional separation stops (anytime degradation)
  /// but the integral lazy gate keeps running — it guards correctness.
  bool separation_budget_out_ = false;
};

void BranchAndBound::apply_chain(const std::shared_ptr<const BoundChange>& chain) {
  for (size_t k = 0; k < int_cols_.size(); ++k) {
    lp_.set_bounds(int_cols_[k], root_lb_[k], root_ub_[k]);
  }
  std::vector<char> seen(static_cast<size_t>(model_->num_vars()), 0);
  for (const BoundChange* bc = chain.get(); bc != nullptr; bc = bc->parent.get()) {
    if (seen[static_cast<size_t>(bc->col)]) continue;  // leaf-most wins
    seen[static_cast<size_t>(bc->col)] = 1;
    lp_.set_bounds(bc->col, bc->lb, bc->ub);
  }
}

bool BranchAndBound::propagate_node(const std::shared_ptr<const BoundChange>& chain) {
  const size_t n = static_cast<size_t>(model_->num_vars());
  prop_lb_.assign(lp_.lb().begin(), lp_.lb().begin() + n);
  prop_ub_.assign(lp_.ub().begin(), lp_.ub().begin() + n);

  std::vector<int> seeds;
  std::vector<char> seen(n, 0);
  for (const BoundChange* bc = chain.get(); bc != nullptr; bc = bc->parent.get()) {
    if (seen[static_cast<size_t>(bc->col)] == 0) {
      seen[static_cast<size_t>(bc->col)] = 1;
      seeds.push_back(bc->col);
    }
  }

  PropagateOptions po;
  po.max_sweeps = kNodePropagationRounds;
  po.integers_only = true;
  const PropagateResult res = propagate_bounds(*rows_, prop_lb_, prop_ub_, seeds, po);
  if (res.infeasible) return false;
  if (res.tightened > 0) {
    stats_.propagation_tightenings += res.tightened;
    for (int j : int_cols_) {
      const size_t sj = static_cast<size_t>(j);
      if (prop_lb_[sj] > lp_.lb()[sj] || prop_ub_[sj] < lp_.ub()[sj]) {
        lp_.set_bounds(j, prop_lb_[sj], prop_ub_[sj]);
      }
    }
  }
  return true;
}

int BranchAndBound::separate(const std::vector<double>& x, int depth, bool integral,
                             double lp_obj) {
  if (opts_.cuts.separators.empty()) return 0;
  // Fractional separation is a strengthening heuristic: a spent deadline,
  // tripped token or exhausted row budget just switches it off. The
  // integral gate must still run — accepting a lazily-infeasible incumbent
  // would be wrong, not merely slow.
  if (!integral &&
      (separation_budget_out_ || deadline_.expired() || opts_.exec.token.cancelled())) {
    return 0;
  }
  util::Stopwatch sw;
  ++stats_.cut_rounds;
  const SeparationContext ctx{x, stats_.nodes, depth, integral, lp_obj};
  for (const SeparationCallback& cb : opts_.cuts.separators) cb(ctx, *pool_);
  in_lp_.resize(pool_->size(), 0);

  std::vector<size_t> picked;
  if (integral) {
    // The gate path must be able to activate ANY violated pooled row not
    // already in THIS solve's LP: with a shared pool, kActive can mean
    // "active in an earlier solve's LP", and purged rows stay readable.
    // Skipping either would reject the integer point without adding the
    // violated row, and the node loop would then drop a region that may
    // still hold feasible points.
    for (size_t i = 0; i < pool_->size(); ++i) {
      if (in_lp_[i] != 0) continue;
      // Dimension fence: a shared-pool row from a larger model cannot enter
      // this LP (its columns do not exist here) and must not veto the point
      // either — violation() already reports 0 for it, this guard just
      // makes the reject explicit before mark_active/add_row.
      if (!pool_->fits(i, model_->num_vars())) continue;
      if (pool_->violation(i, x) >= opts_.cuts.pool.min_violation) {
        pool_->mark_active(i);
        picked.push_back(i);
      }
    }
  } else {
    for (const size_t idx :
         pool_->select_violated(x, opts_.cuts.pool, model_->num_vars())) {
      if (in_lp_[idx] == 0) picked.push_back(idx);
    }
  }
  for (const size_t idx : picked) {
    in_lp_[idx] = 1;
    lp_.add_row(pool_->terms(idx), pool_->sense(idx), pool_->rhs(idx));
  }
  if (!picked.empty()) {
    retire_engine();  // dims grew: stale structures/LU; solve_lp rebuilds
    if (opts_.exec.budget != nullptr &&
        !opts_.exec.budget->charge_encode_rows(static_cast<long>(picked.size()))) {
      separation_budget_out_ = true;
    }
  }
  stats_.separation_time_s += sw.seconds();
  if (util::obs::TraceRecorder::global().enabled()) {
    util::obs::TraceRecorder::global().record_counter(
        "milp/cut_lp_rows", static_cast<double>(lp_.num_rows() - model_->num_constrs()));
  }
  return static_cast<int>(picked.size());
}

LpResult BranchAndBound::solve_lp(const Basis* basis) {
  if (!engine_) engine_ = std::make_unique<DualSimplex>(lp_, opts_.lp);
  // A basis recorded before cut rows were appended is extended with each
  // new slack basic in its own row: the basis stays nonsingular and — the
  // slack cost being zero — dual feasible, so the dual simplex resumes
  // from it directly.
  Basis extended;
  if (basis != nullptr && static_cast<int>(basis->basic.size()) < lp_.num_rows()) {
    extended = *basis;
    extended.status.resize(static_cast<size_t>(lp_.num_cols()), simplex::ColStatus::kBasic);
    for (int i = static_cast<int>(extended.basic.size()); i < lp_.num_rows(); ++i) {
      extended.basic.push_back(lp_.num_structural() + i);
    }
    basis = &extended;
  }
  engine_->set_time_limit(remaining_s());
  // Past the cold-restart threshold, inherited bases are suspect (stale or
  // ill-conditioned factorizations keep tripping the engine): start cold.
  const bool warm_ok = opts_.warm_start &&
                       stats_.numerical_failures < kColdRestartAfterFailures;
  LpResult res;
  bool warm = false;  // the attempt ran from an inherited basis
  if (basis != nullptr && warm_ok) {
    ++stats_.warm_attempts;
    res = engine_->solve_from(*basis);
    const simplex::SolveInfo& info = engine_->last_solve_info();
    if (info.reused_lu) ++stats_.warm_lu_reused;
    if (info.refactor_fallback) ++stats_.warm_fallbacks;
    warm = !info.refactor_fallback;
  } else {
    ++stats_.cold_solves;
    res = engine_->solve();
  }
  stats_.lp_iterations += res.iterations;
  // Escalating cold retries: rebuild the engine from scratch with a 10x
  // larger iteration budget each round rather than abandoning the subtree.
  // A cold solve's pivot path is fixed (deterministic cost jitter), so a
  // retry only helps when the path can change: after a warm start, or when
  // the budget ran out. Numerical trouble on a cold solve (including a warm
  // start that fell back cold) is final.
  simplex::LpOptions retry = opts_.lp;
  bool escalated = false;
  for (int attempt = 0;
       res.status == LpStatus::kIterLimit || res.status == LpStatus::kNumericalTrouble;
       ++attempt) {
    ++stats_.numerical_failures;
    // A retry only makes sense while the request is still live: an expired
    // deadline or a tripped token must not be granted fresh seconds (the old
    // 1.0s floor here leaked up to a second per node past the budget).
    if (attempt >= opts_.max_numerical_retries || deadline_.expired() ||
        opts_.exec.token.cancelled() || (res.status == LpStatus::kNumericalTrouble && !warm)) {
      break;
    }
    warm = false;
    retry.max_iters *= 10;
    retry.time_limit_s = remaining_s();
    retire_engine();
    engine_ = std::make_unique<DualSimplex>(lp_, retry);
    escalated = true;
    res = engine_->solve();
    stats_.lp_iterations += res.iterations;
  }
  if (escalated) {
    // The escalated engine carries the inflated pivot budget; restore the
    // configured budget so one bad node doesn't tax every later LP. (The
    // time limit is already re-armed at the top of each call.)
    engine_->set_iteration_limit(opts_.lp.max_iters);
  }
  last_basis_ = engine_->basis();
  return res;
}

int BranchAndBound::pick_branch_var(const std::vector<double>& x) const {
  // Pseudocost scoring switches on once any branching has been observed;
  // before that every variable scores by plain fractionality, i.e. the
  // textbook most-fractional rule.
  const bool use_pc =
      opts_.pseudocost_branching && (pc_all_up_.n > 0 || pc_all_down_.n > 0);
  const double avg_up = pc_all_up_.n > 0 ? pc_all_up_.sum / static_cast<double>(pc_all_up_.n) : 1.0;
  const double avg_down =
      pc_all_down_.n > 0 ? pc_all_down_.sum / static_cast<double>(pc_all_down_.n) : 1.0;
  // Below the reliability threshold, blend the variable's own average with
  // the tree-wide one in proportion to how much history it has.
  constexpr int rel = kPseudocostReliability;
  const auto blend = [](const Pseudocost& pc, double avg) {
    if (pc.n >= rel) return pc.sum / static_cast<double>(pc.n);
    return (pc.sum + static_cast<double>(rel - pc.n) * avg) / static_cast<double>(rel);
  };

  int best = -1;
  int best_prio = INT32_MIN;
  double best_score = -1.0;
  for (size_t k = 0; k < int_cols_.size(); ++k) {
    const int j = int_cols_[k];
    const double v = x[static_cast<size_t>(j)];
    const double frac = v - std::floor(v);
    const double dist = std::min(frac, 1.0 - frac);
    if (dist <= opts_.int_tol) continue;
    const int prio = model_->vars()[static_cast<size_t>(j)].branch_priority;
    double score;
    if (use_pc) {
      // Product rule over the estimated up/down degradations: prefers
      // variables whose BOTH children move the bound.
      const double down_est = std::max(frac * blend(pc_down_[k], avg_down), 1e-12);
      const double up_est = std::max((1.0 - frac) * blend(pc_up_[k], avg_up), 1e-12);
      score = down_est * up_est;
    } else {
      score = dist;
    }
    // Highest priority class first. Within the class a candidate must beat
    // the running best by a relative margin — ties (exact or within float
    // noise) keep the lowest column index, making the branching order
    // platform-stable.
    if (prio > best_prio ||
        (prio == best_prio && score > best_score + tol::kBranchTie * std::max(1.0, best_score))) {
      best_prio = prio;
      best_score = score;
      best = j;
    }
  }
  return best;
}

void BranchAndBound::update_pseudocosts(const Node& node, double child_obj) {
  if (node.branch_col < 0) return;
  const int k = col_to_k_[static_cast<size_t>(node.branch_col)];
  if (k < 0) return;
  const double frac = std::max(node.branch_frac, 1e-6);
  const double per_unit = std::max(0.0, child_obj - node.parent_bound) / frac;
  Pseudocost& pc = node.branch_up ? pc_up_[static_cast<size_t>(k)] : pc_down_[static_cast<size_t>(k)];
  pc.sum += per_unit;
  ++pc.n;
  Pseudocost& all = node.branch_up ? pc_all_up_ : pc_all_down_;
  all.sum += per_unit;
  ++all.n;
}

bool BranchAndBound::try_incumbent(const std::vector<double>& x) {
  // Prefer the cleanly rounded point; if rounding the binaries perturbs a
  // tight equality (e.g. an RSS balance row) past tolerance, fall back to
  // the raw LP point, which is feasible at LP precision.
  std::vector<double> cand(x.begin(), x.begin() + model_->num_vars());
  for (int j : int_cols_) cand[static_cast<size_t>(j)] = std::round(cand[static_cast<size_t>(j)]);
  if (!model_->is_feasible(cand, 1e-4)) {
    cand.assign(x.begin(), x.begin() + model_->num_vars());
    if (!model_->is_feasible(cand, 1e-4)) return false;
  }
  const double obj = model_->objective().evaluate(cand);
  // Inclusive cutoff semantics: a point that TIES the cutoff (within a
  // relative kObjImprove band) is a solution — callers passing a best-known
  // objective get kFeasible back, not kNoSolution. Anything beyond the tie
  // band is exactly what the cutoff asked to exclude.
  if (obj > opts_.cutoff + tol::kObjImprove * std::max(1.0, std::abs(opts_.cutoff))) {
    return false;
  }
  // Lazy gate: the Model only carries the encoded rows, so a point that
  // passes is_feasible may still violate constraints a separator owns.
  // Run the separators on the candidate (this covers MIP starts, dives and
  // integral node LPs alike); any violation — including of a cut already
  // active in the LP — rejects it. Newly activated rows make the caller's
  // next LP re-solve cut the point off, so the search makes progress
  // instead of dropping the region.
  if (!opts_.cuts.separators.empty()) {
    separate(cand, 0, /*integral=*/true, obj);
    if (pool_->max_violation(cand) >= opts_.cuts.pool.min_violation) {
      ++stats_.lazy_rejections;
      return false;
    }
  }
  // Same epsilon as every bound-pruning test (tol::kObjImprove): a point a
  // node prune would reject can never churn the incumbent machinery.
  if (!have_incumbent_ || obj < incumbent_obj_ - tol::kObjImprove) {
    have_incumbent_ = true;
    incumbent_obj_ = obj;
    incumbent_x_ = std::move(cand);
    ++stats_.incumbents;
    if (opts_.collect_timeline) {
      stats_.incumbent_timeline.push_back({clock_.seconds(), stats_.nodes, obj});
    }
    if (util::obs::TraceRecorder::global().enabled()) {
      util::obs::TraceRecorder::global().record_counter("milp/incumbent_objective", obj);
    }
    apply_reduced_cost_fixing();
    return true;
  }
  return false;
}

void BranchAndBound::dive(const std::shared_ptr<const BoundChange>& chain, const Basis& basis,
                          const std::vector<double>& x0) {
  std::shared_ptr<const BoundChange> cur = chain;
  Basis warm = basis;
  std::vector<double> x = x0;
  const int max_depth = 200;
  for (int d = 0; d < max_depth; ++d) {
    if (deadline_.expired() || opts_.exec.token.cancelled()) return;
    // Least-fractional unfixed integer var; fix it to its rounding.
    int pick = -1;
    double best = 2.0;
    for (int j : int_cols_) {
      const double v = x[static_cast<size_t>(j)];
      const double frac = v - std::floor(v);
      const double dist = std::min(frac, 1.0 - frac);
      if (dist <= opts_.int_tol) continue;
      if (dist < best) {
        best = dist;
        pick = j;
      }
    }
    if (pick == -1) {
      try_incumbent(x);
      return;
    }
    const double target = std::round(x[static_cast<size_t>(pick)]);
    auto bc = std::make_shared<BoundChange>();
    bc->col = pick;
    bc->lb = target;
    bc->ub = target;
    bc->parent = cur;
    apply_chain(bc);
    LpResult res = solve_lp(&warm);
    if (res.status != LpStatus::kOptimal) {
      // One-level backtrack: try the opposite rounding before giving up.
      const double flipped = target > x[static_cast<size_t>(pick)] ? target - 1 : target + 1;
      const auto& vd = model_->vars()[static_cast<size_t>(pick)];
      if (flipped < vd.lb || flipped > vd.ub) return;
      bc->lb = flipped;
      bc->ub = flipped;
      apply_chain(bc);
      res = solve_lp(&warm);
      if (res.status != LpStatus::kOptimal) return;
    }
    cur = bc;
    if (res.objective >= prune_bound() - tol::kObjImprove) {
      // Inclusive cutoff-tie semantics: the dive may land exactly on the
      // caller's cutoff (e.g. a portfolio member re-discovering the
      // heuristic's own incumbent). If the point is integral it must be
      // offered as an incumbent before the dive abandons it, or a solve
      // whose optimum ties the cutoff flips kFeasible into kNoSolution.
      if (pick_branch_var(res.x) == -1) try_incumbent(res.x);
      return;
    }
    warm = last_basis_;
    x = res.x;
  }
}

MipResult BranchAndBound::run() {
  MipResult out;
  util::obs::ScopedSpan solve_span("milp/solve", "milp");
  solve_span.arg("vars", model_->num_vars());
  solve_span.arg("int_vars", static_cast<double>(int_cols_.size()));

  // Stopped before any work (zero remaining budget, pre-cancelled token):
  // report the empty anytime result without touching the LP.
  {
    TerminationReason why = TerminationReason::kDeadline;
    if (opts_.exec.stopped(&why) || deadline_.expired()) {
      out.status = SolveStatus::kNoSolution;
      finalize(out, why);
      return out;
    }
  }

  // --- Root LP (with one full propagation sweep first: its tightenings go
  // into the root bound arrays, so every descendant inherits them).
  apply_chain(nullptr);
  if (opts_.node_propagation && !int_cols_.empty()) {
    const util::obs::ScopedSpan prop_span("milp/root_propagate", "milp");
    if (!propagate_node(nullptr)) {
      ++stats_.propagation_prunes;
      out.status = SolveStatus::kInfeasible;
      finalize(out, TerminationReason::kInfeasible);
      return out;
    }
    for (size_t k = 0; k < int_cols_.size(); ++k) {
      root_lb_[k] = lp_.lb()[static_cast<size_t>(int_cols_[k])];
      root_ub_[k] = lp_.ub()[static_cast<size_t>(int_cols_[k])];
    }
  }
  LpResult root = [&] {
    util::obs::ScopedSpan root_span("milp/root_lp", "milp");
    LpResult res = solve_lp(nullptr);
    root_span.arg("iterations", static_cast<double>(res.iterations));
    return res;
  }();
  stats_.root_bound = root.objective;
  if (root.status == LpStatus::kPrimalInfeasible) {
    out.status = SolveStatus::kInfeasible;
    finalize(out, TerminationReason::kInfeasible);
    return out;
  }
  if (root.status == LpStatus::kUnbounded) {
    out.status = SolveStatus::kUnbounded;
    finalize(out, TerminationReason::kCompleted);
    return out;
  }
  if (root.status != LpStatus::kOptimal) {
    // Root LP stopped early: no incumbent, no usable bound. Map the LP
    // status into the taxonomy so callers can tell a timeout from a
    // cancellation from genuine numerical trouble.
    out.status = SolveStatus::kNoSolution;
    TerminationReason why = TerminationReason::kNumerical;
    if (root.status == LpStatus::kTimeLimit) why = TerminationReason::kDeadline;
    if (root.status == LpStatus::kCancelled) why = TerminationReason::kCancelled;
    finalize(out, why);
    return out;
  }

  // Pure LP: done.
  if (int_cols_.empty()) {
    out.status = SolveStatus::kOptimal;
    out.objective = root.objective;
    out.bound = root.objective;
    out.x.assign(root.x.begin(), root.x.begin() + model_->num_vars());
    finalize(out, TerminationReason::kCompleted);
    return out;
  }

  // --- Root separation: alternate separate / re-solve until the separators
  // go quiet or the round cap hits. Lazy rows are real constraints, so a
  // root LP that turns infeasible after cuts is genuine infeasibility.
  if (!opts_.cuts.separators.empty()) {
    for (int round = 0; round < opts_.cuts.max_rounds_root; ++round) {
      if (deadline_.expired() || opts_.exec.token.cancelled()) break;
      const bool integral = pick_branch_var(root.x) == -1;
      if (separate(root.x, 0, integral, root.objective) == 0) break;
      LpResult tightened = solve_lp(&last_basis_);
      if (tightened.status == LpStatus::kPrimalInfeasible) {
        out.status = SolveStatus::kInfeasible;
        finalize(out, TerminationReason::kInfeasible);
        return out;
      }
      if (tightened.status != LpStatus::kOptimal) break;  // keep the last clean root
      root = std::move(tightened);
    }
    stats_.root_bound = root.objective;
  }

  // Root heuristics: caller-provided MIP start, plain rounding, then a dive.
  root_bound_ = root.objective;
  publish_bound(root.objective);
  root_x_ = root.x;
  root_dj_ = root.reduced_costs;
  if (static_cast<int>(opts_.mip_start.size()) >= model_->num_vars()) {
    stats_.mip_start_used = try_incumbent(opts_.mip_start);
  }
  try_incumbent(root.x);
  Basis root_basis = last_basis_;
  if (opts_.root_dive && pick_branch_var(root.x) != -1) {
    dive(nullptr, root_basis, root.x);
  }
  apply_reduced_cost_fixing();

  // --- DFS with plunge ordering.
  std::vector<Node> stack;
  stack.push_back({nullptr, root_basis, root.objective, 0});
  double best_open_bound = root.objective;

  TerminationReason stop_why = TerminationReason::kCompleted;
  bool stopped = false;
  while (!stack.empty()) {
    // Serial-spine checkpoint, one per node iteration: injection, real
    // cancellation and both deadlines funnel through here.
    if (opts_.exec.checkpoint(&stop_why) || deadline_.expired()) {
      if (stop_why == TerminationReason::kCompleted) stop_why = TerminationReason::kDeadline;
      stopped = true;
      break;
    }
    if (stats_.nodes >= opts_.node_limit ||
        (opts_.exec.budget && !opts_.exec.budget->charge_bb_nodes())) {
      stop_why = TerminationReason::kNodeLimit;
      stopped = true;
      break;
    }

    // Global lower bound = min over open nodes (their parents' bounds).
    best_open_bound = kInf;
    for (const Node& nd : stack) best_open_bound = std::min(best_open_bound, nd.parent_bound);
    publish_bound(std::min(best_open_bound, have_incumbent_ ? incumbent_obj_ : kInf));
    if (gap_closed(best_open_bound)) break;

    // Mostly depth-first plunging (cheap warm starts), but every few nodes
    // process the best-bound leaf so the proven lower bound keeps rising.
    // Pure plunging until the first incumbent exists — finding any feasible
    // point beats bound polishing early on.
    if (have_incumbent_ && stats_.nodes % 32 == 31) {
      size_t best = 0;
      for (size_t i = 1; i < stack.size(); ++i) {
        if (stack[i].parent_bound < stack[best].parent_bound) best = i;
      }
      std::swap(stack[best], stack.back());
    }
    Node node = std::move(stack.back());
    stack.pop_back();
    ++stats_.nodes;

    const double pb = prune_bound();
    if (pb < kInf &&
        node.parent_bound >= pb - opts_.rel_gap * std::max(1.0, std::abs(pb))) {
      continue;  // pruned by bound (incumbent or caller-supplied cutoff)
    }

    // Sampled node telemetry: every 64th node gets an LP span plus counter
    // samples of the open-node count and propagation totals, so a Perfetto
    // view shows tree progress without per-node recording overhead.
    const bool sampled =
        util::obs::TraceRecorder::global().enabled() && stats_.nodes % 64 == 1;
    if (sampled) {
      util::obs::TraceRecorder::global().record_counter(
          "milp/open_nodes", static_cast<double>(stack.size() + 1));
      util::obs::TraceRecorder::global().record_counter(
          "milp/propagation_tightenings", static_cast<double>(stats_.propagation_tightenings));
    }

    apply_chain(node.chain);
    if (opts_.node_propagation && !propagate_node(node.chain)) {
      ++stats_.propagation_prunes;
      continue;  // infeasible before any LP work
    }
    LpResult res = [&] {
      if (!sampled) return solve_lp(&node.warm_basis);
      util::obs::ScopedSpan node_span("milp/node_lp", "milp");
      node_span.arg("node", static_cast<double>(stats_.nodes));
      node_span.arg("depth", node.depth);
      return solve_lp(&node.warm_basis);
    }();
    // Separation rounds around the node LP: fractional points take up to
    // max_rounds_node strengthening rounds; integral points re-solve for as
    // long as the lazy gate keeps growing the LP (each pass activates at
    // least one new pooled row, and the cut families are finite, so this
    // terminates). With no separators the first pass decides everything,
    // exactly like before cuts existed.
    int branch = -1;
    bool drop_node = false;
    bool pc_recorded = false;
    int frac_rounds = 0;
    while (true) {
      if (res.status == LpStatus::kTimeLimit || res.status == LpStatus::kCancelled) break;
      if (res.status != LpStatus::kOptimal) {
        // kPrimalInfeasible prunes; anything else was counted in
        // numerical_failures by solve_lp.
        drop_node = true;
        break;
      }
      if (!pc_recorded) {
        update_pseudocosts(node, res.objective);
        pc_recorded = true;
      }
      if (res.objective >= prune_bound() - tol::kObjImprove) {
        // Same inclusive tie semantics as the dive: an integral LP point at
        // exactly the prune bound may BE the tie-equal optimum the caller's
        // cutoff describes — accept it before dropping the region (the
        // incumbent filter itself rejects non-improving churn). If the lazy
        // gate instead grew the LP, re-solve so the point is cut off rather
        // than silently pruned.
        if (pick_branch_var(res.x) == -1) {
          const int rows_before = lp_.num_rows();
          try_incumbent(res.x);
          if (lp_.num_rows() > rows_before) {
            res = solve_lp(&last_basis_);
            continue;
          }
        }
        drop_node = true;
        break;
      }
      branch = pick_branch_var(res.x);
      if (branch == -1) {
        const int rows_before = lp_.num_rows();
        try_incumbent(res.x);
        if (lp_.num_rows() > rows_before) {
          res = solve_lp(&last_basis_);  // lazy rows cut this point off
          continue;
        }
        drop_node = true;  // accepted, or feasible-but-not-improving
        break;
      }
      if (frac_rounds < opts_.cuts.max_rounds_node &&
          separate(res.x, node.depth, false, res.objective) > 0) {
        ++frac_rounds;
        res = solve_lp(&last_basis_);
        continue;
      }
      break;  // branch on res.x
    }
    if (res.status == LpStatus::kTimeLimit || res.status == LpStatus::kCancelled) {
      // Put the node back before breaking: the wrap-up bound is the min over
      // open nodes, so dropping a popped-but-unsolved subtree would
      // overstate the proven global bound.
      stack.push_back(std::move(node));
      stop_why = res.status == LpStatus::kTimeLimit ? TerminationReason::kDeadline
                                                    : TerminationReason::kCancelled;
      stopped = true;
      break;
    }
    if (drop_node) continue;
    if (opts_.pseudocost_branching && pseudocost_reliable(branch)) {
      ++stats_.pseudocost_branches;
    } else {
      ++stats_.fractional_branches;
    }

    const double v = res.x[static_cast<size_t>(branch)];
    const double frac = v - std::floor(v);
    const double lb = lp_.lb()[static_cast<size_t>(branch)];
    const double ub = lp_.ub()[static_cast<size_t>(branch)];

    auto down = std::make_shared<BoundChange>();
    down->col = branch;
    down->lb = lb;
    down->ub = std::floor(v);
    down->parent = node.chain;

    auto up = std::make_shared<BoundChange>();
    up->col = branch;
    up->lb = std::ceil(v);
    up->ub = ub;
    up->parent = node.chain;

    Node down_node{down, last_basis_, res.objective, node.depth + 1, branch, false, frac};
    Node up_node{up, last_basis_, res.objective, node.depth + 1, branch, true, 1.0 - frac};
    // Plunge toward the rounding of the fractional value: push the
    // preferred child last so DFS explores it first.
    if (frac >= 0.5) {
      stack.push_back(std::move(down_node));
      stack.push_back(std::move(up_node));
    } else {
      stack.push_back(std::move(up_node));
      stack.push_back(std::move(down_node));
    }

    // Periodic diving keeps fresh incumbents coming on deep trees (children
    // re-apply their own chains, so the dive's bound edits are harmless).
    if (stats_.nodes % 512 == 0) dive(node.chain, last_basis_, res.x);
  }

  // --- Wrap up.
  const bool exhausted = stack.empty();
  if (!exhausted) {
    best_open_bound = kInf;
    for (const Node& nd : stack) best_open_bound = std::min(best_open_bound, nd.parent_bound);
  }
  out.bound = exhausted ? (have_incumbent_ ? incumbent_obj_ : kInf)
                        : std::min(best_open_bound, have_incumbent_ ? incumbent_obj_ : kInf);
  if (have_incumbent_) {
    out.objective = incumbent_obj_;
    out.x = incumbent_x_;
    out.status = (exhausted || gap_closed(out.bound)) ? SolveStatus::kOptimal
                                                      : SolveStatus::kFeasible;
  } else if (exhausted && opts_.cutoff < kInf) {
    // The cutoff may have pruned feasible-but-not-better regions unseen, so
    // exhaustion only proves "nothing beats the cutoff", not infeasibility.
    out.status = SolveStatus::kNoSolution;
    out.bound = opts_.cutoff;
  } else {
    out.status = exhausted ? SolveStatus::kInfeasible : SolveStatus::kNoSolution;
  }
  publish_bound(out.bound);
  TerminationReason term = TerminationReason::kCompleted;
  if (stopped) {
    term = stop_why;
  } else if (out.status == SolveStatus::kInfeasible) {
    term = TerminationReason::kInfeasible;
  }
  finalize(out, term);
  solve_span.arg("nodes", static_cast<double>(stats_.nodes));
  solve_span.arg("lp_iterations", static_cast<double>(stats_.lp_iterations));
  return out;
}

}  // namespace

const char* to_string(SolveStatus s) {
  switch (s) {
    case SolveStatus::kOptimal: return "optimal";
    case SolveStatus::kFeasible: return "feasible";
    case SolveStatus::kInfeasible: return "infeasible";
    case SolveStatus::kUnbounded: return "unbounded";
    case SolveStatus::kNoSolution: return "no-solution";
  }
  return "unknown";
}

double relative_gap(double incumbent, double bound) {
  // NaN or +/-inf on either side means "no certificate on that side":
  // the gap of an empty anytime result is infinite by convention. (The
  // negated comparisons are NaN-correct: !(nan < inf) is true.)
  if (!(incumbent < kInf) || !(bound > -kInf)) return kInf;
  // Cut-tightened duals (and plain roundoff) can push the proven bound a
  // hair past the incumbent; within kGapSlack that is a closed gap, never
  // a negative one.
  if (incumbent <= bound + tol::kGapSlack) return 0.0;
  // Denominator honors |bound| as well as |incumbent|: a proven-optimal
  // minimization with negative cost and an incumbent near zero must not
  // divide a |bound|-sized residual by 1 and report a wild percentage.
  return (incumbent - bound) / std::max({1.0, std::abs(incumbent), std::abs(bound)});
}

std::string SolveStats::to_json() const {
  // All numeric output goes through the obs writer: non-finite doubles
  // (root_bound on infeasible/unbounded solves, nan timeline objectives)
  // become null with a "<field>_finite": false sidecar instead of the bare
  // inf/nan an ostringstream would print, and formatting is
  // locale-independent by construction.
  util::obs::JsonWriter w;
  w.begin_object();
  w.field("nodes", nodes);
  w.field("lp_iterations", lp_iterations);
  w.number_field("time_s", time_s);
  w.number_field("root_bound", root_bound);
  w.field("termination", util::exec::to_string(termination));
  w.number_field("bound", bound);
  w.number_field("gap", gap);
  w.field("numerical_failures", numerical_failures);
  w.field("rc_fixed", rc_fixed);
  w.field("warm_attempts", warm_attempts);
  w.field("warm_lu_reused", warm_lu_reused);
  w.field("warm_fallbacks", warm_fallbacks);
  w.field("cold_solves", cold_solves);
  w.number_field("warm_start_hit_rate", warm_start_hit_rate());
  w.key("lu").begin_object();
  w.field("factorizations", lu.factorizations);
  w.field("cold", lu.cold);
  w.field("node_switch", lu.node_switch);
  w.field("interval", lu.interval);
  w.field("update_rejected", lu.update_rejected);
  w.field("stale_retry", lu.stale_retry);
  w.number_field("factor_s", lu.factor_s);
  w.end_object();
  w.field("propagation_tightenings", propagation_tightenings);
  w.field("propagation_prunes", propagation_prunes);
  w.field("pseudocost_branches", pseudocost_branches);
  w.field("fractional_branches", fractional_branches);
  w.key("separation").begin_object();
  w.field("cut_rounds", cut_rounds);
  w.field("cuts_proposed", cuts_proposed);
  w.field("cuts_pooled", cuts_pooled);
  w.field("cuts_duplicate", cuts_duplicate);
  w.field("cuts_lp_rows", cuts_lp_rows);
  w.field("cuts_purged", cuts_purged);
  w.field("lazy_rejections", lazy_rejections);
  w.field("cuts_dim_rejected", cuts_dim_rejected);
  w.number_field("separation_time_s", separation_time_s);
  w.end_object();
  w.field("incumbents", incumbents);
  w.field("mip_start_used", mip_start_used);
  w.key("incumbent_timeline").begin_array();
  for (const IncumbentEvent& e : incumbent_timeline) {
    w.begin_object();
    w.number_field("time_s", e.time_s);
    w.field("nodes", e.nodes);
    w.number_field("objective", e.objective);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

MipResult solve(const Model& model, const SolveOptions& opts) {
  BranchAndBound bb(model, opts);
  return bb.run();
}

}  // namespace wnet::milp
