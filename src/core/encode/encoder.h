#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "core/encode/encoded_problem.h"
#include "core/network_template.h"
#include "core/requirements.h"
#include "graph/digraph.h"
#include "util/exec/exec.h"

namespace wnet::archex {

/// A counterexample-derived hardening constraint, fed back into the encoder
/// by Explorer::explore_robust when a fault scenario breaks a requirement.
struct HardeningConstraint {
  enum class Kind {
    /// Route `route_index` must keep at least one replica whose path avoids
    /// every listed node and (undirected) link — forbids sole reliance on a
    /// failed element set. If no candidate can comply, the model encodes
    /// that verdict as infeasible (the repair loop then raises N_rep).
    kAvoid,
    /// The listed links must clear the LQ floor with `margin_db` extra
    /// headroom — hardens against the fading realization that broke them.
    /// Only meaningful when the spec sets an LQ bound.
    kMargin,
  };

  Kind kind = Kind::kAvoid;
  int route_index = -1;                    ///< kAvoid: which requirement
  std::vector<int> nodes;                  ///< kAvoid: nodes to avoid
  std::vector<std::pair<int, int>> links;  ///< failed links, undirected
  double margin_db = 0.0;                  ///< kMargin: extra headroom (dB)
};

/// True when `path` touches none of hc's nodes and links. The one kAvoid
/// compliance test: the encoder's kAvoid rows and the repair loop's warm
/// start must agree on it.
[[nodiscard]] bool path_avoids(const graph::Path& path, const HardeningConstraint& hc);

/// Encoder configuration. `kFull` is the paper's exact flow-based encoding
/// (constraints (1a)-(1e) over all template edges); `kApprox` is Algorithm 1
/// (Yen's K-shortest candidates, symbolic path selectors, routing
/// constraints omitted by construction).
struct EncoderOptions {
  enum class PathMode { kFull, kApprox };
  PathMode mode = PathMode::kApprox;

  /// K*: total candidate paths generated per required route (approx mode).
  int k_star = 10;

  /// Candidate anchors considered per evaluation point (approx pruning of
  /// the reachability matrix, paper Sec. 4.2); <= 0 means all anchors.
  int loc_candidates = 20;

  /// Drop links whose best-case RSS misses the LQ bound before running
  /// Yen ("we can disregard links with path loss below a threshold").
  bool lq_prefilter = true;

  /// How Algorithm 1 guarantees disjoint replicas between Yen batches.
  enum class DisjointStrategy {
    kDisconnectMinDisjoint,  ///< the paper's DisconnectMinDisjointPath
    kNone,                   ///< ablation: rerun Yen on the intact graph
  };
  DisjointStrategy disjoint_strategy = DisjointStrategy::kDisconnectMinDisjoint;

  /// Lazy separation (approx mode only): emit just the relaxed skeleton —
  /// selector disjunctions, sizing, LQ, users rows, cover cuts — and omit
  /// the two row families that dominate model size at scale: the per-group
  /// edge/node linking rows (path mass <= e, <= u) and the O(K^2) pairwise
  /// cross-replica disjointness rows. The omitted families are recovered on
  /// demand during the solve by the LazySeparation callbacks
  /// (core/encode/separation.h), which MUST be installed in
  /// SolveOptions::cuts for the solution to be correct; Explorer does this
  /// automatically. Ignored in kFull mode. The incremental session gates
  /// its deltas identically, so delta == fresh still holds.
  bool lazy_separation = false;

  /// Robustness hardenings accumulated by the explore_robust repair loop.
  /// kMargin entries also tighten the LQ prefilter, so Yen stops proposing
  /// links that cannot carry the required headroom.
  std::vector<HardeningConstraint> hardening;

  /// Request-level execution control. The serial spine checkpoints between
  /// encoding phases; the per-route Yen workers poll a worker_view() copy
  /// and charge Yen candidates / encode rows against `exec.budget`. On any
  /// stop the encode aborts — remaining phases are skipped and
  /// EncodeStats::termination records why (see its contract).
  util::exec::ExecControl exec;

  /// Worker threads for candidate generation: the per-route Yen batches are
  /// independent (each route works on a private copy of the prefiltered
  /// graph), so they run concurrently and merge in route order. The
  /// candidate list — and therefore the whole encoding — is identical for
  /// every value. <= 1 runs serial; 0 is NOT auto here, callers resolve.
  int threads = 1;
};

/// Compiles (template, specification) into a MILP. Stateless apart from
/// the inputs; encode() may be called repeatedly. Each encode() is a
/// one-shot IncrementalEncoder session at opts.k_star, so the two share one
/// build path and one endpoint check (std::out_of_range for a route whose
/// source or dest is outside the template, thrown by both constructors).
class Encoder {
 public:
  Encoder(const NetworkTemplate& tmpl, const Specification& spec, EncoderOptions opts = {});

  /// Builds the full MILP plus decode tables.
  [[nodiscard]] EncodedProblem encode() const;

  /// Closed-form size estimate of the FULL encoding without building it —
  /// the paper reports "estimated, for larger instances" counts in Table 3
  /// precisely because materializing 10^7 constraints is itself expensive.
  /// Cross-validated against encode() in tests.
  [[nodiscard]] EncodeStats estimate_full_stats() const;

 private:
  const NetworkTemplate* tmpl_;
  const Specification* spec_;
  EncoderOptions opts_;
};

/// Encoding session that carries state across the closely related solves of
/// a K* ladder or a robust-repair loop. Where a fresh Encoder re-runs Yen
/// and rebuilds the whole MILP per rung, the session keeps one resumable
/// YenEnumerator per (route, replica) and *appends* to the existing model:
/// new candidate selector binaries, their linking rows, and the widened
/// group disjunctions when K* grows (`encode_k`), or new hardening rows in
/// the repair loop (`append_hardenings`). The delta runs the fresh build's
/// own emitter for every candidate row family, started at the first new
/// candidate, so each family's rule is written once.
///
/// Determinism contract: the delta-extended model is equivalent to a fresh
/// encode at the same options — same variable/constraint/nonzero counts and
/// the same optimum (variable order, and hence names, may differ; tests pin
/// the equivalence). Whenever a change cannot be expressed as a pure append
/// (kMargin hardenings retune the LQ prefilter, replica raises change the
/// spec, the disjoint-disconnect step shifts a replica's base graph), the
/// session transparently falls back to a full rebuild, so callers never
/// need to reason about which case they are in. A model whose build was
/// stopped is never reused: the next encode_k rebuilds it.
class IncrementalEncoder {
 public:
  /// The session keeps references to `tmpl` and `spec`: both must outlive
  /// it, and spec mutations (e.g. replica raises) require invalidate().
  IncrementalEncoder(const NetworkTemplate& tmpl, const Specification& spec,
                     EncoderOptions base);
  ~IncrementalEncoder();
  IncrementalEncoder(const IncrementalEncoder&) = delete;
  IncrementalEncoder& operator=(const IncrementalEncoder&) = delete;

  /// Encodes (or delta-extends) to k_star = k and returns the session's
  /// problem. Same k with no pending changes is a no-op. A stop seen at
  /// entry returns the standing model unchanged with the reason in its
  /// stats.termination; that mark lasts until the next call.
  EncodedProblem& encode_k(int k);

  /// Appends hardening constraints to the session options and, when they
  /// are all kAvoid, to the existing model in place; kMargin entries mark
  /// the session for a fresh rebuild on the next encode_k.
  void append_hardenings(const std::vector<HardeningConstraint>& fresh);

  /// Marks the session dirty after out-of-band changes the session cannot
  /// see (e.g. the caller mutated the spec's replica counts).
  void invalidate();

  /// Replaces the session's execution control. A cached session outlives
  /// the request that created it; the next request must attach its OWN
  /// deadline/token/budget before delta-extending, or a stale (possibly
  /// already-tripped) control from the previous request would govern the
  /// new work. The live Build reads options through the session, so the
  /// new control takes effect immediately.
  void set_exec(const util::exec::ExecControl& exec);

  [[nodiscard]] EncodedProblem& problem();
  [[nodiscard]] const EncoderOptions& options() const;

  /// Extends an assignment for the model as it stood *before* the last
  /// encode_k to the current model: variable ids are stable under deltas,
  /// appended selectors/mappings/edges go to 0, and each appended RSS
  /// variable is solved from its own equality row (a new edge may attach to
  /// an already-deployed node whose mapping binaries are active in `prev`).
  /// The result stays feasible because every grown constraint relaxes for
  /// the all-off extension. Returns empty when the last encode was a
  /// rebuild (ids are not comparable).
  [[nodiscard]] std::vector<double> extend_assignment(const std::vector<double>& prev) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace wnet::archex
