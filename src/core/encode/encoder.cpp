#include "core/encode/encoder.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <set>
#include <tuple>
#include <stdexcept>
#include <utility>

#include "channel/link_metrics.h"
#include "graph/connectivity.h"
#include "graph/yen.h"
#include "milp/linearize.h"
#include "util/obs/trace.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace wnet::archex {

namespace {

using graph::Digraph;
using graph::Path;
using milp::LinExpr;
using milp::Model;
using milp::Var;

using EdgeKey = std::pair<int, int>;
using util::exec::TerminationReason;

/// Per-cycle charge coefficients of one component under the TDMA model:
///   Q = A * (weighted TX count) + B * (weighted RX count) + S
/// where the weights fold in the per-edge ETX (see etx_for_edge).
struct ChargeCoefs {
  double a_tx;   ///< mA*s per expected transmission
  double b_rx;   ///< mA*s per expected reception
  double s0;     ///< sleep floor over the whole cycle
};

ChargeCoefs charge_coefs(const Component& c, const RadioConfig& radio) {
  const radio::TdmaConfig& tdma = radio.tdma;
  const double airtime = tdma.packet_airtime_s();
  const double awake = tdma.slots_per_packet() * tdma.slot_s;
  if (radio.mac == RadioConfig::MacProtocol::kCsma) {
    // Contention MAC: carrier-sense listen per attempt, and the idle
    // baseline is duty-cycled listening rather than pure sleep.
    const double duty = radio.csma.idle_listen_duty;
    const double baseline = c.currents.rx_ma * duty + c.currents.sleep_ma * (1.0 - duty);
    const double backoff_s = radio.csma.mean_backoff_slots * tdma.slot_s;
    return {
        c.currents.tx_ma * airtime + c.currents.rx_ma * backoff_s +
            (c.currents.active_ma - baseline) * awake,
        c.currents.rx_ma * airtime + (c.currents.active_ma - baseline) * awake,
        baseline * tdma.report_period_s,
    };
  }
  return {
      c.currents.tx_ma * airtime + (c.currents.active_ma - c.currents.sleep_ma) * awake,
      c.currents.rx_ma * airtime + (c.currents.active_ma - c.currents.sleep_ma) * awake,
      c.currents.sleep_ma * tdma.report_period_s,
  };
}

void check_endpoints(const NetworkTemplate& tmpl, const Specification& spec) {
  for (const auto& r : spec.routes) {
    if (r.source < 0 || r.source >= tmpl.num_nodes() || r.dest < 0 ||
        r.dest >= tmpl.num_nodes()) {
      throw std::out_of_range("Encoder: route endpoint outside template");
    }
  }
}

/// Whole encoding pass, kept as one stateful builder so the full and
/// approximate modes share every non-path emitter verbatim, and the fresh
/// build and the K* delta share every candidate emitter: each takes the
/// first candidate index it covers (0 for the fresh build, where every row
/// is new; the first appended candidate for a delta, where most rows
/// already exist and are widened in place).
class Build {
 public:
  Build(const NetworkTemplate& tmpl, const Specification& spec, const EncoderOptions& opts)
      : t_(tmpl), s_(spec), o_(opts), g_(tmpl.build_graph()) {}

  /// Full build, leaving the problem (and the resumable bookkeeping) inside
  /// the builder so an incremental session can delta-extend it later.
  void execute() {
    util::Stopwatch clock;
    util::obs::ScopedSpan span("encode/full", "encode");
    span.arg("k_star", o_.k_star);
    collect_margins();
    if (gate()) determine_scope();
    if (gate()) emit_sizing();
    if (gate()) emit_edges_and_paths();
    if (gate()) emit_hardening();
    if (gate()) emit_link_quality();
    if (gate()) emit_energy();
    if (gate()) emit_localization();
    if (gate()) emit_objective();
    gate();  // charge the last phase's rows and pick up a late stop
    encoded_k_ = o_.k_star;
    refresh_stats();
    p_.stats.termination = stop_why_;
    p_.stats.encode_time_s = clock.seconds();
    p_.stats.reused_candidates = 0;
    p_.stats.delta_encode_time_s = 0.0;
    span.arg("vars", p_.stats.num_vars);
    span.arg("constrs", p_.stats.num_constrs);
    span.arg("candidates", p_.stats.candidate_paths);
  }

  [[nodiscard]] EncodedProblem& problem() { return p_; }

  /// Serial-spine gate between encoding phases: charges the rows emitted
  /// since the previous gate, counts one checkpoint, and latches the first
  /// stop reason. Once false it stays false, so the remaining phases are
  /// skipped and the partial model carries stats.termination.
  bool gate() {
    if (o_.exec.budget) {
      const long rows = static_cast<long>(p_.model.constrs().size());
      const bool ok = o_.exec.budget->charge_encode_rows(rows - charged_rows_);
      charged_rows_ = rows;
      if (!ok && stop_why_ == TerminationReason::kCompleted) {
        stop_why_ = TerminationReason::kNodeLimit;
      }
    }
    if (stop_why_ != TerminationReason::kCompleted) return false;
    TerminationReason why = TerminationReason::kCompleted;
    if (o_.exec.checkpoint(&why)) {
      stop_why_ = why;
    } else if (o_.exec.budget && o_.exec.budget->exhausted()) {
      // Worker-side refusals (Yen candidate caps) surface here, on the
      // spine, after the fork-join section that produced them.
      stop_why_ = TerminationReason::kNodeLimit;
    }
    return stop_why_ == TerminationReason::kCompleted;
  }

  /// Delta-extends an approximate encoding from the last encoded K* to
  /// `new_k`, appending only new candidates, variables and rows. Returns
  /// false when the delta cannot reproduce a fresh encode at `new_k`
  /// exactly (the caller then rebuilds from scratch):
  ///  - the disjoint-disconnect step would remove a different path, shifting
  ///    a later replica's base graph;
  ///  - a previously-empty (route, replica) group or unsatisfiable kAvoid
  ///    hardening gains compliant candidates (their explicit-infeasibility
  ///    zero variables would no longer exist in a fresh encode);
  ///  - a relay-cover cut's minimum drops to zero (a fresh encode omits the
  ///    row entirely).
  /// On success, `new_var_defaults_` holds one all-off default per appended
  /// variable, in variable-id order.
  bool extend_to_k(int new_k);

  /// Appends rows for o_.hardening[first..] (all must be kAvoid): same rows
  /// a fresh encode would emit, over the current candidate set.
  void append_avoid_hardenings(size_t first);

  /// Extends an assignment for the model as it stood before the last
  /// successful extend_to_k: appended selectors/mappings/edges go to 0 and
  /// each appended RSS variable is solved from its own equality row (it may
  /// reference mapping variables that are active in `prev`). Returns empty
  /// when `prev` does not match the pre-delta variable count.
  [[nodiscard]] std::vector<double> extend_assignment(const std::vector<double>& prev) const {
    if (prev.size() + new_var_defaults_.size() != static_cast<size_t>(p_.model.num_vars())) {
      return {};
    }
    std::vector<double> out = prev;
    out.insert(out.end(), new_var_defaults_.begin(), new_var_defaults_.end());
    for (const EdgeKey& key : delta_edges_) {
      const Var rss = p_.rss.at(key);
      const auto& cn = p_.model.constrs()[static_cast<size_t>(rss_row_.at(key))];
      // Row is  sum(gains * m) - rss = rhs  =>  rss = sum - rhs.
      double sum = 0.0;
      for (const auto& [v, c] : cn.expr.terms()) {
        if (v.id == rss.id) continue;
        sum += c * out[static_cast<size_t>(v.id)];
      }
      out[static_cast<size_t>(rss.id)] = sum - cn.rhs;
    }
    return out;
  }

  [[nodiscard]] int encoded_k() const { return encoded_k_; }

  /// False once a stop cut the build short: the partial model must be
  /// rebuilt, never reused or extended.
  [[nodiscard]] bool complete() const { return stop_why_ == TerminationReason::kCompleted; }

 private:
  void refresh_stats() {
    p_.stats.num_vars = p_.model.num_vars();
    p_.stats.num_constrs = p_.model.num_constrs();
    p_.stats.nonzeros = p_.model.num_nonzeros();
    p_.stats.candidate_paths = static_cast<int>(p_.candidates.size());
  }
  // ----------------------------------------------------------- hardening
  /// Folds kMargin hardenings into one per-link headroom map (max wins),
  /// consulted by both the LQ prefilter and the LQ implication.
  void collect_margins() {
    for (const auto& hc : o_.hardening) {
      if (hc.kind != HardeningConstraint::Kind::kMargin || hc.margin_db <= 0.0) continue;
      for (const auto& [a, b] : hc.links) {
        const EdgeKey key{std::min(a, b), std::max(a, b)};
        auto [it, fresh] = lq_margin_.try_emplace(key, hc.margin_db);
        if (!fresh) it->second = std::max(it->second, hc.margin_db);
      }
    }
  }

  [[nodiscard]] double margin_for(int i, int j) const {
    const auto it = lq_margin_.find({std::min(i, j), std::max(i, j)});
    return it == lq_margin_.end() ? 0.0 : it->second;
  }

  /// Selectors of the candidates from `first` on that serve hc's route
  /// and comply with it.
  [[nodiscard]] LinExpr compliant_selectors(const HardeningConstraint& hc, size_t first) const {
    LinExpr ok;
    for (size_t ci = first; ci < p_.candidates.size(); ++ci) {
      const auto& c = p_.candidates[ci];
      if (c.route_index == hc.route_index && path_avoids(c.path, hc)) ok += LinExpr(c.selector);
    }
    return ok;
  }

  /// kAvoid hardenings: per constraint, at least one replica of the route
  /// must avoid the failed element set. In approx mode this is a cover over
  /// the route's compliant candidate selectors; in full mode an indicator
  /// per replica certifies its x^pi touches nothing forbidden.
  void emit_hardening() {
    for (size_t hi = 0; hi < o_.hardening.size(); ++hi) emit_one_hardening(hi);
  }

  void emit_one_hardening(size_t hi) {
    const auto& hc = o_.hardening[hi];
    const std::string tag = "harden" + std::to_string(hi);
    {
      if (hc.kind != HardeningConstraint::Kind::kAvoid) return;
      if (hc.route_index < 0 || hc.route_index >= static_cast<int>(s_.routes.size())) return;

      if (o_.mode == EncoderOptions::PathMode::kApprox) {
        LinExpr ok = compliant_selectors(hc, 0);
        const bool any = ok.size() > 0;
        if (!any) {
          // No candidate can dodge the failed set: the hardening is
          // unsatisfiable under this K*/replica budget. Encode the verdict
          // explicitly so the repair loop sees infeasible, not a silently
          // dropped constraint.
          const Var zero = p_.model.add_binary(tag + "_unsat");
          p_.model.set_bounds(zero, 0.0, 0.0);
          ok += LinExpr(zero);
        }
        const int row = p_.model.add_ge(std::move(ok), 1.0, tag);
        avoid_rows_.push_back({hi, row, !any});
      } else {
        LinExpr ok;
        for (size_t pi = 0; pi < p_.full_path_edges.size(); ++pi) {
          if (p_.full_path_ids[pi].first != hc.route_index) continue;
          LinExpr forbidden;
          bool touched = false;
          for (const auto& [key, x] : p_.full_path_edges[pi]) {
            bool bad = false;
            for (int v : hc.nodes) bad = bad || key.first == v || key.second == v;
            for (const auto& [a, b] : hc.links) {
              bad = bad || (key.first == a && key.second == b) ||
                    (key.first == b && key.second == a);
            }
            if (bad) {
              forbidden += LinExpr(x);
              touched = true;
            }
          }
          const Var a = p_.model.add_binary(tag + "_ok_p" + std::to_string(pi));
          if (touched) {
            milp::imply_le(p_.model, a, forbidden, 0.0, tag + "_clean_p" + std::to_string(pi));
          }
          ok += LinExpr(a);
        }
        p_.model.add_ge(std::move(ok), 1.0, tag);
      }
    }
  }

  // ---------------------------------------------------------------- scope
  void determine_scope() {
    if (o_.mode == EncoderOptions::PathMode::kFull) {
      for (int i = 0; i < t_.num_nodes(); ++i) node_in_scope_.insert(i);
      for (const auto& e : g_.edges()) scope_edges_.insert({e.from, e.to});
    } else {
      generate_candidates();
      for (const auto& cand : pending_candidates_) {
        for (size_t k = 0; k + 1 < cand.path.nodes.size(); ++k) {
          scope_edges_.insert({cand.path.nodes[k], cand.path.nodes[k + 1]});
        }
        for (int v : cand.path.nodes) node_in_scope_.insert(v);
      }
    }
    // Fixed nodes and anchors participate regardless of routing.
    for (int i = 0; i < t_.num_nodes(); ++i) {
      const auto& nd = t_.node(i);
      if (nd.kind == NodeKind::kFixed || nd.role == Role::kAnchor) node_in_scope_.insert(i);
    }
    // Route endpoints must exist even if no candidate survived (the model
    // must then come out infeasible, not silently shrunk).
    for (const auto& r : s_.routes) {
      node_in_scope_.insert(r.source);
      node_in_scope_.insert(r.dest);
    }
  }

  // ------------------------------------------------------- Algorithm 1
  struct PendingCandidate {
    Path path;
    int route_index;
    int replica;
  };

  /// Resumable Yen state for one (route, replica) group: the enumerator
  /// keeps the accepted list and candidate pool alive across K* rungs, so a
  /// later extend_to_k only derives the new paths.
  struct RepState {
    std::unique_ptr<graph::YenEnumerator> en;
    size_t consumed = 0;  ///< raw (pre-hop-filter) paths already taken
    /// Edges disconnected before this replica started, sorted. A delta is
    /// only valid if replaying the disconnect step over the extended batches
    /// bans exactly the same edges — otherwise a fresh encode would have run
    /// this replica's Yen on a different graph.
    std::vector<graph::EdgeId> banned_before;
  };
  struct RouteState {
    std::vector<RepState> reps;
    int k_per_rep = 0;
  };

  /// From the *filtered* batch of one replica group, the edges that
  /// DisconnectMinDisjointPath removes before the next group (the path
  /// sharing the most edges with its batch; first max wins).
  [[nodiscard]] static std::vector<graph::EdgeId> disconnect_edges(
      const std::vector<Path>& paths) {
    size_t worst = 0;
    int worst_shared = -1;
    for (size_t a = 0; a < paths.size(); ++a) {
      int shared = 0;
      for (size_t b = 0; b < paths.size(); ++b) {
        if (a != b) shared += graph::shared_edges(paths[a], paths[b]);
      }
      if (shared > worst_shared) {
        worst_shared = shared;
        worst = a;
      }
    }
    return paths[worst].edges;
  }

  [[nodiscard]] std::vector<Path> hop_filtered(std::vector<Path> paths, int ri) const {
    const auto& route = s_.routes[static_cast<size_t>(ri)];
    if (route.max_hops) {
      std::erase_if(paths, [&](const Path& p) { return p.hops() > *route.max_hops; });
    }
    return paths;
  }

  /// Yen batches for one route, on a private copy of the prefiltered graph
  /// (DisconnectMinDisjointPath mutates weights between replica groups).
  /// Pure apart from the copy, so routes can run on any thread.
  [[nodiscard]] std::pair<std::vector<PendingCandidate>, RouteState> route_candidates(
      const Digraph& base, int ri) const {
    std::vector<PendingCandidate> out;
    RouteState st;
    // Runs on worker-pool threads: poll-only control (no checkpoint
    // counting), per the exec determinism contract.
    const util::exec::ExecControl ctl = o_.exec.worker_view();
    Digraph work = base;
    std::vector<graph::EdgeId> banned;  // cumulative, sorted
    const auto& route = s_.routes[static_cast<size_t>(ri)];
    const int nrep = std::max(1, route.replicas);
    // Runs on encoder worker threads, so traces show the Yen fan-out lanes.
    util::obs::ScopedSpan span("encode/yen_route", "encode");
    span.arg("route", ri);
    span.arg("replicas", nrep);
    // BalanceData: split K* into Nrep groups of K with Nrep*K >= K*.
    st.k_per_rep = std::max(1, (o_.k_star + nrep - 1) / nrep);

    for (int rep = 0; rep < nrep; ++rep) {
      if (ctl.stopped()) break;  // the spine gate reports the reason
      RepState rp;
      rp.banned_before = banned;
      rp.en = std::make_unique<graph::YenEnumerator>(work, route.source, route.dest);
      auto paths = hop_filtered(rp.en->next_batch(st.k_per_rep, ctl), ri);
      rp.consumed = rp.en->accepted().size();
      st.reps.push_back(std::move(rp));
      for (const Path& p : paths) {
        out.push_back({p, ri, rep});
      }
      if (o_.disjoint_strategy == EncoderOptions::DisjointStrategy::kNone) continue;
      if (rep + 1 < nrep && !paths.empty()) {
        // DisconnectMinDisjointPath: remove the path sharing the most
        // edges with its batch so the next group starts fresh.
        for (graph::EdgeId e : disconnect_edges(paths)) {
          work.set_weight(e, graph::kInfWeight);
          banned.push_back(e);
        }
        std::sort(banned.begin(), banned.end());
        banned.erase(std::unique(banned.begin(), banned.end()), banned.end());
      }
    }
    span.arg("candidates", static_cast<double>(out.size()));
    return {std::move(out), std::move(st)};
  }

  void generate_candidates() {
    Digraph base = g_;
    const auto rss_floor = s_.min_rss_dbm();

    // LQ prefilter: links that cannot meet the bound (including any fading
    // margin hardened onto them) even with the best components never become
    // candidates.
    if (o_.lq_prefilter && rss_floor) {
      for (int e = 0; e < base.num_edges(); ++e) {
        const auto& ed = base.edge(e);
        if (t_.best_rss_dbm(ed.from, ed.to) < *rss_floor + margin_for(ed.from, ed.to)) {
          base.set_weight(e, graph::kInfWeight);
        }
      }
    }

    // Routes are independent Yen sweeps; fan them out and merge the batches
    // back in route order, so the candidate list (and every variable name
    // and constraint downstream) is identical for any thread count.
    const util::ParallelExecutor exec(o_.threads);
    auto per_route = exec.map<std::pair<std::vector<PendingCandidate>, RouteState>>(
        static_cast<int>(s_.routes.size()),
        [&](int ri) { return route_candidates(base, ri); });
    for (auto& [batch, st] : per_route) {
      for (auto& pc : batch) pending_candidates_.push_back(std::move(pc));
      route_states_.push_back(std::move(st));
    }
  }

  // --------------------------------------------------------------- sizing
  [[nodiscard]] std::vector<int> compatible_components(int node) const {
    const auto& nd = t_.node(node);
    if (nd.fixed_component) return {*nd.fixed_component};
    return t_.library().with_role(nd.role);
  }

  void emit_sizing() {
    p_.node_used.assign(static_cast<size_t>(t_.num_nodes()), Var{});
    for (int i : node_in_scope_) emit_sizing_node(i);
  }

  void emit_sizing_node(int i) {
    const auto& nd = t_.node(i);
    const Var u = p_.model.add_binary("u_" + nd.name);
    p_.model.set_branch_priority(u, 1);
    p_.node_used[static_cast<size_t>(i)] = u;
    if (nd.kind == NodeKind::kFixed) p_.model.set_bounds(u, 1.0, 1.0);

    LinExpr sum;
    for (int c : compatible_components(i)) {
      const Var m = p_.model.add_binary("m_" + t_.library().at(c).name + "_" + nd.name);
      p_.mapping[{c, i}] = m;
      sum += LinExpr(m);
    }
    sum -= LinExpr(u);
    p_.model.add_eq(std::move(sum), 0.0, "sizing_" + nd.name);
  }

  // ------------------------------------------------------ edges and paths
  Var edge_var(int from, int to) {
    const EdgeKey key{from, to};
    auto it = p_.edge_active.find(key);
    if (it != p_.edge_active.end()) return it->second;
    const Var e = p_.model.add_binary("e_" + t_.node(from).name + "_" + t_.node(to).name);
    p_.model.set_branch_priority(e, 2);
    p_.edge_active[key] = e;
    // A link needs both endpoints deployed. Lazy mode leaves these pure
    // implication rows to the separator too — two per scoped edge, they are
    // the largest skeleton family at scale.
    if (o_.lazy_separation) {
      p_.stats.lazy_rows_omitted += 2;
    } else {
      p_.model.add_le(LinExpr(e) - LinExpr(p_.node_used[static_cast<size_t>(from)]), 0.0);
      p_.model.add_le(LinExpr(e) - LinExpr(p_.node_used[static_cast<size_t>(to)]), 0.0);
    }
    return e;
  }

  void emit_edges_and_paths() {
    for (const EdgeKey& k : scope_edges_) edge_var(k.first, k.second);
    if (o_.mode == EncoderOptions::PathMode::kFull) {
      emit_full_paths();
    } else {
      emit_approx_paths();
    }
    emit_node_upper_links();
  }

  void emit_approx_paths() {
    add_selectors(pending_candidates_);
    pending_candidates_.clear();
    Linking l = linking_of(0);
    widen_rows(l.group, group_row_, &Build::new_group_row);
    // Lazy mode keeps the relaxed skeleton only: the group linking rows
    // (the dominant family at scale) are counted here and recovered on
    // demand by the LazySeparation callbacks during the solve.
    widen_rows(l.group_edge, group_edge_row_, &Build::new_group_edge_row, o_.lazy_separation);
    widen_rows(l.group_node, group_node_row_, &Build::new_group_node_row, o_.lazy_separation);
    widen_rows(l.users, users_row_, &Build::new_users_row);
    widen_cover(0);
    for (size_t a = 0; a < p_.candidates.size(); ++a) {
      for (size_t b = a + 1; b < p_.candidates.size(); ++b) emit_conflict(a, b);
    }
  }

  /// Selector binaries for a batch of new candidates, appended in order.
  void add_selectors(std::vector<PendingCandidate>& batch) {
    for (auto& pc : batch) {
      const Var y = p_.model.add_binary("y_r" + std::to_string(pc.route_index) + "_rep" +
                                        std::to_string(pc.replica) + "_" +
                                        std::to_string(p_.candidates.size()));
      p_.model.set_branch_priority(y, 3);  // structural decisions branch first
      p_.candidates.push_back({std::move(pc.path), y, pc.route_index, pc.replica});
    }
  }

  using GroupKey = std::pair<int, int>;                 ///< (route, rep)
  using GroupEdgeKey = std::tuple<int, int, int, int>;  ///< (route, rep, i, j)
  using GroupNodeKey = std::tuple<int, int, int>;       ///< (route, rep, node)

  /// Selector mass of the candidates from `first` on, per linking row.
  struct Linking {
    std::map<GroupKey, LinExpr> group;
    std::map<EdgeKey, LinExpr> users;
    std::map<GroupEdgeKey, LinExpr> group_edge;
    std::map<GroupNodeKey, LinExpr> group_node;
  };

  [[nodiscard]] Linking linking_of(size_t first) const {
    Linking l;
    // Every (route, replica) group has a row, so groups without candidates
    // are keyed too: the fresh build pins them infeasible, a delta adds
    // nothing to them.
    for (size_t ri = 0; ri < s_.routes.size(); ++ri) {
      for (int rep = 0; rep < std::max(1, s_.routes[ri].replicas); ++rep) {
        l.group[{static_cast<int>(ri), rep}];
      }
    }
    for (size_t ci = first; ci < p_.candidates.size(); ++ci) {
      const auto& c = p_.candidates[ci];
      l.group[{c.route_index, c.replica}] += LinExpr(c.selector);
      for (size_t k = 0; k + 1 < c.path.nodes.size(); ++k) {
        const EdgeKey key{c.path.nodes[k], c.path.nodes[k + 1]};
        l.users[key] += LinExpr(c.selector);
        l.group_edge[{c.route_index, c.replica, key.first, key.second}] += LinExpr(c.selector);
      }
      for (int v : c.path.nodes) {
        if (t_.node(v).kind == NodeKind::kFixed) continue;  // u already 1
        l.group_node[{c.route_index, c.replica, v}] += LinExpr(c.selector);
      }
    }
    return l;
  }

  /// Adds each keyed delta to its existing row, or creates the missing row
  /// (in key order) through `create`. A `lazy` family counts the missing
  /// rows instead of emitting them.
  template <class Key>
  void widen_rows(std::map<Key, LinExpr>& delta, std::map<Key, int>& rows,
                  int (Build::*create)(const Key&, LinExpr), bool lazy = false) {
    for (auto& [key, expr] : delta) {
      const auto it = rows.find(key);
      if (it != rows.end()) {
        p_.model.add_terms_to_constr(it->second, expr);
      } else if (lazy) {
        ++p_.stats.lazy_rows_omitted;
      } else {
        rows.emplace(key, (this->*create)(key, std::move(expr)));
      }
    }
  }

  /// Group selection: exactly one candidate per (route, replica) group.
  /// Equality (rather than >= 1) is lossless — dropping a surplus path
  /// only relaxes the remaining constraints — and it licenses the
  /// aggregated implications below, which tighten the LP relaxation
  /// substantially (a fractional unit of path mass forces a full unit of
  /// edge/node mass instead of 1/K of it).
  int new_group_row(const GroupKey& key, LinExpr any) {
    if (any.size() == 0) {
      // No surviving candidate: the requirement is unsatisfiable under
      // this K*; encode that verdict explicitly.
      const Var zero = p_.model.add_binary("no_candidate");
      p_.model.set_bounds(zero, 0.0, 0.0);
      any += LinExpr(zero);
      group_unsat_.insert(key);
    }
    return p_.model.add_eq(std::move(any), 1.0,
                           "route" + std::to_string(key.first) + "_rep" +
                               std::to_string(key.second));
  }

  /// Edge activation, aggregated per group: since exactly one candidate of
  /// a group is chosen, e_ij >= sum of the group's selectors using ij is
  /// valid and dominates the per-candidate form y <= e.
  int new_group_edge_row(const GroupEdgeKey& key, LinExpr expr) {
    expr -= LinExpr(p_.edge_active.at({std::get<2>(key), std::get<3>(key)}));
    return p_.model.add_le(std::move(expr), 0.0);  // group path mass <= e
  }

  int new_group_node_row(const GroupNodeKey& key, LinExpr expr) {
    expr -= LinExpr(p_.node_used[static_cast<size_t>(std::get<2>(key))]);
    return p_.model.add_le(std::move(expr), 0.0);  // group path mass <= u
  }

  int new_users_row(const EdgeKey& key, LinExpr expr) {
    expr -= LinExpr(p_.edge_active.at(key));
    return p_.model.add_ge(std::move(expr), 0.0);  // e <= sum of users
  }

  /// Relay-cover cuts: whichever candidate a group picks, it deploys at
  /// least h_g = min-over-candidates relay count, all drawn from the union
  /// of the group's relay sets. Redundant for integer solutions but lifts
  /// the LP bound (fractional path mass can no longer spread relay usage
  /// below the unavoidable minimum). Candidates from `first` on grow the
  /// union and lower the minimum. Only the fresh build creates rows (for
  /// groups whose minimum is nonzero): a group without one already has
  /// minimum zero, and a delta that would drop a row's minimum to zero
  /// rebuilds instead.
  void widen_cover(size_t first) {
    std::map<GroupKey, std::pair<std::set<int>, int>> delta;
    for (size_t ci = first; ci < p_.candidates.size(); ++ci) {
      const auto& c = p_.candidates[ci];
      auto [it, fresh] = delta.try_emplace({c.route_index, c.replica}, std::set<int>{}, INT32_MAX);
      int relays = 0;
      for (int v : c.path.nodes) {
        if (t_.node(v).kind == NodeKind::kFixed) continue;
        it->second.first.insert(v);
        ++relays;
      }
      it->second.second = std::min(it->second.second, relays);
    }
    for (const auto& [key, uc] : delta) {
      auto& data = cover_data_.try_emplace(key, std::set<int>{}, INT32_MAX).first->second;
      LinExpr grown;
      for (int v : uc.first) {
        if (data.first.insert(v).second) grown += LinExpr(p_.node_used[static_cast<size_t>(v)]);
      }
      const int h = std::min(data.second, uc.second);
      const auto row = cover_row_.find(key);
      if (row != cover_row_.end()) {
        p_.model.add_terms_to_constr(row->second, grown);
        if (h != data.second) p_.model.set_constr_rhs(row->second, static_cast<double>(h));
      } else if (h > 0 && !data.first.empty()) {
        cover_row_[key] = p_.model.add_ge(
            std::move(grown), static_cast<double>(h),
            "cover_r" + std::to_string(key.first) + "_" + std::to_string(key.second));
      }
      data.second = h;
    }
  }

  /// Disjointness of chosen replicas (the (1d) analog on candidates):
  /// same-route candidates from different groups sharing an edge conflict.
  /// Lazy mode counts the O(K^2) pairs instead of emitting them.
  void emit_conflict(size_t a, size_t b) {
    const auto& ca = p_.candidates[a];
    const auto& cb = p_.candidates[b];
    if (ca.route_index != cb.route_index || ca.replica == cb.replica) return;
    if (graph::shared_edges(ca.path, cb.path) == 0) return;
    if (o_.lazy_separation) {
      ++p_.stats.lazy_rows_omitted;
    } else {
      p_.model.add_le(LinExpr(ca.selector) + LinExpr(cb.selector), 1.0);
    }
  }

  void emit_full_paths() {
    // Per required path replica: x^pi variables over every template edge,
    // flow balance (1a), loop limits (1c), edge linking (1b), hops (1e).
    std::vector<std::vector<size_t>> route_paths(s_.routes.size());
    for (size_t ri = 0; ri < s_.routes.size(); ++ri) {
      const auto& route = s_.routes[ri];
      const int nrep = std::max(1, route.replicas);
      for (int rep = 0; rep < nrep; ++rep) {
        const size_t pi = p_.full_path_edges.size();
        route_paths[ri].push_back(pi);
        p_.full_path_edges.emplace_back();
        p_.full_path_ids.emplace_back(static_cast<int>(ri), rep);
        auto& xmap = p_.full_path_edges.back();
        const std::string tag = "p" + std::to_string(pi);

        for (const auto& e : g_.edges()) {
          const Var x = p_.model.add_binary("x_" + tag + "_" + std::to_string(e.from) + "_" +
                                            std::to_string(e.to));
          xmap[{e.from, e.to}] = x;
          // (1b) x <= e.
          p_.model.add_le(LinExpr(x) - LinExpr(p_.edge_active.at({e.from, e.to})), 0.0);
        }

        // (1a) balance; (1c) degree limits.
        for (int v = 0; v < t_.num_nodes(); ++v) {
          LinExpr balance;
          LinExpr outdeg;
          LinExpr indeg;
          bool touched = false;
          for (const auto& [key, x] : xmap) {
            if (key.first == v) {
              balance += LinExpr(x);
              outdeg += LinExpr(x);
              touched = true;
            }
            if (key.second == v) {
              balance -= LinExpr(x);
              indeg += LinExpr(x);
              touched = true;
            }
          }
          const double z = v == route.source ? 1.0 : (v == route.dest ? -1.0 : 0.0);
          if (!touched) {
            if (z != 0.0) {
              // Endpoint with no incident edges: infeasible by construction.
              const Var zero = p_.model.add_binary("iso_" + tag);
              p_.model.set_bounds(zero, 0.0, 0.0);
              p_.model.add_ge(LinExpr(zero), 1.0);
            }
            continue;
          }
          p_.model.add_eq(std::move(balance), z, "bal_" + tag + "_" + std::to_string(v));
          p_.model.add_le(std::move(outdeg), 1.0);
          p_.model.add_le(std::move(indeg), 1.0);
        }

        // (1e) hop bound.
        if (route.max_hops) {
          LinExpr hops;
          for (const auto& [key, x] : xmap) hops += LinExpr(x);
          p_.model.add_le(std::move(hops), static_cast<double>(*route.max_hops));
        }
      }
      // (1d) pairwise edge-disjointness between replicas.
      for (size_t a = 0; a < route_paths[ri].size(); ++a) {
        for (size_t b = a + 1; b < route_paths[ri].size(); ++b) {
          const auto& xa = p_.full_path_edges[route_paths[ri][a]];
          const auto& xb = p_.full_path_edges[route_paths[ri][b]];
          for (const auto& [key, va] : xa) {
            p_.model.add_le(LinExpr(va) + LinExpr(xb.at(key)), 1.0);
          }
        }
      }
    }

    // e <= sum of path usages (no phantom edges).
    for (const auto& [key, e] : p_.edge_active) {
      LinExpr sum;
      for (const auto& xmap : p_.full_path_edges) {
        auto it = xmap.find(key);
        if (it != xmap.end()) sum += LinExpr(it->second);
      }
      sum -= LinExpr(e);
      p_.model.add_ge(std::move(sum), 0.0);
    }
  }

  void emit_node_upper_links() {
    // A candidate node may only be "used" when something uses it: an
    // incident active edge now, or a localization reach var added later.
    // Collect incident edges here; emit_localization() extends the expr.
    for (int i : node_in_scope_) {
      if (t_.node(i).kind != NodeKind::kFixed) node_users_[i];
    }
    add_edge_users(scope_edges_, node_users_);
  }

  /// Adds each edge's activation to the users of its candidate endpoints.
  void add_edge_users(const std::set<EdgeKey>& edges, std::map<int, LinExpr>& users) const {
    for (const EdgeKey& key : edges) {
      const Var e = p_.edge_active.at(key);
      for (const int v : {key.first, key.second}) {
        if (t_.node(v).kind != NodeKind::kFixed) users[v] += LinExpr(e);
      }
    }
  }

  int new_used_ub_row(const int& i, LinExpr users) {
    users -= LinExpr(p_.node_used[static_cast<size_t>(i)]);
    return p_.model.add_ge(std::move(users), 0.0, "used_ub_" + t_.node(i).name);
  }

  // --------------------------------------------------------- link quality
  void emit_link_quality() {
    for (const auto& [key, e] : p_.edge_active) emit_lq_edge(key, e);
  }

  void emit_lq_edge(const EdgeKey& key, Var e) {
    const auto rss_floor = s_.min_rss_dbm();
    const auto [i, j] = key;
    const double pl = t_.path_loss_db(i, j);
    // RSS = -PL + sum_c m_ci (tx_c + g_c) + sum_c m_cj g_c  (2a).
    LinExpr rhs = LinExpr(-pl);
    double lo = -pl;
    double hi = -pl;
    double tx_lo = milp::kInf, tx_hi = -milp::kInf;
    for (int c : compatible_components(i)) {
      const Component& comp = t_.library().at(c);
      const double gain = comp.tx_power_dbm + comp.antenna_gain_dbi;
      rhs += gain * LinExpr(p_.mapping.at({c, i}));
      tx_lo = std::min(tx_lo, gain);
      tx_hi = std::max(tx_hi, gain);
    }
    double rx_lo = milp::kInf, rx_hi = -milp::kInf;
    for (int c : compatible_components(j)) {
      const double gain = t_.library().at(c).antenna_gain_dbi;
      rhs += gain * LinExpr(p_.mapping.at({c, j}));
      rx_lo = std::min(rx_lo, gain);
      rx_hi = std::max(rx_hi, gain);
    }
    lo += std::min(tx_lo, 0.0) + std::min(rx_lo, 0.0);
    hi += std::max(tx_hi, 0.0) + std::max(rx_hi, 0.0);

    const Var rss = p_.model.add_continuous(
        "rss_" + t_.node(i).name + "_" + t_.node(j).name, lo, hi);
    p_.rss[key] = rss;
    rhs -= LinExpr(rss);
    rss_row_[key] = p_.model.add_eq(std::move(rhs), 0.0);
    // (2b): active link must clear the bound, plus any fading-hardening
    // headroom the repair loop demanded for this link.
    if (rss_floor) {
      milp::imply_ge(p_.model, e, LinExpr(rss), *rss_floor + margin_for(i, j),
                     "lq_" + t_.node(i).name + "_" + t_.node(j).name);
    }
  }

  // -------------------------------------------------------------- energy
  /// Conservative per-edge ETX: evaluated at the lowest SNR the admitted
  /// design can exhibit on this link (the LQ floor if enforced, otherwise
  /// the worst component choice), so the MILP never underestimates energy.
  [[nodiscard]] double etx_for_edge(int i, int j) const {
    double worst_rss = milp::kInf;
    for (int c : compatible_components(i)) {
      const Component& comp = t_.library().at(c);
      worst_rss = std::min(worst_rss, comp.tx_power_dbm + comp.antenna_gain_dbi);
    }
    worst_rss += -t_.path_loss_db(i, j);  // RX gain >= 0 conservatively omitted
    const auto rss_floor = s_.min_rss_dbm();
    if (rss_floor) worst_rss = std::max(worst_rss, *rss_floor);
    const double snr = worst_rss - s_.radio.noise_floor_dbm;
    return channel::etx_from_snr(s_.radio.modulation, snr, s_.radio.tdma.packet_bytes);
  }

  [[nodiscard]] bool energy_enabled() const {
    return s_.lifetime || s_.objective.weight_energy != 0.0;
  }

  [[nodiscard]] double energy_fmax() const {
    int total_paths = 0;
    for (const auto& r : s_.routes) total_paths += std::max(1, r.replicas);
    return std::max(1, total_paths) * 100.0;  // ETX-weighted cap
  }

  /// TX / RX ETX weights one candidate's path induces on node i.
  [[nodiscard]] std::pair<double, double> candidate_traffic(const Path& path, int i) const {
    double tx_w = 0.0, rx_w = 0.0;
    for (size_t k = 0; k + 1 < path.nodes.size(); ++k) {
      if (path.nodes[k] == i) tx_w += etx_for_edge(i, path.nodes[k + 1]);
      if (path.nodes[k + 1] == i) rx_w += etx_for_edge(path.nodes[k], i);
    }
    return {tx_w, rx_w};
  }

  /// Creates ftx/frx for node i and ties them to the routing mass in
  /// tx_expr/rx_expr (equality rows recorded for incremental widening),
  /// plus the per-component lifetime implications.
  void emit_energy_node(int i, LinExpr tx_expr, LinExpr rx_expr) {
    const auto& nd = t_.node(i);
    const double fmax = energy_fmax();
    const Var ftx = p_.model.add_continuous("ftx_" + nd.name, 0.0, fmax);
    const Var frx = p_.model.add_continuous("frx_" + nd.name, 0.0, fmax);
    tx_expr -= LinExpr(ftx);
    rx_expr -= LinExpr(frx);
    const int tx_row = p_.model.add_eq(std::move(tx_expr), 0.0);
    const int rx_row = p_.model.add_eq(std::move(rx_expr), 0.0);
    node_traffic_vars_[i] = {ftx, frx};
    traffic_rows_[i] = {tx_row, rx_row};

    if (s_.lifetime) {
      // (3a): per admitted component, charge per cycle within budget.
      const radio::TdmaConfig& tdma = s_.radio.tdma;
      const double battery_mas = s_.lifetime->battery_mah * 3600.0;
      const double cap = battery_mas * tdma.report_period_s /
                         (s_.lifetime->min_years * radio::kSecondsPerYear);
      for (int c : compatible_components(i)) {
        const auto cc = charge_coefs(t_.library().at(c), s_.radio);
        milp::imply_le(p_.model, p_.mapping.at({c, i}),
                       cc.a_tx * LinExpr(ftx) + cc.b_rx * LinExpr(frx), cap - cc.s0,
                       "life_" + t_.library().at(c).name + "_" + nd.name);
      }
    }
  }

  /// Weighted TX / RX counts that routing through node i induces, from the
  /// candidates from `first` on (approx) or from every x^pi (full).
  bool node_traffic(int i, size_t first, LinExpr* tx, LinExpr* rx) const {
    bool touched = false;
    if (o_.mode == EncoderOptions::PathMode::kApprox) {
      for (size_t ci = first; ci < p_.candidates.size(); ++ci) {
        const auto& c = p_.candidates[ci];
        const auto [tx_w, rx_w] = candidate_traffic(c.path, i);
        if (tx_w > 0) *tx += tx_w * LinExpr(c.selector);
        if (rx_w > 0) *rx += rx_w * LinExpr(c.selector);
        touched = touched || tx_w > 0 || rx_w > 0;
      }
      return touched;
    }
    for (const auto& xmap : p_.full_path_edges) {
      for (const auto& [key, x] : xmap) {
        if (key.first == i) {
          *tx += etx_for_edge(key.first, key.second) * LinExpr(x);
          touched = true;
        }
        if (key.second == i) {
          *rx += etx_for_edge(key.first, key.second) * LinExpr(x);
          touched = true;
        }
      }
    }
    return touched;
  }

  /// Energy rows of node i for the candidates from `first` on: widens its
  /// traffic rows, or creates its flow variables when it has none yet and
  /// either carries traffic or energy enters the objective. Returns true
  /// when it created them. Emits per node, so only one node's expressions
  /// are alive at a time.
  bool widen_energy(int i, size_t first) {
    if (t_.node(i).role == Role::kSink) return false;  // mains powered
    LinExpr tx_expr;
    LinExpr rx_expr;
    const bool touched = node_traffic(i, first, &tx_expr, &rx_expr);
    const auto rows = traffic_rows_.find(i);
    if (rows != traffic_rows_.end()) {
      p_.model.add_terms_to_constr(rows->second.first, tx_expr);
      p_.model.add_terms_to_constr(rows->second.second, rx_expr);
      return false;
    }
    if (!touched && s_.objective.weight_energy == 0.0) return false;
    emit_energy_node(i, std::move(tx_expr), std::move(rx_expr));
    return true;
  }

  void emit_energy() {
    if (!energy_enabled()) return;
    s_.radio.tdma.validate();
    for (int i : node_in_scope_) widen_energy(i, 0);
  }

  // -------------------------------------------------------- localization
  void emit_localization() {
    if (s_.localization) {
      const auto& loc = *s_.localization;
      const auto anchors = t_.nodes_with_role(Role::kAnchor);
      for (size_t pj = 0; pj < loc.eval_points.size(); ++pj) {
        const geom::Vec2 pt = loc.eval_points[pj];

        // Candidate anchors for this point, nearest (in path loss) first.
        std::vector<std::pair<double, int>> ranked;
        for (int i : anchors) {
          ranked.emplace_back(t_.channel_model().path_loss_db(t_.node(i).position, pt), i);
        }
        std::sort(ranked.begin(), ranked.end());
        size_t limit = ranked.size();
        if (o_.mode == EncoderOptions::PathMode::kApprox && o_.loc_candidates > 0) {
          limit = std::min<size_t>(limit, static_cast<size_t>(o_.loc_candidates));
        }

        LinExpr coverage;
        bool any = false;
        for (size_t r = 0; r < limit; ++r) {
          const auto [pl, i] = ranked[r];
          // Components of i able to reach the point at the required RSS.
          LinExpr reaching;
          bool reachable = false;
          for (int c : compatible_components(i)) {
            const Component& comp = t_.library().at(c);
            if (comp.tx_power_dbm + comp.antenna_gain_dbi - pl >= loc.min_rss_dbm) {
              reaching += LinExpr(p_.mapping.at({c, i}));
              reachable = true;
            }
          }
          if (!reachable) continue;
          const Var rij = p_.model.add_binary("r_" + t_.node(i).name + "_p" + std::to_string(pj));
          p_.reach[{i, static_cast<int>(pj)}] = rij;
          // (4a) both ways: r_ij = (a reaching component is deployed at i).
          // The lower links make r an honest reachability indicator, so the
          // DSOD objective charges every deployed anchor its full
          // point-distance mass (favoring few, strong, central anchors —
          // the paper's observed Table 2 behavior) instead of letting the
          // solver cherry-pick serving anchors.
          for (const auto& [v, coef] : reaching.terms()) {
            p_.model.add_le(LinExpr(v) - LinExpr(rij), 0.0);
          }
          reaching -= LinExpr(rij);
          p_.model.add_ge(std::move(reaching), 0.0);
          coverage += LinExpr(rij);
          any = true;
          auto it = node_users_.find(i);
          if (it != node_users_.end()) it->second += LinExpr(rij);
        }
        if (!any) {
          const Var zero = p_.model.add_binary("unreachable_p" + std::to_string(pj));
          p_.model.set_bounds(zero, 0.0, 0.0);
          coverage += LinExpr(zero);
        }
        // (4b): at least N anchors cover this point.
        p_.model.add_ge(std::move(coverage), static_cast<double>(loc.min_anchors),
                        "cover_p" + std::to_string(pj));
      }
    }
    widen_rows(node_users_, used_ub_row_, &Build::new_used_ub_row);
    node_users_.clear();
  }

  // ----------------------------------------------------------- objective
  /// q_i >= charge-per-cycle of the admitted component; feeds the energy
  /// objective term. Split from rebuild_objective so a delta pass can add q
  /// variables for nodes that gained traffic without touching old ones.
  void emit_energy_objective_var(int i) {
    const auto& [ftx, frx] = node_traffic_vars_.at(i);
    double qmax = 0.0;
    for (int c : compatible_components(i)) {
      const auto cc = charge_coefs(t_.library().at(c), s_.radio);
      qmax = std::max(qmax, cc.a_tx * p_.model.var(ftx).ub + cc.b_rx * p_.model.var(frx).ub + cc.s0);
    }
    const Var q = p_.model.add_continuous("q_" + t_.node(i).name, 0.0, qmax);
    for (int c : compatible_components(i)) {
      const auto cc = charge_coefs(t_.library().at(c), s_.radio);
      milp::imply_ge(p_.model, p_.mapping.at({c, i}),
                     LinExpr(q) - cc.a_tx * LinExpr(ftx) - cc.b_rx * LinExpr(frx), cc.s0,
                     "q_lb_" + t_.node(i).name);
    }
    q_var_[i] = q;
  }

  void emit_objective() {
    if (s_.objective.weight_energy != 0.0) {
      for (const auto& entry : node_traffic_vars_) emit_energy_objective_var(entry.first);
    }
    rebuild_objective();
  }

  /// Recomputes the whole objective from the decode tables. LinExpr merges
  /// terms by variable, so rebuilding after a delta yields exactly what a
  /// fresh encode would produce.
  void rebuild_objective() {
    LinExpr obj;
    if (s_.objective.weight_cost != 0.0) {
      for (const auto& [key, m] : p_.mapping) {
        const double cost = t_.library().at(key.first).cost_usd;
        if (cost != 0.0) obj += s_.objective.weight_cost * cost * LinExpr(m);
      }
    }
    if (s_.objective.weight_energy != 0.0) {
      for (const auto& [i, q] : q_var_) {
        obj += s_.objective.weight_energy * LinExpr(q);
      }
    }
    if (s_.objective.weight_dsod != 0.0 && s_.localization) {
      for (const auto& [key, rij] : p_.reach) {
        const auto [i, pj] = key;
        const double d =
            t_.node(i).position.dist(s_.localization->eval_points[static_cast<size_t>(pj)]);
        obj += s_.objective.weight_dsod * d * LinExpr(rij);
      }
    }
    p_.model.minimize(std::move(obj));
  }

  const NetworkTemplate& t_;
  const Specification& s_;
  const EncoderOptions& o_;
  Digraph g_;
  EncodedProblem p_;
  std::set<int> node_in_scope_;
  std::set<EdgeKey> scope_edges_;
  std::vector<PendingCandidate> pending_candidates_;
  std::map<int, LinExpr> node_users_;
  std::map<int, std::pair<Var, Var>> node_traffic_vars_;
  std::map<EdgeKey, double> lq_margin_;  ///< undirected (lo,hi) -> headroom dB

  // ------------------------------------------- incremental-session state
  // Row-index bookkeeping recorded during the fresh build so extend_to_k
  // can widen existing constraints in place instead of re-emitting them.
  struct AvoidRow {
    size_t hardening_index;
    int row;
    bool unsat;  ///< row holds a pinned-zero var: no candidate complied
  };
  int encoded_k_ = -1;                           ///< K* the model currently encodes
  std::vector<RouteState> route_states_;         ///< per route, resumable Yen state
  std::map<GroupKey, int> group_row_;                            ///< group -> eq row
  std::set<GroupKey> group_unsat_;                               ///< groups with pinned-zero var
  std::map<EdgeKey, int> users_row_;                             ///< e <= sum users rows
  std::map<GroupEdgeKey, int> group_edge_row_;                   ///< -> LE row
  std::map<GroupNodeKey, int> group_node_row_;                   ///< -> LE row
  std::map<GroupKey, std::pair<std::set<int>, int>> cover_data_; ///< -> (union, h)
  std::map<GroupKey, int> cover_row_;                            ///< group -> GE row
  std::map<int, int> used_ub_row_;                               ///< node -> GE row
  std::map<EdgeKey, int> rss_row_;                               ///< edge -> RSS eq row
  std::map<int, std::pair<int, int>> traffic_rows_;              ///< node -> (tx eq, rx eq)
  std::vector<EdgeKey> delta_edges_;  ///< edges appended by the last extend_to_k
  std::map<int, Var> q_var_;                                     ///< node -> q objective var
  std::vector<AvoidRow> avoid_rows_;                             ///< kAvoid hardening rows
  std::vector<double> new_var_defaults_;  ///< per delta-appended var, id order
  TerminationReason stop_why_ = TerminationReason::kCompleted;  ///< first stop, latched
  long charged_rows_ = 0;  ///< constraint rows already charged to the budget
};

bool Build::extend_to_k(int new_k) {
  if (o_.mode != EncoderOptions::PathMode::kApprox) return false;
  if (new_k < encoded_k_) return false;  // shrinking never deltas
  if (new_k == encoded_k_) {
    new_var_defaults_.clear();
    delta_edges_.clear();
    return true;
  }
  util::Stopwatch clock;
  // Failed deltas record a span without the trailing "reused" arg — the
  // caller rebuilds, and the rebuild shows up as its own encode/full span.
  util::obs::ScopedSpan span("encode/delta", "encode");
  span.arg("from_k", encoded_k_);
  span.arg("to_k", new_k);
  const int prev_candidates = static_cast<int>(p_.candidates.size());
  const int vars_before = p_.model.num_vars();

  // Phase A: advance the resumable Yen enumerators and replay the
  // disjoint-disconnect step over the extended batches. No model mutation
  // happens here, so any `false` return leaves the MILP untouched and the
  // caller simply rebuilds.
  std::vector<PendingCandidate> fresh;
  for (size_t ri = 0; ri < route_states_.size(); ++ri) {
    RouteState& st = route_states_[ri];
    const auto& route = s_.routes[ri];
    const int nrep = std::max(1, route.replicas);
    const int new_kpr = std::max(1, (new_k + nrep - 1) / nrep);
    if (new_kpr == st.k_per_rep) continue;  // K grew too little to matter here
    if (new_kpr < st.k_per_rep) return false;
    std::vector<graph::EdgeId> banned;  // cumulative bans, recomputed
    for (int rep = 0; rep < nrep; ++rep) {
      RepState& rp = st.reps[static_cast<size_t>(rep)];
      if (rp.banned_before != banned) return false;  // disconnect drift
      const auto& batch = rp.en->next_batch(new_kpr);
      std::vector<Path> raw_new(batch.begin() + static_cast<std::ptrdiff_t>(rp.consumed),
                                batch.end());
      for (Path& p : hop_filtered(std::move(raw_new), static_cast<int>(ri))) {
        fresh.push_back({std::move(p), static_cast<int>(ri), rep});
      }
      rp.consumed = batch.size();
      if (o_.disjoint_strategy == EncoderOptions::DisjointStrategy::kNone) continue;
      if (rep + 1 < nrep) {
        const auto paths = hop_filtered(batch, static_cast<int>(ri));
        if (!paths.empty()) {
          for (graph::EdgeId e : disconnect_edges(paths)) banned.push_back(e);
          std::sort(banned.begin(), banned.end());
          banned.erase(std::unique(banned.begin(), banned.end()), banned.end());
        }
      }
    }
    st.k_per_rep = new_kpr;
  }

  // Phase A2: a delta must reproduce a fresh encode at new_k exactly.
  // Structures that a fresh encode would *not* emit anymore (pinned-zero
  // infeasibility markers, collapsed cover cuts) cannot be retracted from
  // the model, so their appearance forces a rebuild.
  for (const auto& pc : fresh) {
    if (group_unsat_.count({pc.route_index, pc.replica})) return false;
  }
  for (const auto& ar : avoid_rows_) {
    if (!ar.unsat) continue;
    const auto& hc = o_.hardening[ar.hardening_index];
    for (const auto& pc : fresh) {
      if (pc.route_index == hc.route_index && path_avoids(pc.path, hc)) return false;
    }
  }
  {
    std::map<std::pair<int, int>, int> fresh_h;
    for (const auto& pc : fresh) {
      int relays = 0;
      for (int v : pc.path.nodes) {
        if (t_.node(v).kind != NodeKind::kFixed) ++relays;
      }
      auto [it, first] = fresh_h.try_emplace({pc.route_index, pc.replica}, relays);
      if (!first) it->second = std::min(it->second, relays);
    }
    for (const auto& [key, h] : fresh_h) {
      auto row = cover_row_.find(key);
      if (row != cover_row_.end() && std::min(cover_data_.at(key).second, h) <= 0) return false;
    }
  }

  // Phase B: append-only mutation through the fresh build's emitters.
  // Every grown constraint relaxes for the all-off extension of a previous
  // assignment, so a prior incumbent plus new_var_defaults_ stays feasible
  // (the MIP-start bridge relies on this).
  std::set<int> new_nodes;
  std::set<EdgeKey> new_edges;
  for (const auto& pc : fresh) {
    for (size_t k = 0; k + 1 < pc.path.nodes.size(); ++k) {
      const EdgeKey key{pc.path.nodes[k], pc.path.nodes[k + 1]};
      if (!scope_edges_.count(key)) new_edges.insert(key);
    }
    for (int v : pc.path.nodes) {
      if (!node_in_scope_.count(v)) new_nodes.insert(v);
    }
  }
  node_in_scope_.insert(new_nodes.begin(), new_nodes.end());
  scope_edges_.insert(new_edges.begin(), new_edges.end());

  for (int v : new_nodes) emit_sizing_node(v);
  for (const EdgeKey& key : new_edges) edge_var(key.first, key.second);
  {
    std::map<int, LinExpr> users;
    add_edge_users(new_edges, users);
    widen_rows(users, used_ub_row_, &Build::new_used_ub_row);
  }
  for (const EdgeKey& key : new_edges) emit_lq_edge(key, p_.edge_active.at(key));

  const size_t first_new = p_.candidates.size();
  add_selectors(fresh);
  Linking l = linking_of(first_new);
  widen_rows(l.group, group_row_, &Build::new_group_row);
  widen_rows(l.users, users_row_, &Build::new_users_row);
  widen_rows(l.group_edge, group_edge_row_, &Build::new_group_edge_row, o_.lazy_separation);
  widen_rows(l.group_node, group_node_row_, &Build::new_group_node_row, o_.lazy_separation);
  widen_cover(first_new);
  // Cross-replica disjointness for every pair touching a new candidate.
  for (size_t a = first_new; a < p_.candidates.size(); ++a) {
    for (size_t b = 0; b < a; ++b) emit_conflict(a, b);
  }
  // Satisfiable kAvoid hardenings gain their new compliant selectors.
  for (const auto& ar : avoid_rows_) {
    const auto& hc = o_.hardening[ar.hardening_index];
    if (!ar.unsat) p_.model.add_terms_to_constr(ar.row, compliant_selectors(hc, first_new));
  }

  // Energy: new candidates add routing mass; nodes gaining traffic for the
  // first time get their flow variables (and q objective vars) now. Every
  // new node lies on a new path, so this reaches all of them.
  if (energy_enabled()) {
    std::set<int> on_new_paths;
    for (size_t ci = first_new; ci < p_.candidates.size(); ++ci) {
      on_new_paths.insert(p_.candidates[ci].path.nodes.begin(),
                          p_.candidates[ci].path.nodes.end());
    }
    std::vector<int> gained;
    for (int v : on_new_paths) {
      if (widen_energy(v, first_new)) gained.push_back(v);
    }
    if (s_.objective.weight_energy != 0.0) {
      for (int v : gained) emit_energy_objective_var(v);
    }
  }

  rebuild_objective();

  new_var_defaults_.assign(static_cast<size_t>(p_.model.num_vars() - vars_before), 0.0);
  // Appended RSS values depend on the previous assignment (a new edge may
  // attach to an already-deployed node whose mapping binaries are 1), so
  // extend_assignment derives them from the recorded equality rows.
  delta_edges_.assign(new_edges.begin(), new_edges.end());
  encoded_k_ = new_k;
  refresh_stats();
  p_.stats.reused_candidates = prev_candidates;
  p_.stats.delta_encode_time_s = clock.seconds();
  p_.stats.encode_time_s = clock.seconds();
  span.arg("reused", prev_candidates);
  util::obs::TraceRecorder::global().counter_add("encode.reused_candidates", prev_candidates);
  return true;
}

void Build::append_avoid_hardenings(size_t first) {
  util::Stopwatch clock;
  new_var_defaults_.clear();
  delta_edges_.clear();
  for (size_t hi = first; hi < o_.hardening.size(); ++hi) emit_one_hardening(hi);
  refresh_stats();
  p_.stats.reused_candidates = static_cast<int>(p_.candidates.size());
  p_.stats.delta_encode_time_s = clock.seconds();
  p_.stats.encode_time_s = clock.seconds();
}

}  // namespace

bool path_avoids(const Path& path, const HardeningConstraint& hc) {
  for (int v : hc.nodes) {
    if (graph::path_uses_node(path, v)) return false;
  }
  for (const auto& [a, b] : hc.links) {
    if (graph::path_uses_link(path, a, b)) return false;
  }
  return true;
}

Encoder::Encoder(const NetworkTemplate& tmpl, const Specification& spec, EncoderOptions opts)
    : tmpl_(&tmpl), spec_(&spec), opts_(std::move(opts)) {
  check_endpoints(tmpl, spec);
}

EncodedProblem Encoder::encode() const {
  IncrementalEncoder session(*tmpl_, *spec_, opts_);
  return std::move(session.encode_k(opts_.k_star));
}

struct IncrementalEncoder::Impl {
  const NetworkTemplate* tmpl = nullptr;
  const Specification* spec = nullptr;
  EncoderOptions opts;
  std::unique_ptr<Build> build;
  bool dirty = false;
  bool last_was_delta = false;

  void rebuild() {
    build = std::make_unique<Build>(*tmpl, *spec, opts);
    build->execute();
    dirty = false;
    last_was_delta = false;
  }

  /// A standing model the next request may extend in place: complete,
  /// approximate, and not invalidated.
  [[nodiscard]] bool reusable() const {
    return build && !dirty && build->complete() &&
           opts.mode == EncoderOptions::PathMode::kApprox;
  }
};

IncrementalEncoder::IncrementalEncoder(const NetworkTemplate& tmpl, const Specification& spec,
                                       EncoderOptions base)
    : impl_(std::make_unique<Impl>()) {
  check_endpoints(tmpl, spec);
  impl_->tmpl = &tmpl;
  impl_->spec = &spec;
  impl_->opts = std::move(base);
}

IncrementalEncoder::~IncrementalEncoder() = default;

EncodedProblem& IncrementalEncoder::encode_k(int k) {
  auto& im = *impl_;
  // Deltas are atomic: a stop observed here leaves the standing model
  // intact (a half-appended delta would be unusable), marks this call's
  // result with the reason, and returns. The caller sees termination !=
  // kCompleted and reports instead of solving; the next call, under its
  // own control, clears the mark.
  util::exec::TerminationReason why = util::exec::TerminationReason::kCompleted;
  if (im.build != nullptr && im.opts.exec.checkpoint(&why)) {
    im.build->problem().stats.termination = why;
    im.last_was_delta = false;
    return im.build->problem();
  }
  im.opts.k_star = k;  // the live Build reads options through this object
  if (!im.reusable()) {
    im.rebuild();  // includes a model whose own build was stopped
  } else {
    // A complete model: clear any mark an earlier call's entry stop left.
    im.build->problem().stats.termination = util::exec::TerminationReason::kCompleted;
    if (k != im.build->encoded_k()) {
      if (im.build->extend_to_k(k)) {
        im.last_was_delta = true;
      } else {
        im.rebuild();
      }
    }
  }
  return im.build->problem();
}

void IncrementalEncoder::append_hardenings(const std::vector<HardeningConstraint>& fresh) {
  auto& im = *impl_;
  const size_t first = im.opts.hardening.size();
  bool all_avoid = true;
  for (const auto& hc : fresh) {
    all_avoid = all_avoid && hc.kind == HardeningConstraint::Kind::kAvoid;
  }
  im.opts.hardening.insert(im.opts.hardening.end(), fresh.begin(), fresh.end());
  im.last_was_delta = false;
  if (all_avoid && im.reusable()) {
    // Pure row appends over the existing candidate set.
    im.build->append_avoid_hardenings(first);
  } else {
    // kMargin retunes the LQ prefilter (and thus the Yen graph): rebuild.
    im.dirty = true;
  }
}

void IncrementalEncoder::invalidate() {
  impl_->dirty = true;
  impl_->last_was_delta = false;
}

void IncrementalEncoder::set_exec(const util::exec::ExecControl& exec) {
  impl_->opts.exec = exec;
}

EncodedProblem& IncrementalEncoder::problem() {
  if (!impl_->build) throw std::logic_error("IncrementalEncoder::problem() before encode_k()");
  return impl_->build->problem();
}

const EncoderOptions& IncrementalEncoder::options() const { return impl_->opts; }

std::vector<double> IncrementalEncoder::extend_assignment(const std::vector<double>& prev) const {
  const auto& im = *impl_;
  if (!im.build || !im.last_was_delta) return {};
  return im.build->extend_assignment(prev);
}

EncodeStats Encoder::estimate_full_stats() const {
  // Mirrors emit_full_paths() & friends analytically; cross-checked against
  // the real encoder in tests (tolerance documented there).
  const Digraph g = tmpl_->build_graph();
  const long n = tmpl_->num_nodes();
  const long e = g.num_edges();
  long paths = 0;
  long disjoint_pairs = 0;
  long hop_rows = 0;
  for (const auto& r : spec_->routes) {
    const long rep = std::max(1, r.replicas);
    paths += rep;
    disjoint_pairs += rep * (rep - 1) / 2;
    if (r.max_hops) hop_rows += rep;
  }

  long vars = 0;
  long cons = 0;
  // Sizing: every node in scope; average compat size.
  long compat_total = 0;
  for (int i = 0; i < n; ++i) {
    const auto& nd = tmpl_->node(i);
    compat_total += nd.fixed_component ? 1
                                       : static_cast<long>(tmpl_->library().with_role(nd.role).size());
  }
  vars += n + compat_total;  // u_i + m_ci
  cons += n;                 // sizing equalities
  // Edges: e vars + 2 endpoint links + e<=sum(x).
  vars += e;
  cons += 3 * e;
  // Node upper links (candidates only).
  long cand_nodes = 0;
  for (int i = 0; i < n; ++i) {
    if (tmpl_->node(i).kind != NodeKind::kFixed) ++cand_nodes;
  }
  cons += cand_nodes;
  // Paths: per path, e vars x; (1b) e rows; (1a)+(1c): ~3 rows per node
  // with incident edges (use all nodes as the paper's n^2+3n bound does).
  vars += paths * e;
  cons += paths * (e + 3 * n) + hop_rows;
  cons += disjoint_pairs * e;
  // LQ: rss var + equality (+ implication when a bound is set) per edge.
  vars += e;
  cons += (spec_->min_rss_dbm() ? 2L : 1L) * e;
  // Energy: 2 vars + 2 equalities + |compat| implications per battery node.
  if (spec_->lifetime || spec_->objective.weight_energy != 0.0) {
    long battery = 0;
    long battery_compat = 0;
    for (int i = 0; i < n; ++i) {
      const auto& nd = tmpl_->node(i);
      if (nd.role == Role::kSink) continue;
      ++battery;
      battery_compat += nd.fixed_component
                            ? 1
                            : static_cast<long>(tmpl_->library().with_role(nd.role).size());
    }
    vars += 2 * battery;
    cons += 2 * battery + (spec_->lifetime ? battery_compat : 0);
  }
  // Localization: full mode uses every anchor per point.
  if (spec_->localization) {
    const long anchors = static_cast<long>(tmpl_->nodes_with_role(Role::kAnchor).size());
    const long pts = static_cast<long>(spec_->localization->eval_points.size());
    vars += anchors * pts;
    cons += anchors * pts + pts;
  }

  EncodeStats st;
  st.num_vars = static_cast<int>(std::min<long>(vars, INT32_MAX));
  st.num_constrs = static_cast<int>(std::min<long>(cons, INT32_MAX));
  return st;
}

}  // namespace wnet::archex
