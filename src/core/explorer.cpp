#include "core/explorer.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <map>

#include "core/encode/separation.h"
#include "graph/digraph.h"
#include "util/obs/json.h"
#include "util/obs/trace.h"
#include "util/stopwatch.h"

namespace wnet::archex {

Explorer::Explorer(const NetworkTemplate& tmpl, const Specification& spec)
    : tmpl_(&tmpl), spec_(&spec) {}

std::string ExplorationResult::solver_json() const {
  // The objective is non-finite on infeasible/unbounded runs; the obs
  // writer turns it into null + an "objective_finite": false sidecar
  // instead of emitting invalid bare inf/nan.
  util::obs::JsonWriter w;
  w.begin_object();
  w.field("status", milp::to_string(status));
  w.number_field("objective", objective);
  w.number_field("total_time_s", total_time_s);
  w.field("termination", util::exec::to_string(termination));
  w.number_field("bound", bound);
  w.number_field("gap", gap);
  w.key("encode").begin_object();
  w.field("vars", encode_stats.num_vars);
  w.field("constrs", encode_stats.num_constrs);
  w.field("nonzeros", encode_stats.nonzeros);
  w.field("candidate_paths", encode_stats.candidate_paths);
  w.field("lazy_rows_omitted", encode_stats.lazy_rows_omitted);
  w.number_field("encode_time_s", encode_stats.encode_time_s);
  w.field("reused_candidates", encode_stats.reused_candidates);
  w.number_field("delta_encode_time_s", encode_stats.delta_encode_time_s);
  w.field("termination", util::exec::to_string(encode_stats.termination));
  w.end_object();
  w.key("solver").raw(solve_stats.to_json());
  w.end_object();
  return w.take();
}

FixedRouting pick_fixed_routing(const EncodedProblem& ep, const NetworkArchitecture& prev,
                                const std::vector<HardeningConstraint>& hardening) {
  FixedRouting out;
  if (ep.candidates.empty()) return out;

  std::map<std::pair<int, int>, std::vector<const CandidatePath*>> groups;
  for (const auto& c : ep.candidates) groups[{c.route_index, c.replica}].push_back(&c);

  RoutePicks& picked = out.picks;
  // Edge-disjoint from every other replica of group g's route already
  // picked (g's own pick, if any, is not compared).
  const auto disjoint_with_route = [&](const std::pair<int, int>& g, const CandidatePath* c) {
    for (auto it = picked.lower_bound({g.first, INT_MIN});
         it != picked.end() && it->first.first == g.first; ++it) {
      if (it->first.second != g.second && graph::shared_edges(c->path, it->second->path) > 0) {
        return false;
      }
    }
    return true;
  };
  const auto avoids_all = [&](int route, const graph::Path& path) {
    for (const auto& h : hardening) {
      if (h.kind == HardeningConstraint::Kind::kAvoid && h.route_index == route &&
          !path_avoids(path, h)) {
        return false;
      }
    }
    return true;
  };

  // Pass 1: keep every previous route that still exists verbatim among the
  // candidates (hardening may have regenerated or filtered the sets).
  for (const auto& r : prev.routes) {
    const auto it = groups.find({r.route_index, r.replica});
    if (it == groups.end()) continue;
    for (const CandidatePath* c : it->second) {
      if (c->path.nodes == r.path.nodes) {
        picked[it->first] = c;
        break;
      }
    }
  }

  // Pass 2: fill the remaining groups greedily by cost, preferring
  // candidates that satisfy every avoidance hardening on their route.
  out.complete = true;
  for (const auto& [g, cands] : groups) {
    if (picked.count(g) != 0) continue;
    const CandidatePath* best = nullptr;
    bool best_avoids = false;
    for (const CandidatePath* c : cands) {
      if (!disjoint_with_route(g, c)) continue;
      const bool avoids = avoids_all(g.first, c->path);
      if (best == nullptr || (avoids && !best_avoids) ||
          (avoids == best_avoids && c->path.cost < best->path.cost)) {
        best = c;
        best_avoids = avoids;
      }
    }
    if (best == nullptr) {
      best = cands.front();
      out.complete = false;
    }
    picked[g] = best;
  }
  if (!out.complete) return out;

  // Pass 3: every avoidance hardening needs >= 1 compliant replica on its
  // route. Swap the first replica that can to its cheapest compliant
  // disjoint candidate.
  for (const auto& h : hardening) {
    if (h.kind != HardeningConstraint::Kind::kAvoid) continue;
    const bool satisfied = std::any_of(picked.begin(), picked.end(), [&](const auto& gc) {
      return gc.first.first == h.route_index && path_avoids(gc.second->path, h);
    });
    if (satisfied) continue;
    bool repaired = false;
    for (auto& [g, c] : picked) {
      if (g.first != h.route_index) continue;
      const CandidatePath* swap = nullptr;
      for (const CandidatePath* cand : groups.at(g)) {
        if (!path_avoids(cand->path, h) || !disjoint_with_route(g, cand)) continue;
        if (swap == nullptr || cand->path.cost < swap->path.cost) swap = cand;
      }
      if (swap != nullptr) {
        c = swap;
        repaired = true;
        break;
      }
    }
    if (!repaired) {
      out.complete = false;
      return out;
    }
  }
  return out;
}

milp::Model restrict_to_picks(const EncodedProblem& ep, const RoutePicks& picked) {
  milp::Model restricted = ep.model;
  for (const auto& c : ep.candidates) {
    const auto it = picked.find({c.route_index, c.replica});
    const bool on = it != picked.end() && it->second == &c;
    restricted.set_bounds(c.selector, on ? 1.0 : 0.0, on ? 1.0 : 0.0);
  }
  return restricted;
}

std::vector<double> fixed_routing_start(const EncodedProblem& ep, const milp::SolveOptions& sopts,
                                        const NetworkArchitecture& prev,
                                        const std::vector<HardeningConstraint>& hardening) {
  const FixedRouting routing = pick_fixed_routing(ep, prev, hardening);
  if (!routing.complete) return {};
  return solve_with_fixed_selectors(ep, routing.picks, sopts);
}

std::vector<double> solve_with_fixed_selectors(const EncodedProblem& ep,
                                               const RoutePicks& picked,
                                               const milp::SolveOptions& sopts) {
  milp::SolveOptions wopts = sopts;
  // The probe gets a slice of the solve budget, but never more than the
  // caller's own limit or what is actually left on the request deadline —
  // the old unconditional 5s floor could hand an almost-exhausted run a
  // fresh five seconds of warm-start work.
  const double slice = std::min(30.0, std::max(5.0, 0.2 * sopts.time_limit_s));
  const double cap = std::min(sopts.time_limit_s, std::max(0.0, sopts.exec.deadline.remaining_s()));
  wopts.time_limit_s = std::min(slice, cap);
  wopts.rel_gap = std::max(sopts.rel_gap, 0.01);
  wopts.mip_start.clear();
  // The caller's cutoff describes the FULL model's incumbent, but this
  // probe solves a restriction whose optimum may legitimately tie it (the
  // restriction that produced the incumbent) or sit above it. Keeping the
  // cutoff here used to flip such probes to kNoSolution and silently drop
  // the warm start; the restricted solve must run uncut.
  wopts.cutoff = milp::kInf;
  // Likewise the bound-feedback hook: a restricted model's dual bound is
  // not a bound on the full problem, so it must never be published as one.
  wopts.on_bound_improved = nullptr;
  const milp::MipResult wres = milp::solve(restrict_to_picks(ep, picked), wopts);
  return wres.has_solution() ? wres.x : std::vector<double>{};
}

ExplorationResult Explorer::explore(const EncoderOptions& eopts,
                                    const milp::SolveOptions& sopts) const {
  IncrementalEncoder session(*tmpl_, *spec_, eopts);
  RungCarry carry;
  return explore_rung(session, eopts.k_star, carry, sopts);
}

ExplorationResult Explorer::explore_rung(IncrementalEncoder& session, int k, RungCarry& carry,
                                         const milp::SolveOptions& sopts,
                                         const RungStart& start) const {
  util::Stopwatch rung_clock;
  util::obs::ScopedSpan rung_span("kstar/rung", "explore");
  rung_span.arg("k", k);
  ExplorationResult er;
  EncodedProblem& ep = session.encode_k(k);
  er.encode_stats = ep.stats;
  if (ep.stats.termination != util::exec::TerminationReason::kCompleted) {
    // Stopped (or aborted) encode: report the reason, never solve.
    er.termination = ep.stats.termination;
    er.total_time_s = rung_clock.seconds();
    return er;
  }
  milp::SolveOptions so = sopts;
  if (session.options().lazy_separation) {
    // Rebuilt per rung: a delta extend grows the candidate list, and the
    // separator snapshot must cover every selector of the current model.
    // Installed before the warm-start probe so the probe's restricted solve
    // (same var ids) is gated by the same lazy constraints and never hands
    // back a lazily-infeasible seed.
    LazySeparation(*tmpl_, ep).install(so);
  }
  if (so.mip_start.empty()) {
    std::vector<double> ext = session.extend_assignment(carry.x);
    if (!ext.empty()) {
      so.mip_start = std::move(ext);
      so.cutoff = carry.objective;
    } else {
      so.mip_start = start ? start(ep, so) : fixed_routing_start(ep, so);
    }
  }
  const milp::MipResult res = milp::solve(ep.model, so);
  er.status = res.status;
  er.solve_stats = res.stats;
  er.termination = res.stats.termination;
  er.bound = res.stats.bound;
  er.gap = res.stats.gap;
  if (res.has_solution()) {
    er.objective = res.objective;
    er.architecture = decode_solution(ep, *tmpl_, *spec_, res.x);
    carry.x = res.x;
    carry.objective = res.objective;
  }
  er.total_time_s = rung_clock.seconds();
  return er;
}

Explorer::KStarSearchResult Explorer::search_k_star(const KStarSearchOptions& kopts,
                                                    EncoderOptions eopts,
                                                    const milp::SolveOptions& sopts) const {
  eopts.mode = EncoderOptions::PathMode::kApprox;
  IncrementalEncoder session(*tmpl_, *spec_, eopts);
  RungCarry carry;
  return scan_k_star(kopts, sopts.exec, [&](size_t /*i*/, int k) {
    return explore_rung(session, k, carry, sopts);
  });
}

Explorer::KStarSearchResult scan_k_star(
    const Explorer::KStarSearchOptions& kopts, const util::exec::ExecControl& exec,
    const std::function<ExplorationResult(size_t i, int k)>& rung,
    const std::function<void(int k, const ExplorationResult& r, bool improved)>& on_rung) {
  Explorer::KStarSearchResult out;
  double best_obj = milp::kInf;
  for (size_t i = 0; i < kopts.ladder.size(); ++i) {
    // Scan-boundary checkpoint on the serial spine (rung solves themselves
    // poll the same token): a stop keeps everything scanned so far.
    util::exec::TerminationReason scan_why = util::exec::TerminationReason::kCompleted;
    if (exec.checkpoint(&scan_why)) {
      out.termination = scan_why;
      break;
    }
    const int k = kopts.ladder[i];
    ExplorationResult r = rung(i, k);
    out.trace.emplace_back(k, r);
    const util::exec::TerminationReason rung_term = r.termination;
    const bool improved =
        r.has_solution() &&
        (best_obj == milp::kInf ||
         r.objective < best_obj - kopts.min_improvement * std::max(1.0, std::abs(best_obj)));
    if (on_rung) on_rung(k, r, improved);
    if (improved) {
      best_obj = r.objective;
      out.chosen_k = k;
      out.best = std::move(r);
    }
    // A rung cut short by the request control ends the ladder with that
    // reason — later rungs would be cut the same way. This outranks the
    // natural stop rules below, which describe a *finished* search.
    if (util::exec::stopped_by_control(rung_term)) {
      out.termination = rung_term;
      break;
    }
    if (!improved && out.chosen_k != 0) {
      break;  // no meaningful improvement: stop the ladder (Sec. 4.3 rule)
    }
    if (out.trace.back().second.total_time_s > kopts.time_threshold_s) break;
  }
  return out;
}

}  // namespace wnet::archex
