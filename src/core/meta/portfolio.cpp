#include "core/meta/portfolio.h"

#include <algorithm>
#include <chrono>

#include "core/encode/separation.h"
#include "core/solution.h"
#include "milp/tol.h"
#include "util/obs/json.h"
#include "util/thread_pool.h"

namespace wnet::archex::meta {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void write_architecture(util::obs::JsonWriter& w, const NetworkArchitecture& arch) {
  w.begin_object();
  w.key("nodes").begin_array();
  for (const DeployedNode& n : arch.nodes) {
    w.begin_object().field("node", n.node).field("component", n.component).end_object();
  }
  w.end_array();
  w.key("routes").begin_array();
  for (const ChosenRoute& r : arch.routes) {
    w.begin_object().field("route", r.route_index).field("replica", r.replica);
    w.key("path").begin_array();
    for (const int n : r.path.nodes) w.value(n);
    w.end_array().end_object();
  }
  w.end_array();
  w.number_field("total_cost_usd", arch.total_cost_usd);
  w.number_field("min_lifetime_years", arch.min_lifetime_years);
  w.end_object();
}

void write_tabu_stats(util::obs::JsonWriter& w, const TabuStats& s) {
  w.begin_object()
      .field("iterations", s.iterations)
      .field("evaluations", s.evaluations)
      .field("cache_hits", s.cache_hits)
      .field("restarts", s.restarts)
      .field("moves_reroute", s.moves_reroute)
      .field("moves_swap", s.moves_swap)
      .field("moves_toggle", s.moves_toggle)
      .field("infeasible_evals", s.infeasible_evals)
      .field("aspiration_overrides", s.aspiration_overrides)
      .field("adopted_incumbents", s.adopted_incumbents)
      .end_object();
}

}  // namespace

std::string PortfolioResult::to_json() const {
  util::obs::JsonWriter w;
  w.begin_object();
  w.field("status", milp::to_string(status));
  w.field("termination", util::exec::to_string(termination));
  w.number_field("objective", has_solution() ? objective : milp::kInf);
  w.number_field("bound", bound);
  w.number_field("gap", gap);
  w.field("rungs", rungs);
  w.field("winner", winner);
  w.field("first_member", first_member);
  w.field("certified_by", certified_by);
  w.number_field("first_incumbent_s", first_incumbent_s);
  w.number_field("time_to_proof_s", time_to_proof_s);
  w.number_field("encode_time_s", encode_time_s);
  w.number_field("total_time_s", total_time_s);
  w.field("milp_nodes_total", milp_nodes_total);
  w.key("bound_timeline").begin_array();
  for (const double b : bound_timeline) w.value(b);
  w.end_array();
  w.key("tabu_stats");
  write_tabu_stats(w, tabu_stats);
  w.key("milp_stats").raw(milp_stats.to_json());
  w.key("encode")
      .begin_object()
      .field("num_vars", encode_stats.num_vars)
      .field("num_constrs", encode_stats.num_constrs)
      .field("candidate_paths", encode_stats.candidate_paths)
      .field("lazy_rows_omitted", encode_stats.lazy_rows_omitted)
      .end_object();
  if (has_solution()) {
    w.key("architecture");
    write_architecture(w, architecture);
  } else {
    w.key("architecture").null_value();
  }
  w.end_object();
  return w.take();
}

std::string PortfolioResult::canonical_signature() const {
  // Deterministic fields only: no wall-clock members, no timing-derived
  // telemetry. Doubles go through the writer's shortest-round-trip
  // formatting, so equal values produce equal bytes.
  util::obs::JsonWriter w;
  w.begin_object();
  w.field("status", milp::to_string(status));
  w.field("termination", util::exec::to_string(termination));
  w.number_field("objective", has_solution() ? objective : milp::kInf);
  w.number_field("bound", bound);
  w.number_field("gap", gap);
  w.field("rungs", rungs);
  w.field("winner", winner);
  w.field("first_member", first_member);
  w.field("certified_by", certified_by);
  w.field("milp_nodes_total", milp_nodes_total);
  w.key("bound_timeline").begin_array();
  for (const double b : bound_timeline) w.value(b);
  w.end_array();
  w.key("tabu_stats");
  write_tabu_stats(w, tabu_stats);
  if (has_solution()) {
    w.key("architecture");
    write_architecture(w, architecture);
  } else {
    w.key("architecture").null_value();
  }
  w.end_object();
  return w.take();
}

PortfolioResult PortfolioRunner::run(const PortfolioOptions& opts) const {
  const auto t0 = Clock::now();
  PortfolioResult out;

  // `solver.time_limit_s` is the TOTAL portfolio budget, not a per-rung
  // allowance: one deadline fixed here governs the encoder, every rung's
  // MILP call and the tabu member's evaluations, so a run can never cost
  // max_rungs times the requested limit.
  util::exec::ExecControl spine = opts.solver.exec;
  spine.deadline = spine.deadline.tightened(opts.solver.time_limit_s);

  EncoderOptions eopts = opts.encoder;
  eopts.exec = spine;  // the encoder checkpoints on the spine control
  const EncodedProblem ep = Encoder(*tmpl_, *spec_, eopts).encode();
  out.encode_stats = ep.stats;
  out.encode_time_s = ep.stats.encode_time_s;
  if (ep.stats.termination != util::exec::TerminationReason::kCompleted) {
    out.termination = ep.stats.termination;
    out.total_time_s = seconds_since(t0);
    return out;
  }

  const LazySeparation lazy(*tmpl_, ep);

  TabuOptions topts = opts.tabu;
  topts.exec = spine.worker_view();
  if (!lazy.empty()) topts.separators.push_back(lazy.callback());
  TabuSearch tabu(ep, topts);

  milp::CutPool pool;  // portfolio-owned; only the MILP member touches it

  bool have_inc = false;
  double best_obj = milp::kInf;
  std::vector<double> best_x;
  double global_bound = -milp::kInf;

  const auto merge_incumbent = [&](double obj, const std::vector<double>& x,
                                   const char* member) {
    // Strict improvement only: a tie keeps the earlier holder, so
    // attribution never depends on member finishing order.
    if (have_inc && obj >= best_obj - milp::tol::kObjImprove) return;
    have_inc = true;
    best_obj = obj;
    best_x = x;
    out.winner = member;
    if (out.first_member == "none") {
      out.first_member = member;
      out.first_incumbent_s = seconds_since(t0);
    }
  };

  // Rung 0: tabu alone. Its first evaluation is the fixed-routing probe the
  // plain explorer solves before its root LP, so a feasible instance yields
  // an incumbent here, before any exact tree work starts. The probe is run
  // and merged on its own (run(0)) so the first-incumbent clock stops the
  // moment the greedy evaluation returns, not after a full iteration round.
  if (tabu.runnable()) {
    tabu.run(0);
    if (tabu.has_incumbent()) merge_incumbent(tabu.best_objective(), tabu.best_x(), "tabu");
    tabu.run(opts.tabu_iterations_per_rung);
    if (tabu.has_incumbent()) merge_incumbent(tabu.best_objective(), tabu.best_x(), "tabu");
    out.tabu_stats = tabu.stats();
  }

  const util::ParallelExecutor pexec(opts.threads);

  for (int r = 1; r <= opts.max_rungs; ++r) {
    util::exec::TerminationReason why = util::exec::TerminationReason::kCompleted;
    if (spine.checkpoint(&why)) {
      out.termination = why;
      break;
    }

    milp::SolveOptions mo = opts.solver;
    mo.exec = spine.worker_view();
    mo.node_limit = std::min(opts.solver.node_limit,
                             opts.milp_base_nodes << std::min(r - 1, 30));
    mo.mip_start = best_x;
    mo.cutoff = have_inc ? best_obj : milp::kInf;
    lazy.install(mo);
    mo.cuts.shared_pool = &pool;
    std::vector<double> rung_bounds;  // written only inside the MILP member task
    mo.on_bound_improved = [&rung_bounds](double b) { rung_bounds.push_back(b); };

    // Race the two members. They share no mutable state, so parallel and
    // serial execution produce identical results (determinism contract).
    milp::MipResult mres;
    pexec.for_each(2, [&](int i) {
      if (i == 0) {
        mres = milp::solve(ep.model, mo);
      } else if (tabu.runnable() && !tabu.certified()) {
        tabu.run(opts.tabu_iterations_per_rung);
      }
    });
    ++out.rungs;
    out.milp_stats = mres.stats;
    out.milp_nodes_total += mres.stats.nodes;
    out.tabu_stats = tabu.stats();

    // Serial merge in fixed order: MILP first, then tabu.
    if (mres.has_solution()) merge_incumbent(mres.objective, mres.x, "milp");
    if (tabu.has_incumbent()) merge_incumbent(tabu.best_objective(), tabu.best_x(), "tabu");

    // Bound feedback: rung-local improvements in order, then the member's
    // final bound. With a cutoff and no better solution the MILP's bound is
    // the cutoff itself — "nothing beats the incumbent" is the proof.
    rung_bounds.push_back(mres.bound);
    for (const double b : rung_bounds) {
      if (b > global_bound + milp::tol::kObjImprove && b > -milp::kInf && b < milp::kInf) {
        global_bound = b;
        out.bound_timeline.push_back(b);
      }
    }
    if (tabu.runnable()) {
      if (global_bound > -milp::kInf) tabu.set_aspiration_bound(global_bound);
      if (mres.has_solution()) tabu.adopt_incumbent(mres.x, mres.objective);
      out.tabu_stats = tabu.stats();
    }

    if (mres.status == milp::SolveStatus::kInfeasible && !have_inc) {
      out.status = milp::SolveStatus::kInfeasible;
      out.termination = util::exec::TerminationReason::kInfeasible;
      break;
    }

    const double gap = have_inc ? milp::relative_gap(best_obj, global_bound) : milp::kInf;
    if (have_inc && (mres.status == milp::SolveStatus::kOptimal || gap <= opts.solver.rel_gap)) {
      out.status = milp::SolveStatus::kOptimal;
      out.certified_by = "milp";
      out.time_to_proof_s = seconds_since(t0);
      break;
    }

    // A member hitting the request-level deadline/cancellation ends the
    // race; a node-limit exit just escalates into the next rung.
    if (mres.stats.termination == util::exec::TerminationReason::kDeadline ||
        mres.stats.termination == util::exec::TerminationReason::kCancelled) {
      out.termination = mres.stats.termination;
      break;
    }
    if (tabu.termination() == util::exec::TerminationReason::kDeadline ||
        tabu.termination() == util::exec::TerminationReason::kCancelled) {
      out.termination = tabu.termination();
      break;
    }
  }

  if (out.status != milp::SolveStatus::kOptimal &&
      out.status != milp::SolveStatus::kInfeasible) {
    out.status = have_inc ? milp::SolveStatus::kFeasible : milp::SolveStatus::kNoSolution;
  }
  if (have_inc) {
    out.objective = best_obj;
    out.architecture = decode_solution(ep, *tmpl_, *spec_, best_x);
  }
  out.bound = global_bound;
  out.gap = have_inc ? milp::relative_gap(best_obj, global_bound) : milp::kInf;
  out.total_time_s = seconds_since(t0);
  return out;
}

}  // namespace wnet::archex::meta
