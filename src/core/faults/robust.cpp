// Counterexample-guided robust exploration: Explorer::explore_robust.
//
// The loop alternates synthesis and falsification. Each iteration is one
// Explorer::explore_rung on a single IncrementalEncoder session: it encodes
// the (possibly hardened) specification, solves with a repair warm start
// (fixed_routing_start seeded from the previous architecture and the
// hardenings so far), and decodes. The loop then replays
// the deterministic fault campaign against the result and folds every
// failure back into the session as hardening constraints:
//
//   node failure / link cut that broke route r  ->  kAvoid(r, failed set)
//   fading draw that sank links below the floor ->  kMargin(links, shortfall)
//
// When the hardened model turns infeasible (no candidate can dodge the
// failed set), the loop raises the broken routes' replica counts — bounded
// by max_extra_replicas — and retries. It stops on a fully passing
// campaign, on budget exhaustion, or when counterexamples stop being new,
// and always returns the best architecture seen (pass rate, then cost).

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "core/explorer.h"
#include "core/faults/campaign.h"
#include "core/faults/fault_model.h"
#include "util/obs/trace.h"
#include "util/stopwatch.h"

namespace wnet::archex {

namespace {

/// Stable identity of a hardening, for the cross-iteration dedupe set.
std::string hardening_key(const HardeningConstraint& h) {
  std::ostringstream os;
  os << (h.kind == HardeningConstraint::Kind::kAvoid ? "A" : "M") << h.route_index << ":";
  for (int v : h.nodes) os << "n" << v;
  for (const auto& [a, b] : h.links) os << "l" << a << "-" << b;
  return os.str();
}

/// Turns one campaign's failures into hardening constraints. Structural
/// failures become per-route avoidance demands; fading failures become
/// link margins sized to the observed shortfall plus 1 dB of slack (the
/// encoder keeps the max margin per link, so repeats only tighten).
std::vector<HardeningConstraint> derive_hardenings(const faults::CampaignReport& report) {
  std::vector<HardeningConstraint> out;
  for (const faults::ScenarioOutcome* o : report.failures()) {
    if (o->scenario.kind == faults::FaultKind::kFading) {
      if (o->weak_links.empty()) continue;
      HardeningConstraint h;
      h.kind = HardeningConstraint::Kind::kMargin;
      h.links = o->weak_links;
      h.margin_db = std::ceil(o->worst_shortfall_db) + 1.0;
      out.push_back(std::move(h));
      continue;
    }
    for (int ri : o->broken_routes) {
      HardeningConstraint h;
      h.kind = HardeningConstraint::Kind::kAvoid;
      h.route_index = ri;
      h.nodes = o->scenario.failed_nodes;
      h.links = o->scenario.cut_links;
      out.push_back(std::move(h));
    }
  }
  return out;
}

}  // namespace

Explorer::RobustExplorationResult Explorer::explore_robust(
    const RobustExploreOptions& ropts) const {
  util::Stopwatch clock;
  RobustExplorationResult out;

  // One request control for the whole loop: the caller's exec, its deadline
  // tightened to time_budget_s from entry. The serial spine (this loop, the
  // encoder phases, the solver node loop) checkpoints on it; the campaign's
  // scenario workers get a poll-only view.
  using util::exec::TerminationReason;
  const util::exec::ExecControl ec = ropts.solver.exec.tightened(ropts.time_budget_s);

  EncoderOptions eopts = ropts.encoder;
  eopts.threads = std::max(eopts.threads, ropts.threads);
  eopts.exec = ec;
  Specification spec = *spec_;  // mutable: repair may raise replica counts
  std::vector<int> extra(spec.routes.size(), 0);
  const faults::FaultModel fmodel(*tmpl_, spec, ropts.faults);
  faults::CampaignOptions copts;
  copts.threads = ropts.threads;
  copts.exec = ec;

  std::set<std::string> seen;
  for (const auto& h : eopts.hardening) seen.insert(hardening_key(h));

  // One encoding session across iterations: the common repair step — fold
  // kAvoid hardenings back in — appends rows to the standing model instead
  // of re-running Yen and rebuilding. kMargin hardenings (which retune the
  // LQ prefilter), replica raises and kFull mode rebuild transparently on
  // the next encode. `hardened` decodes against the mutable spec copy.
  IncrementalEncoder session(*tmpl_, spec, eopts);
  const Explorer hardened(*tmpl_, spec);

  // Raises N_rep on every listed route still under the extra-replica cap;
  // returns false when no route can be raised any further.
  const auto raise_replicas = [&](const std::set<int>& routes) {
    bool any = false;
    for (int ri : routes) {
      if (ri < 0 || ri >= static_cast<int>(spec.routes.size())) continue;
      if (extra[static_cast<size_t>(ri)] >= ropts.max_extra_replicas) continue;
      ++extra[static_cast<size_t>(ri)];
      ++spec.routes[static_cast<size_t>(ri)].replicas;
      out.raised_routes.push_back(ri);
      any = true;
    }
    if (any) session.invalidate();  // spec changed out of band
    return any;
  };

  double best_rate = -1.0;
  NetworkArchitecture prev_arch;
  bool have_prev = false;
  std::set<int> prev_broken;

  for (int iter = 0; iter < ropts.max_repair_iterations; ++iter) {
    // Spine checkpoint per repair iteration. The first iteration still runs
    // on a merely-expired deadline (a tiny budget still produces one
    // attempt, whose solver stops on its own deadline), but a cancelled
    // token stops even before it.
    TerminationReason why = TerminationReason::kCompleted;
    if (ec.checkpoint(&why) && (iter > 0 || why == TerminationReason::kCancelled)) {
      out.termination = why;
      break;
    }
    const double remaining = std::max(0.0, ec.deadline.remaining_s());
    out.iterations = iter + 1;
    util::obs::ScopedSpan iter_span("robust/iteration", "robust");
    iter_span.arg("iter", iter);
    iter_span.arg("hardenings", static_cast<double>(eopts.hardening.size()));

    milp::SolveOptions sopts = ropts.solver;
    sopts.exec = ec;
    // True remaining budget, not the old 1s floor that granted time past
    // exhaustion; the solver itself reports kDeadline at zero.
    sopts.time_limit_s = std::min(sopts.time_limit_s, remaining);

    // No carry: after a hardening fold, a replica raise or a rebuild the
    // previous assignment never extends, and a hardened optimum may
    // legitimately be worse than its predecessor, so no cutoff either. The
    // repair start runs after the lazy separators are installed, so its
    // restricted solve is gated by the same lazy constraints.
    RungCarry carry;
    ExplorationResult er = hardened.explore_rung(
        session, eopts.k_star, carry, sopts,
        [&](const EncodedProblem& ep, const milp::SolveOptions& so) {
          return have_prev ? fixed_routing_start(ep, so, prev_arch, eopts.hardening)
                           : std::vector<double>{};
        });

    if (!er.has_solution() && util::exec::stopped_by_control(er.termination)) {
      // The encoder or the solver was stopped, not defeated: an empty
      // result here says nothing about feasibility (and a partial model
      // is never solved), so do NOT escalate replicas off it.
      out.termination = er.termination;
      break;
    }
    if (!er.has_solution()) {
      // Hardened model is infeasible: no candidate set can dodge the failed
      // elements at the current redundancy. Raise N_rep on the hardened
      // routes and re-encode; if nothing can be raised, settle for the
      // best architecture found so far.
      std::set<int> targets;
      for (const auto& h : eopts.hardening) {
        if (h.kind == HardeningConstraint::Kind::kAvoid) targets.insert(h.route_index);
      }
      if (!raise_replicas(targets)) break;
      continue;
    }

    const auto report = faults::CampaignRunner(*tmpl_, spec, copts)
                            .run(er.architecture, fmodel.scenarios(er.architecture));
    const double rate = report.pass_rate();
    if (rate > best_rate + 1e-12 ||
        (rate > best_rate - 1e-12 && out.best.has_solution() &&
         er.objective < out.best.objective - 1e-9) ||
        !out.best.has_solution()) {
      best_rate = rate;
      out.report = report;
      prev_arch = er.architecture;
      out.best = std::move(er);
      have_prev = true;
    }
    if (report.termination != TerminationReason::kCompleted) {
      // Stopped campaign: unreplayed scenarios produce no failures, so the
      // hardening derivation below would see "nothing left to fix" and end
      // the loop as if it had converged. Surface the real reason instead.
      out.termination = report.termination;
      break;
    }
    if (report.all_passed()) {
      out.robust = true;
      break;
    }

    // Fold fresh counterexamples into the encoder; when every failure has
    // already been hardened against (the model simply cannot satisfy
    // them), escalate to more replicas on the still-broken routes.
    std::set<int> broken;
    for (const faults::ScenarioOutcome* o : report.failures()) {
      broken.insert(o->broken_routes.begin(), o->broken_routes.end());
    }
    std::vector<HardeningConstraint> fresh;
    for (auto& h : derive_hardenings(report)) {
      if (seen.insert(hardening_key(h)).second) fresh.push_back(std::move(h));
    }
    if (fresh.empty()) {
      if (!raise_replicas(broken)) break;
      prev_broken = std::move(broken);
      continue;
    }
    out.hardenings_applied += static_cast<int>(fresh.size());
    session.append_hardenings(fresh);  // kAvoid appends in place
    for (auto& h : fresh) eopts.hardening.push_back(std::move(h));

    // A route that keeps failing across consecutive iterations is chasing
    // its tail — each repair just shifts the single point of failure
    // somewhere new. Avoidance alone will not converge there; add
    // redundancy right away instead of exhausting the iteration budget.
    std::set<int> repeat_broken;
    for (int ri : broken) {
      if (prev_broken.count(ri) != 0) repeat_broken.insert(ri);
    }
    if (!repeat_broken.empty()) raise_replicas(repeat_broken);
    prev_broken = std::move(broken);
  }

  out.total_time_s = clock.seconds();
  return out;
}

}  // namespace wnet::archex
