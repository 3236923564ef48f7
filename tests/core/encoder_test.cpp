#include "core/encode/encoder.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "channel/propagation.h"
#include "core/explorer.h"
#include "core/solution.h"
#include "core/workloads/scenarios.h"
#include "milp/solver.h"

namespace wnet::archex {
namespace {

/// Tiny deterministic test bed: two sensors, one sink, four relay
/// candidates in a 30 x 20 m free-space arena. Small enough for the full
/// encoding to solve fast, rich enough to need relays when LQ is strict.
class TinyScenario : public ::testing::Test {
 protected:
  TinyScenario() : model_(2.4e9, 2.0), lib_(make_reference_library()), tmpl_(model_, lib_) {
    tmpl_.add_node({"s0", {0, 10}, Role::kSensor, NodeKind::kFixed, std::nullopt});
    tmpl_.add_node({"s1", {10, 0}, Role::kSensor, NodeKind::kFixed, std::nullopt});
    tmpl_.add_node({"sink", {30, 10}, Role::kSink, NodeKind::kFixed, std::nullopt});
    tmpl_.add_node({"r0", {10, 10}, Role::kRelay, NodeKind::kCandidate, std::nullopt});
    tmpl_.add_node({"r1", {20, 10}, Role::kRelay, NodeKind::kCandidate, std::nullopt});
    tmpl_.add_node({"r2", {15, 5}, Role::kRelay, NodeKind::kCandidate, std::nullopt});
    tmpl_.add_node({"r3", {20, 16}, Role::kRelay, NodeKind::kCandidate, std::nullopt});

    spec_.radio.noise_floor_dbm = -100.0;
    spec_.objective = {1.0, 0.0, 0.0};
    for (const char* s : {"s0", "s1"}) {
      RouteRequirement r;
      r.source = *tmpl_.find_node(s);
      r.dest = *tmpl_.find_node("sink");
      r.replicas = 1;
      spec_.routes.push_back(r);
    }
  }

  ExplorationResult run(EncoderOptions::PathMode mode, int k = 5) {
    EncoderOptions eo;
    eo.mode = mode;
    eo.k_star = k;
    milp::SolveOptions so;
    so.time_limit_s = 60.0;
    Explorer ex(tmpl_, spec_);
    return ex.explore(eo, so);
  }

  channel::LogDistanceModel model_;
  ComponentLibrary lib_;
  NetworkTemplate tmpl_;
  Specification spec_;
};

TEST_F(TinyScenario, ApproxSolvesAndVerifies) {
  spec_.link_quality.min_snr_db = 20.0;
  const auto res = run(EncoderOptions::PathMode::kApprox);
  ASSERT_TRUE(res.has_solution()) << to_string(res.status);
  const auto rep = verify_architecture(res.architecture, tmpl_, spec_);
  EXPECT_TRUE(rep.ok) << (rep.violations.empty() ? "" : rep.violations[0]);
  EXPECT_EQ(res.architecture.routes.size(), 2u);
}

TEST_F(TinyScenario, FullSolvesAndVerifies) {
  spec_.link_quality.min_snr_db = 20.0;
  const auto res = run(EncoderOptions::PathMode::kFull);
  ASSERT_TRUE(res.has_solution()) << to_string(res.status);
  const auto rep = verify_architecture(res.architecture, tmpl_, spec_);
  EXPECT_TRUE(rep.ok) << (rep.violations.empty() ? "" : rep.violations[0]);
}

TEST_F(TinyScenario, FullAndApproxAgreeOnOptimalCost) {
  spec_.link_quality.min_snr_db = 20.0;
  const auto full = run(EncoderOptions::PathMode::kFull);
  const auto approx = run(EncoderOptions::PathMode::kApprox, 8);
  ASSERT_TRUE(full.has_solution());
  ASSERT_TRUE(approx.has_solution());
  // The approximation can only lose candidates, never gain: approx >= full,
  // and on this tiny instance the Yen pool covers the optimum.
  EXPECT_GE(approx.objective, full.objective - 1e-6);
  EXPECT_NEAR(approx.objective, full.objective, 1e-6);
}

TEST_F(TinyScenario, ApproxProblemIsSmaller) {
  spec_.link_quality.min_snr_db = 20.0;
  Encoder full(tmpl_, spec_, {EncoderOptions::PathMode::kFull, 5, 20, true});
  Encoder approx(tmpl_, spec_, {EncoderOptions::PathMode::kApprox, 5, 20, true});
  const auto fs = full.encode().stats;
  const auto as = approx.encode().stats;
  EXPECT_LT(as.num_constrs, fs.num_constrs);
  EXPECT_LT(as.num_vars, fs.num_vars);
}

TEST_F(TinyScenario, StrictLqForcesStrongerOrMoreHardware) {
  spec_.link_quality.min_snr_db = 20.0;
  const double relaxed = run(EncoderOptions::PathMode::kApprox).objective;
  spec_.link_quality.min_snr_db = 45.0;  // forces short hops / strong parts
  const auto strict = run(EncoderOptions::PathMode::kApprox);
  ASSERT_TRUE(strict.has_solution()) << to_string(strict.status);
  EXPECT_GE(strict.objective, relaxed - 1e-9);
  const auto rep = verify_architecture(strict.architecture, tmpl_, spec_);
  EXPECT_TRUE(rep.ok) << (rep.violations.empty() ? "" : rep.violations[0]);
}

TEST_F(TinyScenario, DisjointReplicasAreEdgeDisjoint) {
  spec_.link_quality.min_snr_db = 20.0;
  spec_.routes[0].replicas = 2;
  const auto res = run(EncoderOptions::PathMode::kApprox, 8);
  ASSERT_TRUE(res.has_solution()) << to_string(res.status);
  const auto rep = verify_architecture(res.architecture, tmpl_, spec_);
  EXPECT_TRUE(rep.ok) << (rep.violations.empty() ? "" : rep.violations[0]);
  // Three chosen routes in total (2 + 1).
  EXPECT_EQ(res.architecture.routes.size(), 3u);
}

TEST_F(TinyScenario, MaxHopsHonored) {
  spec_.link_quality.min_snr_db = 20.0;
  spec_.routes[0].max_hops = 2;
  spec_.routes[1].max_hops = 2;
  const auto res = run(EncoderOptions::PathMode::kApprox, 8);
  ASSERT_TRUE(res.has_solution()) << to_string(res.status);
  for (const auto& r : res.architecture.routes) {
    EXPECT_LE(r.path.hops(), 2);
  }
}

TEST_F(TinyScenario, InfeasibleLqReportedInfeasible) {
  spec_.link_quality.min_rss_dbm = 10.0;  // beyond any EIRP at any distance
  const auto res = run(EncoderOptions::PathMode::kApprox);
  EXPECT_FALSE(res.has_solution());
}

TEST_F(TinyScenario, LifetimeRequirementSatisfiedAndVerified) {
  spec_.link_quality.min_snr_db = 20.0;
  spec_.lifetime = LifetimeRequirement{5.0, 3000.0};
  const auto res = run(EncoderOptions::PathMode::kApprox);
  ASSERT_TRUE(res.has_solution()) << to_string(res.status);
  EXPECT_GE(res.architecture.min_lifetime_years, 5.0 - 1e-6);
  const auto rep = verify_architecture(res.architecture, tmpl_, spec_);
  EXPECT_TRUE(rep.ok) << (rep.violations.empty() ? "" : rep.violations[0]);
}

TEST_F(TinyScenario, EnergyObjectivePrefersLowPowerParts) {
  spec_.link_quality.min_snr_db = 20.0;
  spec_.lifetime = LifetimeRequirement{1.0, 3000.0};
  spec_.objective = {1.0, 0.0, 0.0};
  const auto cost_run = run(EncoderOptions::PathMode::kApprox);
  spec_.objective = {0.0, 1.0, 0.0};
  const auto energy_run = run(EncoderOptions::PathMode::kApprox);
  ASSERT_TRUE(cost_run.has_solution());
  ASSERT_TRUE(energy_run.has_solution());
  // Optimizing energy cannot consume more charge than optimizing cost, and
  // the $-optimal design cannot cost more than the energy-optimal one.
  EXPECT_LE(energy_run.architecture.total_charge_per_cycle_mas,
            cost_run.architecture.total_charge_per_cycle_mas + 1e-9);
  EXPECT_LE(cost_run.architecture.total_cost_usd,
            energy_run.architecture.total_cost_usd + 1e-9);
}

TEST_F(TinyScenario, KStarSearchImprovesOrStops) {
  spec_.link_quality.min_snr_db = 20.0;
  Explorer ex(tmpl_, spec_);
  Explorer::KStarSearchOptions ko;
  ko.ladder = {1, 3, 5};
  milp::SolveOptions so;
  so.time_limit_s = 30.0;
  const auto sr = ex.search_k_star(ko, {}, so);
  ASSERT_GT(sr.chosen_k, 0);
  ASSERT_TRUE(sr.best.has_solution());
  // Objective along the trace is non-increasing wherever solved.
  double prev = milp::kInf;
  for (const auto& [k, r] : sr.trace) {
    if (r.has_solution()) {
      EXPECT_LE(r.objective, prev + 1e-6);
      prev = r.objective;
    }
  }
}

TEST_F(TinyScenario, EstimatorTracksRealFullEncoding) {
  spec_.link_quality.min_snr_db = 20.0;
  Encoder full(tmpl_, spec_, {EncoderOptions::PathMode::kFull, 5, 20, true});
  const auto real = full.encode().stats;
  const auto est = full.estimate_full_stats();
  // The estimator mirrors the emitters analytically; allow a small slack
  // for data-dependent skips (empty balance rows, redundant implications).
  EXPECT_NEAR(est.num_vars, real.num_vars, 0.15 * real.num_vars);
  EXPECT_NEAR(est.num_constrs, real.num_constrs, 0.15 * real.num_constrs);
}

TEST_F(TinyScenario, DecodeReportsActiveLinksWithSaneRss) {
  spec_.link_quality.min_snr_db = 20.0;
  const auto res = run(EncoderOptions::PathMode::kApprox);
  ASSERT_TRUE(res.has_solution());
  ASSERT_FALSE(res.architecture.links.empty());
  for (const auto& l : res.architecture.links) {
    EXPECT_GE(l.rss_dbm, -80.0 - 1e-6);  // floor = SNR 20 + noise -100
    EXPECT_LE(l.rss_dbm, 10.0);
  }
}

TEST_F(TinyScenario, RouteEndpointOutsideTemplateThrows) {
  const int n = tmpl_.num_nodes();
  const int sink = *tmpl_.find_node("sink");
  const std::vector<std::pair<int, int>> outside{{-1, sink}, {n, sink}, {0, -1}, {0, n}};
  for (const auto& [src, dst] : outside) {
    SCOPED_TRACE("route " + std::to_string(src) + " -> " + std::to_string(dst));
    Specification bad = spec_;
    bad.routes[1].source = src;
    bad.routes[1].dest = dst;
    EXPECT_THROW(Encoder(tmpl_, bad), std::out_of_range);
    EXPECT_THROW(IncrementalEncoder(tmpl_, bad, {}), std::out_of_range);
    const Explorer ex(tmpl_, bad);
    EXPECT_THROW((void)ex.explore(), std::out_of_range);
  }
}

/// A control whose deadline has already passed: the first checkpoint it
/// sees stops the work.
util::exec::ExecControl expired_control() {
  util::exec::ExecControl c;
  c.deadline = util::exec::Deadline::after(0.0);
  return c;
}

void expect_same_size(const EncodedProblem& got, const EncodedProblem& want) {
  EXPECT_EQ(got.stats.termination, util::exec::TerminationReason::kCompleted);
  EXPECT_EQ(got.stats.num_vars, want.stats.num_vars);
  EXPECT_EQ(got.stats.num_constrs, want.stats.num_constrs);
  EXPECT_EQ(got.stats.nonzeros, want.stats.nonzeros);
  EXPECT_EQ(got.stats.candidate_paths, want.stats.candidate_paths);
}

// A cached session outlives the request that stopped it: a stop at
// encode_k's entry checkpoint marks that one call's result, and the next
// request, under its own live control, is served from the standing model.
TEST(IncrementalEncoderStop, EntryStopMarksOnlyThatCall) {
  workloads::ScalableConfig cfg;
  cfg.total_nodes = 30;
  cfg.end_devices = 10;
  const auto sc = workloads::make_scalable(cfg);
  const Explorer ex(*sc->tmpl, sc->spec);
  IncrementalEncoder session(*sc->tmpl, sc->spec, EncoderOptions{});
  Explorer::RungCarry carry;
  milp::SolveOptions so;
  so.time_limit_s = 120.0;
  ASSERT_EQ(ex.explore_rung(session, 1, carry, so).termination,
            util::exec::TerminationReason::kCompleted);

  milp::SolveOptions stopped = so;
  stopped.exec = expired_control();
  session.set_exec(stopped.exec);
  const ExplorationResult cut = ex.explore_rung(session, 3, carry, stopped);
  EXPECT_EQ(cut.termination, util::exec::TerminationReason::kDeadline);
  EXPECT_FALSE(cut.has_solution());

  session.set_exec(so.exec);
  for (const int k : {3, 5}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    const ExplorationResult r = ex.explore_rung(session, k, carry, so);
    EXPECT_EQ(r.termination, util::exec::TerminationReason::kCompleted);
    EXPECT_TRUE(r.has_solution()) << milp::to_string(r.status);
    EncoderOptions fresh;
    fresh.k_star = k;
    expect_same_size(session.problem(), Encoder(*sc->tmpl, sc->spec, fresh).encode());
  }
}

// A stop inside the first build leaves a partial model (the remaining
// phases were skipped). The next encode_k must rebuild it, never hand the
// partial model back or delta-extend it.
TEST(IncrementalEncoderStop, StoppedBuildIsRebuilt) {
  workloads::ScalableConfig cfg;
  cfg.total_nodes = 30;
  cfg.end_devices = 10;
  const auto sc = workloads::make_scalable(cfg);
  EncoderOptions base;
  base.exec = expired_control();
  IncrementalEncoder session(*sc->tmpl, sc->spec, base);
  ASSERT_EQ(session.encode_k(3).stats.termination, util::exec::TerminationReason::kDeadline);

  session.set_exec({});
  for (const int k : {3, 5}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    const EncodedProblem& ep = session.encode_k(k);
    EncoderOptions fresh;
    fresh.k_star = k;
    expect_same_size(ep, Encoder(*sc->tmpl, sc->spec, fresh).encode());
  }
}

}  // namespace
}  // namespace wnet::archex
