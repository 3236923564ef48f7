#include "core/explorer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "channel/propagation.h"
#include "core/solution.h"
#include "core/workloads/scenarios.h"

namespace wnet::archex {
namespace {

/// A slightly larger fixture than TinyScenario: three sensors on a 50 m
/// floor strip where direct links fail a 35 dB SNR bound, so routing truly
/// passes through relays and the warm-start heuristic has work to do.
class ExplorerScenario : public ::testing::Test {
 protected:
  ExplorerScenario() : model_(2.4e9, 2.4), lib_(make_reference_library()), tmpl_(model_, lib_) {
    tmpl_.add_node({"sink", {50, 5}, Role::kSink, NodeKind::kFixed, std::nullopt});
    for (int i = 0; i < 3; ++i) {
      tmpl_.add_node({"s" + std::to_string(i), {0.0, 2.0 + 3.0 * i}, Role::kSensor,
                      NodeKind::kFixed, std::nullopt});
    }
    for (int i = 0; i < 8; ++i) {
      tmpl_.add_node({"r" + std::to_string(i), {6.0 + 5.5 * i, 2.0 + (i % 3) * 3.0},
                      Role::kRelay, NodeKind::kCandidate, std::nullopt});
    }
    spec_.link_quality.min_snr_db = 35.0;
    spec_.objective = {1.0, 0.0, 0.0};
    for (int i = 0; i < 3; ++i) {
      RouteRequirement r;
      r.source = *tmpl_.find_node("s" + std::to_string(i));
      r.dest = 0;
      spec_.routes.push_back(r);
    }
  }

  channel::LogDistanceModel model_;
  ComponentLibrary lib_;
  NetworkTemplate tmpl_;
  Specification spec_;
};

TEST_F(ExplorerScenario, MultiHopForcedAndVerified) {
  Explorer ex(tmpl_, spec_);
  milp::SolveOptions so;
  so.time_limit_s = 60.0;
  const auto res = ex.explore({}, so);
  ASSERT_TRUE(res.has_solution()) << milp::to_string(res.status);
  // Direct 50 m links cannot meet 35 dB SNR: every route must be multi-hop.
  for (const auto& r : res.architecture.routes) EXPECT_GE(r.path.hops(), 2);
  const auto rep = verify_architecture(res.architecture, tmpl_, spec_);
  EXPECT_TRUE(rep.ok) << (rep.violations.empty() ? "" : rep.violations[0]);
}

TEST_F(ExplorerScenario, StatsArePopulated) {
  Explorer ex(tmpl_, spec_);
  milp::SolveOptions so;
  so.time_limit_s = 60.0;
  const auto res = ex.explore({}, so);
  ASSERT_TRUE(res.has_solution());
  EXPECT_GT(res.encode_stats.num_vars, 0);
  EXPECT_GT(res.encode_stats.num_constrs, 0);
  EXPECT_GT(res.encode_stats.candidate_paths, 0);
  EXPECT_GE(res.total_time_s, res.solve_stats.time_s - 1e-6);
}

TEST_F(ExplorerScenario, SmallerKStarNeverBeatsLarger) {
  Explorer ex(tmpl_, spec_);
  milp::SolveOptions so;
  so.time_limit_s = 60.0;
  EncoderOptions e1;
  e1.k_star = 1;
  EncoderOptions e8;
  e8.k_star = 8;
  const auto r1 = ex.explore(e1, so);
  const auto r8 = ex.explore(e8, so);
  ASSERT_TRUE(r1.has_solution());
  ASSERT_TRUE(r8.has_solution());
  // Candidate pools are nested in spirit: more candidates, no worse optimum
  // (both solved to proven optimality on this small instance).
  if (r1.status == milp::SolveStatus::kOptimal && r8.status == milp::SolveStatus::kOptimal) {
    EXPECT_LE(r8.objective, r1.objective + 1e-6);
  }
}

TEST_F(ExplorerScenario, ExplicitMipStartPassesThrough) {
  // Solve once, feed the resulting variable assignment back as a MIP start
  // with a zero node budget: the incumbent must be at least that good.
  Explorer ex(tmpl_, spec_);
  milp::SolveOptions so;
  so.time_limit_s = 60.0;
  EncoderOptions eo;
  const auto first = ex.explore(eo, so);
  ASSERT_TRUE(first.has_solution());

  Encoder enc(tmpl_, spec_, eo);
  const auto ep = enc.encode();
  const auto direct = milp::solve(ep.model, so);
  ASSERT_TRUE(direct.has_solution());
  milp::SolveOptions limited = so;
  limited.mip_start = direct.x;
  limited.node_limit = 0;
  limited.root_dive = false;
  const auto seeded = milp::solve(ep.model, limited);
  ASSERT_TRUE(seeded.has_solution());
  EXPECT_LE(seeded.objective, direct.objective + 1e-6);
}

TEST_F(ExplorerScenario, RungStartReplacesFixedRoutingProbe) {
  // With no extendable carry, explore_rung warm-starts from `start` when
  // one is given and from the fixed-routing probe otherwise.
  const Explorer ex(tmpl_, spec_);
  milp::SolveOptions so;
  so.time_limit_s = 60.0;
  const EncoderOptions eo;
  const auto rung = [&](Explorer::RungCarry& carry, const Explorer::RungStart& start) {
    IncrementalEncoder session(tmpl_, spec_, eo);
    return ex.explore_rung(session, eo.k_star, carry, so, start);
  };

  Explorer::RungCarry probed_carry;
  const ExplorationResult probed = rung(probed_carry, {});
  ASSERT_TRUE(probed.has_solution());
  EXPECT_TRUE(probed.solve_stats.mip_start_used);

  int calls = 0;
  Explorer::RungCarry cold_carry;
  const ExplorationResult cold =
      rung(cold_carry, [&](const EncodedProblem&, const milp::SolveOptions&) {
        ++calls;
        return std::vector<double>{};
      });
  ASSERT_TRUE(cold.has_solution());
  EXPECT_EQ(calls, 1);
  EXPECT_FALSE(cold.solve_stats.mip_start_used);

  Explorer::RungCarry seeded_carry;
  const ExplorationResult seeded =
      rung(seeded_carry, [&](const EncodedProblem& ep, const milp::SolveOptions&) {
        EXPECT_EQ(ep.model.num_vars(), static_cast<int>(probed_carry.x.size()));
        return probed_carry.x;
      });
  ASSERT_TRUE(seeded.has_solution());
  EXPECT_TRUE(seeded.solve_stats.mip_start_used);
  EXPECT_NEAR(seeded.objective, probed.objective,
              1e-6 * std::max(1.0, std::abs(probed.objective)));
}

TEST_F(ExplorerScenario, NoRoutesMeansLocalizationOnlyStillRuns) {
  Specification loc_spec;
  loc_spec.objective = {1.0, 0.0, 0.0};
  LocalizationRequirement loc;
  loc.min_anchors = 1;
  loc.min_rss_dbm = -80.0;
  loc.eval_points = {{10, 5}, {30, 5}};
  loc_spec.localization = loc;

  // Reuse the template but give relays anchor duty via a dedicated template.
  NetworkTemplate anchors(model_, lib_);
  for (int i = 0; i < 6; ++i) {
    anchors.add_node({"a" + std::to_string(i), {5.0 + 8.0 * i, 5.0}, Role::kAnchor,
                      NodeKind::kCandidate, std::nullopt});
  }
  Explorer ex(anchors, loc_spec);
  const auto res = ex.explore();
  ASSERT_TRUE(res.has_solution()) << milp::to_string(res.status);
  EXPECT_GE(res.architecture.avg_reachable_anchors, 1.0);
  const auto rep = verify_architecture(res.architecture, anchors, loc_spec);
  EXPECT_TRUE(rep.ok) << (rep.violations.empty() ? "" : rep.violations[0]);
}

TEST_F(ExplorerScenario, DsodObjectiveSelectsServingAnchors) {
  Specification loc_spec;
  loc_spec.objective = {0.0, 0.0, 1.0};
  LocalizationRequirement loc;
  loc.min_anchors = 2;
  loc.min_rss_dbm = -80.0;
  loc.eval_points = {{10, 5}, {20, 5}, {30, 5}};
  loc_spec.localization = loc;

  NetworkTemplate anchors(model_, lib_);
  for (int i = 0; i < 8; ++i) {
    anchors.add_node({"a" + std::to_string(i), {4.0 + 6.0 * i, 4.0 + (i % 2)}, Role::kAnchor,
                      NodeKind::kCandidate, std::nullopt});
  }
  Explorer ex(anchors, loc_spec);
  const auto res = ex.explore();
  ASSERT_TRUE(res.has_solution()) << milp::to_string(res.status);
  EXPECT_GT(res.architecture.dsod, 0.0);
  const auto rep = verify_architecture(res.architecture, anchors, loc_spec);
  EXPECT_TRUE(rep.ok) << (rep.violations.empty() ? "" : rep.violations[0]);
}

TEST(ExplorerRegression, Table3Seed15Layout45x15FindsASolution) {
  // The 45x15 scalable layout of the table3_solve benchmark's seed 15,
  // request 17, built as that benchmark builds it (K* = 5, one thread, a
  // 30-node cap). Under largest-violation row selection its root LP ended in
  // numerical trouble on every escalated retry, so the request returned
  // no solution; Devex pricing reaches the root optimum and an incumbent.
  workloads::ScalableConfig cfg;
  cfg.total_nodes = 45;
  cfg.end_devices = 15;
  cfg.seed = 9218119777471263353ULL;
  const auto sc = workloads::make_scalable(cfg);
  EncoderOptions eo;
  eo.k_star = 5;
  eo.threads = 1;
  milp::SolveOptions so;
  so.time_limit_s = 3600.0;
  so.node_limit = 30;
  const auto res = Explorer(*sc->tmpl, sc->spec).explore(eo, so);
  ASSERT_TRUE(res.has_solution()) << milp::to_string(res.status) << " / "
                                  << util::exec::to_string(res.termination);
  EXPECT_EQ(res.solve_stats.numerical_failures, 0);
  const auto rep = verify_architecture(res.architecture, *sc->tmpl, sc->spec);
  EXPECT_TRUE(rep.ok) << (rep.violations.empty() ? "" : rep.violations[0]);
}

}  // namespace
}  // namespace wnet::archex
