#include "core/faults/campaign.h"
#include "core/faults/fault_model.h"

#include <gtest/gtest.h>

#include <string>

#include "channel/propagation.h"
#include "core/explorer.h"

namespace wnet::archex {
namespace {

// Same two-corridor geometry as resilience_test: a sensor and a sink
// bridged by two parallel rows of three candidate relays.
class FaultCampaign : public ::testing::Test {
 protected:
  FaultCampaign() : model_(2.4e9, 2.2), lib_(make_reference_library()), tmpl_(model_, lib_) {
    tmpl_.add_node({"s0", {0, 5}, Role::kSensor, NodeKind::kFixed, std::nullopt});
    tmpl_.add_node({"sink", {40, 5}, Role::kSink, NodeKind::kFixed, std::nullopt});
    for (int i = 0; i < 3; ++i) {
      tmpl_.add_node({"ra" + std::to_string(i), {10.0 * (i + 1), 2.0}, Role::kRelay,
                      NodeKind::kCandidate, std::nullopt});
      tmpl_.add_node({"rb" + std::to_string(i), {10.0 * (i + 1), 8.0}, Role::kRelay,
                      NodeKind::kCandidate, std::nullopt});
    }
    spec_.link_quality.min_snr_db = 32.0;
    spec_.objective = {1.0, 0.0, 0.0};
    RouteRequirement r;
    r.source = 0;
    r.dest = 1;
    r.replicas = 1;
    spec_.routes.push_back(r);
  }

  channel::LogDistanceModel model_;
  ComponentLibrary lib_;
  NetworkTemplate tmpl_;
  Specification spec_;
};

TEST(ShadowingModel, DeterministicSymmetricAndSeeded) {
  const channel::LogDistanceModel base(2.4e9, 2.2);
  const geom::Vec2 a{1.0, 2.0};
  const geom::Vec2 b{15.0, 7.0};

  const channel::ShadowingModel s1(base, 4.0, 42);
  const channel::ShadowingModel s2(base, 4.0, 42);
  const channel::ShadowingModel s3(base, 4.0, 43);

  // Same seed: identical realization. The offset is a pure function of the
  // endpoint pair, so the channel stays symmetric.
  EXPECT_DOUBLE_EQ(s1.path_loss_db(a, b), s2.path_loss_db(a, b));
  EXPECT_DOUBLE_EQ(s1.path_loss_db(a, b), s1.path_loss_db(b, a));
  // Different seed: a different draw (with overwhelming probability).
  EXPECT_NE(s1.path_loss_db(a, b), s3.path_loss_db(a, b));
  // Zero sigma degenerates to the base model exactly.
  const channel::ShadowingModel s0(base, 0.0, 42);
  EXPECT_DOUBLE_EQ(s0.path_loss_db(a, b), base.path_loss_db(a, b));
  // Nonzero sigma perturbs the loss.
  EXPECT_NE(s1.path_loss_db(a, b), base.path_loss_db(a, b));
}

TEST_F(FaultCampaign, ScenarioGenerationIsDeterministic) {
  NetworkArchitecture arch;
  for (int v : {2, 3, 4, 5, 6, 7}) arch.nodes.push_back({v, 0});
  ChosenRoute r;
  r.route_index = 0;
  r.path.nodes = {0, 2, 4, 6, 1};
  arch.routes.push_back(r);

  faults::FaultModelConfig cfg;
  cfg.seed = 7;
  cfg.fading_draws = 16;
  const faults::FaultModel fm(tmpl_, spec_, cfg);
  const auto s1 = fm.scenarios(arch);
  const auto s2 = fm.scenarios(arch);

  ASSERT_EQ(s1.size(), s2.size());
  ASSERT_FALSE(s1.empty());
  bool saw_fading = false;
  for (size_t i = 0; i < s1.size(); ++i) {
    EXPECT_EQ(s1[i].id, s2[i].id);
    EXPECT_EQ(s1[i].kind, s2[i].kind);
    EXPECT_EQ(s1[i].failed_nodes, s2[i].failed_nodes);
    EXPECT_EQ(s1[i].cut_links, s2[i].cut_links);
    EXPECT_EQ(s1[i].fading_seed, s2[i].fading_seed);
    saw_fading |= s1[i].kind == faults::FaultKind::kFading;
  }
  EXPECT_TRUE(saw_fading);  // spec has an LQ floor, so draws must appear

  // A different campaign seed reshuffles the fading realizations.
  cfg.seed = 8;
  const auto s3 = faults::FaultModel(tmpl_, spec_, cfg).scenarios(arch);
  ASSERT_EQ(s3.size(), s1.size());
  bool any_diff = false;
  for (size_t i = 0; i < s1.size(); ++i) any_diff |= s1[i].fading_seed != s3[i].fading_seed;
  EXPECT_TRUE(any_diff);
}

TEST_F(FaultCampaign, ReportJsonIsMachineReadable) {
  NetworkArchitecture arch;
  for (int v : {2, 4, 6}) arch.nodes.push_back({v, 0});
  ChosenRoute r;
  r.route_index = 0;
  r.path.nodes = {0, 2, 4, 6, 1};
  arch.routes.push_back(r);

  faults::FaultModelConfig cfg;
  cfg.link_cuts = false;
  cfg.fading_draws = 0;
  const faults::FaultModel fm(tmpl_, spec_, cfg);
  const auto rep = faults::run_campaign(arch, tmpl_, spec_, fm.scenarios(arch));

  // A lone replica over three relays: every single failure breaks it.
  EXPECT_EQ(rep.pass_rate(), 0.0);
  EXPECT_EQ(rep.broken_per_route(1), std::vector<int>{rep.total()});

  const std::string json = rep.to_json();
  EXPECT_NE(json.find("\"total\": " + std::to_string(rep.total())), std::string::npos);
  EXPECT_NE(json.find("\"by_kind\""), std::string::npos);
  EXPECT_NE(json.find("\"node\""), std::string::npos);
  EXPECT_NE(json.find("\"failures\""), std::string::npos);
  EXPECT_NE(json.find("\"broken_routes\": [0]"), std::string::npos);
}

TEST_F(FaultCampaign, ExploreRobustRepairsSingleFailuresDeterministically) {
  // One replica cannot survive single relay deaths; the repair loop must
  // discover that via counterexamples, raise N_rep, and land on disjoint
  // replicas that pass the whole (k=1, link cuts, fading) campaign.
  const Explorer ex(tmpl_, spec_);
  Explorer::RobustExploreOptions ro;
  ro.encoder.k_star = 8;
  ro.solver.time_limit_s = 30.0;
  ro.faults.seed = 3;
  ro.faults.max_simultaneous_failures = 1;
  ro.faults.fading_draws = 25;
  ro.faults.fading_sigma_db = 2.0;
  ro.time_budget_s = 120.0;
  ro.max_repair_iterations = 8;

  const auto r1 = ex.explore_robust(ro);
  ASSERT_TRUE(r1.best.has_solution());
  EXPECT_GT(r1.iterations, 1);
  EXPECT_GT(r1.hardenings_applied, 0);
  EXPECT_TRUE(r1.robust) << r1.report.to_json();
  EXPECT_EQ(r1.raised_routes, std::vector<int>{0});
  EXPECT_GE(r1.best.architecture.routes.size(), 2u);
  EXPECT_TRUE(verify_architecture(r1.best.architecture, tmpl_, spec_).ok);

  // Fixed seed => bit-identical reruns: same loop trajectory, same report.
  const auto r2 = ex.explore_robust(ro);
  EXPECT_EQ(r1.iterations, r2.iterations);
  EXPECT_EQ(r1.robust, r2.robust);
  EXPECT_EQ(r1.hardenings_applied, r2.hardenings_applied);
  EXPECT_DOUBLE_EQ(r1.best.objective, r2.best.objective);
  EXPECT_EQ(r1.report.to_json(), r2.report.to_json());
}

TEST_F(FaultCampaign, ExploreRobustFullModeRunsOnTheSession) {
  // The exact flow encoding has no candidate set to reuse: the repair
  // loop's session rebuilds on every encode, and the loop must still land
  // on a verified architecture and rerun bit-identically.
  const Explorer ex(tmpl_, spec_);
  Explorer::RobustExploreOptions ro;
  ro.encoder.mode = EncoderOptions::PathMode::kFull;
  ro.solver.time_limit_s = 30.0;
  ro.faults.seed = 3;
  ro.faults.max_simultaneous_failures = 1;
  ro.faults.fading_draws = 8;
  ro.faults.fading_sigma_db = 2.0;
  ro.time_budget_s = 120.0;
  ro.max_repair_iterations = 4;

  const auto r1 = ex.explore_robust(ro);
  ASSERT_TRUE(r1.best.has_solution());
  EXPECT_EQ(r1.termination, util::exec::TerminationReason::kCompleted);
  EXPECT_TRUE(verify_architecture(r1.best.architecture, tmpl_, spec_).ok);
  EXPECT_EQ(r1.best.encode_stats.reused_candidates, 0);
  EXPECT_GT(r1.iterations, 1);  // at least one rebuild after a hardening fold

  const auto r2 = ex.explore_robust(ro);
  EXPECT_EQ(r1.iterations, r2.iterations);
  EXPECT_EQ(r1.robust, r2.robust);
  EXPECT_EQ(r1.best.objective, r2.best.objective);
  EXPECT_EQ(r1.report.to_json(), r2.report.to_json());
}

}  // namespace
}  // namespace wnet::archex
