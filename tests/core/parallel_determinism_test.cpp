// The determinism contract of the parallel exploration engine: for ANY
// worker count, Explorer::explore, Explorer::search_k_star,
// Explorer::explore_robust and faults::CampaignRunner must produce results
// byte-identical to the serial run — same objectives, same architectures,
// same JSON reports. These tests pin that promise for 1/2/4/8 threads
// (exact double comparisons are deliberate: "identical", not "close").
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "channel/propagation.h"
#include "core/explorer.h"
#include "core/faults/campaign.h"
#include "core/faults/fault_model.h"

namespace wnet::archex {
namespace {

/// Multi-route fixture: three sensors crossing a relay field, so encoder
/// candidate generation actually has per-route batches to fan out.
class ParallelDeterminism : public ::testing::Test {
 protected:
  ParallelDeterminism() : model_(2.4e9, 2.4), lib_(make_reference_library()), tmpl_(model_, lib_) {
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

  static void expect_same_architecture(const NetworkArchitecture& a,
                                       const NetworkArchitecture& b) {
    ASSERT_EQ(a.nodes.size(), b.nodes.size());
    for (size_t i = 0; i < a.nodes.size(); ++i) {
      EXPECT_EQ(a.nodes[i].node, b.nodes[i].node);
      EXPECT_EQ(a.nodes[i].component, b.nodes[i].component);
    }
    ASSERT_EQ(a.routes.size(), b.routes.size());
    for (size_t i = 0; i < a.routes.size(); ++i) {
      EXPECT_EQ(a.routes[i].route_index, b.routes[i].route_index);
      EXPECT_EQ(a.routes[i].replica, b.routes[i].replica);
      EXPECT_EQ(a.routes[i].path.nodes, b.routes[i].path.nodes);
    }
    EXPECT_EQ(a.total_cost_usd, b.total_cost_usd);  // exact, not approximate
  }

  channel::LogDistanceModel model_;
  ComponentLibrary lib_;
  NetworkTemplate tmpl_;
  Specification spec_;
};

TEST_F(ParallelDeterminism, ExploreIsThreadCountInvariant) {
  const Explorer ex(tmpl_, spec_);
  milp::SolveOptions so;
  so.time_limit_s = 60.0;

  EncoderOptions serial;
  serial.k_star = 6;
  const auto base = ex.explore(serial, so);
  ASSERT_TRUE(base.has_solution()) << milp::to_string(base.status);

  for (int threads : {2, 4, 8}) {
    EncoderOptions eo = serial;
    eo.threads = threads;
    const auto r = ex.explore(eo, so);
    ASSERT_TRUE(r.has_solution()) << "threads=" << threads;
    EXPECT_EQ(r.status, base.status) << "threads=" << threads;
    EXPECT_EQ(r.objective, base.objective) << "threads=" << threads;
    // Identical candidate lists => identical model => identical counts.
    EXPECT_EQ(r.encode_stats.num_vars, base.encode_stats.num_vars);
    EXPECT_EQ(r.encode_stats.num_constrs, base.encode_stats.num_constrs);
    EXPECT_EQ(r.encode_stats.candidate_paths, base.encode_stats.candidate_paths);
    expect_same_architecture(r.architecture, base.architecture);
  }
}

TEST_F(ParallelDeterminism, KStarLadderSearchIsThreadCountInvariant) {
  const Explorer ex(tmpl_, spec_);
  milp::SolveOptions so;
  so.time_limit_s = 60.0;

  Explorer::KStarSearchOptions ko;
  ko.ladder = {1, 3, 6};
  EncoderOptions serial;
  serial.threads = 1;
  const auto base = ex.search_k_star(ko, serial, so);
  ASSERT_TRUE(base.best.has_solution());

  for (int threads : {2, 4, 8}) {
    EncoderOptions eo = serial;
    eo.threads = threads;
    const auto r = ex.search_k_star(ko, eo, so);
    EXPECT_EQ(r.chosen_k, base.chosen_k) << "threads=" << threads;
    EXPECT_EQ(r.best.objective, base.best.objective) << "threads=" << threads;
    // The first rung's candidates come from per-route Yen batches fanned
    // out over the workers, and every later rung resumes that Yen state.
    // Identical candidate lists make every rung's model identical, so the
    // trace — which rungs were visited, in what order, with what objectives
    // and model sizes — must line up rung for rung.
    ASSERT_EQ(r.trace.size(), base.trace.size()) << "threads=" << threads;
    for (size_t i = 0; i < r.trace.size(); ++i) {
      EXPECT_EQ(r.trace[i].first, base.trace[i].first);
      EXPECT_EQ(r.trace[i].second.objective, base.trace[i].second.objective);
      EXPECT_EQ(r.trace[i].second.encode_stats.num_vars,
                base.trace[i].second.encode_stats.num_vars);
      EXPECT_EQ(r.trace[i].second.encode_stats.candidate_paths,
                base.trace[i].second.encode_stats.candidate_paths);
    }
    expect_same_architecture(r.best.architecture, base.best.architecture);
  }
}

TEST_F(ParallelDeterminism, CampaignReportsAreByteIdenticalAcrossThreadCounts) {
  const Explorer ex(tmpl_, spec_);
  milp::SolveOptions so;
  so.time_limit_s = 60.0;
  EncoderOptions eo;
  eo.k_star = 6;
  const auto base = ex.explore(eo, so);
  ASSERT_TRUE(base.has_solution());

  faults::FaultModelConfig fc;
  fc.seed = 5;
  fc.max_simultaneous_failures = 1;
  fc.fading_draws = 64;
  fc.fading_sigma_db = 2.0;
  const faults::FaultModel fm(tmpl_, spec_, fc);
  const auto scenarios = fm.scenarios(base.architecture);
  ASSERT_FALSE(scenarios.empty());

  const auto serial =
      faults::CampaignRunner(tmpl_, spec_).run(base.architecture, scenarios);
  const std::string golden = serial.to_json();
  // The convenience wrapper is the serial runner.
  EXPECT_EQ(faults::run_campaign(base.architecture, tmpl_, spec_, scenarios).to_json(), golden);

  for (int threads : {2, 4, 8}) {
    faults::CampaignOptions copts;
    copts.threads = threads;
    const auto rep =
        faults::CampaignRunner(tmpl_, spec_, copts).run(base.architecture, scenarios);
    EXPECT_EQ(rep.total(), serial.total()) << "threads=" << threads;
    EXPECT_EQ(rep.passed(), serial.passed()) << "threads=" << threads;
    EXPECT_EQ(rep.to_json(), golden) << "threads=" << threads;
  }
}

TEST_F(ParallelDeterminism, ScenarioOutcomesAreOrderIndependent) {
  // Per-scenario fading seeds are keyed on (campaign seed, draw index), so
  // shuffling the evaluation order — which is exactly what a thread pool
  // does — cannot change any outcome. Pin that by reversing the list.
  const Explorer ex(tmpl_, spec_);
  milp::SolveOptions so;
  so.time_limit_s = 60.0;
  const auto base = ex.explore({}, so);
  ASSERT_TRUE(base.has_solution());

  faults::FaultModelConfig fc;
  fc.seed = 9;
  fc.max_simultaneous_failures = 1;
  fc.fading_draws = 32;
  fc.fading_sigma_db = 2.0;
  const auto scenarios = faults::FaultModel(tmpl_, spec_, fc).scenarios(base.architecture);
  auto reversed = scenarios;
  std::reverse(reversed.begin(), reversed.end());

  faults::CampaignOptions copts;
  copts.threads = 4;
  const faults::CampaignRunner runner(tmpl_, spec_, copts);
  const auto fwd = runner.run(base.architecture, scenarios);
  const auto rev = runner.run(base.architecture, reversed);
  EXPECT_EQ(fwd.total(), rev.total());
  EXPECT_EQ(fwd.passed(), rev.passed());
}

TEST_F(ParallelDeterminism, ExploreRobustIsThreadCountInvariant) {
  const Explorer ex(tmpl_, spec_);
  Explorer::RobustExploreOptions ro;
  ro.encoder.k_star = 6;
  ro.solver.time_limit_s = 30.0;
  ro.faults.seed = 3;
  ro.faults.max_simultaneous_failures = 1;
  ro.faults.fading_draws = 16;
  ro.faults.fading_sigma_db = 2.0;
  ro.time_budget_s = 120.0;
  ro.max_repair_iterations = 4;

  const auto base = ex.explore_robust(ro);
  ASSERT_TRUE(base.best.has_solution());
  const std::string golden = base.report.to_json();

  for (int threads : {4}) {  // one parallel config keeps the MILP budget sane
    Explorer::RobustExploreOptions rt = ro;
    rt.threads = threads;
    const auto r = ex.explore_robust(rt);
    EXPECT_EQ(r.iterations, base.iterations) << "threads=" << threads;
    EXPECT_EQ(r.robust, base.robust) << "threads=" << threads;
    EXPECT_EQ(r.hardenings_applied, base.hardenings_applied) << "threads=" << threads;
    EXPECT_EQ(r.raised_routes, base.raised_routes) << "threads=" << threads;
    EXPECT_EQ(r.best.objective, base.best.objective) << "threads=" << threads;
    EXPECT_EQ(r.report.to_json(), golden) << "threads=" << threads;
    expect_same_architecture(r.best.architecture, base.best.architecture);
  }
}

}  // namespace
}  // namespace wnet::archex
