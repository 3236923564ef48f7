// Portfolio / tabu correctness and determinism.
//
//  - TabuOracle: the tabu explorer's incumbents are genuine full-model
//    solutions, never better than the true optimum, and on a small template
//    it reaches the brute-force-over-assignments optimum (which itself
//    matches Explorer::explore).
//  - PortfolioDeterminism: canonical portfolio reports are byte-identical
//    across 1/2/4/8 worker threads, with and without injected cancellation
//    (the CheckpointInjector fires at spine checkpoints only, so every
//    thread count stops at the same logical point).

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "channel/propagation.h"
#include "core/explorer.h"
#include "core/meta/portfolio.h"
#include "core/meta/tabu.h"
#include "milp/tol.h"
#include "util/exec/exec.h"
#include "util/obs/json.h"

namespace wnet::archex {
namespace {

using util::exec::CancellationSource;
using util::exec::CheckpointInjector;
using util::exec::ExecControl;

/// Small two-route relay field: big enough that the candidate groups have
/// real alternatives (k_star > 1), small enough for brute force.
class MetaFixture : public ::testing::Test {
 protected:
  MetaFixture() : model_(2.4e9, 2.4), lib_(make_reference_library()), tmpl_(model_, lib_) {
    tmpl_.add_node({"sink", {40, 5}, Role::kSink, NodeKind::kFixed, std::nullopt});
    for (int i = 0; i < 2; ++i) {
      tmpl_.add_node({"s" + std::to_string(i), {0.0, 2.0 + 5.0 * i}, Role::kSensor,
                      NodeKind::kFixed, std::nullopt});
    }
    for (int i = 0; i < 6; ++i) {
      tmpl_.add_node({"r" + std::to_string(i), {6.0 + 5.5 * i, 2.0 + (i % 3) * 3.0},
                      Role::kRelay, NodeKind::kCandidate, std::nullopt});
    }
    spec_.link_quality.min_snr_db = 35.0;
    spec_.objective = {1.0, 0.0, 0.0};
    for (int i = 0; i < 2; ++i) {
      RouteRequirement r;
      r.source = *tmpl_.find_node("s" + std::to_string(i));
      r.dest = 0;
      spec_.routes.push_back(r);
    }
  }

  [[nodiscard]] EncoderOptions encoder_opts() const {
    EncoderOptions e;
    e.k_star = 3;
    return e;
  }

  static ExecControl inject_at(long n) {
    CancellationSource src;
    ExecControl ctl;
    ctl.token = src.token();
    ctl.injector = std::make_shared<CheckpointInjector>(n, src);
    return ctl;
  }

  channel::LogDistanceModel model_;
  ComponentLibrary lib_;
  NetworkTemplate tmpl_;
  Specification spec_;
};

using TabuOracle = MetaFixture;
using PortfolioDeterminism = MetaFixture;

/// Brute force over every full selector assignment (one candidate per
/// (route, replica) group), completing each with the restricted sizing
/// solve — the exact search space the tabu walk moves through.
double brute_force_best(const EncodedProblem& ep) {
  std::map<std::pair<int, int>, std::vector<const CandidatePath*>> groups;
  for (const CandidatePath& c : ep.candidates) {
    groups[{c.route_index, c.replica}].push_back(&c);
  }
  std::vector<std::pair<int, int>> keys;
  for (const auto& [k, members] : groups) keys.push_back(k);

  double best = milp::kInf;
  std::vector<size_t> pick(keys.size(), 0);
  while (true) {
    std::map<std::pair<int, int>, const CandidatePath*> picked;
    for (size_t g = 0; g < keys.size(); ++g) picked[keys[g]] = groups[keys[g]][pick[g]];
    const std::vector<double> x = solve_with_fixed_selectors(ep, picked, {});
    if (!x.empty()) {
      const double obj = ep.model.objective().evaluate(x);
      if (obj < best) best = obj;
    }
    // Odometer increment.
    size_t g = 0;
    for (; g < keys.size(); ++g) {
      if (++pick[g] < groups[keys[g]].size()) break;
      pick[g] = 0;
    }
    if (g == keys.size()) break;
  }
  return best;
}

TEST_F(TabuOracle, MatchesBruteForceAndExplorerOnSmallTemplate) {
  const Explorer ex(tmpl_, spec_);
  const ExplorationResult ref = ex.explore(encoder_opts(), {});
  ASSERT_TRUE(ref.has_solution());

  const EncodedProblem ep = Encoder(tmpl_, spec_, encoder_opts()).encode();
  const double brute = brute_force_best(ep);
  ASSERT_LT(brute, milp::kInf);
  // The assignment space contains the exact optimum (components re-sized
  // per assignment), so brute force must reproduce the explorer.
  EXPECT_NEAR(brute, ref.objective, 1e-6 * std::max(1.0, std::abs(ref.objective)));

  meta::TabuOptions topts;
  topts.seed = 7;
  topts.neighborhood = 8;
  meta::TabuSearch tabu(ep, topts);
  ASSERT_TRUE(tabu.runnable());
  tabu.run(30);
  ASSERT_TRUE(tabu.has_incumbent());
  EXPECT_NEAR(tabu.best_objective(), brute, 1e-6 * std::max(1.0, std::abs(brute)));
}

TEST_F(TabuOracle, IncumbentsAreModelFeasibleAndNeverBeatTheOptimum) {
  const Explorer ex(tmpl_, spec_);
  const ExplorationResult ref = ex.explore(encoder_opts(), {});
  ASSERT_TRUE(ref.has_solution());
  const EncodedProblem ep = Encoder(tmpl_, spec_, encoder_opts()).encode();

  for (const uint64_t seed : {1ull, 2ull, 3ull}) {
    meta::TabuOptions topts;
    topts.seed = seed;
    topts.neighborhood = 6;
    meta::TabuSearch tabu(ep, topts);
    tabu.run(8);
    ASSERT_TRUE(tabu.has_incumbent()) << "seed " << seed;
    EXPECT_TRUE(ep.model.is_feasible(tabu.best_x())) << "seed " << seed;
    // Soundness: a heuristic incumbent is a real solution, so it can tie
    // but never beat the proven optimum.
    EXPECT_GE(tabu.best_objective(), ref.objective - 1e-6) << "seed " << seed;
  }
}

TEST_F(TabuOracle, AspirationBoundCertifiesTheIncumbent) {
  const EncodedProblem ep = Encoder(tmpl_, spec_, encoder_opts()).encode();
  meta::TabuOptions topts;
  meta::TabuSearch tabu(ep, topts);
  tabu.run(20);
  ASSERT_TRUE(tabu.has_incumbent());
  EXPECT_FALSE(tabu.certified());  // no bound installed yet
  tabu.set_aspiration_bound(tabu.best_objective());
  EXPECT_TRUE(tabu.certified());
  // Monotone: a weaker bound later must not loosen the aspiration level.
  tabu.set_aspiration_bound(tabu.best_objective() - 100.0);
  EXPECT_TRUE(tabu.certified());
}

TEST_F(TabuOracle, ResumedScheduleMatchesOneShot) {
  // run(2) five times must visit the same states as run(10) once: sampling
  // is keyed by (seed, iteration index), not by call boundaries.
  const EncodedProblem ep = Encoder(tmpl_, spec_, encoder_opts()).encode();

  meta::TabuOptions topts;
  topts.seed = 11;
  meta::TabuSearch oneshot(ep, topts);
  oneshot.run(10);
  meta::TabuSearch chunked(ep, topts);
  for (int i = 0; i < 5; ++i) chunked.run(2);

  ASSERT_EQ(oneshot.has_incumbent(), chunked.has_incumbent());
  EXPECT_DOUBLE_EQ(oneshot.best_objective(), chunked.best_objective());
  EXPECT_EQ(oneshot.stats().iterations, chunked.stats().iterations);
  EXPECT_EQ(oneshot.stats().evaluations, chunked.stats().evaluations);
}

meta::PortfolioOptions small_portfolio(const EncoderOptions& eopts, int threads,
                                       ExecControl exec = {}) {
  meta::PortfolioOptions popts;
  popts.encoder = eopts;
  popts.threads = threads;
  popts.max_rungs = 4;
  popts.tabu_iterations_per_rung = 3;
  popts.tabu.neighborhood = 6;
  popts.solver.exec = std::move(exec);
  return popts;
}

TEST_F(PortfolioDeterminism, ByteIdenticalReportsAcrossThreadCounts) {
  const meta::PortfolioRunner runner(tmpl_, spec_);
  const meta::PortfolioResult r1 = runner.run(small_portfolio(encoder_opts(), 1));
  ASSERT_TRUE(r1.has_solution());
  EXPECT_TRUE(util::obs::json_valid(r1.to_json())) << r1.to_json();
  const std::string sig = r1.canonical_signature();
  EXPECT_TRUE(util::obs::json_valid(sig)) << sig;

  for (const int threads : {2, 4, 8}) {
    const meta::PortfolioResult r = runner.run(small_portfolio(encoder_opts(), threads));
    EXPECT_EQ(r.canonical_signature(), sig) << "threads " << threads;
  }
}

TEST_F(PortfolioDeterminism, MatchesExplorerOptimumWhenCertified) {
  const Explorer ex(tmpl_, spec_);
  const ExplorationResult ref = ex.explore(encoder_opts(), {});
  ASSERT_TRUE(ref.has_solution());

  const meta::PortfolioRunner runner(tmpl_, spec_);
  meta::PortfolioOptions popts = small_portfolio(encoder_opts(), 2);
  popts.max_rungs = 8;
  const meta::PortfolioResult r = runner.run(popts);
  ASSERT_TRUE(r.has_solution());
  ASSERT_EQ(r.status, milp::SolveStatus::kOptimal);
  EXPECT_EQ(r.certified_by, "milp");
  EXPECT_NEAR(r.objective, ref.objective, 1e-6 * std::max(1.0, std::abs(ref.objective)));
  EXPECT_LE(r.gap, 1e-6);
  // The certificate's bound must actually support the incumbent.
  EXPECT_LE(r.bound, r.objective + milp::tol::kGapSlack);
  const auto verify = verify_architecture(r.architecture, tmpl_, spec_);
  EXPECT_TRUE(verify.ok) << (verify.violations.empty() ? "" : verify.violations[0]);
}

TEST_F(PortfolioDeterminism, InjectedCancellationIsThreadCountInvariant) {
  // The injector fires at the N-th spine checkpoint (encoder phases +
  // portfolio rung boundaries); members poll worker views. Every thread
  // count must stop at the same logical point with identical reports.
  const meta::PortfolioRunner runner(tmpl_, spec_);
  for (const long fire_at : {1L, 3L, 5L, 8L}) {
    const meta::PortfolioResult base =
        runner.run(small_portfolio(encoder_opts(), 1, inject_at(fire_at)));
    const std::string sig = base.canonical_signature();
    EXPECT_TRUE(util::obs::json_valid(base.to_json()));
    for (const int threads : {2, 8}) {
      const meta::PortfolioResult r =
          runner.run(small_portfolio(encoder_opts(), threads, inject_at(fire_at)));
      EXPECT_EQ(r.canonical_signature(), sig)
          << "fire_at " << fire_at << " threads " << threads;
    }
  }
}

}  // namespace
}  // namespace wnet::archex
