// The shared fixed-routing picker (pick_fixed_routing) and the restriction
// behind the explorer's probe, the repair start and the tabu walk.
//
//  - With no history the picker is the explorer's historical greedy: the
//    cheapest edge-disjoint candidate per (route, replica) group.
//  - A group with no disjoint candidate falls back to its first member and
//    marks the pick incomplete, which explore_rung must not use as a start.
//  - The tabu walk's first evaluation is the probe's restricted solve.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "channel/propagation.h"
#include "core/explorer.h"
#include "core/meta/tabu.h"
#include "graph/digraph.h"

namespace wnet::archex {
namespace {

/// The explorer's greedy as it stood before the picker was shared: groups
/// in (route, replica) order, members in candidate order, the first
/// cheapest candidate that shares no edge with the route's other picks.
/// Empty when some group has no disjoint candidate.
RoutePicks reference_greedy(const EncodedProblem& ep) {
  RoutePicks picked;
  std::set<std::pair<int, int>> groups;
  for (const auto& c : ep.candidates) groups.insert({c.route_index, c.replica});
  for (const auto& g : groups) {
    const CandidatePath* best = nullptr;
    for (const auto& c : ep.candidates) {
      if (c.route_index != g.first || c.replica != g.second) continue;
      bool clash = false;
      for (const auto& [og, oc] : picked) {
        if (og.first == g.first && og.second != g.second &&
            graph::shared_edges(c.path, oc->path) > 0) {
          clash = true;
          break;
        }
      }
      if (clash) continue;
      if (best == nullptr || c.path.cost < best->path.cost) best = &c;
    }
    if (best == nullptr) return {};
    picked[g] = best;
  }
  return picked;
}

class FixedRoutingPick : public ::testing::Test {
 protected:
  FixedRoutingPick() : model_(2.4e9, 2.4), lib_(make_reference_library()) {}

  /// Two sensors on a relay strip, each route asking for two edge-disjoint
  /// replicas.
  void build_strip() {
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
      r.replicas = 2;
      spec_.routes.push_back(r);
    }
  }

  /// A trap for the greedy: the cheapest path s0-hub-sink shares an edge
  /// with every other candidate, while s0-down-hub-sink and s0-hub-up-sink
  /// are edge-disjoint. With the Yen graph left intact between replicas
  /// (DisjointStrategy::kNone) both replica groups list the same three
  /// paths, so the greedy's second replica finds nothing disjoint from its
  /// first, although the model has a feasible two-replica routing.
  void build_trap() {
    tmpl_.add_node({"sink", {50, 0}, Role::kSink, NodeKind::kFixed, std::nullopt});
    tmpl_.add_node({"s0", {0.0, 0.0}, Role::kSensor, NodeKind::kFixed, std::nullopt});
    tmpl_.add_node({"hub", {18, 0}, Role::kRelay, NodeKind::kCandidate, std::nullopt});
    tmpl_.add_node({"up", {34, 12}, Role::kRelay, NodeKind::kCandidate, std::nullopt});
    tmpl_.add_node({"down", {8, -10}, Role::kRelay, NodeKind::kCandidate, std::nullopt});
    spec_.link_quality.min_snr_db = 35.0;
    spec_.objective = {1.0, 0.0, 0.0};
    RouteRequirement r;
    r.source = *tmpl_.find_node("s0");
    r.dest = 0;
    r.replicas = 2;
    spec_.routes.push_back(r);
  }

  channel::LogDistanceModel model_;
  ComponentLibrary lib_;
  NetworkTemplate tmpl_{model_, lib_};
  Specification spec_;
};

TEST_F(FixedRoutingPick, WithoutHistoryMatchesTheExplorerGreedy) {
  build_strip();
  int compared = 0;
  for (int k : {2, 3, 4, 6, 8}) {
    EncoderOptions eo;
    eo.k_star = k;
    const EncodedProblem ep = Encoder(tmpl_, spec_, eo).encode();
    ASSERT_FALSE(ep.candidates.empty()) << "k " << k;
    const FixedRouting routing = pick_fixed_routing(ep);
    const RoutePicks reference = reference_greedy(ep);
    EXPECT_EQ(routing.complete, !reference.empty()) << "k " << k;
    if (routing.complete) {
      EXPECT_EQ(routing.picks, reference) << "k " << k;
      ++compared;
    }
  }
  EXPECT_GT(compared, 0);
}

TEST_F(FixedRoutingPick, KeepsThePreviousArchitecturesRoutes) {
  build_strip();
  EncoderOptions eo;
  eo.k_star = 6;
  const ExplorationResult prev = Explorer(tmpl_, spec_).explore(eo, {});
  ASSERT_TRUE(prev.has_solution());
  const EncodedProblem ep = Encoder(tmpl_, spec_, eo).encode();
  const FixedRouting routing = pick_fixed_routing(ep, prev.architecture);
  ASSERT_TRUE(routing.complete);
  ASSERT_EQ(routing.picks.size(), prev.architecture.routes.size());
  for (const auto& r : prev.architecture.routes) {
    const auto it = routing.picks.find({r.route_index, r.replica});
    ASSERT_NE(it, routing.picks.end());
    EXPECT_EQ(it->second->path.nodes, r.path.nodes);
  }
}

TEST_F(FixedRoutingPick, NoDisjointCandidateFallsBackToMemberZeroAndSkipsTheStart) {
  build_trap();
  EncoderOptions eo;
  eo.k_star = 6;
  eo.disjoint_strategy = EncoderOptions::DisjointStrategy::kNone;
  const EncodedProblem ep = Encoder(tmpl_, spec_, eo).encode();
  const FixedRouting routing = pick_fixed_routing(ep);
  EXPECT_FALSE(routing.complete);
  EXPECT_TRUE(reference_greedy(ep).empty());
  ASSERT_EQ(routing.picks.size(), 2U);
  const auto first_member = [&](int replica) {
    for (const auto& c : ep.candidates) {
      if (c.route_index == 0 && c.replica == replica) return &c;
    }
    return static_cast<const CandidatePath*>(nullptr);
  };
  // Replica 0 takes the cheapest path; replica 1 has no disjoint candidate
  // and falls back to its first member (the same path).
  EXPECT_EQ(routing.picks.at({0, 1}), first_member(1));
  EXPECT_EQ(routing.picks.at({0, 0})->path.nodes, routing.picks.at({0, 1})->path.nodes);

  // The model itself is feasible; only the warm start is skipped.
  const Explorer ex(tmpl_, spec_);
  IncrementalEncoder session(tmpl_, spec_, eo);
  Explorer::RungCarry carry;
  const ExplorationResult r = ex.explore_rung(session, eo.k_star, carry, {});
  ASSERT_TRUE(r.has_solution());
  EXPECT_FALSE(r.solve_stats.mip_start_used);
}

TEST_F(FixedRoutingPick, FirstTabuEvaluationIsTheProbesRestriction) {
  build_strip();
  EncoderOptions eo;
  eo.k_star = 6;
  const EncodedProblem ep = Encoder(tmpl_, spec_, eo).encode();
  const FixedRouting routing = pick_fixed_routing(ep);
  ASSERT_TRUE(routing.complete);

  // Options under which the probe's shaping (a 30 s slice of a 150 s
  // budget, a 1% gap floor) lands on the tabu evaluation's settings.
  milp::SolveOptions so;
  so.time_limit_s = 150.0;
  so.rel_gap = 0.01;
  so.node_limit = 64;
  const std::vector<double> probe = solve_with_fixed_selectors(ep, routing.picks, so);
  ASSERT_FALSE(probe.empty());

  meta::TabuOptions topts;
  topts.eval_time_limit_s = 30.0;
  topts.eval_rel_gap = 0.01;
  topts.eval_node_limit = 64;
  meta::TabuSearch tabu(ep, topts);
  ASSERT_TRUE(tabu.runnable());
  tabu.run(0);
  ASSERT_TRUE(tabu.has_incumbent());
  EXPECT_EQ(tabu.stats().evaluations, 1);
  EXPECT_EQ(tabu.best_x(), probe);
  const double obj = ep.model.objective().evaluate(probe);
  EXPECT_NEAR(tabu.best_objective(), obj, 1e-9 * std::max(1.0, std::abs(obj)));
}

}  // namespace
}  // namespace wnet::archex
