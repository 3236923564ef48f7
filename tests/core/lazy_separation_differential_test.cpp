// Differential suite for EncoderOptions::lazy_separation: the relaxed
// skeleton plus the LazySeparation callbacks must be indistinguishable from
// the upfront encoding at the level of reported optima, while actually
// omitting rows — and the lazy pipeline must keep the repo's determinism
// contracts: byte-identical canonical reports across worker-thread counts
// and under injected cancellation, and delta-extended incremental sessions
// identical to fresh encodes.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "channel/propagation.h"
#include "core/encode/encoder.h"
#include "core/encode/separation.h"
#include "core/explorer.h"
#include "graph/connectivity.h"
#include "util/exec/exec.h"
#include "util/obs/json.h"

namespace wnet::archex {
namespace {

using util::exec::CancellationSource;
using util::exec::CheckpointInjector;
using util::exec::ExecControl;

/// Randomized corridor instance, same family as the encoder-differential
/// suite: sensor -> sink with a handful of scattered candidate relays.
struct Instance {
  channel::LogDistanceModel model{2.4e9, 2.2};
  ComponentLibrary lib = make_reference_library();
  NetworkTemplate tmpl{model, lib};
  Specification spec;

  explicit Instance(uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> x(6.0, 24.0);
    std::uniform_real_distribution<double> y(2.0, 8.0);
    tmpl.add_node({"s0", {0, 5}, Role::kSensor, NodeKind::kFixed, std::nullopt});
    tmpl.add_node({"sink", {30, 5}, Role::kSink, NodeKind::kFixed, std::nullopt});
    const int relays = 3 + static_cast<int>(rng() % 3);
    for (int i = 0; i < relays; ++i) {
      tmpl.add_node({"r" + std::to_string(i), {x(rng), y(rng)}, Role::kRelay,
                     NodeKind::kCandidate, std::nullopt});
    }
    spec.link_quality.min_snr_db = 32.0;
    spec.objective = {1.0, 0.0, 0.0};
    RouteRequirement r;
    r.source = 0;
    r.dest = 1;
    r.replicas = 1;
    spec.routes.push_back(r);
  }
};

/// Replica groups of the same route must be pairwise edge-disjoint — the
/// property the omitted disjointness rows enforce. Checked directly on the
/// decoded architecture so a gate regression cannot hide behind an
/// objective tie.
void expect_replica_disjointness(const NetworkArchitecture& arch, const std::string& label) {
  for (size_t a = 0; a < arch.routes.size(); ++a) {
    for (size_t b = a + 1; b < arch.routes.size(); ++b) {
      const auto& ra = arch.routes[a];
      const auto& rb = arch.routes[b];
      if (ra.route_index != rb.route_index || ra.replica == rb.replica) continue;
      EXPECT_EQ(graph::shared_edges(ra.path, rb.path), 0)
          << label << ": replicas " << ra.replica << " and " << rb.replica << " of route "
          << ra.route_index << " share an edge";
    }
  }
}

TEST(LazySeparationDifferential, MatchesUpfrontOnRandomizedTemplates) {
  int compared = 0;
  int optimal_pairs = 0;
  long rows_omitted_total = 0;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    Instance in(seed);
    // Half the corpus demands two disjoint replicas, so the omitted
    // pairwise-disjointness family has teeth (and some instances go
    // infeasible, exercising lazy infeasibility detection).
    in.spec.routes[0].replicas = 1 + static_cast<int>(seed % 2);
    const Explorer ex(in.tmpl, in.spec);
    milp::SolveOptions so;
    so.time_limit_s = 60.0;

    EncoderOptions upfront;
    upfront.k_star = 4;
    const auto ru = ex.explore(upfront, so);

    EncoderOptions lazy = upfront;
    lazy.lazy_separation = true;
    const auto rl = ex.explore(lazy, so);

    const std::string label = "seed " + std::to_string(seed);
    ASSERT_EQ(rl.status, ru.status) << label;
    EXPECT_EQ(rl.encode_stats.num_vars, ru.encode_stats.num_vars) << label;
    // The lazy skeleton omits exactly the rows it claims to omit.
    EXPECT_EQ(ru.encode_stats.num_constrs - rl.encode_stats.num_constrs,
              rl.encode_stats.lazy_rows_omitted)
        << label;
    EXPECT_EQ(ru.encode_stats.lazy_rows_omitted, 0) << label;
    rows_omitted_total += rl.encode_stats.lazy_rows_omitted;

    if (ru.status == milp::SolveStatus::kOptimal) {
      const double tol = 1e-6 * std::max(1.0, std::abs(ru.objective));
      EXPECT_NEAR(rl.objective, ru.objective, tol)
          << label << ": lazy and upfront optima diverge";
      EXPECT_NEAR(rl.architecture.total_cost_usd, ru.architecture.total_cost_usd, tol) << label;
      expect_replica_disjointness(rl.architecture, label);
      // Separators were installed, so every incumbent passed the gate.
      EXPECT_GT(rl.solve_stats.cut_rounds, 0) << label;
      ++optimal_pairs;
    }
    ++compared;
  }
  EXPECT_EQ(compared, 24);
  EXPECT_GE(optimal_pairs, 10);      // the equality check actually ran
  EXPECT_GT(rows_omitted_total, 0);  // and rows were actually omitted
}

TEST(LazySeparationDifferential, IncrementalLazyDeltaMatchesFreshLazy) {
  // Delta-extending a lazy session across K* rungs must produce the same
  // skeleton (same sizes, same omitted-row count) and the same optimum as
  // a fresh lazy encode at identical options — the gating is symmetric
  // between emit_approx_paths and extend_to_k.
  for (const uint64_t seed : {3u, 7u, 11u}) {
    Instance in(seed);
    in.spec.routes[0].replicas = 1 + static_cast<int>(seed % 2);
    EncoderOptions base;
    base.lazy_separation = true;
    IncrementalEncoder session(in.tmpl, in.spec, base);
    int reused_total = 0;
    for (const int k : {1, 2, 3, 5}) {
      auto& ep = session.encode_k(k);
      EncoderOptions fopts = base;
      fopts.k_star = k;
      const auto fresh = Encoder(in.tmpl, in.spec, fopts).encode();
      const std::string label = "seed " + std::to_string(seed) + " k=" + std::to_string(k);
      EXPECT_EQ(ep.stats.num_vars, fresh.stats.num_vars) << label;
      EXPECT_EQ(ep.stats.num_constrs, fresh.stats.num_constrs) << label;
      EXPECT_EQ(ep.stats.nonzeros, fresh.stats.nonzeros) << label;
      EXPECT_EQ(ep.stats.lazy_rows_omitted, fresh.stats.lazy_rows_omitted) << label;

      milp::SolveOptions si;
      si.time_limit_s = 60.0;
      milp::SolveOptions sf = si;
      LazySeparation(in.tmpl, ep).install(si);
      LazySeparation(in.tmpl, fresh).install(sf);
      const auto ri = milp::solve(ep.model, si);
      const auto rf = milp::solve(fresh.model, sf);
      EXPECT_EQ(ri.status, rf.status) << label;
      if (ri.status == milp::SolveStatus::kOptimal &&
          rf.status == milp::SolveStatus::kOptimal) {
        EXPECT_NEAR(ri.objective, rf.objective, 1e-9 * std::max(1.0, std::abs(rf.objective)))
            << label;
      }
      reused_total += ep.stats.reused_candidates;
    }
    EXPECT_GT(reused_total, 0) << "seed " << seed << ": ladder rebuilt every rung";
  }
}

/// Multi-route fixture shared with the cancellation-determinism suite:
/// three sensors crossing a relay field, so the lazy pipeline has real
/// parallel and separation work to do (or cut short).
class LazySeparationDeterminism : public ::testing::Test {
 protected:
  LazySeparationDeterminism()
      : model_(2.4e9, 2.4), lib_(make_reference_library()), tmpl_(model_, lib_) {
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

  static ExecControl inject_at(long n) {
    CancellationSource src;
    ExecControl ctl;
    ctl.token = src.token();
    ctl.injector = std::make_shared<CheckpointInjector>(n, src);
    return ctl;
  }

  static void append_double(std::ostringstream& os, double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    os << buf << "|";
  }

  /// Canonical wall-clock-free rendering, extended with the separation
  /// counters: they are part of the determinism contract too.
  static std::string canon(const ExplorationResult& r) {
    std::ostringstream os;
    os << milp::to_string(r.status) << "|" << util::exec::to_string(r.termination) << "|";
    append_double(os, r.has_solution() ? r.objective : 0.0);
    append_double(os, r.bound);
    append_double(os, r.gap);
    os << r.encode_stats.num_vars << "|" << r.encode_stats.num_constrs << "|"
       << r.encode_stats.candidate_paths << "|" << r.encode_stats.lazy_rows_omitted << "|"
       << util::exec::to_string(r.encode_stats.termination) << "|" << r.solve_stats.nodes << "|"
       << r.solve_stats.lp_iterations << "|" << r.solve_stats.cut_rounds << "|"
       << r.solve_stats.cuts_pooled << "|" << r.solve_stats.cuts_lp_rows << "|"
       << r.solve_stats.lazy_rejections << "|";
    for (const auto& n : r.architecture.nodes) os << n.node << ":" << n.component << ",";
    os << "|";
    for (const auto& rt : r.architecture.routes) {
      os << rt.route_index << "." << rt.replica << "=";
      for (int v : rt.path.nodes) os << v << ",";
      os << ";";
    }
    return os.str();
  }

  channel::LogDistanceModel model_;
  ComponentLibrary lib_;
  NetworkTemplate tmpl_;
  Specification spec_;
};

TEST_F(LazySeparationDeterminism, ExploreIsByteIdenticalAcrossThreadCounts) {
  milp::SolveOptions so;
  so.time_limit_s = 60.0;
  EncoderOptions eo;
  eo.k_star = 6;
  eo.lazy_separation = true;
  const Explorer ex(tmpl_, spec_);
  const std::string base = canon(ex.explore(eo, so));
  EXPECT_NE(base.find("optimal"), std::string::npos) << base;
  for (int threads : {2, 4, 8}) {
    EncoderOptions et = eo;
    et.threads = threads;
    EXPECT_EQ(canon(ex.explore(et, so)), base) << "threads=" << threads;
  }
}

TEST_F(LazySeparationDeterminism, LadderAgreesBetweenIncrementalAndFreshRungs) {
  // search_k_star delta-extends one incremental session; the same selection
  // scan over fresh explore() rungs encodes every K* from scratch. With lazy
  // separation on, both must still choose the same K* and report the same
  // winner.
  const Explorer ex(tmpl_, spec_);
  Explorer::KStarSearchOptions ko;
  ko.ladder = {1, 3, 6};
  milp::SolveOptions so;
  so.time_limit_s = 60.0;
  EncoderOptions eo;
  eo.lazy_separation = true;
  const auto summary = [&](const Explorer::KStarSearchResult& r) {
    std::ostringstream os;
    os << r.chosen_k << "|" << util::exec::to_string(r.termination) << "|" << canon(r.best);
    return os.str();
  };
  const std::string incremental = summary(ex.search_k_star(ko, eo, so));
  const std::string fresh = summary(scan_k_star(ko, so.exec, [&](size_t /*i*/, int k) {
    EncoderOptions fo = eo;
    fo.k_star = k;
    return ex.explore(fo, so);
  }));
  EXPECT_EQ(fresh, incremental);
  EXPECT_NE(incremental.find("optimal"), std::string::npos) << incremental;
}

TEST_F(LazySeparationDeterminism, DegradesIdenticallyUnderInjectedCancellation) {
  // Cancellation injected at the N-th spine checkpoint must cut the lazy
  // pipeline at the same logical point for every worker-thread count. The
  // separation loop itself is poll-only on the serial spine, so checkpoint
  // counts — and therefore the injection landing site — are unchanged.
  for (long n : {1L, 4L, 10L, 30L}) {
    milp::SolveOptions so;
    so.time_limit_s = 60.0;
    EncoderOptions eo;
    eo.k_star = 6;
    eo.lazy_separation = true;
    so.exec = eo.exec = inject_at(n);
    const Explorer ex(tmpl_, spec_);
    const std::string base = canon(ex.explore(eo, so));
    for (int threads : {2, 4, 8}) {
      EncoderOptions et = eo;
      et.threads = threads;
      milp::SolveOptions st = so;
      st.exec = et.exec = inject_at(n);
      EXPECT_EQ(canon(ex.explore(et, st)), base) << "inject_at=" << n << " threads=" << threads;
    }
  }
}

TEST_F(LazySeparationDeterminism, LazyReportsAreStrictJsonWithSeparationFields) {
  const Explorer ex(tmpl_, spec_);
  milp::SolveOptions so;
  so.time_limit_s = 60.0;
  EncoderOptions eo;
  eo.k_star = 6;
  eo.lazy_separation = true;
  const auto r = ex.explore(eo, so);
  ASSERT_TRUE(r.has_solution());
  const std::string json = r.solver_json();
  EXPECT_TRUE(util::obs::json_valid(json))
      << util::obs::json_error(json).value_or("") << "\n" << json;
  EXPECT_NE(json.find("\"separation\""), std::string::npos);
  EXPECT_NE(json.find("\"lazy_rows_omitted\""), std::string::npos);

  // Partial reports at injection points must stay strict JSON too.
  for (long n : {1L, 5L, 20L}) {
    milp::SolveOptions si = so;
    EncoderOptions ei = eo;
    si.exec = ei.exec = inject_at(n);
    const auto pr = ex.explore(ei, si);
    const std::string pj = pr.solver_json();
    EXPECT_TRUE(util::obs::json_valid(pj))
        << "inject_at=" << n << ": " << util::obs::json_error(pj).value_or("") << "\n" << pj;
  }
}

TEST_F(LazySeparationDeterminism, RobustLoopSupportsLazySeparation) {
  // explore_robust re-encodes per repair iteration; with lazy separation on
  // it must still converge to a robust architecture whose replicas are
  // disjoint, matching the upfront run's pass rate and cost.
  const auto run = [&](bool lazy) {
    Explorer::RobustExploreOptions ro;
    ro.encoder.k_star = 6;
    ro.encoder.lazy_separation = lazy;
    ro.solver.time_limit_s = 30.0;
    ro.faults.seed = 3;
    ro.faults.max_simultaneous_failures = 1;
    ro.faults.fading_draws = 16;
    ro.faults.fading_sigma_db = 2.0;
    ro.time_budget_s = 120.0;
    ro.max_repair_iterations = 4;
    return Explorer(tmpl_, spec_).explore_robust(ro);
  };
  const auto upfront = run(false);
  const auto lazy = run(true);
  EXPECT_EQ(lazy.best.has_solution(), upfront.best.has_solution());
  EXPECT_EQ(lazy.robust, upfront.robust);
  if (lazy.best.has_solution() && upfront.best.has_solution()) {
    EXPECT_NEAR(lazy.report.pass_rate(), upfront.report.pass_rate(), 1e-12);
    EXPECT_NEAR(lazy.best.architecture.total_cost_usd,
                upfront.best.architecture.total_cost_usd,
                1e-6 * std::max(1.0, std::abs(upfront.best.architecture.total_cost_usd)));
    expect_replica_disjointness(lazy.best.architecture, "robust lazy");
  }
}

}  // namespace
}  // namespace wnet::archex
