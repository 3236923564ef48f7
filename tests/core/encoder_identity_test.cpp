// Model-identity pins for the encoder: FNV-1a hashes over every variable
// (name, type, exact bound bits, branch priority), every row (name, sense,
// exact rhs bits, every term's variable id and exact coefficient bits), the
// objective, the decode tables and the size stats, plus the
// extend_assignment vectors an incremental session hands to the MIP-start
// bridge. Emission order is part of the hash, so a refactor of the emitters
// that reorders a single variable or row fails here even when every count
// and optimum still matches (which is all EncoderDifferential checks).
//
// The probes cover fresh encodes (approx, lazy, two replicas, energy
// objective, a hop bound, no disjoint-disconnect step, no LQ prefilter, the
// exact flow encoding, localization, data collection), incremental K*
// ladders (plain, lazy, replicated, energy objective, hop-bounded, data
// collection) and repair sessions (satisfiable and unsatisfiable kAvoid
// appends, a widening rung, a kMargin rebuild; plain and lazy).
//
// An intended model change re-pins these hashes: replace the table below
// with the one the failing run prints, and give the reason in CHANGES.md,
// as the solver baselines do. The hashes cover exact double bits, so a
// different libm or floating-point contraction setting may also move them.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/encode/encoder.h"
#include "core/workloads/scenarios.h"

namespace wnet::archex {
namespace {

using workloads::Scenario;

/// 64-bit FNV-1a over a typed byte stream.
class Fnv {
 public:
  void bytes(const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void i64(int64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    bytes(&bits, sizeof bits);
  }
  void str(const std::string& s) {
    i64(static_cast<int64_t>(s.size()));
    bytes(s.data(), s.size());
  }
  void expr(const milp::LinExpr& e) {
    f64(e.constant());
    i64(static_cast<int64_t>(e.size()));
    for (const auto& [v, c] : e.terms()) {
      i64(v.id);
      f64(c);
    }
  }
  template <class Map>
  void var_map(const Map& m) {
    i64(static_cast<int64_t>(m.size()));
    for (const auto& [key, v] : m) {
      i64(key.first);
      i64(key.second);
      i64(v.id);
    }
  }
  [[nodiscard]] uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Hash of the whole encoded problem except wall-clock fields.
uint64_t problem_hash(const EncodedProblem& p) {
  Fnv h;
  const milp::Model& m = p.model;
  h.i64(m.num_vars());
  for (const milp::VarData& v : m.vars()) {
    h.str(v.name);
    h.i64(static_cast<int64_t>(v.type));
    h.f64(v.lb);
    h.f64(v.ub);
    h.i64(v.branch_priority);
  }
  h.i64(m.num_constrs());
  for (const milp::Constraint& c : m.constrs()) {
    h.str(c.name);
    h.i64(static_cast<int64_t>(c.sense));
    h.f64(c.rhs);
    h.expr(c.expr);
  }
  h.expr(m.objective());

  h.i64(static_cast<int64_t>(p.node_used.size()));
  for (const milp::Var v : p.node_used) h.i64(v.id);
  h.var_map(p.mapping);
  h.var_map(p.edge_active);
  h.var_map(p.rss);
  h.i64(static_cast<int64_t>(p.candidates.size()));
  for (const CandidatePath& c : p.candidates) {
    for (const int v : c.path.nodes) h.i64(v);
    h.i64(-1);
    for (const int e : c.path.edges) h.i64(e);
    h.f64(c.path.cost);
    h.i64(c.selector.id);
    h.i64(c.route_index);
    h.i64(c.replica);
  }
  h.i64(static_cast<int64_t>(p.full_path_edges.size()));
  for (const auto& xmap : p.full_path_edges) h.var_map(xmap);
  for (const auto& [route, rep] : p.full_path_ids) {
    h.i64(route);
    h.i64(rep);
  }
  h.var_map(p.reach);

  const EncodeStats& s = p.stats;
  h.i64(s.num_vars);
  h.i64(s.num_constrs);
  h.i64(static_cast<int64_t>(s.nonzeros));
  h.i64(s.candidate_paths);
  h.i64(s.lazy_rows_omitted);
  h.i64(static_cast<int64_t>(s.termination));
  h.i64(s.reused_candidates);
  return h.value();
}

uint64_t vector_hash(const std::vector<double>& x) {
  Fnv h;
  h.i64(static_cast<int64_t>(x.size()));
  for (const double v : x) h.f64(v);
  return h.value();
}

/// A deterministic, mixed 0/1 assignment for the pre-delta model: not a
/// solution, just enough to make every appended RSS value depend on the
/// mapping binaries it reads.
std::vector<double> probe_assignment(int n) {
  std::vector<double> x(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) x[static_cast<size_t>(i)] = (i * 7 + 3) % 5 < 2 ? 1.0 : 0.0;
  return x;
}

std::unique_ptr<Scenario> scalable(int nodes, int devices, int replicas = 1) {
  workloads::ScalableConfig cfg;
  cfg.total_nodes = nodes;
  cfg.end_devices = devices;
  cfg.route_replicas = replicas;
  return workloads::make_scalable(cfg);
}

std::unique_ptr<Scenario> small_data_collection() {
  workloads::DataCollectionConfig cfg;
  cfg.width_m = 40.0;
  cfg.height_m = 24.0;
  cfg.sensors = 6;
  cfg.relay_grid_x = 4;
  cfg.relay_grid_y = 3;
  return workloads::make_data_collection(cfg);
}

std::unique_ptr<Scenario> small_localization() {
  workloads::LocalizationConfig cfg;
  cfg.anchor_grid_x = 5;
  cfg.anchor_grid_y = 3;
  cfg.eval_grid_x = 4;
  cfg.eval_grid_y = 3;
  cfg.width_m = 40;
  cfg.height_m = 24;
  return workloads::make_localization(cfg);
}

/// Records every probe's hash and compares the lot against the pinned
/// table at the end, printing a ready-to-paste table on any mismatch.
class Pins {
 public:
  explicit Pins(std::map<std::string, uint64_t> want) : want_(std::move(want)) {}

  void add(const std::string& label, uint64_t got) {
    EXPECT_FALSE(got_.count(label)) << "duplicate probe label " << label;
    got_[label] = got;
  }

  void check() const {
    bool ok = want_.size() == got_.size();
    for (const auto& [label, got] : got_) {
      const auto it = want_.find(label);
      if (it == want_.end() || it->second != got) {
        ok = false;
        ADD_FAILURE() << "model hash moved: " << label;
      }
    }
    if (ok) return;
    std::string table;
    char line[160];
    for (const auto& [label, got] : got_) {
      std::snprintf(line, sizeof line, "    {\"%s\", 0x%016" PRIx64 "ULL},\n", label.c_str(),
                    got);
      table += line;
    }
    ADD_FAILURE() << "re-pin table for this build:\n" << table;
  }

 private:
  std::map<std::string, uint64_t> want_;
  std::map<std::string, uint64_t> got_;
};

/// Walks `ladder` on one session, pinning each rung's model and the
/// extension of a probe assignment over the previous rung's variables.
void pin_ladder(Pins& pins, const std::string& tag, const Scenario& sc,
                const EncoderOptions& base, const std::vector<int>& ladder) {
  IncrementalEncoder session(*sc.tmpl, sc.spec, base);
  int prev_vars = -1;
  int deltas = 0;
  for (const int k : ladder) {
    const EncodedProblem& ep = session.encode_k(k);
    const std::string label = tag + "/k" + std::to_string(k);
    pins.add(label, problem_hash(ep));
    if (prev_vars >= 0) {
      const std::vector<double> ext = session.extend_assignment(probe_assignment(prev_vars));
      pins.add(label + "/extend", vector_hash(ext));
      if (!ext.empty()) ++deltas;
    }
    prev_vars = ep.model.num_vars();
  }
  // A ladder that rebuilt every rung would pin only the fresh emitters.
  EXPECT_GT(deltas, 0) << tag << ": no rung was delta-extended";
}

/// One repair session: a satisfiable kAvoid append, a widening rung, an
/// unsatisfiable kAvoid append, and a kMargin rebuild.
void pin_repair(Pins& pins, const std::string& tag, const Scenario& sc,
                const EncoderOptions& base) {
  IncrementalEncoder session(*sc.tmpl, sc.spec, base);
  const EncodedProblem& first = session.encode_k(4);
  pins.add(tag + "/k4", problem_hash(first));

  // Avoid the first relay of route 0's first candidate: some other
  // candidate dodges it, so the row is satisfiable.
  HardeningConstraint avoid;
  avoid.kind = HardeningConstraint::Kind::kAvoid;
  avoid.route_index = 0;
  for (const CandidatePath& c : first.candidates) {
    if (c.route_index == 0 && c.path.nodes.size() > 2) {
      avoid.nodes = {c.path.nodes[1]};
      break;
    }
  }
  ASSERT_FALSE(avoid.nodes.empty()) << tag << ": no multi-hop candidate on route 0";
  session.append_hardenings({avoid});
  pins.add(tag + "/avoid", problem_hash(session.encode_k(4)));
  EXPECT_GT(session.problem().stats.reused_candidates, 0) << tag << ": kAvoid append rebuilt";

  const int vars_before = session.problem().model.num_vars();
  pins.add(tag + "/avoid/k8", problem_hash(session.encode_k(8)));
  pins.add(tag + "/avoid/k8/extend",
           vector_hash(session.extend_assignment(probe_assignment(vars_before))));

  // Every path of route 1 leaves its source: no candidate complies.
  HardeningConstraint unsat;
  unsat.kind = HardeningConstraint::Kind::kAvoid;
  unsat.route_index = 1;
  unsat.nodes = {sc.spec.routes[1].source};
  session.append_hardenings({unsat});
  pins.add(tag + "/unsat", problem_hash(session.encode_k(8)));
  const int vars_unsat = session.problem().model.num_vars();
  pins.add(tag + "/unsat/k10", problem_hash(session.encode_k(10)));
  pins.add(tag + "/unsat/k10/extend",
           vector_hash(session.extend_assignment(probe_assignment(vars_unsat))));

  HardeningConstraint margin;
  margin.kind = HardeningConstraint::Kind::kMargin;
  const auto& path0 = session.problem().candidates.front().path.nodes;
  margin.links = {{path0[0], path0[1]}};
  margin.margin_db = 3.0;
  session.append_hardenings({margin});
  pins.add(tag + "/margin", problem_hash(session.encode_k(10)));
}

const std::map<std::string, uint64_t> kPinned = {
    {"fresh/approx", 0x9ea4f5fb5abc3084ULL},
    {"fresh/data_collection", 0xb6f30a2b89d35481ULL},
    {"fresh/energy_objective", 0xf47c4b459a1aa34eULL},
    {"fresh/full", 0x103b1f711869501fULL},
    {"fresh/full_replicas2", 0x0fbd633b6e94b559ULL},
    {"fresh/lazy", 0x0655037a510f5a3bULL},
    {"fresh/localization", 0x2ed3eeded785b24fULL},
    {"fresh/localization_dsod", 0x5797d05601a49734ULL},
    {"fresh/max_hops2", 0xb89e9b922bcdbd68ULL},
    {"fresh/no_prefilter", 0xa92c2d6cd0b9d7dcULL},
    {"fresh/replicas2", 0x940db8e163884ef4ULL},
    {"fresh/replicas2_knone", 0x8c68efd6fc6d5765ULL},
    {"fresh/threads3", 0x9ea4f5fb5abc3084ULL},
    {"ladder/45x15/k1", 0xe0728b41f8102a0dULL},
    {"ladder/45x15/k10", 0x8c1b8452ff645074ULL},
    {"ladder/45x15/k10/extend", 0x9a4458de88ef0cd2ULL},
    {"ladder/45x15/k2", 0x47887fb771603cc1ULL},
    {"ladder/45x15/k2/extend", 0xdc8061cbb95d3192ULL},
    {"ladder/45x15/k3", 0x8d64776581b9c813ULL},
    {"ladder/45x15/k3/extend", 0xe0cb6db318a35719ULL},
    {"ladder/45x15/k5", 0x4fa9e8ab32e28efbULL},
    {"ladder/45x15/k5/extend", 0xa1c7ea0e2cae04e9ULL},
    {"ladder/data_collection/k2", 0x3c221da42f7232cfULL},
    {"ladder/data_collection/k4", 0xe9109f54dd3dee31ULL},
    {"ladder/data_collection/k4/extend", 0x22db38bd3401ad35ULL},
    {"ladder/data_collection/k8", 0x932dad8c595c6c7bULL},
    {"ladder/data_collection/k8/extend", 0xf8d07f8fc7499422ULL},
    {"ladder/energy_objective/k1", 0x4ee09e7807aadc0dULL},
    {"ladder/energy_objective/k3", 0x977470b5877e4a82ULL},
    {"ladder/energy_objective/k3/extend", 0x19df78f1ee6de4caULL},
    {"ladder/energy_objective/k5", 0x273c735a95ed7072ULL},
    {"ladder/energy_objective/k5/extend", 0x57b83d19e212ae33ULL},
    {"ladder/energy_objective/k8", 0x92457c08f5656679ULL},
    {"ladder/energy_objective/k8/extend", 0xb6a9ace209bf91aeULL},
    {"ladder/lazy/k1", 0xdc1e42fd3588c134ULL},
    {"ladder/lazy/k3", 0xef76f8589931ec5bULL},
    {"ladder/lazy/k3/extend", 0x102df8247bd2ee08ULL},
    {"ladder/lazy/k5", 0xc69030870c2e8e4cULL},
    {"ladder/lazy/k5/extend", 0x7905f4c2f1c69de7ULL},
    {"ladder/lazy/k8", 0xfdb6e9ea1b979897ULL},
    {"ladder/lazy/k8/extend", 0xc75de67feff02046ULL},
    {"ladder/max_hops2/k1", 0x2d3d5e4a0a95ff15ULL},
    {"ladder/max_hops2/k3", 0x2b8021036274e852ULL},
    {"ladder/max_hops2/k3/extend", 0x102df8247bd2ee08ULL},
    {"ladder/max_hops2/k5", 0x7d3bec5c652400a7ULL},
    {"ladder/max_hops2/k5/extend", 0x63bc25b0a910bfabULL},
    {"ladder/max_hops2/k8", 0x151956f3d0e749faULL},
    {"ladder/max_hops2/k8/extend", 0x96e65377b681d884ULL},
    {"ladder/plain/k1", 0x2d3d5e4a0a95ff15ULL},
    {"ladder/plain/k3", 0x2b8021036274e852ULL},
    {"ladder/plain/k3/extend", 0x102df8247bd2ee08ULL},
    {"ladder/plain/k5", 0xb541ec7951f0b696ULL},
    {"ladder/plain/k5/extend", 0x7905f4c2f1c69de7ULL},
    {"ladder/plain/k8", 0xbf3fefca28dc4a58ULL},
    {"ladder/plain/k8/extend", 0xc75de67feff02046ULL},
    {"ladder/replicas2/k10", 0x6158fa21394d8e33ULL},
    {"ladder/replicas2/k10/extend", 0xa8c7f832281a39c5ULL},
    {"ladder/replicas2/k2", 0xe7c67ac85f441788ULL},
    {"ladder/replicas2/k4", 0xe65478ab924a2405ULL},
    {"ladder/replicas2/k4/extend", 0xecd2e12378afbd2aULL},
    {"ladder/replicas2/k6", 0xd67425a06e89cad0ULL},
    {"ladder/replicas2/k6/extend", 0xa1c60bc8d3940496ULL},
    {"ladder/replicas2_lazy/k10", 0xe3e90292c9a7563aULL},
    {"ladder/replicas2_lazy/k10/extend", 0xa8c7f832281a39c5ULL},
    {"ladder/replicas2_lazy/k2", 0xa4cb361e4fda8f59ULL},
    {"ladder/replicas2_lazy/k4", 0xbc383b5514b58d6cULL},
    {"ladder/replicas2_lazy/k4/extend", 0xecd2e12378afbd2aULL},
    {"ladder/replicas2_lazy/k6", 0x8590d3ada7f855a9ULL},
    {"ladder/replicas2_lazy/k6/extend", 0xa1c60bc8d3940496ULL},
    {"repair/lazy/avoid", 0xb1c2c3f623c1a661ULL},
    {"repair/lazy/avoid/k8", 0x1ac4e15b2c5741bbULL},
    {"repair/lazy/avoid/k8/extend", 0x2aea412a431879f5ULL},
    {"repair/lazy/k4", 0x4540e4e1efd02951ULL},
    {"repair/lazy/margin", 0xdfaf6afcfda91cacULL},
    {"repair/lazy/unsat", 0x5adb0dd728500c39ULL},
    {"repair/lazy/unsat/k10", 0x4932ee1418901a31ULL},
    {"repair/lazy/unsat/k10/extend", 0x10688b6985e04b27ULL},
    {"repair/plain/avoid", 0x14377a12203871d6ULL},
    {"repair/plain/avoid/k8", 0xa5481c5d6cd896f8ULL},
    {"repair/plain/avoid/k8/extend", 0x2aea412a431879f5ULL},
    {"repair/plain/k4", 0xd62b11bb2c8ca2a2ULL},
    {"repair/plain/margin", 0x187eb940fc88fc94ULL},
    {"repair/plain/unsat", 0xd4aed2099ccadfb2ULL},
    {"repair/plain/unsat/k10", 0xc9d35cfc9b9efd43ULL},
    {"repair/plain/unsat/k10/extend", 0x10688b6985e04b27ULL},
};

TEST(EncoderIdentity, FreshEncodesMatchPinnedHashes) {
  Pins pins(std::map<std::string, uint64_t>(kPinned.lower_bound("fresh/"),
                                            kPinned.lower_bound("fresh0")));
  const auto sc = scalable(30, 10);
  const auto fresh = [&](const std::string& label, const Scenario& s, EncoderOptions o) {
    pins.add("fresh/" + label, problem_hash(Encoder(*s.tmpl, s.spec, std::move(o)).encode()));
  };
  EncoderOptions o;
  o.k_star = 5;
  fresh("approx", *sc, o);
  {
    EncoderOptions lazy = o;
    lazy.lazy_separation = true;
    fresh("lazy", *sc, lazy);
  }
  {
    EncoderOptions threaded = o;
    threaded.threads = 3;
    fresh("threads3", *sc, threaded);
  }
  {
    EncoderOptions no_pre = o;
    no_pre.lq_prefilter = false;
    fresh("no_prefilter", *sc, no_pre);
  }
  const auto rep2 = scalable(30, 10, 2);
  {
    EncoderOptions r = o;
    r.k_star = 6;
    fresh("replicas2", *rep2, r);
    r.disjoint_strategy = EncoderOptions::DisjointStrategy::kNone;
    fresh("replicas2_knone", *rep2, r);
  }
  {
    auto en = scalable(30, 10);
    en->spec.objective = {1.0, 0.05, 0.0};
    fresh("energy_objective", *en, o);
  }
  {
    auto hop = scalable(30, 10);
    for (auto& r : hop->spec.routes) r.max_hops = 2;
    fresh("max_hops2", *hop, o);
  }
  {
    const auto tiny = scalable(12, 4);
    EncoderOptions full = o;
    full.mode = EncoderOptions::PathMode::kFull;
    fresh("full", *tiny, full);
    const auto tiny2 = scalable(12, 4, 2);
    fresh("full_replicas2", *tiny2, full);
  }
  {
    const auto loc = small_localization();
    EncoderOptions lo;
    lo.loc_candidates = 8;
    fresh("localization", *loc, lo);
    auto dsod = small_localization();
    dsod->spec.objective = {1.0, 0.0, 0.5};
    fresh("localization_dsod", *dsod, lo);
  }
  {
    const auto dc = small_data_collection();
    EncoderOptions d;
    d.k_star = 6;
    fresh("data_collection", *dc, d);
  }
  pins.check();
}

TEST(EncoderIdentity, SessionLaddersMatchPinnedHashes) {
  Pins pins(std::map<std::string, uint64_t>(kPinned.lower_bound("ladder/"),
                                            kPinned.lower_bound("ladder0")));
  const std::vector<int> ladder{1, 3, 5, 8};
  const auto sc = scalable(30, 10);
  EncoderOptions base;
  pin_ladder(pins, "ladder/plain", *sc, base, ladder);
  {
    EncoderOptions lazy = base;
    lazy.lazy_separation = true;
    pin_ladder(pins, "ladder/lazy", *sc, lazy, ladder);
  }
  const auto rep2 = scalable(30, 10, 2);
  pin_ladder(pins, "ladder/replicas2", *rep2, base, {2, 4, 6, 10});
  {
    EncoderOptions lazy = base;
    lazy.lazy_separation = true;
    pin_ladder(pins, "ladder/replicas2_lazy", *rep2, lazy, {2, 4, 6, 10});
  }
  {
    auto en = scalable(30, 10);
    en->spec.objective = {1.0, 0.05, 0.0};
    pin_ladder(pins, "ladder/energy_objective", *en, base, ladder);
  }
  {
    auto hop = scalable(30, 10);
    for (auto& r : hop->spec.routes) r.max_hops = 2;
    pin_ladder(pins, "ladder/max_hops2", *hop, base, ladder);
  }
  {
    const auto dc = small_data_collection();
    pin_ladder(pins, "ladder/data_collection", *dc, base, {2, 4, 8});
  }
  {
    const auto big = scalable(45, 15);
    pin_ladder(pins, "ladder/45x15", *big, base, {1, 2, 3, 5, 10});
  }
  pins.check();
}

TEST(EncoderIdentity, RepairSessionsMatchPinnedHashes) {
  Pins pins(std::map<std::string, uint64_t>(kPinned.lower_bound("repair/"),
                                            kPinned.lower_bound("repair0")));
  const auto sc = scalable(30, 10);
  EncoderOptions base;
  pin_repair(pins, "repair/plain", *sc, base);
  EncoderOptions lazy = base;
  lazy.lazy_separation = true;
  pin_repair(pins, "repair/lazy", *sc, lazy);
  pins.check();
}

}  // namespace
}  // namespace wnet::archex
