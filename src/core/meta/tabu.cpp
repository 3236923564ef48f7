#include "core/meta/tabu.h"

#include <algorithm>
#include <set>

#include "milp/tol.h"

namespace wnet::archex::meta {

namespace {

uint64_t mix3(uint64_t a, uint64_t b, uint64_t c) {
  return util::splitmix64(a ^ util::splitmix64(b ^ util::splitmix64(c)));
}

bool same_path(const graph::Path& a, const graph::Path& b) {
  return a.nodes == b.nodes;
}

/// Nodes the picked topology touches.
std::set<int> used_nodes(const RoutePicks& picks) {
  std::set<int> used;
  for (const auto& [g, c] : picks) used.insert(c->path.nodes.begin(), c->path.nodes.end());
  return used;
}

}  // namespace

TabuSearch::TabuSearch(const EncodedProblem& ep, TabuOptions opts)
    : ep_(&ep), opts_(std::move(opts)) {
  // Deterministic group order: std::map over (route, replica).
  std::map<std::pair<int, int>, std::vector<int>> by_group;
  for (size_t i = 0; i < ep_->candidates.size(); ++i) {
    const CandidatePath& c = ep_->candidates[i];
    by_group[{c.route_index, c.replica}].push_back(static_cast<int>(i));
  }
  for (auto& [key, members] : by_group) {
    group_keys_.push_back(key);
    groups_.push_back(std::move(members));
  }
}

uint64_t TabuSearch::state_hash() const {
  uint64_t h = 14695981039346656037ull;
  const auto mixin = [&h](uint64_t v) {
    h ^= util::splitmix64(v);
    h *= 1099511628211ull;
  };
  for (const int a : assignment_) mixin(static_cast<uint64_t>(a) + 1);
  mixin(0x5eedull);
  for (const auto& [node, comp] : overrides_) {
    mixin(static_cast<uint64_t>(node) + 1);
    mixin(static_cast<uint64_t>(comp) + 1);
  }
  return h;
}

const TabuSearch::EvalResult& TabuSearch::evaluate_current() {
  const uint64_t key = state_hash();
  if (const auto it = cache_.find(key); it != cache_.end()) {
    ++stats_.cache_hits;
    return it->second;
  }
  ++stats_.evaluations;

  // Component overrides are only meaningful (and only safely feasible) on
  // nodes the selected topology actually touches.
  const RoutePicks picks = current_picks();
  const std::set<int> used = used_nodes(picks);
  milp::Model restricted = restrict_to_picks(*ep_, picks);
  for (const auto& [node, comp] : overrides_) {
    if (used.count(node) == 0) continue;
    if (ep_->mapping.count({comp, node}) == 0) continue;
    for (const auto& [ck, var] : ep_->mapping) {
      if (ck.second != node) continue;
      const bool on = ck.first == comp;
      restricted.set_bounds(var, on ? 1.0 : 0.0, on ? 1.0 : 0.0);
    }
  }

  milp::SolveOptions so;
  so.time_limit_s = opts_.eval_time_limit_s;
  so.node_limit = opts_.eval_node_limit;
  so.rel_gap = opts_.eval_rel_gap;
  so.exec = opts_.exec;
  so.collect_timeline = false;
  // The restriction must satisfy the same lazily omitted families as the
  // exact member; the private pool carries their cuts across evaluations.
  so.cuts.separators = opts_.separators;
  so.cuts.shared_pool = &eval_pool_;
  const milp::MipResult res = milp::solve(restricted, so);

  EvalResult ev;
  ev.feasible = res.has_solution();
  if (ev.feasible) {
    ev.objective = res.objective;
    ev.x = res.x;
  } else {
    ++stats_.infeasible_evals;
  }
  return cache_.emplace(key, std::move(ev)).first->second;
}

RoutePicks TabuSearch::current_picks() const {
  RoutePicks picks;
  for (size_t g = 0; g < groups_.size(); ++g) {
    picks[group_keys_[g]] =
        &ep_->candidates[static_cast<size_t>(groups_[g][static_cast<size_t>(assignment_[g])])];
  }
  return picks;
}

void TabuSearch::seeded_restart() {
  ++restarts_;
  ++stats_.restarts;
  util::Rng rng(mix3(opts_.seed, 0x5274ull, static_cast<uint64_t>(restarts_)));
  for (size_t g = 0; g < groups_.size(); ++g) {
    assignment_[g] = rng.uniform_int(0, static_cast<int>(groups_[g].size()) - 1);
  }
  overrides_.clear();
  tabu_.clear();
  stall_ = 0;
}

std::vector<TabuSearch::Move> TabuSearch::sample_moves(util::Rng& rng) {
  std::vector<Move> moves;
  moves.reserve(static_cast<size_t>(opts_.neighborhood));

  // Groups with any alternative to move to, and routes with >= 2 replica
  // groups (swap candidates).
  std::vector<int> movable;
  for (size_t g = 0; g < groups_.size(); ++g) {
    if (groups_[g].size() > 1) movable.push_back(static_cast<int>(g));
  }
  std::map<int, std::vector<int>> route_groups;
  for (size_t g = 0; g < groups_.size(); ++g) {
    route_groups[group_keys_[g].first].push_back(static_cast<int>(g));
  }
  std::vector<int> swap_routes;
  for (const auto& [route, gs] : route_groups) {
    if (gs.size() >= 2) swap_routes.push_back(route);
  }
  // Nodes used by the current topology that offer more than one component.
  const std::set<int> used = used_nodes(current_picks());
  std::map<int, std::vector<int>> node_components;
  for (const auto& [ck, var] : ep_->mapping) {
    if (used.count(ck.second) != 0) node_components[ck.second].push_back(ck.first);
  }
  std::vector<int> toggle_nodes;
  for (const auto& [node, comps] : node_components) {
    if (comps.size() >= 2) toggle_nodes.push_back(node);
  }

  for (int s = 0; s < opts_.neighborhood; ++s) {
    const int roll = rng.uniform_int(0, 9);
    if (roll < 6 && !movable.empty()) {
      // Reroute one requirement through an alternative Yen candidate.
      const int g = movable[static_cast<size_t>(
          rng.uniform_int(0, static_cast<int>(movable.size()) - 1))];
      const int n_members = static_cast<int>(groups_[static_cast<size_t>(g)].size());
      int m = rng.uniform_int(0, n_members - 2);
      if (m >= assignment_[static_cast<size_t>(g)]) ++m;  // skip the current member
      Move mv;
      mv.kind = Move::Kind::kReroute;
      mv.group = g;
      mv.member = m;
      moves.push_back(mv);
    } else if (roll < 8 && !swap_routes.empty()) {
      // Swap replica placement: exchange the two groups' paths, when each
      // group's candidate list carries the other's path.
      const int route = swap_routes[static_cast<size_t>(
          rng.uniform_int(0, static_cast<int>(swap_routes.size()) - 1))];
      const std::vector<int>& gs = route_groups[route];
      const int ia = rng.uniform_int(0, static_cast<int>(gs.size()) - 1);
      int ib = rng.uniform_int(0, static_cast<int>(gs.size()) - 2);
      if (ib >= ia) ++ib;
      const int ga = gs[static_cast<size_t>(ia)], gb = gs[static_cast<size_t>(ib)];
      const graph::Path& pa = ep_->candidates[static_cast<size_t>(
          groups_[static_cast<size_t>(ga)][static_cast<size_t>(assignment_[static_cast<size_t>(ga)])])].path;
      const graph::Path& pb = ep_->candidates[static_cast<size_t>(
          groups_[static_cast<size_t>(gb)][static_cast<size_t>(assignment_[static_cast<size_t>(gb)])])].path;
      int ma = -1, mb = -1;
      for (size_t m = 0; m < groups_[static_cast<size_t>(ga)].size(); ++m) {
        if (same_path(ep_->candidates[static_cast<size_t>(groups_[static_cast<size_t>(ga)][m])].path, pb)) {
          ma = static_cast<int>(m);
          break;
        }
      }
      for (size_t m = 0; m < groups_[static_cast<size_t>(gb)].size(); ++m) {
        if (same_path(ep_->candidates[static_cast<size_t>(groups_[static_cast<size_t>(gb)][m])].path, pa)) {
          mb = static_cast<int>(m);
          break;
        }
      }
      if (ma < 0 || mb < 0 || ma == assignment_[static_cast<size_t>(ga)]) continue;
      Move mv;
      mv.kind = Move::Kind::kSwap;
      mv.group = ga;
      mv.member = ma;
      mv.group_b = gb;
      mv.member_b = mb;
      moves.push_back(mv);
    } else if (!toggle_nodes.empty()) {
      // Toggle the library component of a node the topology uses.
      const int node = toggle_nodes[static_cast<size_t>(
          rng.uniform_int(0, static_cast<int>(toggle_nodes.size()) - 1))];
      const std::vector<int>& comps = node_components[node];
      const int comp =
          comps[static_cast<size_t>(rng.uniform_int(0, static_cast<int>(comps.size()) - 1))];
      const auto cur = overrides_.find(node);
      if (cur != overrides_.end() && cur->second == comp) continue;
      Move mv;
      mv.kind = Move::Kind::kToggle;
      mv.node = node;
      mv.component = comp;
      moves.push_back(mv);
    }
  }
  return moves;
}

void TabuSearch::apply(const Move& m) {
  switch (m.kind) {
    case Move::Kind::kReroute:
      assignment_[static_cast<size_t>(m.group)] = m.member;
      break;
    case Move::Kind::kSwap:
      assignment_[static_cast<size_t>(m.group)] = m.member;
      assignment_[static_cast<size_t>(m.group_b)] = m.member_b;
      break;
    case Move::Kind::kToggle:
      overrides_[m.node] = m.component;
      break;
  }
}

void TabuSearch::undo(const std::vector<int>& prev_assign,
                      const std::map<int, int>& prev_overrides) {
  assignment_ = prev_assign;
  overrides_ = prev_overrides;
}

namespace {

/// Ban keys describe target states: applying a move bans the key that
/// would take the state back, and a sampled move is tabu when its own
/// target key is banned.
uint64_t reroute_key(int group, int member) {
  return mix3(0x01, static_cast<uint64_t>(group), static_cast<uint64_t>(member) + 1);
}
uint64_t toggle_key(int node, int component) {
  return mix3(0x02, static_cast<uint64_t>(node), static_cast<uint64_t>(component) + 2);
}

}  // namespace

bool TabuSearch::run(int iterations) {
  termination_ = util::exec::TerminationReason::kCompleted;
  if (!runnable() || iterations < 0) return false;
  bool improved_any = false;

  // First call: start from the fixed-routing pick, disjoint or not — the
  // explorer's probe restriction — and evaluate it.
  if (assignment_.empty()) {
    const FixedRouting start = pick_fixed_routing(*ep_);
    for (size_t g = 0; g < groups_.size(); ++g) {
      const int picked = static_cast<int>(start.picks.at(group_keys_[g]) - ep_->candidates.data());
      const auto it = std::find(groups_[g].begin(), groups_[g].end(), picked);
      assignment_.push_back(static_cast<int>(it - groups_[g].begin()));
    }
    const EvalResult& ev = evaluate_current();
    if (ev.feasible) {
      best_feasible_ = true;
      best_obj_ = ev.objective;
      best_x_ = ev.x;
      improved_any = true;
    }
  }

  for (int it = 0; it < iterations; ++it) {
    if (certified()) break;
    util::exec::TerminationReason why = util::exec::TerminationReason::kCompleted;
    if (opts_.exec.stopped(&why)) {
      termination_ = why;
      break;
    }
    if (opts_.exec.budget != nullptr && !opts_.exec.budget->charge_meta_iterations()) {
      termination_ = util::exec::TerminationReason::kNodeLimit;
      break;
    }
    ++iteration_;
    ++stats_.iterations;

    util::Rng rng(mix3(opts_.seed, 0x7AB0ull, static_cast<uint64_t>(iteration_)));
    const std::vector<Move> moves = sample_moves(rng);

    const std::vector<int> prev_assign = assignment_;
    const std::map<int, int> prev_overrides = overrides_;

    int chosen = -1;
    bool chosen_feasible = false;
    bool chosen_was_tabu = false;
    double chosen_obj = milp::kInf;
    std::vector<Move> kept;
    kept.reserve(moves.size());
    for (const Move& m : moves) {
      bool is_tabu = false;
      switch (m.kind) {
        case Move::Kind::kReroute: {
          const auto it2 = tabu_.find(reroute_key(m.group, m.member));
          is_tabu = it2 != tabu_.end() && it2->second > iteration_;
          break;
        }
        case Move::Kind::kSwap: {
          const auto ia = tabu_.find(reroute_key(m.group, m.member));
          const auto ib = tabu_.find(reroute_key(m.group_b, m.member_b));
          is_tabu = (ia != tabu_.end() && ia->second > iteration_) ||
                    (ib != tabu_.end() && ib->second > iteration_);
          break;
        }
        case Move::Kind::kToggle: {
          const auto it2 = tabu_.find(toggle_key(m.node, m.component));
          is_tabu = it2 != tabu_.end() && it2->second > iteration_;
          break;
        }
      }
      apply(m);
      const EvalResult& ev = evaluate_current();
      undo(prev_assign, prev_overrides);

      // Aspiration on the objective: a tabu move that beats the global
      // best is always admissible.
      const bool aspires =
          ev.feasible && (!best_feasible_ || ev.objective < best_obj_ - milp::tol::kObjImprove);
      if (is_tabu && !aspires) continue;
      const bool better =
          chosen < 0 ||
          (ev.feasible && !chosen_feasible) ||
          (ev.feasible == chosen_feasible && ev.feasible &&
           ev.objective < chosen_obj - milp::tol::kObjImprove);
      if (better) {
        chosen = static_cast<int>(kept.size());
        chosen_feasible = ev.feasible;
        chosen_obj = ev.objective;
        chosen_was_tabu = is_tabu;
      }
      kept.push_back(m);
    }

    if (chosen < 0) {
      ++stall_;
    } else {
      const Move& m = kept[static_cast<size_t>(chosen)];
      if (chosen_was_tabu) ++stats_.aspiration_overrides;
      // Ban the reversal before mutating the state (the keys describe the
      // pre-move configuration).
      const long until = iteration_ + opts_.tenure;
      switch (m.kind) {
        case Move::Kind::kReroute:
          tabu_[reroute_key(m.group, prev_assign[static_cast<size_t>(m.group)])] = until;
          ++stats_.moves_reroute;
          break;
        case Move::Kind::kSwap:
          tabu_[reroute_key(m.group, prev_assign[static_cast<size_t>(m.group)])] = until;
          tabu_[reroute_key(m.group_b, prev_assign[static_cast<size_t>(m.group_b)])] = until;
          ++stats_.moves_swap;
          break;
        case Move::Kind::kToggle: {
          const auto cur = prev_overrides.find(m.node);
          tabu_[toggle_key(m.node, cur != prev_overrides.end() ? cur->second : -1)] = until;
          ++stats_.moves_toggle;
          break;
        }
      }
      apply(m);
      const EvalResult& ev = evaluate_current();
      if (ev.feasible && (!best_feasible_ || ev.objective < best_obj_ - milp::tol::kObjImprove)) {
        best_feasible_ = true;
        best_obj_ = ev.objective;
        best_x_ = ev.x;
        stall_ = 0;
        improved_any = true;
      } else {
        ++stall_;
      }
    }

    if (stall_ >= opts_.stall_before_restart && restarts_ < opts_.max_restarts) {
      seeded_restart();
      const EvalResult& ev = evaluate_current();
      if (ev.feasible && (!best_feasible_ || ev.objective < best_obj_ - milp::tol::kObjImprove)) {
        best_feasible_ = true;
        best_obj_ = ev.objective;
        best_x_ = ev.x;
        improved_any = true;
      }
    }
  }
  return improved_any;
}

void TabuSearch::set_aspiration_bound(double global_lower_bound) {
  aspiration_bound_ = std::max(aspiration_bound_, global_lower_bound);
}

bool TabuSearch::certified() const {
  if (!best_feasible_ || !(aspiration_bound_ > -milp::kInf)) return false;
  return milp::relative_gap(best_obj_, aspiration_bound_) <= opts_.eval_rel_gap;
}

void TabuSearch::adopt_incumbent(const std::vector<double>& x, double objective) {
  if (!runnable()) return;
  if (static_cast<int>(x.size()) < ep_->model.num_vars()) return;
  if (best_feasible_ && objective >= best_obj_ - milp::tol::kObjImprove) return;
  ++stats_.adopted_incumbents;
  best_feasible_ = true;
  best_obj_ = objective;
  best_x_.assign(x.begin(), x.begin() + ep_->model.num_vars());

  // Re-anchor the walk on the adopted topology when its selector pattern
  // maps cleanly onto the group structure.
  std::vector<int> derived(groups_.size(), -1);
  for (size_t g = 0; g < groups_.size(); ++g) {
    for (size_t m = 0; m < groups_[g].size(); ++m) {
      const CandidatePath& c = ep_->candidates[static_cast<size_t>(groups_[g][m])];
      if (x[static_cast<size_t>(c.selector.id)] > 0.5) {
        derived[g] = static_cast<int>(m);
        break;
      }
    }
    if (derived[g] < 0) return;  // keep best_*, leave the walk where it is
  }
  assignment_ = std::move(derived);
  overrides_.clear();
  stall_ = 0;
}

}  // namespace wnet::archex::meta
