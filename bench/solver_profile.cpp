// Solver telemetry and regression harness for the self-contained MILP core.
//
// Runs a fixed, deterministic family of instances — pure MILPs (knapsack,
// set cover, assignment, integer boxes) plus Table-3-style wireless-design
// encodings — through milp::solve and reports the full SolveStats JSON per
// instance (nodes, LP iterations, warm-start hit rate, propagation fixings,
// incumbent timeline).
//
// Modes:
//   (default)          A/B-compares the production solver configuration
//                      against the legacy one (most-fractional branching,
//                      no node propagation) and prints per-instance rows
//                      plus geometric-mean reduction factors. Exits
//                      non-zero if any instance's optima disagree.
//   --smoke            Runs the quick subset with the current configuration
//                      and compares nodes / LP iterations / objective /
//                      numerical failures against a checked-in baseline
//                      JSON; exits non-zero on a > 25% count regression or
//                      on any numerical failure beyond the baseline's (CI
//                      tier-1 runs this).
//   --write-baseline   Regenerates the baseline file at --baseline.
//   --time-budget S    Anytime/budget mode: runs the smoke subset under one
//                      shared wall-clock deadline of S seconds (plus the
//                      process-wide SIGINT/SIGTERM token) and prints one
//                      strict-JSON row per solve plus a final summary row.
//                      No baselines or A/B gates: partial results are the
//                      point. Always exits 0 unless a solve crashes.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/encode/encoder.h"
#include "core/encode/separation.h"
#include "core/workloads/scenarios.h"
#include "milp/solver.h"
#include "util/exec/exec.h"
#include "util/obs/json.h"
#include "util/obs/trace.h"
#include "util/stopwatch.h"
#include "util/table.h"

using namespace wnet;
using namespace wnet::archex;

namespace {

struct Instance {
  std::string name;
  milp::Model model;
  bool smoke = true;  ///< included in the --smoke subset
};

milp::Model make_knapsack(uint32_t seed, int n, int rows) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> w(1, 9);
  std::uniform_int_distribution<int> p(1, 20);
  milp::Model m;
  std::vector<milp::Var> xs;
  xs.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) xs.push_back(m.add_binary("x"));
  for (int r = 0; r < rows; ++r) {
    milp::LinExpr e;
    int total = 0;
    for (int i = 0; i < n; ++i) {
      const int wi = w(rng);
      total += wi;
      e += static_cast<double>(wi) * milp::LinExpr(xs[static_cast<size_t>(i)]);
    }
    m.add_le(std::move(e), std::floor(0.4 * total));
  }
  milp::LinExpr obj;
  for (int i = 0; i < n; ++i) obj += -static_cast<double>(p(rng)) * milp::LinExpr(xs[static_cast<size_t>(i)]);
  m.minimize(obj);
  return m;
}

milp::Model make_set_cover(uint32_t seed, int n, int rows) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> cost(1, 10);
  milp::Model m;
  std::vector<milp::Var> xs;
  xs.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) xs.push_back(m.add_binary("x"));
  for (int r = 0; r < rows; ++r) {
    milp::LinExpr e;
    int members = 0;
    for (int i = 0; i < n; ++i) {
      if (rng() % 4 == 0) {
        e += milp::LinExpr(xs[static_cast<size_t>(i)]);
        ++members;
      }
    }
    if (members < 2) e += milp::LinExpr(xs[static_cast<size_t>(r % n)]);
    m.add_ge(std::move(e), 1.0);
  }
  milp::LinExpr obj;
  for (int i = 0; i < n; ++i) obj += static_cast<double>(cost(rng)) * milp::LinExpr(xs[static_cast<size_t>(i)]);
  m.minimize(obj);
  return m;
}

milp::Model make_assignment(uint32_t seed, int n) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> cost(1, 50);
  milp::Model m;
  std::vector<std::vector<milp::Var>> a(static_cast<size_t>(n));
  milp::LinExpr obj;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      a[static_cast<size_t>(i)].push_back(m.add_binary("a"));
      obj += static_cast<double>(cost(rng)) * milp::LinExpr(a[static_cast<size_t>(i)].back());
    }
  }
  for (int i = 0; i < n; ++i) {
    milp::LinExpr row, col;
    for (int j = 0; j < n; ++j) {
      row += milp::LinExpr(a[static_cast<size_t>(i)][static_cast<size_t>(j)]);
      col += milp::LinExpr(a[static_cast<size_t>(j)][static_cast<size_t>(i)]);
    }
    m.add_eq(std::move(row), 1.0);
    m.add_eq(std::move(col), 1.0);
  }
  m.minimize(obj);
  return m;
}

milp::Model make_int_box(uint32_t seed, int n, int rows) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> coef(-5, 5);
  milp::Model m;
  std::vector<milp::Var> xs;
  xs.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) xs.push_back(m.add_integer("x", 0, 6));
  for (int r = 0; r < rows; ++r) {
    milp::LinExpr e;
    bool nonzero = false;
    for (int i = 0; i < n; ++i) {
      const int c = coef(rng);
      if (c != 0) {
        e.add_term(xs[static_cast<size_t>(i)], c);
        nonzero = true;
      }
    }
    if (!nonzero) continue;
    m.add_le(std::move(e), 8.0 + static_cast<double>(rng() % 10));
  }
  milp::LinExpr obj;
  for (int i = 0; i < n; ++i) obj += static_cast<double>(coef(rng)) * milp::LinExpr(xs[static_cast<size_t>(i)]);
  m.minimize(obj);
  return m;
}

milp::Model make_table3(int nodes, int devices, int kstar) {
  workloads::ScalableConfig cfg;
  cfg.total_nodes = nodes;
  cfg.end_devices = devices;
  const auto sc = workloads::make_scalable(cfg);
  EncoderOptions eopts;
  eopts.k_star = kstar;
  Encoder enc(*sc->tmpl, sc->spec, eopts);
  return enc.encode().model;
}

std::vector<Instance> build_family(int kstar, bool smoke_only) {
  std::vector<Instance> out;
  out.push_back({"knapsack-25x5", make_knapsack(11, 25, 5), true});
  out.push_back({"knapsack-35x8", make_knapsack(12, 35, 8), true});
  out.push_back({"setcover-30x24", make_set_cover(21, 30, 24), true});
  out.push_back({"setcover-40x32", make_set_cover(22, 40, 32), true});
  out.push_back({"assignment-8", make_assignment(31, 8), true});
  out.push_back({"intbox-10x8", make_int_box(41, 10, 8), true});
  out.push_back({"table3-30x10", make_table3(30, 10, kstar), true});
  out.push_back({"table3-50x20", make_table3(50, 20, kstar), true});
  if (!smoke_only) {
    out.push_back({"knapsack-45x10", make_knapsack(13, 45, 10), false});
    out.push_back({"assignment-10", make_assignment(32, 10), false});
    out.push_back({"table3-80x30", make_table3(80, 30, kstar), false});
  }
  return out;
}

struct BaselineEntry {
  std::string name;
  double objective = 0.0;
  long nodes = 0;
  long lp_iterations = 0;
  long numerical_failures = 0;
};

std::vector<BaselineEntry> load_baseline(const std::string& path) {
  std::vector<BaselineEntry> out;
  std::ifstream in(path);
  if (!in) return out;
  std::string line;
  while (std::getline(in, line)) {
    char name[128] = {0};
    BaselineEntry e;
    if (std::sscanf(line.c_str(),
                    "  {\"name\": \"%127[^\"]\", \"objective\": %lf, \"nodes\": %ld, "
                    "\"lp_iterations\": %ld, \"numerical_failures\": %ld",
                    name, &e.objective, &e.nodes, &e.lp_iterations, &e.numerical_failures) == 5) {
      e.name = name;
      out.push_back(e);
    }
  }
  return out;
}

void write_baseline(const std::string& path, const std::vector<BaselineEntry>& entries) {
  // One entry per line (the loader is line-oriented), each line produced by
  // the obs writer so the file parses strictly and is locale-immune.
  std::ofstream outf(path);
  outf << "{\"instances\": [\n";
  for (size_t i = 0; i < entries.size(); ++i) {
    wnet::util::obs::JsonWriter w;
    w.begin_object();
    w.field("name", entries[i].name);
    w.field("objective", entries[i].objective);
    w.field("nodes", entries[i].nodes);
    w.field("lp_iterations", entries[i].lp_iterations);
    w.field("numerical_failures", entries[i].numerical_failures);
    w.end_object();
    outf << "  " << w.take() << (i + 1 < entries.size() ? "," : "") << "\n";
  }
  outf << "]}\n";
}

bool objectives_match(double a, double b) {
  return std::abs(a - b) <= 1e-6 * std::max(1.0, std::max(std::abs(a), std::abs(b)));
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args(argc, argv,
                   {{"time-limit", "120"},
                    {"kstar", "6"},
                    {"json", "0"},
                    {"trace", ""},
                    {"smoke", "0"},
                    {"write-baseline", "0"},
                    {"baseline", "bench/solver_profile_baseline.json"},
                    {"time-budget", "0"}});

  // Ctrl-C / SIGTERM trip the process-wide cancellation token instead of
  // killing the process: in-flight solves return their incumbents and the
  // budget-mode summary row still gets written.
  util::exec::install_interrupt_handlers();

  const bool smoke = args.getb("smoke");
  const bool write = args.getb("write-baseline");
  const double budget_s = args.getd("time-budget");

  // --trace out.json: record spans/counters for every solve and dump a
  // Chrome trace (chrome://tracing, ui.perfetto.dev) on any exit path.
  struct TraceDump {
    std::string path;
    ~TraceDump() {
      if (path.empty()) return;
      if (util::obs::TraceRecorder::global().write_chrome_trace(path)) {
        std::printf("trace written: %s\n", path.c_str());
      } else {
        std::fprintf(stderr, "FAIL: could not write trace %s\n", path.c_str());
      }
    }
  } trace_dump{args.gets("trace")};
  if (!trace_dump.path.empty()) util::obs::TraceRecorder::global().set_enabled(true);

  milp::SolveOptions current;
  current.time_limit_s = args.getd("time-limit");
  milp::SolveOptions legacy = current;
  legacy.pseudocost_branching = false;
  legacy.node_propagation = false;

  auto family = build_family(args.geti("kstar"),
                             /*smoke_only=*/smoke || write || budget_s > 0.0);

  if (budget_s > 0.0) {
    // Budget mode. The deadline starts *after* the family is built so the
    // instance set is deterministic; every solve shares the same ExecControl
    // and gets whatever wall clock remains. A solve cut short still reports
    // a strict-JSON row with its termination reason, bound and gap.
    util::exec::ExecControl ctl;
    ctl.deadline = util::exec::Deadline::after(budget_s);
    ctl.token = util::exec::interrupt_token();
    milp::SolveOptions bopts = current;
    bopts.exec = ctl;
    int attempted = 0;
    const char* last_termination = "completed";
    for (const auto& inst : family) {
      if (ctl.stopped()) break;
      const milp::MipResult res = milp::solve(inst.model, bopts);
      last_termination = util::exec::to_string(res.stats.termination);
      ++attempted;
      util::obs::JsonWriter w;
      w.begin_object();
      w.field("instance", inst.name);
      w.key("solver").raw(res.stats.to_json());
      w.end_object();
      std::printf("%s\n", w.take().c_str());
    }
    util::obs::JsonWriter w;
    w.begin_object();
    w.field("mode", "budget");
    w.number_field("time_budget_s", budget_s);
    w.field("instances_total", static_cast<long>(family.size()));
    w.field("instances_attempted", attempted);
    w.field("last_termination", last_termination);
    w.field("interrupted", util::exec::interrupt_token().cancelled());
    w.field("interrupt_signal", util::exec::interrupt_signal());
    w.end_object();
    std::printf("%s\n", w.take().c_str());
    return 0;
  }

  util::Table table({"Instance", "Obj", "Nodes (new)", "LP iters (new)", "Nodes (old)",
                     "LP iters (old)", "Time new (s)", "Time old (s)"});
  std::vector<BaselineEntry> measured;
  double log_iter_ratio = 0.0;
  double log_node_ratio = 0.0;
  double log_time_ratio = 0.0;
  int compared = 0;
  // Same sums restricted to the table3-* instances — the paper's workload
  // family, where the solver upgrades are expected to pay off most.
  double t3_log_iter_ratio = 0.0;
  double t3_log_time_ratio = 0.0;
  int t3_compared = 0;
  bool ok = true;

  for (const auto& inst : family) {
    const milp::MipResult cur = milp::solve(inst.model, current);
    if (!cur.has_solution()) {
      std::fprintf(stderr, "FAIL %s: no solution (%s)\n", inst.name.c_str(),
                   milp::to_string(cur.status));
      ok = false;
      continue;
    }
    measured.push_back({inst.name, cur.objective, cur.stats.nodes, cur.stats.lp_iterations,
                        cur.stats.numerical_failures});
    if (args.getb("json")) {
      util::obs::JsonWriter w;
      w.begin_object();
      w.field("instance", inst.name);
      w.key("solver").raw(cur.stats.to_json());
      w.end_object();
      std::printf("%s\n", w.take().c_str());
    }

    if (smoke || write) continue;

    // --- A/B against the legacy configuration.
    const milp::MipResult old = milp::solve(inst.model, legacy);
    const bool both_proved = cur.status == milp::SolveStatus::kOptimal &&
                             old.status == milp::SolveStatus::kOptimal;
    if (both_proved) {
      // Optima must agree exactly; counts are work-to-completion and enter
      // the geometric means.
      if (!objectives_match(cur.objective, old.objective)) {
        std::fprintf(stderr, "FAIL %s: optima disagree (new %.9g vs old %.9g)\n",
                     inst.name.c_str(), cur.objective, old.objective);
        ok = false;
      }
      log_iter_ratio += std::log(static_cast<double>(std::max(1L, old.stats.lp_iterations)) /
                                 static_cast<double>(std::max(1L, cur.stats.lp_iterations)));
      log_node_ratio += std::log(static_cast<double>(std::max(1L, old.stats.nodes)) /
                                 static_cast<double>(std::max(1L, cur.stats.nodes)));
      log_time_ratio += std::log(std::max(1e-4, old.stats.time_s) / std::max(1e-4, cur.stats.time_s));
      ++compared;
      if (inst.name.rfind("table3", 0) == 0) {
        t3_log_iter_ratio += std::log(static_cast<double>(std::max(1L, old.stats.lp_iterations)) /
                                      static_cast<double>(std::max(1L, cur.stats.lp_iterations)));
        t3_log_time_ratio +=
            std::log(std::max(1e-4, old.stats.time_s) / std::max(1e-4, cur.stats.time_s));
        ++t3_compared;
      }
    } else {
      // A side that hit the time limit reports counts that measure
      // iteration *rate*, not work to completion, so the row is marked TO
      // (as in the paper's tables) and kept out of the geomeans. The new
      // configuration must still be at least as good an anytime solver.
      if (old.has_solution() &&
          (!cur.has_solution() || cur.objective > old.objective + 1e-6)) {
        std::fprintf(stderr, "FAIL %s: timed out with worse incumbent (new %.9g vs old %.9g)\n",
                     inst.name.c_str(), cur.has_solution() ? cur.objective : milp::kInf,
                     old.objective);
        ok = false;
      }
    }
    const auto count = [](long v, bool proved) {
      return proved ? std::to_string(v) : std::to_string(v) + " TO";
    };
    table.add_row({inst.name, util::fmt_double(cur.objective, 3),
                   count(cur.stats.nodes, cur.status == milp::SolveStatus::kOptimal),
                   std::to_string(cur.stats.lp_iterations),
                   count(old.stats.nodes, old.status == milp::SolveStatus::kOptimal),
                   std::to_string(old.stats.lp_iterations),
                   util::fmt_double(cur.stats.time_s, 2), util::fmt_double(old.stats.time_s, 2)});
  }

  if (write) {
    write_baseline(args.gets("baseline"), measured);
    std::printf("baseline written: %s (%zu instances)\n", args.gets("baseline").c_str(),
                measured.size());
    return ok ? 0 : 1;
  }

  if (smoke) {
    const auto baseline = load_baseline(args.gets("baseline"));
    if (baseline.empty()) {
      std::fprintf(stderr, "FAIL: baseline %s missing or unreadable\n",
                   args.gets("baseline").c_str());
      return 1;
    }
    for (const auto& m : measured) {
      const BaselineEntry* base = nullptr;
      for (const auto& b : baseline) {
        if (b.name == m.name) base = &b;
      }
      if (base == nullptr) {
        std::fprintf(stderr, "FAIL %s: not in baseline\n", m.name.c_str());
        ok = false;
        continue;
      }
      if (!objectives_match(m.objective, base->objective)) {
        std::fprintf(stderr, "FAIL %s: objective %.9g != baseline %.9g\n", m.name.c_str(),
                     m.objective, base->objective);
        ok = false;
      }
      // 25% head-room plus an absolute floor so tiny counts don't flap.
      const long node_cap = base->nodes + base->nodes / 4 + 10;
      const long iter_cap = base->lp_iterations + base->lp_iterations / 4 + 50;
      if (m.nodes > node_cap) {
        std::fprintf(stderr, "FAIL %s: nodes %ld > cap %ld (baseline %ld)\n", m.name.c_str(),
                     m.nodes, node_cap, base->nodes);
        ok = false;
      }
      if (m.lp_iterations > iter_cap) {
        std::fprintf(stderr, "FAIL %s: lp_iterations %ld > cap %ld (baseline %ld)\n",
                     m.name.c_str(), m.lp_iterations, iter_cap, base->lp_iterations);
        ok = false;
      }
      // Numerical failures get no head-room: a new one is a regression.
      if (m.numerical_failures > base->numerical_failures) {
        std::fprintf(stderr, "FAIL %s: numerical_failures %ld > baseline %ld\n", m.name.c_str(),
                     m.numerical_failures, base->numerical_failures);
        ok = false;
      }
      std::printf("ok %-16s obj %.6g nodes %ld/%ld iters %ld/%ld numerical %ld/%ld\n",
                  m.name.c_str(), m.objective, m.nodes, base->nodes, m.lp_iterations,
                  base->lp_iterations, m.numerical_failures, base->numerical_failures);
    }
    std::printf(ok ? "smoke: PASS\n" : "smoke: FAIL\n");
    return ok ? 0 : 1;
  }

  // --- Lazy separation A/B on the table3 family: the encoder emits only
  // the relaxed skeleton; the linking/disjointness rows enter the LP on
  // demand through the cut pool. Optima must agree with the upfront
  // encoding; the payoff is encoded rows.
  util::Table lazy_table({"Instance", "Rows upfront", "Rows lazy", "Cuts activated",
                          "Sep. rounds", "Nodes up/lazy", "Time up/lazy (s)"});
  for (const auto& [t3n, t3d] : std::vector<std::pair<int, int>>{{30, 10}, {50, 20}, {80, 30}}) {
    workloads::ScalableConfig cfg;
    cfg.total_nodes = t3n;
    cfg.end_devices = t3d;
    const auto sc = workloads::make_scalable(cfg);
    EncoderOptions up;
    up.k_star = args.geti("kstar");
    const auto uep = Encoder(*sc->tmpl, sc->spec, up).encode();
    EncoderOptions lz = up;
    lz.lazy_separation = true;
    const auto lep = Encoder(*sc->tmpl, sc->spec, lz).encode();
    milp::SolveOptions lopts = current;
    LazySeparation(*sc->tmpl, lep).install(lopts);

    const std::string name =
        "table3-" + std::to_string(t3n) + "x" + std::to_string(t3d);
    const milp::MipResult ur = milp::solve(uep.model, current);
    const milp::MipResult lr = milp::solve(lep.model, lopts);
    if (ur.has_solution() != lr.has_solution() ||
        (ur.has_solution() && !objectives_match(ur.objective, lr.objective))) {
      std::fprintf(stderr, "FAIL %s: lazy optimum diverges (upfront %.9g vs lazy %.9g)\n",
                   name.c_str(), ur.has_solution() ? ur.objective : milp::kInf,
                   lr.has_solution() ? lr.objective : milp::kInf);
      ok = false;
    }
    lazy_table.add_row(
        {name, std::to_string(uep.stats.num_constrs), std::to_string(lep.stats.num_constrs),
         std::to_string(lr.stats.cuts_lp_rows), std::to_string(lr.stats.cut_rounds),
         std::to_string(ur.stats.nodes) + "/" + std::to_string(lr.stats.nodes),
         util::fmt_double(ur.stats.time_s, 2) + "/" + util::fmt_double(lr.stats.time_s, 2)});
  }

  bench::print_table("Solver profile: production vs legacy configuration", table);
  bench::print_table("Lazy separation A/B: table3 family", lazy_table);
  if (compared > 0) {
    std::printf(
        "geomean reduction (old/new), %d instances solved to optimality by both: "
        "lp_iterations %.2fx, nodes %.2fx, time %.2fx\n",
        compared, std::exp(log_iter_ratio / compared), std::exp(log_node_ratio / compared),
        std::exp(log_time_ratio / compared));
  }
  if (t3_compared > 0) {
    std::printf("geomean reduction, table3 family (%d instances): lp_iterations %.2fx, time %.2fx\n",
                t3_compared, std::exp(t3_log_iter_ratio / t3_compared),
                std::exp(t3_log_time_ratio / t3_compared));
  }
  return ok ? 0 : 1;
}
