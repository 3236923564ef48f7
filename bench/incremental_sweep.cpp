// A/B harness for the incremental exploration pipeline.
//
// Runs the same K* ladder searches twice — once with fresh per-rung
// encodes (a bench-local scan_k_star over explore() rungs) and once through
// the IncrementalEncoder session (resumable Yen, delta-extended model,
// previous incumbent as MIP start, previous objective as primal cutoff) —
// and checks that both sides agree on chosen_k, objective and deployed
// architecture while the incremental side actually reuses prior work. The
// robust repair loop has only the session path; its row runs once and is
// gated against the baseline alone. Prints per-instance rows plus the
// geometric-mean wall-clock reduction.
//
// Modes:
//   (default)          Full sweep: equivalence checks + timing table +
//                      geomean speedups. Exits non-zero on any divergence.
//   --smoke            Quick subset; checks equivalence, actual reuse
//                      (reused_candidates > 0, MIP starts accepted) and
//                      chosen_k/objective against a checked-in baseline.
//                      Timing is reported but never gated (CI runs this).
//   --write-baseline   Regenerates the baseline file at --baseline.
//   --time-budget S    Anytime/budget mode: runs the smoke-subset ladders
//                      through one incremental session under a shared
//                      wall-clock deadline of S seconds (plus the process
//                      SIGINT/SIGTERM token) and prints one strict-JSON row
//                      per ladder plus a final summary row. No A/B or
//                      baseline gates: partial results are the point.
//                      Always exits 0 unless a search crashes.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/explorer.h"
#include "core/workloads/scenarios.h"
#include "util/exec/exec.h"
#include "util/obs/json.h"
#include "util/obs/trace.h"
#include "util/stopwatch.h"
#include "util/table.h"

using namespace wnet;
using namespace wnet::archex;

namespace {

struct Case {
  std::string name;
  int total_nodes = 0;
  int end_devices = 0;
  int route_replicas = 1;
  /// Paper-style K* selection ladder, sized per instance so every rung
  /// proves optimality within the per-solve limit (a timed-out rung
  /// measures incumbent luck, not pipeline work — see solver_profile's TO
  /// handling).
  std::vector<int> ladder;
  bool smoke = true;  ///< included in the --smoke subset
};

std::vector<Case> build_cases(bool smoke_only) {
  std::vector<Case> out;
  out.push_back({"ladder-30x10", 30, 10, 1, {1, 2, 3, 4, 6, 8, 12, 16}, true});
  out.push_back({"ladder-40x15-r2", 40, 15, 2, {1, 2, 3, 4, 6, 8}, true});
  out.push_back({"ladder-50x20", 50, 20, 1, {1, 2, 3, 4, 6, 8}, true});
  if (!smoke_only) {
    out.push_back({"ladder-45x18", 45, 18, 1, {1, 2, 3, 4, 6, 8}, false});
    out.push_back({"ladder-50x20-r2", 50, 20, 2, {1, 2, 3, 4, 6}, false});
    out.push_back({"ladder-60x25-r2", 60, 25, 2, {1, 2, 3, 4, 6}, false});
  }
  return out;
}

/// Stable identity of a deployment: which template nodes are used, which
/// concrete paths carry each (route, replica), and the deployed cost.
/// Deliberately blind to the component *labels*: cost-equal components are
/// interchangeable at a tied optimum, and a warm-started solve may settle a
/// different (equally optimal) labeling than a cold one.
std::string architecture_signature(const NetworkArchitecture& a) {
  std::ostringstream os;
  std::vector<int> used;
  used.reserve(a.nodes.size());
  for (const auto& n : a.nodes) used.push_back(n.node);
  std::sort(used.begin(), used.end());  // decode order follows the tied labeling
  for (int n : used) os << n << ";";
  os << "|";
  for (const auto& r : a.routes) {
    os << r.route_index << "." << r.replica << "=";
    for (int v : r.path.nodes) os << v << ",";
    os << ";";
  }
  char cost[32];
  std::snprintf(cost, sizeof(cost), "|%.6f", a.total_cost_usd);
  os << cost;
  return os.str();
}

bool objectives_match(double a, double b) {
  return std::abs(a - b) <= 1e-6 * std::max(1.0, std::max(std::abs(a), std::abs(b)));
}

struct RunMeasure {
  Explorer::KStarSearchResult result;
  double wall_s = 0.0;
  double encode_s = 0.0;   ///< summed over visited rungs
  int reused = 0;          ///< summed reused_candidates over visited rungs
  int mip_starts = 0;      ///< rungs whose solve accepted the MIP start
};

/// The incremental side is Explorer::search_k_star; the fresh side runs the
/// same selection scan over independent explore() rungs, each encoding its
/// K* from scratch.
RunMeasure run_ladder(const workloads::Scenario& sc, const std::vector<int>& ladder,
                      bool incremental, double time_limit_s) {
  Explorer::KStarSearchOptions ko;
  ko.ladder = ladder;
  milp::SolveOptions so;
  so.time_limit_s = time_limit_s;
  const Explorer ex(*sc.tmpl, sc.spec);
  RunMeasure m;
  util::Stopwatch clock;
  if (incremental) {
    m.result = ex.search_k_star(ko, {}, so);
  } else {
    m.result = scan_k_star(ko, so.exec, [&](size_t /*i*/, int k) {
      EncoderOptions eo;
      eo.k_star = k;
      return ex.explore(eo, so);
    });
  }
  m.wall_s = clock.seconds();
  for (const auto& [k, r] : m.result.trace) {
    m.encode_s += r.encode_stats.encode_time_s;
    m.reused += r.encode_stats.reused_candidates;
    m.mip_starts += r.solve_stats.mip_start_used ? 1 : 0;
  }
  return m;
}

struct RobustMeasure {
  Explorer::RobustExplorationResult result;
  double wall_s = 0.0;
};

RobustMeasure run_robust(const workloads::Scenario& sc, double time_limit_s) {
  Explorer::RobustExploreOptions ro;
  ro.encoder.k_star = 4;
  ro.solver.time_limit_s = time_limit_s;
  ro.faults.seed = 3;
  ro.faults.max_simultaneous_failures = 1;
  ro.faults.fading_draws = 16;
  ro.faults.fading_sigma_db = 2.0;
  ro.time_budget_s = 10.0 * time_limit_s;
  ro.max_repair_iterations = 6;
  const Explorer ex(*sc.tmpl, sc.spec);
  RobustMeasure m;
  util::Stopwatch clock;
  m.result = ex.explore_robust(ro);
  m.wall_s = clock.seconds();
  return m;
}

struct BaselineEntry {
  std::string name;
  int chosen_k = 0;
  double objective = 0.0;
};

std::vector<BaselineEntry> load_baseline(const std::string& path) {
  std::vector<BaselineEntry> out;
  std::ifstream in(path);
  if (!in) return out;
  std::string line;
  while (std::getline(in, line)) {
    char name[128] = {0};
    BaselineEntry e;
    if (std::sscanf(line.c_str(), "  {\"name\": \"%127[^\"]\", \"chosen_k\": %d, \"objective\": %lf",
                    name, &e.chosen_k, &e.objective) == 3) {
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
    w.field("chosen_k", entries[i].chosen_k);
    w.field("objective", entries[i].objective);
    w.end_object();
    outf << "  " << w.take() << (i + 1 < entries.size() ? "," : "") << "\n";
  }
  outf << "]}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args(argc, argv,
                   {{"time-limit", "60"},
                    {"json", "0"},
                    {"trace", ""},
                    {"smoke", "0"},
                    {"write-baseline", "0"},
                    {"baseline", "bench/incremental_sweep_baseline.json"},
                    {"time-budget", "0"}});

  // Ctrl-C / SIGTERM trip the process-wide cancellation token: in-flight
  // ladder searches return their best-so-far and the summary row is still
  // written before exit.
  util::exec::install_interrupt_handlers();

  const bool smoke = args.getb("smoke");
  const bool write = args.getb("write-baseline");
  const double tl = args.getd("time-limit");
  const double budget_s = args.getd("time-budget");

  // --trace out.json: record per-rung / encode / solver spans across the
  // ladder searches and dump a Chrome trace (ui.perfetto.dev) on exit.
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

  const auto cases = build_cases(/*smoke_only=*/smoke || write || budget_s > 0.0);

  if (budget_s > 0.0) {
    // Budget mode. One shared deadline spans every ladder; each search runs
    // the incremental session with the request control threaded through
    // encoder, solver and the ladder scan, so a stop mid-rung still yields
    // a valid partial KStarSearchResult with a termination reason.
    util::exec::ExecControl ctl;
    ctl.deadline = util::exec::Deadline::after(budget_s);
    ctl.token = util::exec::interrupt_token();
    int attempted = 0;
    const char* last_termination = "completed";
    for (const auto& c : cases) {
      if (ctl.stopped()) break;
      workloads::ScalableConfig cfg;
      cfg.total_nodes = c.total_nodes;
      cfg.end_devices = c.end_devices;
      cfg.route_replicas = c.route_replicas;
      const auto sc = workloads::make_scalable(cfg);
      Explorer::KStarSearchOptions ko;
      ko.ladder = c.ladder;
      EncoderOptions eo;
      eo.exec = ctl;
      milp::SolveOptions so;
      so.time_limit_s = tl;
      so.exec = ctl;
      const Explorer ex(*sc->tmpl, sc->spec);
      const auto r = ex.search_k_star(ko, eo, so);
      last_termination = util::exec::to_string(r.termination);
      ++attempted;
      util::obs::JsonWriter w;
      w.begin_object();
      w.field("instance", c.name);
      w.field("chosen_k", r.chosen_k);
      w.field("rungs_visited", static_cast<long>(r.trace.size()));
      w.field("termination", util::exec::to_string(r.termination));
      w.key("best").raw(r.best.solver_json());
      w.end_object();
      std::printf("%s\n", w.take().c_str());
    }
    util::obs::JsonWriter w;
    w.begin_object();
    w.field("mode", "budget");
    w.number_field("time_budget_s", budget_s);
    w.field("instances_total", static_cast<long>(cases.size()));
    w.field("instances_attempted", attempted);
    w.field("last_termination", last_termination);
    w.field("interrupted", util::exec::interrupt_token().cancelled());
    w.field("interrupt_signal", util::exec::interrupt_signal());
    w.end_object();
    std::printf("%s\n", w.take().c_str());
    return 0;
  }

  util::Table table({"Instance", "chosen K*", "Obj", "Fresh (s)", "Incr (s)", "Speedup",
                     "Fresh enc (s)", "Incr enc (s)", "Reused", "MIP starts"});
  std::vector<BaselineEntry> measured;
  double log_time_ratio = 0.0;
  double log_encode_ratio = 0.0;
  int compared = 0;
  int encode_compared = 0;
  int total_reused = 0;
  int total_mip_starts = 0;
  bool ok = true;

  for (const auto& c : cases) {
    workloads::ScalableConfig cfg;
    cfg.total_nodes = c.total_nodes;
    cfg.end_devices = c.end_devices;
    cfg.route_replicas = c.route_replicas;
    const auto sc = workloads::make_scalable(cfg);

    const RunMeasure fresh = run_ladder(*sc, c.ladder, /*incremental=*/false, tl);
    const RunMeasure incr = run_ladder(*sc, c.ladder, /*incremental=*/true, tl);

    if (!fresh.result.best.has_solution() || !incr.result.best.has_solution()) {
      std::fprintf(stderr, "FAIL %s: no solution (fresh %s, incremental %s)\n", c.name.c_str(),
                   milp::to_string(fresh.result.best.status),
                   milp::to_string(incr.result.best.status));
      ok = false;
      continue;
    }
    // Equivalence gate: when every visited rung proved optimality on both
    // sides, the session must not change WHAT the ladder finds — only how
    // fast it finds it. A timed-out rung reports incumbent luck rather
    // than a proven optimum, so those instances only need the incremental
    // side to be at least as good an anytime search.
    const auto all_proved = [](const Explorer::KStarSearchResult& r) {
      for (const auto& [k, er] : r.trace) {
        if (er.status != milp::SolveStatus::kOptimal) return false;
      }
      return true;
    };
    const bool proved = all_proved(fresh.result) && all_proved(incr.result);
    if (proved) {
      if (incr.result.chosen_k != fresh.result.chosen_k) {
        std::fprintf(stderr, "FAIL %s: chosen_k %d (incremental) != %d (fresh)\n", c.name.c_str(),
                     incr.result.chosen_k, fresh.result.chosen_k);
        ok = false;
      }
      if (!objectives_match(incr.result.best.objective, fresh.result.best.objective)) {
        std::fprintf(stderr, "FAIL %s: objective %.9g (incremental) != %.9g (fresh)\n",
                     c.name.c_str(), incr.result.best.objective, fresh.result.best.objective);
        ok = false;
      }
      if (architecture_signature(incr.result.best.architecture) !=
          architecture_signature(fresh.result.best.architecture)) {
        std::fprintf(stderr, "FAIL %s: architectures diverge\n  fresh: %s\n  incr:  %s\n",
                     c.name.c_str(), architecture_signature(fresh.result.best.architecture).c_str(),
                     architecture_signature(incr.result.best.architecture).c_str());
        ok = false;
      }
    } else if (incr.result.best.objective > fresh.result.best.objective +
                                                1e-6 * std::max(1.0, std::abs(fresh.result.best.objective))) {
      std::fprintf(stderr, "FAIL %s: timed out with worse incumbent (incremental %.9g vs fresh %.9g)\n",
                   c.name.c_str(), incr.result.best.objective, fresh.result.best.objective);
      ok = false;
    }
    total_reused += incr.reused;
    total_mip_starts += incr.mip_starts;
    if (proved) {
      // Timed-out instances stay out of the baseline and the geomeans:
      // their timings measure the limit, not the work.
      measured.push_back({c.name, incr.result.chosen_k, incr.result.best.objective});
      log_time_ratio += std::log(std::max(1e-4, fresh.wall_s) / std::max(1e-4, incr.wall_s));
      log_encode_ratio += std::log(std::max(1e-5, fresh.encode_s) / std::max(1e-5, incr.encode_s));
      ++compared;
      ++encode_compared;
    }
    table.add_row({c.name, std::to_string(incr.result.chosen_k) + (proved ? "" : " TO"),
                   util::fmt_double(incr.result.best.objective, 3), util::fmt_double(fresh.wall_s, 3),
                   util::fmt_double(incr.wall_s, 3),
                   util::fmt_double(fresh.wall_s / std::max(1e-4, incr.wall_s), 2) + "x",
                   util::fmt_double(fresh.encode_s, 3), util::fmt_double(incr.encode_s, 3),
                   std::to_string(incr.reused), std::to_string(incr.mip_starts)});
    if (args.getb("json")) {
      util::obs::JsonWriter w;
      w.begin_object();
      w.field("instance", c.name);
      w.number_field("fresh_s", fresh.wall_s);
      w.number_field("incremental_s", incr.wall_s);
      w.field("reused_candidates", incr.reused);
      w.field("mip_starts", incr.mip_starts);
      w.key("incremental").raw(incr.result.best.solver_json());
      w.end_object();
      std::printf("%s\n", w.take().c_str());
    }
  }

  // Robust repair loop on the smallest case, through its one session path:
  // no fresh side to compare, so the row gates iterations and objective
  // against the baseline. Its wall clock is dominated by fault campaigns
  // and hardened solves.
  {
    workloads::ScalableConfig cfg;
    cfg.total_nodes = 30;
    cfg.end_devices = 10;
    cfg.route_replicas = 1;
    const auto sc = workloads::make_scalable(cfg);
    const RobustMeasure repair = run_robust(*sc, tl);
    if (repair.result.best.has_solution()) {
      measured.push_back({"repair-30x10", repair.result.iterations, repair.result.best.objective});
      table.add_row({"repair-30x10", "-", util::fmt_double(repair.result.best.objective, 3), "-",
                     util::fmt_double(repair.wall_s, 3), "-", "-", "-", "-", "-"});
    } else {
      std::fprintf(stderr, "FAIL repair-30x10: no solution\n");
      ok = false;
    }
  }

  if (total_reused <= 0) {
    std::fprintf(stderr, "FAIL: incremental runs reused no candidates — sessions degenerated "
                         "into rebuild-every-rung\n");
    ok = false;
  }
  if (total_mip_starts <= 0) {
    std::fprintf(stderr, "FAIL: no rung accepted a carried MIP start\n");
    ok = false;
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
      std::fprintf(stderr, "FAIL: baseline %s missing or unreadable\n", args.gets("baseline").c_str());
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
      if (m.chosen_k != base->chosen_k || !objectives_match(m.objective, base->objective)) {
        std::fprintf(stderr, "FAIL %s: chosen_k/objective %d/%.9g != baseline %d/%.9g\n",
                     m.name.c_str(), m.chosen_k, m.objective, base->chosen_k, base->objective);
        ok = false;
      } else {
        std::printf("ok %-16s chosen_k %d obj %.6g\n", m.name.c_str(), m.chosen_k, m.objective);
      }
    }
    std::printf(ok ? "smoke: PASS\n" : "smoke: FAIL\n");
    return ok ? 0 : 1;
  }

  bench::print_table("Incremental exploration pipeline: fresh vs session re-use", table);
  if (compared > 0) {
    std::printf("geomean wall-clock reduction (fresh/incremental), %d ladder runs: %.2fx\n",
                compared, std::exp(log_time_ratio / compared));
    std::printf("geomean encode-time reduction, %d ladder runs: %.2fx\n", encode_compared,
                std::exp(log_encode_ratio / std::max(1, encode_compared)));
  }
  std::printf("total reused candidates: %d, accepted MIP starts: %d\n", total_reused,
              total_mip_starts);
  return ok ? 0 : 1;
}
