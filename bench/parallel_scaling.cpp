// Parallel-exploration scaling harness, on the Table-3 scalability
// workload: end-to-end wall clock of a fault-injection campaign replay
// (independent scenario scoring, fanned out by faults::CampaignRunner) as
// the worker count grows. The architecture under test comes from one
// serial Sec. 4.3 K*-ladder search.
//
// Besides speedup, every multi-threaded run is checked against the serial
// one: byte-identical campaign JSON. The determinism guarantee is the
// point — parallelism must never change a result, only how fast it
// arrives. Speedup tops out at the machine's physical core count; on a
// single-core host every row stays near 1x.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/explorer.h"
#include "core/faults/campaign.h"
#include "core/faults/fault_model.h"
#include "core/workloads/scenarios.h"
#include "util/stopwatch.h"
#include "util/table.h"
#include "util/thread_pool.h"

using namespace wnet;
using namespace wnet::archex;

int main(int argc, char** argv) {
  bench::Args args(argc, argv,
                   {{"nodes", "80"},
                    {"devices", "30"},
                    {"time-limit", "30"},
                    {"gap", "0.05"},
                    {"draws", "2000"},
                    {"sigma", "2.0"},
                    {"threads", "0"}});

  workloads::ScalableConfig cfg;
  cfg.total_nodes = args.geti("nodes");
  cfg.end_devices = args.geti("devices");
  const auto sc = workloads::make_scalable(cfg);
  std::printf("template: %d nodes, %zu routes | hardware threads: %d\n",
              sc->tmpl->num_nodes(), sc->spec.routes.size(), util::resolve_threads(0));

  std::vector<int> counts = {1, 2, 4, 8};
  if (args.geti("threads") > 0) counts = {1, args.geti("threads")};

  const Explorer ex(*sc->tmpl, sc->spec);
  milp::SolveOptions so;
  so.time_limit_s = args.getd("time-limit");
  so.rel_gap = args.getd("gap");
  Explorer::KStarSearchOptions ko;
  ko.ladder = {1, 3, 5, 10};
  const util::Stopwatch lsw;
  const auto sr = ex.search_k_star(ko, {}, so);
  const double ladder_s = lsw.seconds();
  if (!sr.best.has_solution()) {
    std::printf("ladder found no architecture — aborting\n");
    return 1;
  }

  // Scenario list reused across all thread counts (generation is serial
  // and deterministic).
  faults::FaultModelConfig fc;
  fc.max_simultaneous_failures = 2;
  fc.fading_draws = args.geti("draws");
  fc.fading_sigma_db = args.getd("sigma");
  const faults::FaultModel fm(*sc->tmpl, sc->spec, fc);
  const std::vector<faults::FaultScenario> scenarios = fm.scenarios(sr.best.architecture);

  util::Table table({"Threads", "Campaign (s)", "Speedup", "Identical"});
  double campaign_base_s = 0.0;
  std::string serial_json;

  for (const int t : counts) {
    faults::CampaignOptions copts;
    copts.threads = t;
    const faults::CampaignRunner runner(*sc->tmpl, sc->spec, copts);
    const util::Stopwatch csw;
    const auto rep = runner.run(sr.best.architecture, scenarios);
    const double campaign_s = csw.seconds();
    const std::string json = rep.to_json();

    if (t == counts.front()) {
      campaign_base_s = campaign_s;
      serial_json = json;
    }
    const bool identical = json == serial_json;
    table.add_row({std::to_string(t), util::fmt_double(campaign_s, 3),
                   util::fmt_double(campaign_base_s / std::max(1e-9, campaign_s), 2),
                   identical ? "yes" : "NO"});
    if (!identical) {
      std::printf("DETERMINISM VIOLATION at %d threads\n", t);
      bench::print_table("Parallel scaling (ABORTED)", table);
      return 1;
    }
    std::fflush(stdout);
  }

  std::printf("%d scenarios per campaign; architecture from ladder {1,3,5,10} "
              "(K* = %d, %.2f s)\n",
              static_cast<int>(scenarios.size()), sr.chosen_k, ladder_s);
  bench::print_table("Parallel campaign scaling (Table-3 workload)", table);
  return 0;
}
