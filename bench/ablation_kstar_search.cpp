// Ablation A2 (DESIGN.md): the systematic K* selection rule of paper
// Sec. 4.3 — walk K* up a ladder, stop when the objective stops improving
// or the run time crosses a threshold. Prints the search trace and which
// K* the rule settles on.
#include <cstdio>

#include "bench_common.h"
#include "core/explorer.h"
#include "core/workloads/scenarios.h"
#include "util/table.h"

using namespace wnet;
using namespace wnet::archex;

int main(int argc, char** argv) {
  bench::Args args(argc, argv,
                   {{"nodes", "40"}, {"devices", "12"}, {"time-limit", "30"},
                    {"time-threshold", "60"}});

  workloads::ScalableConfig cfg;
  cfg.total_nodes = args.geti("nodes");
  cfg.end_devices = args.geti("devices");
  const auto sc = workloads::make_scalable(cfg);

  Explorer ex(*sc->tmpl, sc->spec);
  Explorer::KStarSearchOptions ko;
  ko.ladder = {1, 3, 5, 10, 20};
  ko.time_threshold_s = args.getd("time-threshold");
  milp::SolveOptions so;
  so.time_limit_s = args.getd("time-limit");
  so.rel_gap = 0.02;
  const auto sr = ex.search_k_star(ko, {}, so);

  util::Table table({"K*", "Status", "$ cost", "Time (s)", "Chosen"});
  for (const auto& [k, r] : sr.trace) {
    table.add_row({std::to_string(k), milp::to_string(r.status),
                   r.has_solution() ? util::fmt_double(r.objective, 0) : "-",
                   util::fmt_double(r.total_time_s, 1), k == sr.chosen_k ? "<--" : ""});
  }
  bench::print_table("Ablation A2: systematic K* selection (Sec. 4.3)", table);
  std::printf("rule settled on K* = %d\n", sr.chosen_k);
  return 0;
}
