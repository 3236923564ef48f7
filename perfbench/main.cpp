// wnet_perfbench: runs one workload's fixed request list, checks every
// output, and prints its metrics as one JSON line.
//
//   wnet_perfbench --workload table3_solve --seed 1 --seconds 25 --trace 0
//                  --fingerprint-out fp.txt [--trace-out spans.jsonl]
//
// A run sets up and runs kPasses passes over one fixed request list.
// --trace 0 prints the end-to-end metrics of the untraced passes. --trace 1
// also runs every pass a second time with the span recorder on, and prints
// the per-layer metrics of the traced passes, each layer's self time and
// the tracing overhead. The work fingerprint (one line per request and pass)
// is written to --fingerprint-out so the caller can compare it across runs.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "util/obs/json.h"

namespace {

using namespace perfbench;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n == 0 ? 0.0 : (n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]));
}

/// The highest percentile of per-request best latencies with at least ten
/// measurements beyond it: each request beyond it stands for its kPasses
/// measured latencies (the maximum when there are too few requests).
std::pair<double, double> tail(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  if (n == 0) return {0.0, 0.0};
  const size_t beyond = (10 + kPasses - 1) / kPasses;
  const size_t rank = n > beyond ? n - 1 - beyond : n - 1;
  return {v[rank], 100.0 * static_cast<double>(rank + 1) / static_cast<double>(n)};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

/// Pins the calling thread, and so every thread it starts later, for pass
/// `p`. On a shared host each vCPU is slowed by whatever the other tenants
/// run next to it, and which vCPUs are slow changes over tens of seconds.
/// Passes rotate over the allowed CPUs (a workload of more than one thread
/// gets all of them but one, the excluded one rotating), so the fastest
/// pass and each request's fastest time come from the least disturbed CPUs.
void pin_for_pass(const std::vector<int>& cpus, int threads, int p) {
  const size_t n = cpus.size();
  if (n <= static_cast<size_t>(threads)) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  const size_t rotated = static_cast<size_t>(p) % n;
  for (size_t i = 0; i < n; ++i) {
    if (threads == 1 ? i == rotated : i != rotated) CPU_SET(cpus[i], &set);
  }
  if (sched_setaffinity(0, sizeof set, &set) != 0) std::perror("sched_setaffinity");
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Each request's fastest latency over the passes; empty if the passes did
/// not complete the same number of requests.
std::vector<double> best_latency_s(const std::vector<double>& latency_s) {
  if (latency_s.size() % kPasses != 0) return {};
  const size_t n = latency_s.size() / kPasses;
  std::vector<double> best(latency_s.begin(), latency_s.begin() + static_cast<long>(n));
  for (size_t i = n; i < latency_s.size(); ++i) best[i % n] = std::min(best[i % n], latency_s[i]);
  return best;
}

std::vector<Metric> end_to_end(const std::vector<double>& best_s,
                               const std::vector<double>& pass_wall_s, double setup_s) {
  const double wall_s = *std::min_element(pass_wall_s.begin(), pass_wall_s.end());
  std::printf("pass wall times (s):");
  for (const double w : pass_wall_s) std::printf(" %.4f", w);
  std::printf("\n");
  const auto [tail_s, tail_pct] = tail(best_s);
  std::printf("latency (best of %d passes per request): p50 %.3f ms, tail p%.1f %.3f ms, N = %zu\n",
              kPasses, 1e3 * median(best_s), tail_pct, 1e3 * tail_s, best_s.size());
  return {{"setup_s", setup_s, "s"},
          {"wall_s", wall_s, "s"},
          {"throughput_rps", static_cast<double>(best_s.size()) / wall_s, "1/s"},
          {"latency_p50_ms", 1e3 * median(best_s), "ms"},
          {"latency_tail_ms", 1e3 * tail_s, "ms"},
          {"peak_rss_mb", peak_rss_mb(), "MB"}};
}

std::vector<Metric> per_layer(const Workload& w, const RunLog& log, const Tracer& tr,
                              const std::vector<double>& traced_wall_s,
                              const std::vector<double>& plain_wall_s) {
  const Layers& l = log.layers;
  double wall_s = 0.0;
  std::vector<double> slowdown;
  for (size_t b = 0; b < traced_wall_s.size(); ++b) {
    wall_s += traced_wall_s[b];
    slowdown.push_back(traced_wall_s[b] / plain_wall_s[b]);
  }
  double attributed = 0.0;
  std::printf("layer self times (traced passes, wall_s %.4f s):\n", wall_s);
  for (const auto& [layer, s] : w.ledger(tr, l)) {
    std::printf("  %-30s %10.4f s  %6.2f%%\n", layer.c_str(), s, 100.0 * ratio(s, wall_s));
    if (layer.rfind("bench", 0) != 0 && layer.rfind("client", 0) != 0) attributed += s;
  }
  const double coverage = ratio(attributed, wall_s);
  const double overhead = median(slowdown) - 1.0;
  std::printf("  layers cover %.2f%% of wall_s; tracing overhead %+.2f%% (median of %zu "
              "traced/untraced pass pairs)\n",
              100.0 * coverage, 100.0 * overhead, slowdown.size());
  return {
      {"channel.path_loss_s", tr.self_seconds("channel"), "s"},
      {"encode.busy_s", l.encode_s, "s"},
      {"encode.rows", static_cast<double>(l.rows), "count"},
      {"encode.nonzeros", static_cast<double>(l.nonzeros), "count"},
      {"encode.candidates", static_cast<double>(l.candidates), "count"},
      {"encode.delta_busy_s", l.delta_encode_s, "s"},
      {"encode.reuse_ratio", ratio(l.reused_candidates, l.candidates), "ratio"},
      {"milp.busy_s", l.milp_s, "s"},
      {"milp.nodes", static_cast<double>(l.nodes), "count"},
      {"milp.lp_iterations", static_cast<double>(l.lp_iterations), "count"},
      {"milp.iters_per_node", ratio(l.lp_iterations, l.nodes), "ratio"},
      {"milp.warm_lu_reuse_ratio", ratio(l.warm_lu_reused, l.warm_attempts), "ratio"},
      {"milp.warm_fallbacks", static_cast<double>(l.warm_fallbacks), "count"},
      {"milp.cold_solves", static_cast<double>(l.cold_solves), "count"},
      {"milp.prune_ratio", ratio(l.propagation_prunes, l.nodes), "ratio"},
      {"milp.numerical_failures", static_cast<double>(l.numerical_failures), "count"},
      {"milp.node_cap_hits", static_cast<double>(l.node_cap_hits), "count"},
      {"milp.start_accept_ratio", ratio(l.starts_accepted, l.solves), "ratio"},
      {"explore.other_s", l.explore_other_s, "s"},
      {"explore.rungs_solved", static_cast<double>(l.rungs_solved), "count"},
      {"explore.rungs_replayed", static_cast<double>(l.rungs_replayed), "count"},
      {"server.submit_s", tr.self_seconds("submit_line"), "s"},
      {"server.events", static_cast<double>(l.events), "count"},
      {"server.event_bytes", static_cast<double>(l.event_bytes), "bytes"},
      {"server.queue_wait_s", l.queue_wait_s, "s"},
      {"server.busy_frac", ratio(l.worker_busy_s, l.workers * wall_s), "ratio"},
      {"server.hit_ratio", ratio(l.cache_hits, l.cache_lookups), "ratio"},
      {"server.cache_bytes", static_cast<double>(l.cache_bytes), "bytes"},
      {"server.cache_evictions", static_cast<double>(l.cache_evictions), "count"},
      {"trace.coverage_frac", coverage, "ratio"},
      {"trace.overhead_frac", overhead, "ratio"},
  };
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "%s\nusage: wnet_perfbench --workload table3_solve|encode_table3|service_mix "
               "--seed N --seconds S --trace 0|1 --fingerprint-out PATH [--trace-out PATH]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point process_start = Clock::now();
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return usage(("unexpected argument " + key).c_str());
    args[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) return usage("every flag takes one value");
  for (const char* required : {"workload", "seed", "seconds", "trace", "fingerprint-out"}) {
    if (args.count(required) == 0) return usage((std::string("missing --") + required).c_str());
  }
  const std::string workload = args["workload"];
  const uint64_t seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  const int seconds = std::atoi(args["seconds"].c_str());
  const bool traced = args["trace"] == "1";
  if (seconds < 1 || seconds > 600) return usage("--seconds must be in [1, 600]");

  std::unique_ptr<Workload> w;
  if (workload == "table3_solve") {
    w = make_table3_solve(seed, seconds);
  } else if (workload == "encode_table3") {
    w = make_encode_table3(seed, seconds);
  } else if (workload == "service_mix") {
    w = make_service_mix(seed, seconds);
  } else {
    return usage(("unknown workload " + workload).c_str());
  }

  // Every pass starts with its own set-up, so the set-ups are spread over
  // the run like the passes; setup_s is their median. Untraced and traced
  // passes alternate, so the overhead estimate pairs runs of the same
  // requests made seconds apart.
  Tracer off(false);
  Tracer on(traced);
  RunLog plain;
  RunLog traced_log;
  std::vector<double> setup_s;
  std::vector<double> plain_wall_s;
  std::vector<double> traced_wall_s;
  const std::vector<int> cpus = allowed_cpus();
  for (int p = 0; p < kPasses; ++p) {
    pin_for_pass(cpus, w->threads(), p);
    const Clock::time_point setup_start = Clock::now();
    w->setup();
    setup_s.push_back(seconds_between(setup_start, Clock::now()));
    if (p == 0) {
      std::printf("process start to first timed request: %.4f s\n",
                  seconds_between(process_start, Clock::now()));
    }
    plain_wall_s.push_back(w->run(p, off, plain));
    if (traced) traced_wall_s.push_back(w->run(p, on, traced_log));
  }
  // Passes run the same requests, so each pass's fingerprint must equal the
  // first's, and the traced passes' the untraced ones'.
  const size_t per_pass = plain.fingerprint.size() / kPasses;
  bool same_work = plain.fingerprint.size() % kPasses == 0;
  for (size_t i = per_pass; same_work && i < plain.fingerprint.size(); ++i) {
    same_work = plain.fingerprint[i] == plain.fingerprint[i % per_pass];
  }
  if (!same_work) std::fprintf(stderr, "passes did different work\n");
  if (traced && traced_log.fingerprint != plain.fingerprint) {
    std::fprintf(stderr, "traced passes did different work than untraced ones\n");
    same_work = false;
  }
  const std::vector<double> best_s = best_latency_s(plain.latency_s);
  if (best_s.empty()) {
    std::fprintf(stderr, "passes completed different numbers of requests\n");
    same_work = false;
  }
  if (traced && args.count("trace-out") != 0 && !on.write(args["trace-out"])) {
    std::fprintf(stderr, "cannot write %s\n", args["trace-out"].c_str());
  }

  std::ofstream fp(args["fingerprint-out"]);
  for (const std::string& line : plain.fingerprint) fp << line << '\n';
  for (const std::string& line : traced_log.library_fingerprint) fp << "library " << line << '\n';
  fp.close();
  if (!fp) {
    std::fprintf(stderr, "cannot write %s\n", args["fingerprint-out"].c_str());
    return 1;
  }

  std::vector<std::string> errors = plain.errors;
  errors.insert(errors.end(), traced_log.errors.begin(), traced_log.errors.end());
  for (size_t i = 0; i < errors.size() && i < 20; ++i) {
    std::fprintf(stderr, "error: %s\n", errors[i].c_str());
  }
  if (errors.size() > 20) std::fprintf(stderr, "... %zu more errors\n", errors.size() - 20);

  const std::vector<Metric> metrics =
      traced ? per_layer(*w, traced_log, on, traced_wall_s, plain_wall_s)
             : end_to_end(best_s, plain_wall_s, median(setup_s));
  const bool correct = plain.checks_ok && traced_log.checks_ok && same_work;

  wnet::util::obs::JsonWriter out;
  out.begin_object()
      .field("correct", correct)
      .field("attempted", plain.attempted + traced_log.attempted)
      .field("failed", plain.failed + traced_log.failed);
  out.key("metrics").begin_object();
  for (const Metric& m : metrics) {
    out.key(m.name).begin_object().field("value", m.value).field("unit", m.unit).end_object();
  }
  out.end_object();
  std::printf("%s\n", out.end_object().take().c_str());
  return 0;
}
