#pragma once

// Shared pieces of the deterministic-work benchmark: the span recorder, the
// per-layer accumulators read from the library's own telemetry structs, and
// the result of one timed pass over a workload's request list.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/encode/encoded_problem.h"
#include "milp/solver.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Deterministic 64-bit mixing (SplitMix64 finalizer): every generated input
/// is a pure function of (seed, stream, index), independent of libstdc++'s
/// distribution implementations.
[[nodiscard]] uint64_t mix(uint64_t seed, uint64_t stream, uint64_t index);

/// Shortest round-trip text of a double, for fingerprints.
[[nodiscard]] std::string exact(double v);

/// One recorded span: a named interval, the span that caused it (-1 for a
/// root) and the request it belongs to (-1 for none).
struct Span {
  const char* name = "";
  Clock::time_point start;
  Clock::time_point end;
  int parent = -1;
  long request = -1;
};

/// In-memory span recorder of the benchmark itself (the library is timed from
/// outside, around its public calls). Single-threaded: spans are opened and
/// closed on the thread that drives the workload. Disabled, it records
/// nothing and open() costs one branch.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) { spans_.reserve(enabled ? 1 << 16 : 0); }

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span nested in the innermost open one; returns its index or -1.
  int open(const char* name, long request);
  void close(int index);

  /// Records a finished span whose interval was measured elsewhere (e.g. a
  /// request that completes on another thread), as a child of `parent`.
  int record(const char* name, Clock::time_point start, Clock::time_point end, int parent,
             long request);

  /// Σ over spans named `name` of (duration − time covered by direct children).
  [[nodiscard]] double self_seconds(const char* name) const;

  /// Writes every span as one JSON object per line (times in µs from the
  /// first span's start). Returns false if the file cannot be written.
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span around one library call.
class Scope {
 public:
  Scope(Tracer& t, const char* name, long request) : t_(t), index_(t.open(name, request)) {}
  ~Scope() { t_.close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int index_;
};

/// Per-layer accumulators. Counts come from the structs each layer already
/// returns (EncodeStats, SolveStats, service events); times from those
/// structs or from the benchmark's spans.
struct Layers {
  // core/encode
  double encode_s = 0.0;
  double delta_encode_s = 0.0;
  long rows = 0;
  long nonzeros = 0;
  long candidates = 0;
  long reused_candidates = 0;
  // milp
  double milp_s = 0.0;
  long solves = 0;
  long nodes = 0;
  long lp_iterations = 0;
  long warm_attempts = 0;
  long warm_lu_reused = 0;
  long warm_fallbacks = 0;
  long cold_solves = 0;
  long propagation_prunes = 0;
  long numerical_failures = 0;
  long node_cap_hits = 0;
  long starts_accepted = 0;  ///< solves whose MIP start passed feasibility
  // core/explorer
  double explore_other_s = 0.0;
  long rungs_solved = 0;
  long rungs_replayed = 0;
  // server
  int workers = 0;
  double queue_wait_s = 0.0;
  double worker_busy_s = 0.0;
  long events = 0;
  long event_bytes = 0;
  long cache_hits = 0;
  long cache_lookups = 0;
  long cache_bytes = 0;
  long cache_evictions = 0;

  void add_encode(const wnet::archex::EncodeStats& s);
  void add_solve(const wnet::milp::SolveStats& s);
};

/// Everything a run records besides pass wall times: per-request latency
/// and work identity, failures, and the layer counters.
struct RunLog {
  std::vector<double> latency_s;         ///< one per completed request, in list order
  std::vector<std::string> fingerprint;  ///< one line of work identity per request
  /// Work identity of the library re-runs a traced service_mix pass makes
  /// (the service's own events carry no solver or encoder counters).
  std::vector<std::string> library_fingerprint;
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> errors;  ///< failed requests and failed output checks
  bool checks_ok = true;
  Layers layers;

  void fail_check(const std::string& why) {
    checks_ok = false;
    errors.push_back(why);
  }
  void fail_request(const std::string& why) {
    ++failed;
    errors.push_back(why);
  }
};

/// Seconds attributed to each layer, in print order. Entries whose name
/// starts with "bench" or "client" are the benchmark's own time.
using Ledger = std::vector<std::pair<std::string, double>>;

/// A run is kPasses passes over one fixed request list, each after its own
/// set-up. Every pass does the same work, so the fastest pass and each
/// request's fastest time are the ones least disturbed by other tenants of
/// a shared host.
constexpr int kPasses = 4;

/// A workload: inputs generated from the seed, a fixed request list, and
/// the output checks.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the request list's inputs and runs one untimed warm-up request.
  /// Called before every pass; each call rebuilds everything.
  virtual void setup() = 0;
  /// Runs pass `p` over the request list and returns its wall time. Appends
  /// latencies, fingerprint lines, failures and counters to `log`; output
  /// checks run after the clock stops.
  virtual double run(int p, Tracer& tracer, RunLog& log) = 0;
  /// Layer attribution of a traced run (spans in `tracer`, counters in `l`).
  [[nodiscard]] virtual Ledger ledger(const Tracer& tracer, const Layers& l) const = 0;
  /// Threads a pass keeps busy (the CPUs it is pinned to; see main.cpp).
  [[nodiscard]] virtual int threads() const { return 1; }
};

/// `seconds` sizes the request list to about seconds / kPasses of work on a
/// 4-core x86-64 host; the work is identical for equal (seed, seconds).
[[nodiscard]] std::unique_ptr<Workload> make_table3_solve(uint64_t seed, int seconds);
[[nodiscard]] std::unique_ptr<Workload> make_encode_table3(uint64_t seed, int seconds);
[[nodiscard]] std::unique_ptr<Workload> make_service_mix(uint64_t seed, int seconds);

}  // namespace perfbench
