#pragma once

// Structured tracing for the exploration pipeline: scoped spans and named
// counters collected into a process-wide recorder and exported in the Chrome
// trace_event format, so a `--trace out.json` run opens directly in
// chrome://tracing or https://ui.perfetto.dev.
//
// Design:
//   - Off by default and cheap when off: every instrumentation site guards
//     on one relaxed atomic load; ScopedSpan is a no-op object when the
//     recorder is disabled at construction.
//   - Thread-safe: spans and counters are recorded from encoder worker
//     threads and the main loop alike. Each record takes the mutex once.
//   - Deterministic export: events carry a sequence number assigned under
//     the recorder mutex and are exported in that order (the same
//     slot-owns-result idea as the PR 2 parallel merge: ordering comes from
//     explicitly assigned indices, never from map iteration or completion
//     races). Thread ids are densified in first-seen order for display.
//
// Span taxonomy (see README "Observability"):
//   encode/full        one fresh encoding pass            (args: k_star, vars, constrs)
//   encode/yen_route   per-route Yen enumeration          (args: route, replicas, candidates)
//   encode/delta       incremental delta-extension        (args: from_k, to_k, reused)
//   kstar/rung         one K* ladder rung, encode + solve (args: k); a
//                      plain explore() is a one-rung session and emits it
//                      too, as does each robust/iteration (nested)
//   milp/solve         one branch-and-bound run           (args: nodes, lp_iterations)
//   milp/root_lp       the root LP solve
//   milp/node_lp       sampled node LPs (1 in 64)         (args: node, depth)
//   robust/iteration   one repair-loop iteration          (args: iter, hardenings)
//   faults/campaign    one fault-injection campaign       (args: scenarios)

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

namespace wnet::util::obs {

struct TraceEvent {
  enum class Phase { kComplete, kCounter };

  Phase phase = Phase::kComplete;
  std::string name;
  std::string cat;
  double ts_us = 0.0;   ///< start, µs since the recorder epoch
  double dur_us = 0.0;  ///< kComplete only
  double counter_value = 0.0;  ///< kCounter only
  int tid = 0;          ///< dense thread index, first-seen order
  long seq = 0;         ///< global recording order (export order)
  std::vector<std::pair<std::string, double>> args;
};

class TraceRecorder {
 public:
  /// The process-wide recorder every instrumentation site reports to.
  [[nodiscard]] static TraceRecorder& global();

  void set_enabled(bool on);
  [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Drops all recorded events and counter totals (the epoch is kept).
  void clear();

  /// µs since the recorder's epoch (steady clock).
  [[nodiscard]] double now_us() const;

  /// Records a completed span ("X" phase). No-op when disabled.
  void record_complete(std::string name, std::string cat, double start_us, double dur_us,
                       std::vector<std::pair<std::string, double>> args = {});

  /// Records a timestamped counter sample ("C" phase) — these render as
  /// stacked counter tracks in Perfetto. No-op when disabled.
  void record_counter(std::string name, double value);

  /// Accumulates into a named aggregate total (exported once, in the trace
  /// footer). No-op when disabled.
  void counter_add(const std::string& name, double delta);

  [[nodiscard]] double counter_total(const std::string& name) const;
  [[nodiscard]] std::map<std::string, double> counter_totals() const;
  [[nodiscard]] size_t num_events() const;
  /// Copy of all events in recording (seq) order.
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;

  /// Full document in Chrome trace_event JSON ("traceEvents" array plus the
  /// aggregate counter totals under "otherData"). Always strictly valid.
  [[nodiscard]] std::string chrome_trace_json() const;

  /// Writes chrome_trace_json() to `path`; false on I/O failure.
  bool write_chrome_trace(const std::string& path) const;

 private:
  TraceRecorder();
  int tid_locked(std::thread::id id);

  mutable std::mutex mu_;
  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_;
  std::vector<TraceEvent> events_;
  std::map<std::string, double> totals_;
  std::map<std::thread::id, int> tids_;
  long next_seq_ = 0;
};

/// RAII span: captures the start time at construction and records one
/// complete event at destruction. Decides enablement once, at construction.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name, std::string_view cat = "wnet");
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan();

  /// Attaches a numeric argument (shown in the Perfetto detail pane); may
  /// be called any time before destruction.
  void arg(std::string_view key, double v);

  [[nodiscard]] bool active() const { return active_; }

 private:
  bool active_;
  double start_us_ = 0.0;
  std::string name_;
  std::string cat_;
  std::vector<std::pair<std::string, double>> args_;
};

}  // namespace wnet::util::obs
