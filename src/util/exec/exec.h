#pragma once

// Unified execution control for every long-running loop in the pipeline:
// a monotonic Deadline, a thread-safe CancellationToken with child/linked
// tokens, a ResourceBudget over the non-wall-clock resources a request
// consumes (B&B nodes, Yen candidates, encode rows), and the structured
// TerminationReason every solve/explore/campaign entry point reports.
//
// The pieces travel together as one ExecControl value embedded in the
// options struct of each subsystem (milp::SolveOptions, EncoderOptions,
// CampaignOptions). Copies are cheap (a time point plus two shared_ptrs),
// and the default-constructed control never stops anything, so existing
// callers are unaffected.
//
// Determinism contract: checkpoint() — the counting probe for the
// deterministic cancellation-injection harness — may only be called from
// the serial spine of a computation (the B&B node loop, ladder rung
// boundaries, robust repair iterations, encoder phases). Code that can run
// on worker-pool threads must poll stopped() on a worker_view() copy, which
// strips the injector. Because injected cancellation then fires only at
// spine checkpoints, and the spine blocks on fork-join joins, worker tasks
// never observe the token flipping mid-task — so serial and threaded runs
// degrade identically under injection. Real cancellation (a SIGINT) can
// flip anywhere; every interleaving still yields a *valid* partial result,
// just not a bit-reproducible one.

#include <atomic>
#include <limits>
#include <memory>
#include <chrono>

namespace wnet::util::exec {

/// Why a solve/explore/campaign returned. `kCompleted` covers every natural
/// ending that is not an infeasibility proof (optimal, gap closed, campaign
/// finished); the other values are the structured anytime-contract reasons.
enum class TerminationReason {
  kCompleted,   ///< ran to its natural end
  kDeadline,    ///< wall-clock deadline / time limit expired
  kCancelled,   ///< cancellation token tripped (signal, caller, injection)
  kNodeLimit,   ///< a ResourceBudget or node limit was exhausted
  kNumerical,   ///< numerical trouble stopped the computation
  kInfeasible,  ///< proven infeasible (a result, but reported in-band)
};

[[nodiscard]] const char* to_string(TerminationReason r);

/// True for the reasons an ExecControl imposes from outside (deadline,
/// cancellation, resource cap): the run was stopped, not finished, so its
/// result says nothing about what the rest of the search would have found.
[[nodiscard]] constexpr bool stopped_by_control(TerminationReason r) {
  return r == TerminationReason::kDeadline || r == TerminationReason::kCancelled ||
         r == TerminationReason::kNodeLimit;
}

/// Monotonic wall-clock deadline. Default-constructed = never expires.
class Deadline {
 public:
  Deadline() = default;

  /// Deadline `seconds` from now (steady clock). Non-finite or huge values
  /// (>= 1e29, e.g. LpOptions' 1e30 sentinel) mean "infinite".
  [[nodiscard]] static Deadline after(double seconds);

  [[nodiscard]] static Deadline infinite() { return {}; }

  [[nodiscard]] bool finite() const { return finite_; }

  /// Seconds until expiry; +inf when infinite, <= 0 once expired.
  [[nodiscard]] double remaining_s() const;

  [[nodiscard]] bool expired() const { return finite_ && remaining_s() <= 0.0; }

  /// The tighter of this deadline and `seconds` from now — how a nested
  /// solve inherits "my own limit, but never past the request's".
  [[nodiscard]] Deadline tightened(double seconds) const;

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point at_{};
  bool finite_ = false;
};

namespace detail {
/// Shared cancellation state: one atomic flag plus a parent link, so a
/// child token is cancelled whenever any ancestor is. cancel() is a single
/// relaxed store — async-signal-safe by construction.
struct CancelState {
  std::atomic<bool> flag{false};
  std::shared_ptr<const CancelState> parent;
};
}  // namespace detail

/// Copyable, thread-safe cancellation handle. The default-constructed token
/// can never be cancelled (the no-op control every API defaults to).
class CancellationToken {
 public:
  CancellationToken() = default;

  [[nodiscard]] bool cancelled() const {
    for (const detail::CancelState* s = state_.get(); s != nullptr; s = s->parent.get()) {
      if (s->flag.load(std::memory_order_relaxed)) return true;
    }
    return false;
  }

  /// False for the default token: polling it is provably a no-op.
  [[nodiscard]] bool can_be_cancelled() const { return state_ != nullptr; }

 private:
  friend class CancellationSource;
  std::shared_ptr<const detail::CancelState> state_;
};

/// Owner side of a token. A source constructed from a parent token yields
/// *linked* child tokens: cancelling the parent cancels every child (so one
/// request-level cancel stops all its worker-pool tasks), while cancelling
/// the child leaves the parent alive.
class CancellationSource {
 public:
  CancellationSource() : state_(std::make_shared<detail::CancelState>()) {}

  explicit CancellationSource(const CancellationToken& parent)
      : state_(std::make_shared<detail::CancelState>()) {
    state_->parent = parent.state_;
  }

  /// Trips the token (and every linked child). Safe from any thread and
  /// from signal handlers: one relaxed atomic store, no locks.
  void cancel() { state_->flag.store(true, std::memory_order_relaxed); }

  [[nodiscard]] bool cancelled() const {
    return CancellationToken{token()}.cancelled();
  }

  [[nodiscard]] CancellationToken token() const {
    CancellationToken t;
    t.state_ = state_;
    return t;
  }

 private:
  std::shared_ptr<detail::CancelState> state_;
};

/// Caps on the non-wall-clock resources one request may consume, shared
/// (via ExecControl's shared_ptr) across every component the request
/// touches. Negative caps mean unlimited. Charging is thread-safe; under
/// threaded candidate generation the exact point where a cap bites may vary
/// with the thread count — for bit-reproducible early stops use the
/// checkpoint-injection harness instead.
class ResourceBudget {
 public:
  ResourceBudget() = default;
  ResourceBudget(long max_bb_nodes, long max_yen_candidates, long max_encode_rows,
                 long max_meta_iterations = -1)
      : max_bb_nodes_(max_bb_nodes),
        max_yen_candidates_(max_yen_candidates),
        max_encode_rows_(max_encode_rows),
        max_meta_iterations_(max_meta_iterations) {}

  /// Each charge_* records usage and returns false once the cap is passed
  /// (the n-th unit that would exceed the cap is refused).
  bool charge_bb_nodes(long n = 1) { return charge(used_bb_nodes_, max_bb_nodes_, n); }
  bool charge_yen_candidates(long n = 1) {
    return charge(used_yen_candidates_, max_yen_candidates_, n);
  }
  bool charge_encode_rows(long n) { return charge(used_encode_rows_, max_encode_rows_, n); }
  /// Metaheuristic iterations (one tabu move evaluation round); meters the
  /// meta layer the way charge_bb_nodes meters the exact search.
  bool charge_meta_iterations(long n = 1) {
    return charge(used_meta_iterations_, max_meta_iterations_, n);
  }

  /// True once any charge was refused. Serial spines poll this after a
  /// fork-join section to turn worker-side refusals into a termination.
  [[nodiscard]] bool exhausted() const {
    return exhausted_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] long bb_nodes_used() const { return used_bb_nodes_.load(std::memory_order_relaxed); }
  [[nodiscard]] long yen_candidates_used() const {
    return used_yen_candidates_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] long encode_rows_used() const {
    return used_encode_rows_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] long meta_iterations_used() const {
    return used_meta_iterations_.load(std::memory_order_relaxed);
  }

 private:
  bool charge(std::atomic<long>& used, long cap, long n) {
    const long total = used.fetch_add(n, std::memory_order_relaxed) + n;
    if (cap >= 0 && total > cap) {
      exhausted_.store(true, std::memory_order_relaxed);
      return false;
    }
    return !exhausted_.load(std::memory_order_relaxed);
  }

  long max_bb_nodes_ = -1;
  long max_yen_candidates_ = -1;
  long max_encode_rows_ = -1;
  long max_meta_iterations_ = -1;
  std::atomic<long> used_bb_nodes_{0};
  std::atomic<long> used_yen_candidates_{0};
  std::atomic<long> used_encode_rows_{0};
  std::atomic<long> used_meta_iterations_{0};
  std::atomic<bool> exhausted_{false};
};

/// Test-only harness: trips a CancellationSource at the N-th checkpoint.
/// Checkpoints are counted only by ExecControl::checkpoint(), which by
/// contract runs on the serial spine — so the count, and therefore the
/// exact cancellation point, is deterministic for any worker-thread count.
class CheckpointInjector {
 public:
  CheckpointInjector(long fire_at_checkpoint, CancellationSource source)
      : fire_at_(fire_at_checkpoint), source_(std::move(source)) {}

  void on_checkpoint() {
    if (count_.fetch_add(1, std::memory_order_relaxed) + 1 == fire_at_) source_.cancel();
  }

  [[nodiscard]] long checkpoints_seen() const { return count_.load(std::memory_order_relaxed); }

 private:
  std::atomic<long> count_{0};
  long fire_at_;
  CancellationSource source_;
};

/// The bundle every long-running API accepts: deadline + token + budget
/// (+ optional injection harness). Value-semantic and cheap to copy.
class ExecControl {
 public:
  Deadline deadline;
  CancellationToken token;
  std::shared_ptr<ResourceBudget> budget;
  std::shared_ptr<CheckpointInjector> injector;

  /// Poll-only probe, safe from worker threads: cancellation first (the
  /// most specific reason), then the deadline.
  [[nodiscard]] bool stopped(TerminationReason* why = nullptr) const {
    if (token.cancelled()) {
      if (why != nullptr) *why = TerminationReason::kCancelled;
      return true;
    }
    if (deadline.expired()) {
      if (why != nullptr) *why = TerminationReason::kDeadline;
      return true;
    }
    return false;
  }

  /// Counting probe for the serial spine only: advances the injection
  /// counter (possibly tripping the token), then polls.
  bool checkpoint(TerminationReason* why = nullptr) const {
    if (injector) injector->on_checkpoint();
    return stopped(why);
  }

  /// Copy for code that may run on worker-pool threads: same deadline,
  /// token and budget, but checkpoints no longer count (see the class
  /// comment's determinism contract).
  [[nodiscard]] ExecControl worker_view() const {
    ExecControl c = *this;
    c.injector.reset();
    return c;
  }

  /// Copy whose deadline is the tighter of ours and `seconds` from now.
  [[nodiscard]] ExecControl tightened(double seconds) const {
    ExecControl c = *this;
    c.deadline = deadline.tightened(seconds);
    return c;
  }
};

/// Owner + bundle pair for one admitted server request: `source` is the
/// handle the daemon keeps for cancel-by-request-id, `control` is what
/// travels into the solve (deadline `time_limit_s` from admission, a token
/// linked to `parent` so one daemon-wide cancel stops every in-flight
/// request, and a fresh ResourceBudget over the request's own caps).
struct RequestControl {
  CancellationSource source;
  ExecControl control;
};

[[nodiscard]] RequestControl make_request_control(double time_limit_s,
                                                  const CancellationToken& parent,
                                                  long max_bb_nodes = -1,
                                                  long max_yen_candidates = -1,
                                                  long max_encode_rows = -1);

/// Process-wide interrupt plumbing for CLI/bench binaries:
/// install_interrupt_handlers() routes SIGINT and SIGTERM to a static
/// CancellationSource whose token this returns, so a Ctrl-C trips every
/// control derived from it and the binary emits its partial report instead
/// of dying mid-write. Idempotent; the token outlives main().
[[nodiscard]] const CancellationToken& interrupt_token();
void install_interrupt_handlers();

/// 0 until a handled signal arrived, then the last signal number (what a
/// bench prints next to its partial report).
[[nodiscard]] int interrupt_signal();

}  // namespace wnet::util::exec
