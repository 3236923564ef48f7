#include "server/solve_service.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/spec/parser.h"
#include "milp/solver.h"
#include "util/obs/json.h"
#include "util/stopwatch.h"
#include "util/strings.h"

namespace wnet::server {

namespace {

/// The protocol's default ladder when a request names none.
const std::vector<int> kDefaultLadder = {1, 3, 5};

}  // namespace

SolveService::SolveService(TemplateRegistry& registry, ServiceConfig cfg, EventSink sink)
    : registry_(registry),
      cfg_(cfg),
      sink_(std::move(sink)),
      cache_(cfg.cache_max_bytes),
      paused_(cfg.start_paused),
      epoch_(std::chrono::steady_clock::now()),
      pool_(std::max(1, cfg.workers)) {
  // The pool's threads become long-lived drainers: each loops picking and
  // running requests until shutdown() drains the queue.
  for (int i = 0; i < pool_.size(); ++i) {
    pool_.submit([this] { worker_loop(); });
  }
}

SolveService::~SolveService() { shutdown(); }

double SolveService::now_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_).count();
}

void SolveService::emit(const std::string& line) {
  // Every line the daemon ever writes is re-validated: emitting non-JSON is
  // a programmer error the stream's consumers must never see.
  if (const std::optional<std::string> err = util::obs::json_error(line)) {
    throw std::logic_error("malformed event line (" + *err + "): " + line);
  }
  const std::lock_guard<std::mutex> lock(emit_mu_);
  sink_(line);
}

bool SolveService::submit_line(const std::string& line) {
  if (util::trim(line).empty()) return true;
  Request req;
  std::string error;
  if (!parse_request(line, &req, &error)) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      ++rejected_;
    }
    emit(event_rejected(req.id, "bad_request", error));
    return true;
  }
  switch (req.op) {
    case Request::Op::kSolve:
      submit(req);
      return true;
    case Request::Op::kCancel:
      emit(event_cancel_ack(req.id, cancel(req.id)));
      return true;
    case Request::Op::kStats:
      emit(stats_json());
      return true;
    case Request::Op::kShutdown:
      shutdown();
      emit(R"({"event": "shutdown"})");
      return false;
  }
  return true;
}

bool SolveService::submit(const Request& req) {
  std::unique_lock<std::mutex> lock(mu_);
  std::string reason;
  std::string error;
  const bool queued_dup = std::any_of(queue_.begin(), queue_.end(), [&](const Pending& p) {
    return p.req.id == req.id;
  });
  if (draining_) {
    reason = "shutting_down";
  } else if (queued_dup || running_.count(req.id) != 0) {
    // Checked before queue_full: resubmitting an in-flight id is a client
    // error regardless of queue state, and the more actionable diagnosis.
    reason = "duplicate_id";
  } else if (static_cast<int>(queue_.size()) >= cfg_.queue_limit) {
    reason = "queue_full";
  } else if (!registry_.known(req.template_key)) {
    reason = "bad_request";
    error = "unknown template: " + req.template_key;
  }
  if (!reason.empty()) {
    ++rejected_;
    // Emitted under mu_ so the rejection cannot interleave after events of
    // a later same-id admission.
    emit(event_rejected(req.id, reason, error));
    return false;
  }
  Pending p;
  p.req = req;
  p.seq = next_seq_++;
  p.source = util::exec::CancellationSource(root_.token());
  p.enqueue_s = now_s();
  queue_.push_back(std::move(p));
  const int depth = static_cast<int>(queue_.size());
  emit(event_accepted(req.id, depth));
  lock.unlock();
  cv_.notify_one();
  return true;
}

bool SolveService::cancel(const std::string& id) {
  const std::lock_guard<std::mutex> lock(mu_);
  for (Pending& p : queue_) {
    if (p.req.id == id) {
      p.source.cancel();
      ++cancelled_;
      return true;
    }
  }
  const auto it = running_.find(id);
  if (it != running_.end()) {
    it->second.cancel();
    ++cancelled_;
    return true;
  }
  return false;
}

void SolveService::cancel_all() { root_.cancel(); }

void SolveService::resume() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
  }
  cv_.notify_all();
}

void SolveService::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [&] { return queue_.empty() && running_.empty(); });
}

void SolveService::shutdown() {
  std::unique_lock<std::mutex> lock(mu_);
  draining_ = true;
  cv_.notify_all();
  idle_cv_.wait(lock, [&] { return queue_.empty() && running_.empty(); });
  // Workers observe draining_ + empty queue and return; the pool joins them
  // when the service is destroyed.
}

std::string SolveService::stats_json() {
  const SessionCache::Stats cs = cache_.stats();
  const std::lock_guard<std::mutex> lock(mu_);
  util::obs::JsonWriter w;
  w.begin_object()
      .field("event", "stats")
      .field("queued", queue_.size())
      .field("running", running_.size())
      .field("completed", completed_)
      .field("rejected", rejected_)
      .field("cancelled", cancelled_)
      .field("workers", pool_.size());
  w.key("cache")
      .begin_object()
      .field("entries", cs.entries)
      .field("bytes", cs.bytes)
      .field("hits", cs.hits)
      .field("misses", cs.misses)
      .field("evictions", cs.evictions)
      .end_object();
  w.field("suppressed_exceptions", util::suppressed_exception_total());
  return w.end_object().take();
}

void SolveService::worker_loop() {
  for (;;) {
    Pending p;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] {
        return (!queue_.empty() && (!paused_ || draining_)) || (draining_ && queue_.empty());
      });
      if (queue_.empty()) return;  // draining and nothing left
      // Fair-share pick: the queued request whose tenant holds the fewest
      // running slots; ties go to arrival order (the queue is seq-ordered).
      const auto slots = [&](const std::string& tenant) {
        const auto it = running_per_tenant_.find(tenant);
        return it == running_per_tenant_.end() ? 0 : it->second;
      };
      size_t best = 0;
      int best_slots = slots(queue_[0].req.tenant);
      for (size_t i = 1; i < queue_.size(); ++i) {
        const int s = slots(queue_[i].req.tenant);
        if (s < best_slots) {
          best = i;
          best_slots = s;
        }
      }
      p = std::move(queue_[best]);
      queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(best));
      running_.emplace(p.req.id, p.source);
      ++running_per_tenant_[p.req.tenant];
    }
    run_request(p);
    {
      const std::lock_guard<std::mutex> lock(mu_);
      running_.erase(p.req.id);
      const auto it = running_per_tenant_.find(p.req.tenant);
      if (it != running_per_tenant_.end() && --it->second <= 0) running_per_tenant_.erase(it);
      ++completed_;
    }
    idle_cv_.notify_all();
    cv_.notify_all();  // freed tenant slots can change the fair-share pick
  }
}

void SolveService::run_request(const Pending& p) {
  const Request& req = p.req;
  util::Stopwatch wall;
  const double queue_wait_s = now_s() - p.enqueue_s;

  const archex::workloads::Scenario* scn = registry_.get(req.template_key);
  if (scn == nullptr) {
    emit(event_failed(req.id, "unknown template: " + req.template_key));
    return;
  }

  double limit = req.time_limit_s > 0.0 ? req.time_limit_s : cfg_.default_time_limit_s;
  limit = std::min(limit, cfg_.max_time_limit_s);
  const util::exec::RequestControl rc =
      util::exec::make_request_control(limit, p.source.token(), req.max_bb_nodes);

  const std::vector<int>& ladder = req.ladder.empty() ? kDefaultLadder : req.ladder;
  const archex::Objective obj = req.objective ? *req.objective : scn->spec.objective;
  const std::string key = make_cache_key(req.template_key, req.spec_text, obj.weight_cost,
                                         obj.weight_energy, obj.weight_dsod);

  std::unique_ptr<CachedSession> cs;
  bool cache_hit = false;
  if (req.use_cache) {
    cs = cache_.checkout(key);
    if (cs != nullptr) {
      // Usable only when the cached rungs agree with this request's ladder
      // on their common prefix: replay is then exactly the cold scan, and
      // an extension resumes from the state a cold scan would have reached.
      // Any divergence (e.g. a different first rung) would hand later rungs
      // a carry/cutoff from a rung the cold scan never ran — rebuild fresh
      // instead of risking a cache-dependent answer.
      const size_t common = std::min(ladder.size(), cs->rung_ks.size());
      for (size_t j = 0; j < common; ++j) {
        if (ladder[j] != cs->rung_ks[j]) {
          cs.reset();
          break;
        }
      }
    }
    cache_hit = cs != nullptr;
  }
  if (cs == nullptr) {
    cs = std::make_unique<CachedSession>();
    if (req.spec_text.empty()) {
      cs->spec = scn->spec;
    } else {
      try {
        cs->spec = archex::spec::parse(req.spec_text, *scn->tmpl);
      } catch (const std::exception& e) {
        emit(event_failed(req.id, e.what()));
        return;
      }
    }
    if (req.objective) cs->spec.objective = *req.objective;
    cs->explorer = std::make_unique<archex::Explorer>(*scn->tmpl, cs->spec);
    archex::EncoderOptions eopts;
    eopts.exec = rc.control;
    cs->session = std::make_unique<archex::IncrementalEncoder>(*scn->tmpl, cs->spec, eopts);
  } else {
    // The cached session still carries the creating request's control —
    // possibly expired or tripped. Attach this request's own before any
    // delta work.
    cs->session->set_exec(rc.control);
  }

  milp::SolveOptions sopts;
  sopts.time_limit_s = limit;
  sopts.exec = rc.control;
  sopts.collect_timeline = false;

  // The ladder scan: Explorer::search_k_star's selection scan, with rungs
  // replayed from the cached session or explored on it (and recorded), and
  // per-rung events streamed as the scan sees them. No wall-clock stop rule
  // on purpose: a replayed rung takes ~zero time, so any time-based ladder
  // decision would make the answer depend on cache state. Deadlines live in
  // the request control instead.
  archex::Explorer::KStarSearchOptions kopts;
  kopts.ladder = ladder;
  kopts.time_threshold_s = milp::kInf;
  int reused_rungs = 0;
  int reused_candidates = 0;
  bool session_dirty = false;
  bool replayed = false;
  const auto rung = [&](size_t i, int k) -> archex::ExplorationResult {
    replayed = i < cs->rung_ks.size() && cs->rung_ks[i] == k;
    if (replayed) {
      ++reused_rungs;
      return cs->rung_results[i];
    }
    milp::SolveOptions rung_opts = sopts;
    rung_opts.on_bound_improved = [&](double bound) { emit(event_bound(req.id, k, bound)); };
    archex::ExplorationResult r =
        cs->explorer->explore_rung(*cs->session, k, cs->carry, rung_opts);
    if (util::exec::stopped_by_control(r.termination)) {
      // The session's encode/solve state stopped mid-flight; it must not
      // be reused by a later request.
      session_dirty = true;
    } else {
      cs->rung_ks.push_back(k);
      cs->rung_results.push_back(r);
    }
    return r;
  };
  const auto on_rung = [&](int k, const archex::ExplorationResult& r, bool improved) {
    reused_candidates += r.encode_stats.reused_candidates;
    emit(event_rung(req.id, k, r, replayed));
    if (improved) emit(event_incumbent(req.id, k, r.objective));
  };
  const archex::Explorer::KStarSearchResult out =
      archex::scan_k_star(kopts, rc.control, rung, on_rung);

  // Never cache a session whose encode/solve was cut short, and don't
  // bother caching one that computed nothing (cancelled before rung 0).
  // Checked in before `result` goes out, so a client that resubmits the
  // key on reading it finds the session.
  if (req.use_cache && !session_dirty && !cs->rung_ks.empty()) {
    cache_.checkin(key, std::move(cs));
  }
  emit(event_result(req.id, canonical_result_json(out), cache_hit, reused_rungs,
                    reused_candidates, wall.seconds(), queue_wait_s));
}

}  // namespace wnet::server
