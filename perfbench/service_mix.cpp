// service_mix: an in-process SolveService with 2 workers, fed JSONL request
// lines through submit_line by one generator thread acting as 2 closed-loop
// clients. Each client owns its cache keys (a scalable:<n>x<d> template plus
// objective weights) and runs a fixed script per key: a cold ladder [1,3]
// (miss, writes a session), an exact repeat (full hit) and an extended
// ladder [1,3,5] (replays 2 rungs, delta-encodes the rest). Malformed and
// stats lines are interleaved at a fixed share. This is the only workload
// through server (parsing, admission, JSONL emission, session cache) and the
// incremental ladder (explore_rung, delta encoding, MIP-start carry).

#include <algorithm>
#include <condition_variable>
#include <map>
#include <mutex>
#include <string>
#include <thread>  // std::jthread, std::this_thread::yield
#include <utility>
#include <vector>

#include "bench.h"
#include "core/explorer.h"
#include "server/protocol.h"
#include "server/solve_service.h"
#include "util/obs/json.h"

namespace perfbench {
namespace {

using namespace wnet;
using util::obs::JsonValue;

constexpr int kClients = 2;
constexpr int kWorkers = 2;
/// The key list cycles through these templates, so every seed has the same
/// mix: rung work depends mostly on the template (20x8 and 30x10 improve at
/// K*=3 and solve rung 5 on extension; 25x8 does not and only replays).
constexpr const char* kTemplates[] = {"scalable:20x8", "scalable:25x8", "scalable:30x10"};
/// Energy weights are seeded multiples of this step, drawn without
/// replacement per template, so no two keys of a run (and no two clients)
/// ever share a cache key.
constexpr double kEnergyStep = 0.01;
constexpr int kEnergyMultiples = 40;
/// Rounds in the key list, per 12 s of --seconds. A round is one key per
/// template and client, so both clients get the same mix of keys.
constexpr int kSecondsPerRound = 12;
/// Far above what any request needs: neither ever stops a request.
constexpr double kTimeLimitS = 600.0;
constexpr long kMaxBbNodes = 200000;

enum class Phase { kCold, kRepeat, kExtend };

struct Key {
  std::string tmpl;
  double energy = 0.0;
};

struct Step {
  enum class Kind { kSolve, kStats, kMalformed } kind = Kind::kSolve;
  std::string line;
  std::string id;  ///< solve steps only
  int key = -1;
  Phase phase = Phase::kCold;
};

std::string solve_line(const std::string& id, const Key& k, const std::vector<int>& ladder,
                       int client) {
  util::obs::JsonWriter w;
  w.begin_object().field("op", "solve").field("id", id).field("template", k.tmpl);
  w.key("ladder").begin_array();
  for (const int r : ladder) w.value(r);
  w.end_array();
  w.field("time_limit_s", kTimeLimitS).field("max_bb_nodes", kMaxBbNodes);
  w.key("objective").begin_object().field("cost", 1.0).field("energy", k.energy).end_object();
  w.field("tenant", "client" + std::to_string(client));
  return w.end_object().take();
}

/// Lines every strict parser must reject, one per kind of parse failure.
std::string malformed_line(int n) {
  switch (n % 5) {
    case 0:
      return R"({"op": "solve", "id": "x", "template": "scalable:20x8")";  // truncated
    case 1:
      return R"({"op": "frobnicate", "id": "x"})";
    case 2:
      return R"({"op": "solve", "template": "scalable:20x8"})";  // no id
    case 3:
      return R"({"op": "solve", "id": "x", "template": "scalable:20x8", "ladder": [3, 1]})";
    default:
      return R"(["op", "solve"])";
  }
}

/// `"id": "<value>"` of an event line, or empty.
std::string id_of(const std::string& line) {
  static const std::string marker = "\"id\": \"";
  const size_t a = line.find(marker);
  if (a == std::string::npos) return {};
  const size_t b = line.find('"', a + marker.size());
  return b == std::string::npos ? std::string()
                                : line.substr(a + marker.size(), b - a - marker.size());
}

/// Raw text of the "canonical" member of a result line (for byte equality).
std::string canonical_of(const std::string& line) {
  static const std::string marker = "\"canonical\": ";
  const size_t a = line.find(marker);
  const size_t b = line.rfind(", \"cache_hit\":");
  if (a == std::string::npos || b == std::string::npos || b <= a) return {};
  return line.substr(a + marker.size(), b - a - marker.size());
}

std::string key_id(int client, int key) {
  return "c" + std::to_string(client) + "-k" + std::to_string(key);
}

bool starts_with(const std::string& s, const char* prefix) { return s.rfind(prefix, 0) == 0; }

/// Receives the service's event lines on worker threads (and on the
/// generator for inline answers); wakes the generator on request outcomes.
struct Inbox {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::string> lines;
  std::map<std::string, Clock::time_point> done;  ///< solve id -> outcome arrival
  long outcomes = 0;                               ///< result + failed events

  void push(const std::string& line) {
    const Clock::time_point now = Clock::now();
    const bool outcome = starts_with(line, R"({"event": "result")") ||
                         starts_with(line, R"({"event": "failed")") ||
                         starts_with(line, R"({"event": "rejected", "id")");
    const std::lock_guard<std::mutex> lock(mu);
    lines.push_back(line);
    if (outcome) {
      done.emplace(id_of(line), now);
      if (!starts_with(line, R"({"event": "rejected")")) ++outcomes;
      cv.notify_all();
    }
  }
};

struct ParsedResult {
  bool present = false;
  bool hit = false;
  long reused_rungs = 0;
  long reused_candidates = 0;
  long fresh = 0;
  long replayed = 0;
  std::string canonical;
  JsonValue canonical_doc;
  std::vector<double> rung_objectives;  ///< from rung events, ladder order
  bool rung_cut_short = false;
};

class ServiceMix final : public Workload {
 public:
  ServiceMix(uint64_t seed, int seconds)
      : seed_(seed),
        num_keys_(static_cast<int>(std::size(kTemplates)) * kClients *
                  std::clamp(seconds / kSecondsPerRound, 1, kEnergyMultiples / kClients)) {}

  void setup() override {
    registry_ = std::make_unique<server::TemplateRegistry>();
    for (const char* t : kTemplates) (void)registry_->get(t)->tmpl->path_loss_db(0, 1);

    // Per template, a seeded permutation of the energy multiples.
    std::vector<std::vector<std::pair<uint64_t, int>>> multiples(std::size(kTemplates));
    for (size_t t = 0; t < multiples.size(); ++t) {
      for (int m = 1; m <= kEnergyMultiples; ++m) {
        multiples[t].push_back({mix(seed_, 5 + t, static_cast<uint64_t>(m)), m});
      }
      std::sort(multiples[t].begin(), multiples[t].end());
    }
    keys_.clear();
    scripts_.assign(kClients, {});
    for (int i = 0; i < num_keys_; ++i) {
      const size_t t = static_cast<size_t>(i) % std::size(kTemplates);
      const size_t draw = static_cast<size_t>(i) / std::size(kTemplates);
      const Key& key =
          keys_.emplace_back(Key{kTemplates[t], kEnergyStep * multiples[t].at(draw).second});
      const int client = i % kClients;
      const std::string base = key_id(client, i);
      std::vector<Step>& s = scripts_[static_cast<size_t>(client)];
      s.push_back({Step::Kind::kMalformed, malformed_line(i), "", i, Phase::kCold});
      s.push_back({Step::Kind::kSolve, solve_line(base + "-cold", key, {1, 3}, client),
                   base + "-cold", i, Phase::kCold});
      s.push_back({Step::Kind::kStats, R"({"op": "stats"})", "", i, Phase::kRepeat});
      s.push_back({Step::Kind::kSolve, solve_line(base + "-repeat", key, {1, 3}, client),
                   base + "-repeat", i, Phase::kRepeat});
      s.push_back({Step::Kind::kSolve, solve_line(base + "-extend", key, {1, 3, 5}, client),
                   base + "-extend", i, Phase::kExtend});
    }

    // Warm-up on a key no script uses.
    Inbox inbox;
    server::SolveService svc(*registry_, config(), [&](const std::string& l) { inbox.push(l); });
    svc.submit_line(solve_line("warmup", Key{kTemplates[0], kEnergyStep / 2}, {1, 3}, 0));
    svc.wait_idle();
  }

  double run(int b, Tracer& tr, RunLog& log) override;

  /// The generator and the service's workers.
  [[nodiscard]] int threads() const override { return 1 + kWorkers; }

  [[nodiscard]] Ledger ledger(const Tracer& tr, const Layers& l) const override {
    // Worker busy time is wall time per worker: the share of the run the
    // two solve slots were occupied.
    return {{"channel", tr.self_seconds("channel")},
            {"server (submit_line)", tr.self_seconds("submit_line")},
            {"server (workers busy, per worker)", l.worker_busy_s / kWorkers},
            {"client wait (for results)", tr.self_seconds("client_wait")},
            {"client sync (checkin wait)", tr.self_seconds("client_sync")}};
  }

 private:
  static server::ServiceConfig config() {
    server::ServiceConfig cfg;
    cfg.workers = kWorkers;
    cfg.cache_max_bytes = size_t{1} << 30;  // larger than any run's working set
    return cfg;
  }

  void replay(RunLog& log, const std::map<std::string, ParsedResult>& results) const;

  uint64_t seed_;
  int num_keys_;
  std::unique_ptr<server::TemplateRegistry> registry_;
  std::vector<Key> keys_;
  std::vector<std::vector<Step>> scripts_;  ///< per client
};

double ServiceMix::run(int, Tracer& tr, RunLog& log) {
  const std::vector<Key>& keys = keys_;
  const std::vector<std::vector<Step>>& scripts = scripts_;
  Inbox inbox;
  auto svc = std::make_unique<server::SolveService>(*registry_, config(),
                                                    [&](const std::string& l) { inbox.push(l); });

  // A cold result is emitted before its session is checked into the cache.
  // Before a client sends a request that must hit, wait until every request
  // whose outcome has arrived has also completed (and so checked in):
  // completed ⊆ arrived, so equal counts mean equal sets.
  const auto wait_checked_in = [&] {
    for (;;) {
      const std::optional<JsonValue> st = util::obs::json_parse(svc->stats_json());
      long arrived = 0;
      {
        const std::lock_guard<std::mutex> lock(inbox.mu);
        arrived = inbox.outcomes;
      }
      if (st && static_cast<long>(st->get_number("completed", -1.0)) >= arrived) return;
      std::this_thread::yield();
    }
  };

  // Per client: next script step, the solve id it waits for, when that
  // solve was sent, and its span request id.
  std::vector<size_t> pos(kClients, 0);
  std::vector<std::string> waiting(kClients);
  std::vector<Clock::time_point> sent(kClients);
  std::vector<long> request_id(kClients, -1);
  std::map<std::string, double> latency;
  long next_request = 0;

  const Clock::time_point t0 = Clock::now();
  for (;;) {
    bool pending = false;
    for (size_t c = 0; c < pos.size(); ++c) {
      const std::vector<Step>& script = scripts[c];
      while (waiting[c].empty() && pos[c] < script.size()) {
        const Step& st = script[pos[c]++];
        ++log.attempted;
        if (st.kind == Step::Kind::kSolve && st.phase == Phase::kCold && tr.enabled()) {
          Scope span(tr, "channel", -1);
          (void)registry_->get(keys[static_cast<size_t>(st.key)].tmpl)->tmpl->path_loss_db(0, 1);
        }
        if (st.kind == Step::Kind::kSolve && st.phase != Phase::kCold) {
          Scope span(tr, "client_sync", -1);
          wait_checked_in();
        }
        const long id = next_request++;
        const Clock::time_point start = Clock::now();
        {
          Scope span(tr, "submit_line", id);
          svc->submit_line(st.line);
        }
        if (st.kind == Step::Kind::kSolve) {
          waiting[c] = st.id;
          sent[c] = start;
          request_id[c] = id;
        }
      }
      pending = pending || !waiting[c].empty();
    }
    if (!pending) break;

    Scope span(tr, "client_wait", -1);
    std::unique_lock<std::mutex> lock(inbox.mu);
    inbox.cv.wait(lock, [&] {
      return std::any_of(waiting.begin(), waiting.end(), [&](const std::string& id) {
        return !id.empty() && inbox.done.count(id) != 0;
      });
    });
    for (size_t c = 0; c < pos.size(); ++c) {
      const auto it = waiting[c].empty() ? inbox.done.end() : inbox.done.find(waiting[c]);
      if (it == inbox.done.end()) continue;
      latency[waiting[c]] = seconds_between(sent[c], it->second);
      tr.record("request", sent[c], it->second, -1, request_id[c]);
      waiting[c].clear();
    }
  }
  const double wall_s = seconds_between(t0, Clock::now());

  svc->wait_idle();
  const std::optional<JsonValue> final_stats = util::obs::json_parse(svc->stats_json());
  svc.reset();

  // --- Output checks and counters, outside the timed region.
  std::map<std::string, ParsedResult> results;
  long bad_request = 0;
  long other_rejections = 0;
  long stats_events = 0;
  for (const std::string& line : inbox.lines) {
    ++log.layers.events;
    log.layers.event_bytes += static_cast<long>(line.size());
    if (const std::optional<std::string> err = util::obs::json_error(line)) {
      log.fail_check("emitted line is not strict JSON (" + *err + "): " + line);
      continue;
    }
    const std::optional<JsonValue> v = util::obs::json_parse(line);
    const std::string event = v->get_string("event", "");
    const std::string id = v->get_string("id", "");
    if (event == "rejected") {
      (v->get_string("reason", "") == "bad_request" && id.rfind("c", 0) != 0 ? bad_request
                                                                              : other_rejections)++;
    } else if (event == "stats") {
      ++stats_events;
    } else if (event == "failed") {
      log.fail_request(id + ": failed event: " + v->get_string("error", ""));
    } else if (event == "rung") {
      ParsedResult& r = results[id];
      (v->get_bool("cache_hit", false) ? r.replayed : r.fresh)++;
      r.rung_objectives.push_back(v->get_number("objective", -1.0));
      const std::string term = v->get_string("termination", "");
      if (term != "completed") r.rung_cut_short = true;
    } else if (event == "result") {
      ParsedResult& r = results[id];
      r.present = true;
      r.hit = v->get_bool("cache_hit", false);
      r.reused_rungs = static_cast<long>(v->get_number("reused_rungs", -1.0));
      r.reused_candidates = static_cast<long>(v->get_number("reused_candidates", -1.0));
      r.canonical = canonical_of(line);
      if (const JsonValue* c = v->find("canonical")) r.canonical_doc = *c;
      log.layers.queue_wait_s += v->get_number("queue_wait_s", 0.0);
      log.layers.worker_busy_s += v->get_number("wall_time_s", 0.0);
    }
  }
  long malformed = 0;
  long stats_lines = 0;
  for (const std::vector<Step>& script : scripts) {
    for (const Step& st : script) {
      malformed += st.kind == Step::Kind::kMalformed ? 1 : 0;
      stats_lines += st.kind == Step::Kind::kStats ? 1 : 0;
    }
  }
  if (bad_request != malformed || other_rejections != 0) {
    log.fail_request("rejections: " + std::to_string(bad_request) + " bad_request for " +
                     std::to_string(malformed) + " malformed lines, " +
                     std::to_string(other_rejections) + " unexpected");
  }
  if (stats_events != stats_lines) log.fail_check("stats events do not match stats lines");

  for (int i = 0; i < num_keys_; ++i) {
    const std::string base = key_id(i % kClients, i);
    const ParsedResult& cold = results[base + "-cold"];
    const ParsedResult& repeat = results[base + "-repeat"];
    const ParsedResult& extend = results[base + "-extend"];
    const long cold_rungs = static_cast<long>(cold.rung_objectives.size());
    const long chosen_k = cold.canonical_doc.is_object()
                              ? static_cast<long>(cold.canonical_doc.get_number("chosen_k", -1.0))
                              : -1;
    // The extended ladder solves rung 5 only if rung 3 improved on rung 1
    // (the Sec. 4.3 stop rule), which the cold result records as chosen_k.
    const long extend_fresh = (chosen_k == 3 || chosen_k == 0) ? 1 : 0;
    struct Expect {
      const char* phase;
      const ParsedResult* r;
      bool hit;
      long reused_rungs;
      long fresh;
    };
    for (const Expect& e : {Expect{"cold", &cold, false, 0, cold_rungs},
                            Expect{"repeat", &repeat, true, cold_rungs, 0},
                            Expect{"extend", &extend, true, cold_rungs, extend_fresh}}) {
      const std::string id = base + "-" + e.phase;
      const Key& key = keys[static_cast<size_t>(i)];
      log.fingerprint.push_back(
          id + " " + key.tmpl + " energy " +
          exact(key.energy) + " hit " + std::to_string(e.r->hit) + " reused_rungs " +
          std::to_string(e.r->reused_rungs) + " reused_candidates " +
          std::to_string(e.r->reused_candidates) + " fresh " + std::to_string(e.r->fresh) +
          " replayed " + std::to_string(e.r->replayed) + " canonical " +
          std::to_string(server::cache_key_hash(e.r->canonical)));
      if (!e.r->present) {
        log.fail_request(id + ": no result");
        continue;
      }
      log.latency_s.push_back(latency[id]);
      log.layers.rungs_solved += e.r->fresh;
      log.layers.rungs_replayed += e.r->replayed;
      const std::string term =
          e.r->canonical_doc.is_object() ? e.r->canonical_doc.get_string("termination", "") : "";
      if (term != "completed" || e.r->rung_cut_short) {
        log.fail_request(id + ": termination " + term);
      } else if (e.r->hit != e.hit || e.r->reused_rungs != e.reused_rungs ||
                 e.r->fresh != e.fresh || e.r->replayed != e.reused_rungs) {
        log.fail_request(id + ": cache outcome differs from script (hit " +
                         std::to_string(e.r->hit) + ", reused " +
                         std::to_string(e.r->reused_rungs) + ", fresh " +
                         std::to_string(e.r->fresh) + ")");
      }
    }
    if (repeat.present && repeat.canonical != cold.canonical) {
      log.fail_check(base + ": repeat canonical differs from cold");
    }
    if (extend.present && cold.present) {
      for (long j = 0; j < cold_rungs; ++j) {
        if (j >= static_cast<long>(extend.rung_objectives.size()) ||
            extend.rung_objectives[static_cast<size_t>(j)] !=
                cold.rung_objectives[static_cast<size_t>(j)]) {
          log.fail_check(base + ": extended ladder does not replay the cold rungs");
          break;
        }
      }
    }
  }
  log.fingerprint.push_back("rejected bad_request " + std::to_string(bad_request) + " stats " +
                            std::to_string(stats_events));

  const JsonValue* cache = final_stats ? final_stats->find("cache") : nullptr;
  if (cache == nullptr) {
    log.fail_check("final stats event has no cache object");
  } else {
    const long hits = static_cast<long>(cache->get_number("hits", 0.0));
    const long evictions = static_cast<long>(cache->get_number("evictions", 0.0));
    log.layers.cache_hits += hits;
    log.layers.cache_lookups += hits + static_cast<long>(cache->get_number("misses", 0.0));
    log.layers.cache_bytes =
        std::max(log.layers.cache_bytes, static_cast<long>(cache->get_number("bytes", 0.0)));
    log.layers.cache_evictions += evictions;
    if (evictions != 0) log.fail_check("session cache evicted entries");
  }
  log.layers.workers = kWorkers;

  if (tr.enabled()) replay(log, results);
  return wall_s;
}

/// Re-runs each key's fresh rungs through Explorer::explore_rung — the call
/// the service makes per rung — to read the EncodeStats / SolveStats that
/// service events do not carry, and checks the library's rung objectives
/// against the service's. Mirrors the service's request handling: rungs 1
/// and 3 share one request control (the cold request's node budget), rung 5
/// gets the extension's own, and a bound callback is attached as for the
/// service's bound events. One thread per client, like the service's workers.
void ServiceMix::replay(RunLog& log, const std::map<std::string, ParsedResult>& results) const {
  struct Rung {
    int key = 0;
    size_t index = 0;  ///< position in the ladder
    archex::ExplorationResult r;
  };
  std::vector<std::vector<Rung>> rungs(kClients);
  const auto replay_client = [&](int client) {
    for (int i = client; i < num_keys_; i += kClients) {
      const Key& key = keys_[static_cast<size_t>(i)];
      const auto extend = results.find(key_id(client, i) + "-extend");
      const archex::workloads::Scenario* scn = registry_->get(key.tmpl);
      archex::Specification spec = scn->spec;
      spec.objective = {1.0, key.energy, 0.0};
      const archex::Explorer explorer(*scn->tmpl, spec);
      const util::exec::CancellationSource root;
      const util::exec::RequestControl cold =
          util::exec::make_request_control(kTimeLimitS, root.token(), kMaxBbNodes);
      archex::EncoderOptions eo;
      eo.exec = cold.control;
      archex::IncrementalEncoder session(*scn->tmpl, spec, eo);
      archex::Explorer::RungCarry carry;
      milp::SolveOptions so;
      so.time_limit_s = kTimeLimitS;
      so.exec = cold.control;
      so.collect_timeline = false;
      so.on_bound_improved = [](double) {};
      for (size_t j = 0; j < 2; ++j) {
        rungs[static_cast<size_t>(client)].push_back(
            {i, j, explorer.explore_rung(session, j == 0 ? 1 : 3, carry, so)});
      }
      if (extend != results.end() && extend->second.fresh > 0) {
        const util::exec::RequestControl ext =
            util::exec::make_request_control(kTimeLimitS, root.token(), kMaxBbNodes);
        session.set_exec(ext.control);
        so.exec = ext.control;
        rungs[static_cast<size_t>(client)].push_back(
            {i, 2, explorer.explore_rung(session, 5, carry, so)});
      }
    }
  };
  {
    std::vector<std::jthread> threads;
    for (int c = 0; c < kClients; ++c) threads.emplace_back(replay_client, c);
  }

  for (const std::vector<Rung>& client_rungs : rungs) {
    for (const Rung& rung : client_rungs) {
      const archex::ExplorationResult& r = rung.r;
      log.layers.add_encode(r.encode_stats);
      log.layers.add_solve(r.solve_stats);
      log.layers.explore_other_s +=
          r.total_time_s - r.encode_stats.encode_time_s - r.solve_stats.time_s;
      // Rungs 1 and 3 are the cold request's; rung 5 is the extension's third.
      const std::string base = key_id(rung.key % kClients, rung.key);
      log.library_fingerprint.push_back(
          base + " rung " + std::to_string(rung.index) + " nodes " +
          std::to_string(r.solve_stats.nodes) + " lp_iterations " +
          std::to_string(r.solve_stats.lp_iterations) + " rows " +
          std::to_string(r.encode_stats.num_constrs) + " nonzeros " +
          std::to_string(r.encode_stats.nonzeros) + " candidates " +
          std::to_string(r.encode_stats.candidate_paths) + " reused " +
          std::to_string(r.encode_stats.reused_candidates) + " termination " +
          util::exec::to_string(r.termination));
      const auto service = results.find(base + (rung.index < 2 ? "-cold" : "-extend"));
      const bool known = service != results.end() &&
                         rung.index < service->second.rung_objectives.size();
      if (!r.has_solution() || !known ||
          r.objective != service->second.rung_objectives[rung.index]) {
        log.fail_check(base + ": library rung " + std::to_string(rung.index) +
                       " objective differs from the service's");
      }
    }
  }
}

}  // namespace

std::unique_ptr<Workload> make_service_mix(uint64_t seed, int seconds) {
  return std::make_unique<ServiceMix>(seed, seconds);
}

}  // namespace perfbench
