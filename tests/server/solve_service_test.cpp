// The solve daemon's contracts, pinned in-process:
//   - the canonical sub-object of every result is byte-identical across
//     1/2/4/8 worker threads and across cache states (serial reference vs
//     concurrent, cold vs warm), and equal to the library's
//     Explorer::search_k_star answer for the same spec and ladder;
//   - a duplicated request answers from the session cache with the same
//     canonical result and strictly lower wall clock, also when it is sent
//     the moment the first request's result is read;
//   - admission control rejects queue overflow and duplicate ids with
//     structured events, and cancel-by-id yields a deterministic partial
//     result without disturbing concurrent requests;
//   - every emitted line is strict RFC 8259 JSON.
#include "server/solve_service.h"

#include <gtest/gtest.h>

#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "channel/propagation.h"
#include "geometry/floorplan.h"
#include "server/session_cache.h"
#include "util/obs/json.h"

namespace wnet::server {
namespace {

using util::obs::JsonValue;
using util::obs::json_parse;
using util::obs::json_valid;

/// Small enough to solve in milliseconds, rich enough that higher K* rungs
/// change the model (two sensors crossing a relay corridor).
std::unique_ptr<archex::workloads::Scenario> make_tiny_scenario() {
  using namespace archex;
  auto sc = std::make_unique<workloads::Scenario>();
  sc->plan = geom::make_office_floor(40.0, 12.0);
  sc->model = std::make_unique<channel::MultiWallModel>(2.4e9, 2.4, sc->plan);
  sc->library = make_reference_library();
  sc->tmpl = std::make_unique<NetworkTemplate>(*sc->model, sc->library);
  sc->tmpl->add_node({"sink", {38.0, 6.0}, Role::kSink, NodeKind::kFixed, std::nullopt});
  for (int i = 0; i < 2; ++i) {
    sc->tmpl->add_node({"s" + std::to_string(i), {2.0, 3.0 + 6.0 * i}, Role::kSensor,
                        NodeKind::kFixed, std::nullopt});
  }
  for (int i = 0; i < 6; ++i) {
    sc->tmpl->add_node({"r" + std::to_string(i), {8.0 + 5.0 * i, 3.0 + (i % 2) * 6.0},
                        Role::kRelay, NodeKind::kCandidate, std::nullopt});
  }
  sc->spec.link_quality.min_snr_db = 35.0;
  sc->spec.objective = {1.0, 0.0, 0.0};
  for (int i = 0; i < 2; ++i) {
    RouteRequirement r;
    r.source = *sc->tmpl->find_node("s" + std::to_string(i));
    r.dest = 0;
    sc->spec.routes.push_back(r);
  }
  return sc;
}

/// Thread-safe line collector with typed helpers over the event stream.
class Collector {
 public:
  EventSink sink() {
    return [this](const std::string& line) {
      const std::lock_guard<std::mutex> lock(mu_);
      lines_.push_back(line);
    };
  }

  [[nodiscard]] std::vector<std::string> lines() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return lines_;
  }

  /// The first event of `kind` for request `id` (parsed), or nullopt.
  [[nodiscard]] std::optional<JsonValue> event(const std::string& kind,
                                              const std::string& id) const {
    for (const std::string& line : lines()) {
      const std::optional<JsonValue> v = json_parse(line);
      if (!v) continue;
      if (v->get_string("event", "") == kind && v->get_string("id", "") == id) return v;
    }
    return std::nullopt;
  }

  /// The canonical sub-object of `id`'s result, as raw JSON text (the byte
  /// string the differential contract is defined over).
  [[nodiscard]] std::string canonical_of(const std::string& id) const {
    for (const std::string& line : lines()) {
      const std::optional<JsonValue> v = json_parse(line);
      if (!v || v->get_string("event", "") != "result" || v->get_string("id", "") != id) continue;
      const size_t start = line.find("\"canonical\": ");
      const size_t end = line.find(", \"cache_hit\":");
      EXPECT_NE(start, std::string::npos) << line;
      EXPECT_NE(end, std::string::npos) << line;
      return line.substr(start + 13, end - (start + 13));
    }
    return {};
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::string> lines_;
};

Request solve_request(const std::string& id, std::vector<int> ladder,
                      const std::string& tenant = "") {
  Request r;
  r.id = id;
  r.tenant = tenant;
  r.template_key = "tiny";
  r.ladder = std::move(ladder);
  r.time_limit_s = 60.0;
  return r;
}

class SolveServiceTest : public ::testing::Test {
 protected:
  SolveServiceTest() { registry_.register_scenario("tiny", make_tiny_scenario()); }

  TemplateRegistry registry_;
};

TEST_F(SolveServiceTest, CanonicalResultsAreWorkerCountAndCacheStateInvariant) {
  // The same request mix on every worker count; within one run the repeated
  // key ("a" then "a2") also exercises warm-vs-cold inside the run.
  const auto batch = [&](SolveService& svc) {
    ASSERT_TRUE(svc.submit(solve_request("a", {1, 3}, "t1")));
    ASSERT_TRUE(svc.submit(solve_request("a2", {1, 3}, "t2")));
    ASSERT_TRUE(svc.submit(solve_request("b", {1, 2, 4}, "t1")));
    Request obj = solve_request("c", {1, 3}, "t2");
    obj.objective = archex::Objective{1.0, 0.1, 0.0};
    ASSERT_TRUE(svc.submit(obj));
    svc.wait_idle();
  };

  std::map<std::string, std::string> reference;
  for (const int workers : {1, 2, 4, 8}) {
    Collector out;
    ServiceConfig cfg;
    cfg.workers = workers;
    SolveService svc(registry_, cfg, out.sink());
    batch(svc);
    svc.shutdown();
    for (const std::string id : {"a", "a2", "b", "c"}) {
      const std::string canonical = out.canonical_of(id);
      ASSERT_FALSE(canonical.empty()) << "workers=" << workers << " id=" << id;
      EXPECT_TRUE(json_valid(canonical)) << canonical;
      if (workers == 1) {
        reference[id] = canonical;
      } else {
        // Byte-identical, not merely equivalent.
        EXPECT_EQ(canonical, reference[id]) << "workers=" << workers << " id=" << id;
      }
    }
    for (const std::string& line : out.lines()) {
      EXPECT_TRUE(json_valid(line)) << line;
    }
  }
  // The objective override must actually change the answer's key (sanity
  // that the differential is not comparing four copies of one solve).
  EXPECT_NE(reference["a"], reference["b"]);
}

TEST_F(SolveServiceTest, DuplicateRequestAnswersFromCacheFasterWithIdenticalResult) {
  Collector out;
  ServiceConfig cfg;
  cfg.workers = 1;
  SolveService svc(registry_, cfg, out.sink());
  ASSERT_TRUE(svc.submit(solve_request("cold", {1, 3})));
  svc.wait_idle();
  ASSERT_TRUE(svc.submit(solve_request("warm", {1, 3})));
  svc.wait_idle();
  svc.shutdown();

  const std::optional<JsonValue> cold = out.event("result", "cold");
  const std::optional<JsonValue> warm = out.event("result", "warm");
  ASSERT_TRUE(cold.has_value());
  ASSERT_TRUE(warm.has_value());
  EXPECT_FALSE(cold->get_bool("cache_hit", true));
  EXPECT_TRUE(warm->get_bool("cache_hit", false));
  EXPECT_EQ(warm->get_number("reused_rungs", 0.0), 2.0);
  EXPECT_EQ(out.canonical_of("warm"), out.canonical_of("cold"));
  // The acceptance bar: answered from cache with strictly lower wall clock.
  EXPECT_LT(*warm->get_number("wall_time_s"), *cold->get_number("wall_time_s"));

  // Warm rung events replay with cache_hit: true.
  const std::optional<JsonValue> rung = out.event("rung", "warm");
  ASSERT_TRUE(rung.has_value());
  EXPECT_TRUE(rung->get_bool("cache_hit", false));
}

TEST_F(SolveServiceTest, SessionIsCachedBeforeItsResultIsEmitted) {
  // A client that sends the same key the moment it reads `result` must hit
  // the cache. The sink runs under the service's emit lock, so it calls
  // nothing on the service itself: on the cold result it starts a client
  // thread that snapshots the cache stats and resubmits the key, and holds
  // the emitting worker until the snapshot is taken.
  Collector out;
  const EventSink record = out.sink();
  ServiceConfig cfg;
  cfg.workers = 2;
  SolveService* svc_ptr = nullptr;
  std::string stats_at_result;
  std::thread resubmit;
  SolveService svc(registry_, cfg, [&](const std::string& line) {
    record(line);
    const std::optional<JsonValue> v = json_parse(line);
    if (v && v->get_string("event", "") == "result" && v->get_string("id", "") == "cold") {
      std::promise<std::string> snapshot;
      std::future<std::string> taken = snapshot.get_future();
      resubmit = std::thread([svc_ptr, snapshot = std::move(snapshot)]() mutable {
        snapshot.set_value(svc_ptr->stats_json());
        svc_ptr->submit(solve_request("warm", {1, 3}));
      });
      stats_at_result = taken.get();
    }
  });
  svc_ptr = &svc;
  ASSERT_TRUE(svc.submit(solve_request("cold", {1, 3})));
  svc.wait_idle();
  ASSERT_TRUE(resubmit.joinable());
  resubmit.join();
  svc.wait_idle();
  svc.shutdown();

  const std::optional<JsonValue> stats = json_parse(stats_at_result);
  ASSERT_TRUE(stats.has_value()) << stats_at_result;
  const JsonValue* cache = stats->find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->get_number("entries", -1.0), 1.0) << stats_at_result;

  const std::optional<JsonValue> warm = out.event("result", "warm");
  ASSERT_TRUE(warm.has_value());
  EXPECT_TRUE(warm->get_bool("cache_hit", false));
  EXPECT_EQ(warm->get_number("reused_rungs", 0.0), 2.0);
  EXPECT_EQ(out.canonical_of("warm"), out.canonical_of("cold"));
}

TEST_F(SolveServiceTest, ExtendedLadderResumesFromCachedPrefix) {
  Collector out;
  ServiceConfig cfg;
  cfg.workers = 1;
  SolveService svc(registry_, cfg, out.sink());
  ASSERT_TRUE(svc.submit(solve_request("short", {1, 2})));
  svc.wait_idle();
  ASSERT_TRUE(svc.submit(solve_request("long", {1, 2, 4})));
  svc.wait_idle();

  // Reference: the same long ladder solved cold in a fresh service.
  Collector ref_out;
  SolveService ref(registry_, cfg, ref_out.sink());
  ASSERT_TRUE(ref.submit(solve_request("long", {1, 2, 4})));
  ref.wait_idle();

  EXPECT_EQ(out.canonical_of("long"), ref_out.canonical_of("long"));
  const std::optional<JsonValue> result = out.event("result", "long");
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->get_bool("cache_hit", false));
  // Rungs 1 and 2 replay; only the stop rule decides whether rung 4 runs.
  EXPECT_GE(result->get_number("reused_rungs", 0.0), 2.0);
}

TEST_F(SolveServiceTest, ResultMatchesLibraryKStarSearch) {
  // The daemon runs the library's selection scan over cached or freshly
  // explored rungs: cold, replayed and resumed answers must all be the
  // library's answer, byte for byte.
  const archex::workloads::Scenario* scn = registry_.get("tiny");
  ASSERT_NE(scn, nullptr);
  const archex::Explorer ex(*scn->tmpl, scn->spec);
  const auto library = [&](std::vector<int> ladder) {
    archex::Explorer::KStarSearchOptions ko;
    ko.ladder = std::move(ladder);
    milp::SolveOptions so;
    so.time_limit_s = 60.0;
    return canonical_result_json(ex.search_k_star(ko, {}, so));
  };
  const std::string default_ladder = library({1, 3, 5});
  const std::string extended_ladder = library({1, 3, 5, 10});

  Collector out;
  ServiceConfig cfg;
  cfg.workers = 1;
  SolveService svc(registry_, cfg, out.sink());
  for (const std::string id : {"default-cold", "default-cached"}) {
    ASSERT_TRUE(svc.submit(solve_request(id, {})));  // empty: the protocol's default ladder
    svc.wait_idle();
  }
  for (const std::string id : {"extended-resumed", "extended-cached"}) {
    ASSERT_TRUE(svc.submit(solve_request(id, {1, 3, 5, 10})));
    svc.wait_idle();
  }
  Collector cold_out;
  SolveService cold(registry_, cfg, cold_out.sink());
  ASSERT_TRUE(cold.submit(solve_request("extended-cold", {1, 3, 5, 10})));
  cold.wait_idle();

  EXPECT_EQ(out.canonical_of("default-cold"), default_ladder);
  EXPECT_EQ(out.canonical_of("default-cached"), default_ladder);
  EXPECT_EQ(out.canonical_of("extended-resumed"), extended_ladder);
  EXPECT_EQ(out.canonical_of("extended-cached"), extended_ladder);
  EXPECT_EQ(cold_out.canonical_of("extended-cold"), extended_ladder);
  for (const std::string id : {"default-cached", "extended-resumed", "extended-cached"}) {
    const std::optional<JsonValue> result = out.event("result", id);
    ASSERT_TRUE(result.has_value()) << id;
    EXPECT_TRUE(result->get_bool("cache_hit", false)) << id;
  }
}

TEST_F(SolveServiceTest, AdmissionControlRejectsOverflowAndDuplicates) {
  Collector out;
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.queue_limit = 2;
  cfg.start_paused = true;  // admission decisions independent of solve speed
  SolveService svc(registry_, cfg, out.sink());

  EXPECT_TRUE(svc.submit(solve_request("q1", {1})));
  EXPECT_FALSE(svc.submit(solve_request("q1", {1})));  // duplicate id
  EXPECT_TRUE(svc.submit(solve_request("q2", {1})));
  EXPECT_FALSE(svc.submit(solve_request("q3", {1})));  // queue full

  const std::optional<JsonValue> dup = out.event("rejected", "q1");
  ASSERT_TRUE(dup.has_value());
  EXPECT_EQ(dup->get_string("reason", ""), "duplicate_id");
  const std::optional<JsonValue> full = out.event("rejected", "q3");
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(full->get_string("reason", ""), "queue_full");

  svc.resume();
  svc.wait_idle();
  svc.shutdown();
  EXPECT_TRUE(out.event("result", "q1").has_value());
  EXPECT_TRUE(out.event("result", "q2").has_value());
}

TEST_F(SolveServiceTest, CancelledRequestYieldsStructuredPartialResultWithoutDisturbingOthers) {
  Collector out;
  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.start_paused = true;
  SolveService svc(registry_, cfg, out.sink());
  ASSERT_TRUE(svc.submit(solve_request("doomed", {1, 3})));
  ASSERT_TRUE(svc.submit(solve_request("survivor", {1, 3})));
  EXPECT_TRUE(svc.cancel("doomed"));
  EXPECT_FALSE(svc.cancel("nonexistent"));
  svc.resume();
  svc.wait_idle();
  svc.shutdown();

  // The cancelled request still answers — as a structured partial result.
  const std::string cancelled = out.canonical_of("doomed");
  ASSERT_FALSE(cancelled.empty());
  const std::optional<JsonValue> doc = json_parse(cancelled);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->get_string("termination", ""), "cancelled");
  EXPECT_EQ(doc->get_number("chosen_k", -1.0), 0.0);

  // The concurrent request is untouched: identical to a solo reference run.
  Collector ref_out;
  ServiceConfig ref_cfg;
  ref_cfg.workers = 1;
  SolveService ref(registry_, ref_cfg, ref_out.sink());
  ASSERT_TRUE(ref.submit(solve_request("survivor", {1, 3})));
  ref.wait_idle();
  EXPECT_EQ(out.canonical_of("survivor"), ref_out.canonical_of("survivor"));
}

TEST_F(SolveServiceTest, DeadlineStoppedRequestReportsStructuredPartialResult) {
  Collector out;
  ServiceConfig cfg;
  cfg.workers = 1;
  SolveService svc(registry_, cfg, out.sink());
  Request r = solve_request("rushed", {1, 3});
  r.time_limit_s = 1e-9;  // expires before the first rung
  ASSERT_TRUE(svc.submit(r));
  svc.wait_idle();
  svc.shutdown();
  const std::optional<JsonValue> doc = json_parse(out.canonical_of("rushed"));
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->get_string("termination", ""), "deadline");
}

TEST_F(SolveServiceTest, BadSpecTextFailsWithLineNumberedError) {
  Collector out;
  ServiceConfig cfg;
  cfg.workers = 1;
  SolveService svc(registry_, cfg, out.sink());
  Request r = solve_request("badspec", {1});
  r.spec_text = "p1 = has_path(s0, sink)\nmax_hops(p1, 3.9)\n";
  ASSERT_TRUE(svc.submit(r));  // admission does not parse spec text
  svc.wait_idle();
  svc.shutdown();
  const std::optional<JsonValue> failed = out.event("failed", "badspec");
  ASSERT_TRUE(failed.has_value());
  const std::string error = failed->get_string("error", "");
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_NE(error.find("positive integer"), std::string::npos) << error;
}

TEST_F(SolveServiceTest, SubmitLineParsesAndRejectsStructurally) {
  Collector out;
  ServiceConfig cfg;
  cfg.workers = 1;
  SolveService svc(registry_, cfg, out.sink());

  EXPECT_TRUE(svc.submit_line("not json"));
  EXPECT_TRUE(svc.submit_line(R"({"op": "solve"})"));                        // missing id
  EXPECT_TRUE(svc.submit_line(R"({"op": "solve", "id": "x"})"));             // missing template
  EXPECT_TRUE(svc.submit_line(R"({"op": "frobnicate", "id": "y"})"));        // unknown op
  EXPECT_TRUE(svc.submit_line(
      R"({"op": "solve", "id": "z", "template": "tiny", "ladder": [1, 1]})"));  // not increasing
  EXPECT_TRUE(svc.submit_line(
      R"({"op": "solve", "id": "w", "template": "tiny", "ladder": [2.5]})"));   // fractional
  int rejected = 0;
  for (const std::string& line : out.lines()) {
    const std::optional<JsonValue> v = json_parse(line);
    ASSERT_TRUE(v.has_value()) << line;
    if (v->get_string("event", "") == "rejected") {
      ++rejected;
      EXPECT_EQ(v->get_string("reason", ""), "bad_request");
    }
  }
  EXPECT_EQ(rejected, 6);

  EXPECT_TRUE(svc.submit_line(R"({"op": "stats"})"));
  svc.shutdown();
  bool saw_stats = false;
  for (const std::string& line : out.lines()) {
    const std::optional<JsonValue> v = json_parse(line);
    if (v && v->get_string("event", "") == "stats") {
      saw_stats = true;
      EXPECT_GE(v->get_number("rejected", -1.0), 6.0);
    }
  }
  EXPECT_TRUE(saw_stats);
}

TEST_F(SolveServiceTest, RegistryKnowsBuiltinsAndCacheKeyIsContentAddressed) {
  TemplateRegistry reg;
  EXPECT_TRUE(reg.known("data_collection"));
  EXPECT_TRUE(reg.known("localization"));
  EXPECT_TRUE(reg.known("scalable:40x15"));
  EXPECT_FALSE(reg.known("scalable:40x"));
  EXPECT_FALSE(reg.known("scalable:40x15 "));
  EXPECT_FALSE(reg.known("scalable:15x40"));  // devices >= nodes
  EXPECT_FALSE(reg.known("office"));
  const archex::workloads::Scenario* a = reg.get("scalable:40x15");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a, reg.get("scalable:40x15"));  // cached, stable pointer

  const std::string k1 = make_cache_key("tiny", "", 1.0, 0.0, 0.0);
  EXPECT_EQ(k1, make_cache_key("tiny", "", 1.0, 0.0, 0.0));
  EXPECT_NE(k1, make_cache_key("tiny", "", 1.0, 0.1, 0.0));
  EXPECT_NE(k1, make_cache_key("tiny", "objective cost=1", 1.0, 0.0, 0.0));
  EXPECT_NE(k1, make_cache_key("tiny2", "", 1.0, 0.0, 0.0));
  EXPECT_NE(cache_key_hash(k1), cache_key_hash(make_cache_key("tiny2", "", 1.0, 0.0, 0.0)));
}

TEST_F(SolveServiceTest, SessionCacheEvictsLeastRecentlyUsedUnderByteBudget) {
  SessionCache cache(1);  // 1-byte budget: everything real is over it
  auto entry = std::make_unique<CachedSession>();
  entry->rung_ks.push_back(1);
  entry->rung_results.emplace_back();
  cache.checkin("k1", std::move(entry));  // larger than the budget: dropped
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.checkout("k1"), nullptr);
  EXPECT_EQ(cache.stats().misses, 1);
}

}  // namespace
}  // namespace wnet::server
