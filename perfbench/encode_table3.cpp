// encode_table3: one closed-loop caller on one thread that only encodes, each
// request on a fresh template (so the path-loss matrix is filled inside the
// request). It covers Algorithm 1 (kApprox) at K* in {20, 50} on the large
// Table 3 templates, the exact flow encoding (kFull) on the small ones, and
// the Sec. 4.2 localization template. channel, graph and core/encode do all
// the work and milp none, so solver changes should leave it flat.

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "core/encode/encoder.h"
#include "core/workloads/scenarios.h"

namespace perfbench {
namespace {

using namespace wnet;
using namespace wnet::archex;

enum class Kind { kApprox, kFull, kLocalization };

struct Case {
  Kind kind;
  int nodes;
  int devices;
  int k_star;
};

/// One cycle of the request list; every cycle draws fresh layouts.
constexpr Case kCycle[] = {
    {Kind::kApprox, 100, 40, 20},  {Kind::kApprox, 150, 60, 20},  {Kind::kApprox, 200, 80, 20},
    {Kind::kApprox, 300, 120, 20}, {Kind::kApprox, 100, 40, 50},  {Kind::kApprox, 150, 60, 50},
    {Kind::kApprox, 200, 80, 50},  {Kind::kApprox, 300, 120, 50}, {Kind::kFull, 30, 10, 0},
    {Kind::kFull, 40, 13, 0},      {Kind::kFull, 50, 17, 0},      {Kind::kFull, 60, 20, 0},
    {Kind::kLocalization, 0, 0, 0},
};
/// Cycles in the request list, per 8 s of --seconds.
constexpr int kSecondsPerCycle = 8;
constexpr double kFullRowTolerance = 0.15;
constexpr uint64_t kWarmLayout = 3;

struct Request {
  Case c;
  uint64_t layout = 0;
  std::unique_ptr<workloads::Scenario> sc;
};

std::unique_ptr<workloads::Scenario> make_scenario(const Case& c, uint64_t layout) {
  if (c.kind == Kind::kLocalization) {
    workloads::LocalizationConfig cfg;
    cfg.seed = layout;
    return workloads::make_localization(cfg);
  }
  workloads::ScalableConfig cfg;
  cfg.total_nodes = c.nodes;
  cfg.end_devices = c.devices;
  cfg.seed = layout;
  return workloads::make_scalable(cfg);
}

EncoderOptions options(const Case& c) {
  EncoderOptions eo;
  eo.threads = 1;
  if (c.kind == Kind::kFull) {
    eo.mode = EncoderOptions::PathMode::kFull;
  } else if (c.kind == Kind::kApprox) {
    eo.k_star = c.k_star;
  }
  return eo;
}

/// A template with the scenario's nodes and an empty path-loss cache.
std::unique_ptr<NetworkTemplate> fresh_template(const workloads::Scenario& sc) {
  auto t = std::make_unique<NetworkTemplate>(*sc.model, sc.library);
  for (const TemplateNode& n : sc.tmpl->nodes()) t->add_node(n);
  t->set_link_cutoff_rss_dbm(sc.tmpl->link_cutoff_rss_dbm());
  return t;
}

std::string case_name(const Case& c) {
  switch (c.kind) {
    case Kind::kApprox:
      return "approx " + std::to_string(c.nodes) + "x" + std::to_string(c.devices) + " K*=" +
             std::to_string(c.k_star);
    case Kind::kFull:
      return "full " + std::to_string(c.nodes) + "x" + std::to_string(c.devices);
    case Kind::kLocalization:
      return "localization";
  }
  return "";
}

class EncodeTable3 final : public Workload {
 public:
  EncodeTable3(uint64_t seed, int seconds)
      : seed_(seed), cycles_(std::max(1, seconds / kSecondsPerCycle)) {}

  void setup() override {
    requests_.clear();
    const int count = cycles_ * static_cast<int>(std::size(kCycle));
    for (int i = 0; i < count; ++i) {
      Request r;
      r.c = kCycle[static_cast<size_t>(i) % std::size(kCycle)];
      r.layout = mix(seed_, 3, static_cast<uint64_t>(i));
      r.sc = make_scenario(r.c, r.layout);
      requests_.push_back(std::move(r));
    }
    const Case warm{Kind::kApprox, 100, 40, 20};
    // The same warm-up for every seed, so set-up time does not depend on it.
    const auto sc = make_scenario(warm, kWarmLayout);
    const auto t = fresh_template(*sc);
    (void)Encoder(*t, sc->spec, options(warm)).encode();
  }

  double run(int, Tracer& tr, RunLog& log) override {
    std::vector<EncodeStats> stats;
    stats.reserve(requests_.size());

    const Clock::time_point t0 = Clock::now();
    for (size_t i = 0; i < requests_.size(); ++i) {
      const Request& rq = requests_[i];
      const long id = static_cast<long>(log.attempted + i);
      const Clock::time_point start = Clock::now();
      Scope request(tr, "request", id);
      std::unique_ptr<NetworkTemplate> t;
      {
        Scope span(tr, "template", id);
        t = fresh_template(*rq.sc);
      }
      if (tr.enabled()) {
        // The first lookup fills the n^2 path-loss cache; untraced, the
        // encoder's own first lookup pays for it instead.
        Scope span(tr, "channel", id);
        (void)t->path_loss_db(0, 1);
      }
      {
        Scope span(tr, "encode", id);
        stats.push_back(Encoder(*t, rq.sc->spec, options(rq.c)).encode().stats);
      }
      log.latency_s.push_back(seconds_between(start, Clock::now()));
    }
    const double wall_s = seconds_between(t0, Clock::now());

    for (size_t i = 0; i < requests_.size(); ++i) {
      const Request& rq = requests_[i];
      const EncodeStats& s = stats[i];
      const std::string name = "request " + std::to_string(i) + " " + case_name(rq.c) +
                               " layout " + std::to_string(rq.layout);
      ++log.attempted;
      log.layers.add_encode(s);
      log.fingerprint.push_back(name + " vars " + std::to_string(s.num_vars) + " rows " +
                                std::to_string(s.num_constrs) + " nonzeros " +
                                std::to_string(s.nonzeros) + " candidates " +
                                std::to_string(s.candidate_paths));
      if (s.termination != util::exec::TerminationReason::kCompleted) {
        log.fail_request(name + ": encode stopped (" + util::exec::to_string(s.termination) + ")");
      } else if (rq.c.kind == Kind::kFull) {
        check_full_estimate(name, rq, s, log);
      } else if (s.candidate_paths == 0 && rq.c.kind == Kind::kApprox) {
        log.fail_check(name + ": no candidate paths");
      }
    }
    return wall_s;
  }

  [[nodiscard]] Ledger ledger(const Tracer& tr, const Layers&) const override {
    return {{"channel", tr.self_seconds("channel")},
            {"core (template)", tr.self_seconds("template")},
            {"encode", tr.self_seconds("encode")},
            {"bench (request loop)", tr.self_seconds("request")}};
  }

 private:
  /// The closed-form estimate must match the materialized kFull model:
  /// variables exactly; rows within the tolerance the estimator documents
  /// (tests/core/encoder_test.cpp), because the encoder skips data-dependent
  /// empty balance rows and redundant implications that the estimate counts.
  static void check_full_estimate(const std::string& name, const Request& rq,
                                  const EncodeStats& s, RunLog& log) {
    const EncodeStats est =
        Encoder(*rq.sc->tmpl, rq.sc->spec, options(rq.c)).estimate_full_stats();
    if (est.num_vars != s.num_vars ||
        std::abs(est.num_constrs - s.num_constrs) > kFullRowTolerance * s.num_constrs) {
      log.fail_check(name + ": estimate_full_stats vars/rows " + std::to_string(est.num_vars) +
                     "/" + std::to_string(est.num_constrs) + " vs encoded " +
                     std::to_string(s.num_vars) + "/" + std::to_string(s.num_constrs));
    }
  }

  uint64_t seed_;
  int cycles_;
  std::vector<Request> requests_;
};

}  // namespace

std::unique_ptr<Workload> make_encode_table3(uint64_t seed, int seconds) {
  return std::make_unique<EncodeTable3>(seed, seconds);
}

}  // namespace perfbench
