#include "bench.h"

#include <cstdio>
#include <cstring>

#include "util/obs/json.h"
#include "util/rng.h"

namespace perfbench {

uint64_t mix(uint64_t seed, uint64_t stream, uint64_t index) {
  return wnet::util::splitmix64(wnet::util::splitmix64(seed ^ (stream << 32)) + index);
}

std::string exact(double v) { return wnet::util::obs::JsonWriter::format_double(v); }

int Tracer::open(const char* name, long request) {
  if (!enabled_) return -1;
  const int parent = stack_.empty() ? -1 : stack_.back();
  const Clock::time_point now = Clock::now();
  spans_.push_back({name, now, now, parent, request});
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void Tracer::close(int index) {
  if (index < 0) return;
  spans_[static_cast<size_t>(index)].end = Clock::now();
  stack_.pop_back();
}

int Tracer::record(const char* name, Clock::time_point start, Clock::time_point end, int parent,
                   long request) {
  if (!enabled_) return -1;
  spans_.push_back({name, start, end, parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

double Tracer::self_seconds(const char* name) const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child[static_cast<size_t>(s.parent)] += seconds_between(s.start, s.end);
  }
  double total = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (std::strcmp(spans_[i].name, name) == 0) {
      total += seconds_between(spans_[i].start, spans_[i].end) - child[i];
    }
  }
  return total;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const Clock::time_point epoch = spans_.empty() ? Clock::now() : spans_.front().start;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"span\": %zu, \"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f, "
                 "\"parent\": %d, \"request\": %ld}\n",
                 i, s.name, 1e6 * seconds_between(epoch, s.start),
                 1e6 * seconds_between(epoch, s.end), s.parent, s.request);
  }
  return std::fclose(f) == 0;
}

void Layers::add_encode(const wnet::archex::EncodeStats& s) {
  encode_s += s.encode_time_s;
  delta_encode_s += s.delta_encode_time_s;
  rows += s.num_constrs;
  nonzeros += static_cast<long>(s.nonzeros);
  candidates += s.candidate_paths;
  reused_candidates += s.reused_candidates;
}

void Layers::add_solve(const wnet::milp::SolveStats& s) {
  using wnet::util::exec::TerminationReason;
  milp_s += s.time_s;
  ++solves;
  nodes += s.nodes;
  lp_iterations += s.lp_iterations;
  warm_attempts += s.warm_attempts;
  warm_lu_reused += s.warm_lu_reused;
  warm_fallbacks += s.warm_fallbacks;
  cold_solves += s.cold_solves;
  propagation_prunes += s.propagation_prunes;
  numerical_failures += s.numerical_failures;
  if (s.termination == TerminationReason::kNodeLimit) ++node_cap_hits;
  if (s.mip_start_used) ++starts_accepted;
}

}  // namespace perfbench
