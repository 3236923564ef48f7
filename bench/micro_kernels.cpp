// Micro-benchmarks (google-benchmark) of the computational kernels behind
// the tables: shortest paths, Yen's K-shortest, the multi-wall channel
// model, sparse LU factorization, one dual-simplex LP solve, a full
// Algorithm 1 encoding pass.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "channel/propagation.h"
#include "core/encode/encoder.h"
#include "core/workloads/scenarios.h"
#include "geometry/floorplan.h"
#include "graph/dijkstra.h"
#include "graph/yen.h"
#include "milp/simplex/dual_simplex.h"
#include "milp/simplex/lu.h"

using namespace wnet;

namespace {

graph::Digraph make_grid(int n) {
  graph::Digraph g(n * n);
  auto id = [n](int x, int y) { return y * n + x; };
  for (int y = 0; y < n; ++y) {
    for (int x = 0; x < n; ++x) {
      if (x + 1 < n) {
        g.add_edge(id(x, y), id(x + 1, y), 1.0 + 0.01 * ((x + y) % 7));
        g.add_edge(id(x + 1, y), id(x, y), 1.0 + 0.01 * ((x * y) % 5));
      }
      if (y + 1 < n) {
        g.add_edge(id(x, y), id(x, y + 1), 1.0 + 0.01 * ((x + 2 * y) % 6));
        g.add_edge(id(x, y + 1), id(x, y), 1.0 + 0.01 * ((2 * x + y) % 4));
      }
    }
  }
  return g;
}

void BM_Dijkstra(benchmark::State& state) {
  const auto g = make_grid(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::shortest_path(g, 0, g.num_nodes() - 1));
  }
}
BENCHMARK(BM_Dijkstra)->Arg(10)->Arg(20)->Arg(40);

void BM_YenKShortest(benchmark::State& state) {
  const auto g = make_grid(12);
  const int k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::yen_k_shortest(g, 0, g.num_nodes() - 1, k));
  }
}
BENCHMARK(BM_YenKShortest)->Arg(1)->Arg(5)->Arg(10)->Arg(20);

void BM_YenResume(benchmark::State& state) {
  // The K* ladder workload: grow the candidate set 5 -> K. The resumable
  // enumerator derives only the K-5 new paths; compare with BM_YenRestart,
  // which re-enumerates from scratch like a fresh encode would.
  const auto g = make_grid(12);
  const int k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    graph::YenEnumerator en(g, 0, g.num_nodes() - 1);
    en.next_batch(5);
    benchmark::DoNotOptimize(en.next_batch(k));
  }
}
BENCHMARK(BM_YenResume)->Arg(10)->Arg(20)->Arg(40);

void BM_YenRestart(benchmark::State& state) {
  const auto g = make_grid(12);
  const int k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::yen_k_shortest(g, 0, g.num_nodes() - 1, 5));
    benchmark::DoNotOptimize(graph::yen_k_shortest(g, 0, g.num_nodes() - 1, k));
  }
}
BENCHMARK(BM_YenRestart)->Arg(10)->Arg(20)->Arg(40);

void BM_MultiWallPathLoss(benchmark::State& state) {
  const auto plan = geom::make_office_floor(80, 45, 8);
  const channel::MultiWallModel model(2.4e9, 2.8, plan);
  double x = 0.0;
  for (auto _ : state) {
    x += 0.1;
    if (x > 70) x = 0;
    benchmark::DoNotOptimize(model.path_loss_db({x, 5}, {79 - x, 40}));
  }
}
BENCHMARK(BM_MultiWallPathLoss);

void BM_LuFactorize(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  milp::simplex::SparseMatrix a(m, m);
  for (int j = 0; j < m; ++j) {
    std::vector<milp::simplex::Entry> col{{j, 4.0 + (j % 3)}};
    if (j > 0) col.push_back({j - 1, -1.0});
    if (j + 1 < m) col.push_back({j + 1, -0.5});
    if (j > 7) col.push_back({j - 7, 0.25});
    std::sort(col.begin(), col.end(), [](auto& l, auto& r) { return l.row < r.row; });
    a.set_column(j, std::move(col));
  }
  std::vector<int> basis(static_cast<size_t>(m));
  for (int i = 0; i < m; ++i) basis[static_cast<size_t>(i)] = i;
  for (auto _ : state) {
    milp::simplex::BasisLu lu;
    benchmark::DoNotOptimize(lu.factorize(a, basis));
  }
}
BENCHMARK(BM_LuFactorize)->Arg(100)->Arg(500)->Arg(2000);

/// Block-tridiagonal basis (16-row blocks): the dependency chain of a unit
/// right-hand side stays inside one block, the shape the encoder's
/// per-node / per-edge rows give the simplex bases. A dense ftran still
/// sweeps all m positions; the hyper-sparse path only walks the block.
milp::simplex::BasisLu make_block_lu(int m) {
  constexpr int kBlock = 16;
  milp::simplex::SparseMatrix a(m, m);
  for (int j = 0; j < m; ++j) {
    std::vector<milp::simplex::Entry> col{{j, 4.0 + (j % 3)}};
    if (j > 0 && j % kBlock != 0) col.push_back({j - 1, -1.0});
    if (j + 1 < m && (j + 1) % kBlock != 0) col.push_back({j + 1, -0.5});
    std::sort(col.begin(), col.end(), [](auto& l, auto& r) { return l.row < r.row; });
    a.set_column(j, std::move(col));
  }
  std::vector<int> basis(static_cast<size_t>(m));
  for (int i = 0; i < m; ++i) basis[static_cast<size_t>(i)] = i;
  milp::simplex::BasisLu lu;
  lu.factorize(a, basis);
  return lu;
}

void BM_FtranDenseUnitRhs(benchmark::State& state) {
  // Single-nonzero right-hand sides are the common case in dual simplex
  // (entering columns with one structural coefficient, bound flips). The
  // dense ftran sweeps all m positions regardless.
  const int m = static_cast<int>(state.range(0));
  const auto lu = make_block_lu(m);
  std::vector<double> x(static_cast<size_t>(m), 0.0);
  int row = 0;
  for (auto _ : state) {
    std::fill(x.begin(), x.end(), 0.0);
    x[static_cast<size_t>(row)] = 1.25;
    lu.ftran(x);
    benchmark::DoNotOptimize(x.data());
    row = (row + 17) % m;
  }
}
BENCHMARK(BM_FtranDenseUnitRhs)->Arg(100)->Arg(500)->Arg(2000);

void BM_FtranUnit(benchmark::State& state) {
  // The hyper-sparse path: reachability-guided, touches only the nonzero
  // pattern. Bitwise-identical results (see lu_test.cpp).
  const int m = static_cast<int>(state.range(0));
  const auto lu = make_block_lu(m);
  std::vector<double> x(static_cast<size_t>(m), 0.0);
  int row = 0;
  for (auto _ : state) {
    std::fill(x.begin(), x.end(), 0.0);
    lu.ftran_unit(x, row, 1.25);
    benchmark::DoNotOptimize(x.data());
    row = (row + 17) % m;
  }
}
BENCHMARK(BM_FtranUnit)->Arg(100)->Arg(500)->Arg(2000);

void BM_DualSimplexTransport(benchmark::State& state) {
  // Transportation LP: s suppliers x s consumers.
  const int s = static_cast<int>(state.range(0));
  milp::Model m;
  std::vector<milp::Var> x;
  milp::LinExpr obj;
  for (int i = 0; i < s; ++i) {
    for (int j = 0; j < s; ++j) {
      x.push_back(m.add_continuous("x", 0.0, 50.0));
      obj += (1.0 + ((i * 7 + j * 3) % 11)) * milp::LinExpr(x.back());
    }
  }
  for (int i = 0; i < s; ++i) {
    milp::LinExpr row, col;
    for (int j = 0; j < s; ++j) {
      row += milp::LinExpr(x[static_cast<size_t>(i * s + j)]);
      col += milp::LinExpr(x[static_cast<size_t>(j * s + i)]);
    }
    m.add_le(std::move(row), 30.0 + i);
    m.add_ge(std::move(col), 20.0 + (i % 5));
  }
  m.minimize(obj);
  const milp::simplex::StandardLp lp(m);
  for (auto _ : state) {
    milp::simplex::DualSimplex ds(lp);
    benchmark::DoNotOptimize(ds.solve());
  }
}
BENCHMARK(BM_DualSimplexTransport)->Arg(5)->Arg(15)->Arg(30);

void BM_EncodeApprox(benchmark::State& state) {
  archex::workloads::ScalableConfig cfg;
  cfg.total_nodes = static_cast<int>(state.range(0));
  cfg.end_devices = cfg.total_nodes / 3;
  const auto sc = archex::workloads::make_scalable(cfg);
  archex::EncoderOptions eo;
  eo.k_star = 10;
  const archex::Encoder enc(*sc->tmpl, sc->spec, eo);
  for (auto _ : state) {
    benchmark::DoNotOptimize(enc.encode());
  }
}
BENCHMARK(BM_EncodeApprox)->Arg(30)->Arg(60)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
