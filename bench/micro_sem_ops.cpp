// Ablation A2 (DESIGN.md): spectral-element operator throughput — the
// solver's flop core, standing in for NekRS's libParanumal kernels.
//
// Sweeps the polynomial order: the 3-D tensor-product operators cost
// O(N^4) per element, and the Helmholtz CG iteration is dominated by them.

#include <benchmark/benchmark.h>

#include <cmath>

#include "mpimini/runtime.hpp"
#include "nekrs/helmholtz.hpp"
#include "sem/box_mesh.hpp"
#include "sem/filter.hpp"
#include "sem/operators.hpp"

namespace {

struct Setup {
  sem::GllRule rule;
  sem::BoxMesh mesh;
  sem::ElementOperators ops;
  std::vector<double> u, out, ux, uy, uz;

  explicit Setup(int order)
      : rule(sem::MakeGllRule(order)),
        mesh(sem::BoxMeshSpec{order, {4, 4, 4}, {1, 1, 1},
                              {false, false, false}},
             0, 1),
        ops(rule, mesh),
        u(mesh.NumLocalDofs(), 1.0),
        out(u.size()),
        ux(u.size()),
        uy(u.size()),
        uz(u.size()) {
    for (std::size_t i = 0; i < u.size(); ++i) {
      u[i] = std::sin(0.001 * static_cast<double>(i));
    }
  }
};

void BM_Laplacian(benchmark::State& state) {
  Setup s(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    s.ops.Laplacian(s.u, s.out);
    benchmark::DoNotOptimize(s.out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(s.u.size()));
}
BENCHMARK(BM_Laplacian)->DenseRange(2, 8, 2);

// The fused-vs-separate ablation behind the PR that collapsed the weak
// Laplacian's six matrix sweeps into one kernel, and the dfloat/pfloat
// comparison of the same kernel.

template <typename T>
struct FusedSetup {
  int np = 0;
  int nel = 0;
  std::vector<T> deriv, deriv_t;
  std::vector<T> g11, g12, g13, g22, g23, g33;
  std::vector<T> u, out, scratch;

  explicit FusedSetup(int order) {
    const Setup s(order);
    np = s.rule.NumPoints();
    nel = s.mesh.NumLocalElements();
    auto narrow = [](std::span<const double> v) {
      std::vector<T> w(v.size());
      for (std::size_t i = 0; i < v.size(); ++i) {
        w[i] = static_cast<T>(v[i]);
      }
      return w;
    };
    deriv = narrow(s.rule.deriv);
    deriv_t = narrow(s.rule.deriv_t);
    const sem::LaplacianGeo<double> geo = s.ops.Geo();
    g11 = narrow(geo.g11);
    g12 = narrow(geo.g12);
    g13 = narrow(geo.g13);
    g22 = narrow(geo.g22);
    g23 = narrow(geo.g23);
    g33 = narrow(geo.g33);
    u = narrow(s.u);
    out.resize(u.size());
    scratch.resize(6 * static_cast<std::size_t>(np) * np * np);
  }

  [[nodiscard]] sem::LaplacianGeo<T> Geo() const {
    return {g11, g12, g13, g22, g23, g33};
  }
};

template <typename T>
void RunLaplacianFused(benchmark::State& state) {
  FusedSetup<T> s(static_cast<int>(state.range(0)));
  const sem::LaplacianGeo<T> geo = s.Geo();
  for (auto _ : state) {
    sem::LaplacianFused<T>(s.deriv, s.deriv_t, s.np, s.nel, geo, s.u, s.out,
                           s.scratch);
    benchmark::DoNotOptimize(s.out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(s.u.size()));
}

void BM_LaplacianFusedDouble(benchmark::State& state) {
  RunLaplacianFused<double>(state);
}
BENCHMARK(BM_LaplacianFusedDouble)->DenseRange(2, 8, 2);

void BM_LaplacianFusedFloat(benchmark::State& state) {
  RunLaplacianFused<float>(state);
}
BENCHMARK(BM_LaplacianFusedFloat)->DenseRange(2, 8, 2);

// The pre-fusion composition: six separate ApplyDim sweeps per element with
// three full-size temporaries between them — what ElementOperators did
// before the fused kernel landed.
void BM_LaplacianSeparateSweeps(benchmark::State& state) {
  FusedSetup<double> s(static_cast<int>(state.range(0)));
  const sem::LaplacianGeo<double> geo = s.Geo();
  const std::size_t per_el = static_cast<std::size_t>(s.np) * s.np * s.np;
  std::vector<double> ur(per_el), us(per_el), ut(per_el);
  std::vector<double> wr(per_el), ws(per_el), wt(per_el);
  std::vector<double> ar(per_el), as(per_el), at(per_el);
  for (auto _ : state) {
    for (int e = 0; e < s.nel; ++e) {
      const std::size_t base = static_cast<std::size_t>(e) * per_el;
      const std::span<const double> ue{s.u.data() + base, per_el};
      sem::ApplyDim0T<double>(s.deriv, s.np, s.np, ue, ur);
      sem::ApplyDim1T<double>(s.deriv, s.np, s.np, ue, us);
      sem::ApplyDim2T<double>(s.deriv, s.np, s.np, ue, ut);
      for (std::size_t q = 0; q < per_el; ++q) {
        const std::size_t g = base + q;
        wr[q] = geo.g11[g] * ur[q] + geo.g12[g] * us[q] + geo.g13[g] * ut[q];
        ws[q] = geo.g12[g] * ur[q] + geo.g22[g] * us[q] + geo.g23[g] * ut[q];
        wt[q] = geo.g13[g] * ur[q] + geo.g23[g] * us[q] + geo.g33[g] * ut[q];
      }
      sem::ApplyDim0T<double>(s.deriv_t, s.np, s.np, wr, ar);
      sem::ApplyDim1T<double>(s.deriv_t, s.np, s.np, ws, as);
      sem::ApplyDim2T<double>(s.deriv_t, s.np, s.np, wt, at);
      for (std::size_t q = 0; q < per_el; ++q) {
        s.out[base + q] = (ar[q] + as[q]) + at[q];
      }
    }
    benchmark::DoNotOptimize(s.out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(s.u.size()));
}
BENCHMARK(BM_LaplacianSeparateSweeps)->DenseRange(2, 8, 2);

void BM_Gradient(benchmark::State& state) {
  Setup s(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    s.ops.Gradient(s.u, s.ux, s.uy, s.uz);
    benchmark::DoNotOptimize(s.ux.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(s.u.size()));
}
BENCHMARK(BM_Gradient)->DenseRange(2, 8, 2);

void BM_ModalFilter(benchmark::State& state) {
  Setup s(static_cast<int>(state.range(0)));
  sem::ModalFilter filter(s.rule, 0.1, 2);
  for (auto _ : state) {
    filter.Apply(s.u);
    benchmark::DoNotOptimize(s.u.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(s.u.size()));
}
BENCHMARK(BM_ModalFilter)->DenseRange(2, 8, 2);

void BM_GatherScatterSum(benchmark::State& state) {
  const int order = static_cast<int>(state.range(0));
  mpimini::Runtime::Run(1, [&](mpimini::Comm& comm) {
    Setup s(order);
    std::vector<std::int64_t> gids(s.mesh.NumLocalDofs());
    s.mesh.FillGlobalIds(gids);
    sem::GatherScatter gs(comm, gids);
    for (auto _ : state) {
      gs.Sum(s.u);
      benchmark::DoNotOptimize(s.u.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(s.u.size()));
  });
}
BENCHMARK(BM_GatherScatterSum)->DenseRange(2, 8, 2);

void BM_HelmholtzSolve(benchmark::State& state) {
  const int order = static_cast<int>(state.range(0));
  mpimini::Runtime::Run(1, [&](mpimini::Comm& comm) {
    Setup s(order);
    std::vector<std::int64_t> gids(s.mesh.NumLocalDofs());
    s.mesh.FillGlobalIds(gids);
    sem::GatherScatter gs(comm, gids);
    nekrs::HelmholtzSolver solver(comm, s.ops, gs);
    std::vector<double> mask(s.u.size());
    s.mesh.FillDirichletMask({true, true, true, true, true, true}, mask);
    std::vector<double> rhs(s.u.size());
    auto mass = s.ops.MassDiag();
    for (std::size_t i = 0; i < rhs.size(); ++i) rhs[i] = mass[i];
    nekrs::HelmholtzSolver::Options options;
    options.h1 = 1.0;
    options.h0 = 1.0;
    options.tolerance = 1e-8;
    int iterations = 0;
    for (auto _ : state) {
      std::vector<double> x(s.u.size(), 0.0);
      auto result = solver.Solve(options, rhs, x, mask);
      iterations = result.iterations;
      benchmark::DoNotOptimize(x.data());
    }
    state.counters["cg_iters"] = iterations;
  });
}
BENCHMARK(BM_HelmholtzSolve)->DenseRange(2, 6, 2);

}  // namespace

BENCHMARK_MAIN();
