// Ablation A4 (DESIGN.md): the Catalyst-stand-in rendering pipeline —
// rasterization cost vs resolution and geometry, surface culling on the
// spectral-element layout, and depth compositing vs rank count (the IceT
// role).

#include <benchmark/benchmark.h>

#include <array>
#include <cmath>
#include <numbers>
#include <vector>

#include "mpimini/runtime.hpp"
#include "render/compositor.hpp"
#include "render/rasterizer.hpp"

namespace {

// A block of n^3 hex cells with a smooth scalar.
svtk::UnstructuredGrid MakeBlock(int n) {
  const int np = n + 1;
  svtk::UnstructuredGrid grid(
      static_cast<std::size_t>(np) * np * np,
      static_cast<std::size_t>(n) * n * n);
  for (int k = 0; k < np; ++k) {
    for (int j = 0; j < np; ++j) {
      for (int i = 0; i < np; ++i) {
        const std::size_t p =
            static_cast<std::size_t>(i + np * (j + np * k));
        grid.SetPoint(p, static_cast<double>(i) / n,
                      static_cast<double>(j) / n,
                      static_cast<double>(k) / n);
      }
    }
  }
  std::size_t c = 0;
  auto id = [np](int i, int j, int k) {
    return static_cast<std::int64_t>(i + np * (j + np * k));
  };
  for (int k = 0; k < n; ++k) {
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < n; ++i) {
        grid.SetCell(c++, {id(i, j, k), id(i + 1, j, k), id(i + 1, j + 1, k),
                           id(i, j + 1, k), id(i, j, k + 1),
                           id(i + 1, j, k + 1), id(i + 1, j + 1, k + 1),
                           id(i, j + 1, k + 1)});
      }
    }
  }
  svtk::DataArray& s = grid.AddPointArray("f", 1);
  for (std::size_t t = 0; t < grid.NumPoints(); ++t) {
    auto p = grid.GetPoint(t);
    s.At(t) = std::sin(6.0 * p[0]) * std::cos(5.0 * p[1]) + p[2];
  }
  return grid;
}

// The layout BuildSemGrid emits: ex*ey*ez elements, each tessellated into
// order^3 hexes over its own (order+1)^3 Lobatto-spaced nodes, element-major,
// so interface nodes are duplicated.  Unit elements, scalar "f".
svtk::UnstructuredGrid MakeSemBlock(int ex, int ey, int ez, int order) {
  const int np = order + 1;
  const int nel = ex * ey * ez;
  svtk::UnstructuredGrid grid(
      static_cast<std::size_t>(nel) * np * np * np,
      static_cast<std::size_t>(nel) * order * order * order);
  auto t = [order](int i) {
    return 0.5 * (1.0 - std::cos(std::numbers::pi * i / order));
  };
  std::size_t c = 0;
  for (int e = 0; e < nel; ++e) {
    const int e0 = e % ex;
    const int e1 = (e / ex) % ey;
    const int e2 = e / (ex * ey);
    const auto base = static_cast<std::int64_t>(e) * np * np * np;
    auto id = [&](int i, int j, int k) { return base + i + np * (j + np * k); };
    for (int k = 0; k < np; ++k) {
      for (int j = 0; j < np; ++j) {
        for (int i = 0; i < np; ++i) {
          grid.SetPoint(static_cast<std::size_t>(id(i, j, k)), e0 + t(i),
                        e1 + t(j), e2 + t(k));
        }
      }
    }
    for (int k = 0; k < order; ++k) {
      for (int j = 0; j < order; ++j) {
        for (int i = 0; i < order; ++i) {
          grid.SetCell(c++, {id(i, j, k), id(i + 1, j, k),
                             id(i + 1, j + 1, k), id(i, j + 1, k),
                             id(i, j, k + 1), id(i + 1, j, k + 1),
                             id(i + 1, j + 1, k + 1), id(i, j + 1, k + 1)});
        }
      }
    }
  }
  svtk::DataArray& s = grid.AddPointArray("f", 1);
  for (std::size_t p = 0; p < grid.NumPoints(); ++p) {
    auto x = grid.GetPoint(p);
    s.At(p) = std::sin(1.5 * x[0]) * std::cos(1.2 * x[1]) + 0.3 * x[2];
  }
  return grid;
}

// One rank's frame at the benchmark's two sizes: arg 0 is the in situ block
// (4x4x4 elements, 4096 cells, one 640x480 view), arg 1 the in transit
// endpoint's slab (8x4x4 elements, 8192 cells, its two 640x240 views
// sharing one face classification, as CatalystAnalysisAdaptor does).
void BM_RasterizeSemBlock(benchmark::State& state) {
  const bool endpoint = state.range(0) == 1;
  const svtk::UnstructuredGrid grid =
      MakeSemBlock(endpoint ? 8 : 4, 4, 4, 4);
  const int width = 640;
  const int height = endpoint ? 240 : 480;
  const std::vector<std::array<double, 2>> views =
      endpoint ? std::vector<std::array<double, 2>>{{270, 0}, {250, 20}}
               : std::vector<std::array<double, 2>>{{35, 25}};
  render::RenderSpec spec;
  spec.array = "f";
  for (auto _ : state) {
    const render::SharedFaces shared(grid);
    for (const auto& view : views) {
      render::Framebuffer fb(width, height, spec.background);
      const render::Camera camera = render::FitCamera(
          grid.Bounds(), view[0], view[1],
          static_cast<double>(width) / height);
      auto stats = render::RasterizeGrid(grid, spec, camera, fb, &shared);
      benchmark::DoNotOptimize(stats.pixels_shaded);
    }
  }
  state.counters["cells"] = static_cast<double>(grid.NumCells());
}
BENCHMARK(BM_RasterizeSemBlock)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_RasterizeByResolution(benchmark::State& state) {
  const int size = static_cast<int>(state.range(0));
  svtk::UnstructuredGrid grid = MakeBlock(8);
  render::RenderSpec spec;
  spec.array = "f";
  render::Camera camera = render::FitCamera(grid.Bounds(), 40, 25,
                                            1.0, 1.0);
  render::Framebuffer fb(size, size);
  for (auto _ : state) {
    fb.Clear(spec.background);
    auto stats = render::RasterizeGrid(grid, spec, camera, fb);
    benchmark::DoNotOptimize(stats.pixels_shaded);
  }
  state.counters["pixels"] = static_cast<double>(size) * size;
}
BENCHMARK(BM_RasterizeByResolution)->RangeMultiplier(2)->Range(128, 1024);

void BM_RasterizeByGeometry(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  svtk::UnstructuredGrid grid = MakeBlock(n);
  render::RenderSpec spec;
  spec.array = "f";
  render::Camera camera = render::FitCamera(grid.Bounds(), 40, 25, 1.0, 1.0);
  render::Framebuffer fb(512, 512);
  for (auto _ : state) {
    fb.Clear(spec.background);
    auto stats = render::RasterizeGrid(grid, spec, camera, fb);
    benchmark::DoNotOptimize(stats.triangles_drawn);
  }
  state.counters["cells"] = static_cast<double>(n) * n * n;
}
BENCHMARK(BM_RasterizeByGeometry)->RangeMultiplier(2)->Range(4, 16);

void BM_CompositeByRanks(benchmark::State& state) {
  const int nranks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    mpimini::Runtime::Run(nranks, [&](mpimini::Comm& comm) {
      render::Framebuffer fb(512, 512);
      fb.Clear({0, 0, 0});
      fb.SetPixel(comm.Rank(), 0, {255, 255, 255},
                  static_cast<float>(comm.Rank()));
      render::CompositeToRoot(comm, fb, 0);
    });
  }
  state.counters["ranks"] = nranks;
}
BENCHMARK(BM_CompositeByRanks)
    ->RangeMultiplier(2)
    ->Range(1, 8)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
