#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <numbers>

#include "codec/codec.hpp"
#include "mpimini/runtime.hpp"
#include "render/camera.hpp"
#include "render/colormap.hpp"
#include "render/compositor.hpp"
#include "render/image_io.hpp"
#include "render/rasterizer.hpp"

namespace {

using render::Camera;
using render::Colormap;
using render::FitCamera;
using render::Framebuffer;
using render::GetColormap;
using render::RenderSpec;
using render::Rgb;

svtk::UnstructuredGrid MakeCube(double lo, double hi, double scalar) {
  svtk::UnstructuredGrid grid(8, 1);
  int p = 0;
  for (int k = 0; k < 2; ++k) {
    for (int j = 0; j < 2; ++j) {
      for (int i = 0; i < 2; ++i) {
        grid.SetPoint(static_cast<std::size_t>(p++), i ? hi : lo,
                      j ? hi : lo, k ? hi : lo);
      }
    }
  }
  grid.SetCell(0, {0, 1, 3, 2, 4, 5, 7, 6});
  svtk::DataArray& s = grid.AddPointArray("f", 1);
  for (std::size_t t = 0; t < 8; ++t) s.At(t) = scalar;
  return grid;
}

// A spectral-element-style grid: ex*ey*ez elements over [0,lx]x[0,ly]x[0,lz],
// each tessellated into order^3 hexes over its own (order+1)^3 Lobatto-
// spaced nodes, element-major, so interface nodes are duplicated with
// bit-identical coordinates.  Point arrays "f" (scalar) and "v" (vector),
// cell array "c".
svtk::UnstructuredGrid MakeSemGrid(int ex, int ey, int ez, int order,
                                   double lx, double ly, double lz) {
  const int np = order + 1;
  const int nel = ex * ey * ez;
  svtk::UnstructuredGrid grid(
      static_cast<std::size_t>(nel) * np * np * np,
      static_cast<std::size_t>(nel) * order * order * order);
  auto t = [order](int i) {
    return 0.5 * (1.0 - std::cos(std::numbers::pi * i / order));
  };
  std::size_t cell = 0;
  for (int e = 0; e < nel; ++e) {
    const int e0 = e % ex;
    const int e1 = (e / ex) % ey;
    const int e2 = e / (ex * ey);
    const auto base = static_cast<std::int64_t>(e) * np * np * np;
    for (int k = 0; k < np; ++k) {
      for (int j = 0; j < np; ++j) {
        for (int i = 0; i < np; ++i) {
          grid.SetPoint(static_cast<std::size_t>(base + i + np * (j + np * k)),
                        (e0 + t(i)) * lx / ex, (e1 + t(j)) * ly / ey,
                        (e2 + t(k)) * lz / ez);
        }
      }
    }
    auto id = [&](int i, int j, int k) { return base + i + np * (j + np * k); };
    for (int k = 0; k < order; ++k) {
      for (int j = 0; j < order; ++j) {
        for (int i = 0; i < order; ++i) {
          grid.SetCell(cell++, {id(i, j, k), id(i + 1, j, k),
                                id(i + 1, j + 1, k), id(i, j + 1, k),
                                id(i, j, k + 1), id(i + 1, j, k + 1),
                                id(i + 1, j + 1, k + 1), id(i, j + 1, k + 1)});
        }
      }
    }
  }
  svtk::DataArray& f = grid.AddPointArray("f", 1);
  svtk::DataArray& v = grid.AddPointArray("v", 3);
  for (std::size_t p = 0; p < grid.NumPoints(); ++p) {
    const auto x = grid.GetPoint(p);
    f.At(p) = std::sin(3.0 * x[0]) * std::cos(2.0 * x[1]) + x[2];
    v.At(p, 0) = f.At(p);
    v.At(p, 1) = x[1] - x[2];
    v.At(p, 2) = x[0] * x[2];
  }
  svtk::DataArray& c = grid.AddCellArray("c", 1);
  for (std::size_t q = 0; q < grid.NumCells(); ++q) {
    c.At(q) = static_cast<double>(q % 7);
  }
  return grid;
}

// The unculled reference: every face of every cell that passes the view's
// filter, through the public triangle rasterizer, in cell order.
void RasterizeAllFaces(const svtk::UnstructuredGrid& grid,
                       const RenderSpec& spec, const Camera& camera,
                       Framebuffer& fb) {
  constexpr int kFaces[6][4] = {{0, 3, 2, 1}, {4, 5, 6, 7}, {0, 1, 5, 4},
                                {1, 2, 6, 5}, {2, 3, 7, 6}, {3, 0, 4, 7}};
  const bool point = spec.centering == svtk::Centering::kPoint;
  const svtk::DataArray* array =
      point ? grid.PointArray(spec.array) : grid.CellArray(spec.array);
  const bool magnitude = spec.color_by_magnitude && array->Components() > 1;
  auto scalar_of = [&](std::size_t tuple) {
    return magnitude ? array->Magnitude(tuple) : array->At(tuple);
  };
  double lo = spec.range_min;
  double hi = spec.range_max;
  if (lo == hi) {
    const auto range = array->ValueRange(magnitude);
    lo = range.min;
    hi = range.max;
  }
  const Colormap& cmap = GetColormap(spec.colormap);
  const render::Mat4 vp = camera.ViewProjection();
  const render::Mat4 view = camera.ViewMatrix();
  std::vector<render::ScreenVertex> projected(grid.NumPoints());
  for (std::size_t i = 0; i < grid.NumPoints(); ++i) {
    const auto p = grid.GetPoint(i);
    projected[i] = render::ProjectPoint(vp, view, {p[0], p[1], p[2]},
                                        fb.Width(), fb.Height());
    if (point) projected[i].scalar = scalar_of(i);
  }
  render::RasterStats stats;
  for (std::size_t cell = 0; cell < grid.NumCells(); ++cell) {
    const auto nodes = grid.GetCell(cell);
    if (spec.slice_axis) {
      double lo_c = std::numeric_limits<double>::infinity();
      double hi_c = -lo_c;
      for (std::int64_t n : nodes) {
        const double x = grid.GetPoint(static_cast<std::size_t>(n))
            [static_cast<std::size_t>(*spec.slice_axis)];
        lo_c = std::min(lo_c, x);
        hi_c = std::max(hi_c, x);
      }
      if (spec.slice_position < lo_c || spec.slice_position > hi_c) continue;
    }
    double probe = point ? 0.0 : scalar_of(cell);
    if (point) {
      for (std::int64_t n : nodes) {
        probe += scalar_of(static_cast<std::size_t>(n));
      }
      probe /= 8.0;
    }
    if (spec.threshold_min && probe < *spec.threshold_min) continue;
    if (spec.threshold_max && probe > *spec.threshold_max) continue;
    for (const auto& face : kFaces) {
      render::ScreenVertex q[4];
      for (int k = 0; k < 4; ++k) {
        q[k] = projected[static_cast<std::size_t>(nodes[face[k]])];
        if (!point) q[k].scalar = scalar_of(cell);
      }
      render::RasterizeShadedTriangle(q[0], q[1], q[2], cmap, lo, hi, 1.0,
                                      fb, stats);
      render::RasterizeShadedTriangle(q[0], q[2], q[3], cmap, lo, hi, 1.0,
                                      fb, stats);
    }
  }
}

// Where `culled` differs from `reference`: pixels whose depths differ, and
// ties, pixels with the same float depth but another colour (two faces
// reach that depth and the first drawn wins).
struct PlaneDiff {
  std::size_t depth = 0;
  std::size_t ties = 0;
};

PlaneDiff ComparePlanes(const Framebuffer& reference,
                        const Framebuffer& culled) {
  PlaneDiff diff;
  for (std::size_t p = 0; p < reference.DepthPlane().size(); ++p) {
    if (std::memcmp(&reference.DepthPlane()[p], &culled.DepthPlane()[p],
                    sizeof(float)) != 0) {
      ++diff.depth;
    } else if (std::memcmp(&reference.Color()[3 * p], &culled.Color()[3 * p],
                           3) != 0) {
      ++diff.ties;
    }
  }
  return diff;
}

std::size_t CoveredPixels(const Framebuffer& fb) {
  std::size_t covered = 0;
  for (std::size_t p = 0; p < fb.DepthPlane().size(); ++p) {
    covered += fb.DepthPlane().data()[p] < Framebuffer::kFarDepth ? 1 : 0;
  }
  return covered;
}

TEST(ColormapTest, EndpointsAndMidpoints) {
  const Colormap& gray = GetColormap("grayscale");
  EXPECT_EQ(gray.Sample(0.0), (Rgb{0, 0, 0}));
  EXPECT_EQ(gray.Sample(1.0), (Rgb{255, 255, 255}));
  EXPECT_EQ(gray.Sample(0.5), (Rgb{128, 128, 128}));
}

TEST(ColormapTest, ClampsOutOfRange) {
  const Colormap& gray = GetColormap("grayscale");
  EXPECT_EQ(gray.Sample(-5.0), gray.Sample(0.0));
  EXPECT_EQ(gray.Sample(7.0), gray.Sample(1.0));
}

TEST(ColormapTest, RoundsLikeLround) {
  // Sample's inline rounding against std::lround on the same interpolation:
  // a dense sweep of t, and t at and around every half-way byte value.
  const std::vector<std::array<double, 3>> points = {
      {0.0, 1.0, 0.3}, {0.7, 0.25, 0.9}, {1.0, 0.0, 0.5}};
  const Colormap map(points);
  auto expected = [&](double t) {
    const double scaled = t * static_cast<double>(points.size() - 1);
    const auto lo = static_cast<std::size_t>(scaled);
    const std::size_t hi = std::min(lo + 1, points.size() - 1);
    const double f = scaled - static_cast<double>(lo);
    std::array<unsigned char, 3> rgb{};
    for (std::size_t c = 0; c < 3; ++c) {
      const double v = points[lo][c] * (1.0 - f) + points[hi][c] * f;
      rgb[c] = static_cast<unsigned char>(std::lround(255.0 * v));
    }
    return Rgb{rgb[0], rgb[1], rgb[2]};
  };
  std::vector<double> ts;
  for (int i = 0; i <= 1000000; ++i) ts.push_back(i / 1e6);
  const Colormap& gray = GetColormap("grayscale");
  for (int k = 0; k < 255; ++k) {
    double t = (k + 0.5) / 255.0;
    for (int step = 0; step < 4; ++step) t = std::nextafter(t, 0.0);
    for (int step = 0; step < 9; ++step) {
      ts.push_back(t);
      const auto byte = static_cast<unsigned char>(std::lround(255.0 * t));
      ASSERT_EQ(gray.Sample(t), (Rgb{byte, byte, byte})) << "t = " << t;
      t = std::nextafter(t, 1.0);
    }
  }
  for (double t : ts) ASSERT_EQ(map.Sample(t), expected(t)) << "t = " << t;
}

TEST(ColormapTest, MapUsesRange) {
  const Colormap& gray = GetColormap("grayscale");
  EXPECT_EQ(gray.Map(15.0, 10.0, 20.0), gray.Sample(0.5));
  EXPECT_EQ(gray.Map(3.0, 3.0, 3.0), gray.Sample(0.5));  // degenerate
}

TEST(ColormapTest, KnownMapsExistUnknownThrows) {
  EXPECT_NO_THROW(GetColormap("viridis"));
  EXPECT_NO_THROW(GetColormap("coolwarm"));
  EXPECT_NO_THROW(GetColormap("plasma"));
  EXPECT_THROW(GetColormap("sunset"), std::invalid_argument);
}

TEST(CameraTest, LookAtProjectsTargetToCenter) {
  Camera camera;
  camera.position = {3.0, 2.0, 4.0};
  camera.target = {0.5, 0.5, 0.5};
  const render::Vec4 clip =
      render::Transform(camera.ViewProjection(), camera.target);
  EXPECT_GT(clip.w, 0.0);
  EXPECT_NEAR(clip.x / clip.w, 0.0, 1e-9);
  EXPECT_NEAR(clip.y / clip.w, 0.0, 1e-9);
}

TEST(CameraTest, FitCameraSeesWholeBox) {
  const std::array<double, 6> bounds{0, 1, 0, 1, 0, 1};
  Camera camera = FitCamera(bounds, 30.0, 20.0, 1.0);
  const render::Mat4 vp = camera.ViewProjection();
  // All 8 corners project inside clip space.
  for (int c = 0; c < 8; ++c) {
    const render::Vec3 corner{(c & 1) ? 1.0 : 0.0, (c & 2) ? 1.0 : 0.0,
                              (c & 4) ? 1.0 : 0.0};
    const render::Vec4 clip = render::Transform(vp, corner);
    ASSERT_GT(clip.w, 0.0);
    EXPECT_LE(std::abs(clip.x / clip.w), 1.0);
    EXPECT_LE(std::abs(clip.y / clip.w), 1.0);
  }
}

TEST(FramebufferTest, ClearSetsBackgroundAndFarDepth) {
  Framebuffer fb(8, 4);
  fb.Clear({1, 2, 3});
  EXPECT_EQ(fb.Pixel(0, 0), (Rgb{1, 2, 3}));
  EXPECT_EQ(fb.Pixel(7, 3), (Rgb{1, 2, 3}));
  EXPECT_EQ(fb.Depth(4, 2), Framebuffer::kFarDepth);
}

TEST(FramebufferTest, TracksRenderMemory) {
  instrument::MemoryTracker tracker;
  instrument::TrackerScope scope(&tracker);
  {
    Framebuffer fb(100, 50);
    EXPECT_EQ(tracker.CurrentBytes("render"),
              100u * 50u * (3 + sizeof(float)));
  }
  EXPECT_EQ(tracker.CurrentBytes("render"), 0u);
}

TEST(RasterizerTest, CubeCoversCenterPixels) {
  svtk::UnstructuredGrid grid = MakeCube(0.0, 1.0, 5.0);
  Framebuffer fb(64, 64);
  fb.Clear({0, 0, 0});
  RenderSpec spec;
  spec.array = "f";
  spec.colormap = "grayscale";
  spec.range_min = 0.0;
  spec.range_max = 10.0;
  Camera camera = FitCamera(grid.Bounds(), 40.0, 25.0, 1.0);
  auto stats = render::RasterizeGrid(grid, spec, camera, fb);
  EXPECT_EQ(stats.cells_drawn, 1u);
  EXPECT_GT(stats.pixels_shaded, 100u);
  // Center pixel shows the cube colored at scalar 5 in [0,10] => mid-gray.
  EXPECT_EQ(fb.Pixel(32, 32), (Rgb{128, 128, 128}));
  // Corner pixel stays background.
  EXPECT_EQ(fb.Pixel(0, 0), (Rgb{0, 0, 0}));
  EXPECT_LT(fb.Depth(32, 32), Framebuffer::kFarDepth);
}

TEST(RasterizerTest, NearerCubeWinsDepthTest) {
  // Two cubes along the view axis; the nearer one must cover the center.
  Camera camera;
  camera.position = {0.5, 0.5, 6.0};
  camera.target = {0.5, 0.5, 0.0};
  camera.up = {0.0, 1.0, 0.0};
  camera.aspect = 1.0;

  Framebuffer fb(64, 64);
  fb.Clear({0, 0, 0});
  RenderSpec spec;
  spec.array = "f";
  spec.colormap = "grayscale";
  spec.range_min = 0.0;
  spec.range_max = 10.0;

  svtk::UnstructuredGrid far_cube = MakeCube(0.0, 1.0, 0.0);    // black
  svtk::UnstructuredGrid near_cube = MakeCube(0.25, 0.75, 10.0);  // white
  // Shift the near cube toward the camera in z.
  for (std::size_t i = 0; i < near_cube.NumPoints(); ++i) {
    near_cube.Points()[3 * i + 2] += 2.0;
  }
  render::RasterizeGrid(far_cube, spec, camera, fb);
  render::RasterizeGrid(near_cube, spec, camera, fb);
  EXPECT_EQ(fb.Pixel(32, 32), (Rgb{255, 255, 255}));
}

TEST(RasterizerTest, ThresholdSkipsCells) {
  svtk::UnstructuredGrid grid = MakeCube(0.0, 1.0, 5.0);
  Framebuffer fb(32, 32);
  fb.Clear({0, 0, 0});
  RenderSpec spec;
  spec.array = "f";
  spec.threshold_min = 6.0;  // cell mean is 5 -> excluded
  Camera camera = FitCamera(grid.Bounds(), 40.0, 25.0, 1.0);
  auto stats = render::RasterizeGrid(grid, spec, camera, fb);
  EXPECT_EQ(stats.cells_drawn, 0u);
  EXPECT_EQ(stats.pixels_shaded, 0u);
}

TEST(RasterizerTest, CellCenteredColoring) {
  svtk::UnstructuredGrid grid = MakeCube(0.0, 1.0, 0.0);
  svtk::DataArray& c = grid.AddCellArray("rank", 1);
  c.At(0) = 1.0;
  Framebuffer fb(32, 32);
  fb.Clear({0, 0, 0});
  RenderSpec spec;
  spec.array = "rank";
  spec.centering = svtk::Centering::kCell;
  spec.colormap = "grayscale";
  spec.range_min = 0.0;
  spec.range_max = 1.0;
  Camera camera = FitCamera(grid.Bounds(), 40.0, 25.0, 1.0);
  render::RasterizeGrid(grid, spec, camera, fb);
  EXPECT_EQ(fb.Pixel(16, 16), (Rgb{255, 255, 255}));
}

TEST(RasterizerTest, MissingArrayThrows) {
  svtk::UnstructuredGrid grid = MakeCube(0.0, 1.0, 0.0);
  Framebuffer fb(16, 16);
  RenderSpec spec;
  spec.array = "nope";
  Camera camera = FitCamera(grid.Bounds(), 40.0, 25.0, 1.0);
  EXPECT_THROW(render::RasterizeGrid(grid, spec, camera, fb),
               std::invalid_argument);
}

class CompositorRankTest : public ::testing::TestWithParam<int> {};

TEST_P(CompositorRankTest, NearestDepthWinsAcrossRanks) {
  const int nranks = GetParam();
  mpimini::Runtime::Run(nranks, [nranks](mpimini::Comm& comm) {
    Framebuffer fb(16, 16);
    fb.Clear({0, 0, 0});
    // Each rank writes its id at depth (rank+1): rank 0 is nearest.
    const auto shade = static_cast<unsigned char>(50 + comm.Rank() * 10);
    fb.SetPixel(8, 8, {shade, shade, shade},
                static_cast<float>(comm.Rank() + 1));
    render::CompositeToRoot(comm, fb, 0);
    if (comm.Rank() == 0) {
      EXPECT_EQ(fb.Pixel(8, 8), (Rgb{50, 50, 50}));
      EXPECT_EQ(fb.Pixel(0, 0), (Rgb{0, 0, 0}));
    }
    (void)nranks;
  });
}

TEST_P(CompositorRankTest, DisjointRegionsAllSurvive) {
  const int nranks = GetParam();
  mpimini::Runtime::Run(nranks, [](mpimini::Comm& comm) {
    Framebuffer fb(16, 16);
    fb.Clear({0, 0, 0});
    fb.SetPixel(comm.Rank(), 0, {255, 0, 0}, 1.0F);
    render::CompositeToRoot(comm, fb, 0);
    if (comm.Rank() == 0) {
      for (int r = 0; r < comm.Size(); ++r) {
        EXPECT_EQ(fb.Pixel(r, 0), (Rgb{255, 0, 0})) << "rank " << r;
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Ranks, CompositorRankTest,
                         ::testing::Values(1, 2, 4));

TEST(ImageIoTest, PpmRoundTrip) {
  Framebuffer fb(20, 10);
  fb.Clear({7, 8, 9});
  fb.SetPixel(3, 2, {200, 100, 50}, 1.0F);
  const std::string path = ::testing::TempDir() + "/img.ppm";
  const std::size_t bytes = render::WritePpm(fb, path);
  EXPECT_EQ(bytes, std::filesystem::file_size(path));
  Framebuffer back = render::ReadPpm(path);
  EXPECT_EQ(back.Width(), 20);
  EXPECT_EQ(back.Height(), 10);
  EXPECT_EQ(back.Pixel(3, 2), (Rgb{200, 100, 50}));
  EXPECT_EQ(back.Pixel(0, 0), (Rgb{7, 8, 9}));
}

TEST(ImageIoTest, PpmSizeIsHeaderPlusPixels) {
  Framebuffer fb(640, 480);
  const std::string path = ::testing::TempDir() + "/size.ppm";
  const std::size_t bytes = render::WritePpm(fb, path);
  EXPECT_EQ(bytes, 15u + 640u * 480u * 3u);
}


TEST(RasterizerTest, SliceKeepsOnlyStraddlingCells) {
  // Two unit cubes stacked in z; slice through the lower one only.
  svtk::UnstructuredGrid lower = MakeCube(0.0, 1.0, 5.0);
  svtk::UnstructuredGrid upper = MakeCube(0.0, 1.0, 5.0);
  for (std::size_t i = 0; i < upper.NumPoints(); ++i) {
    upper.Points()[3 * i + 2] += 1.5;
  }
  RenderSpec spec;
  spec.array = "f";
  spec.slice_axis = 2;
  spec.slice_position = 0.5;  // inside the lower cube only
  Framebuffer fb(32, 32);
  fb.Clear({0, 0, 0});
  Camera camera = FitCamera({0, 1, 0, 1, 0, 2.5}, 40, 25, 1.0);
  auto s_low = render::RasterizeGrid(lower, spec, camera, fb);
  auto s_up = render::RasterizeGrid(upper, spec, camera, fb);
  EXPECT_EQ(s_low.cells_drawn, 1u);
  EXPECT_EQ(s_up.cells_drawn, 0u);
}

TEST(ScalarBarTest, DrawsGradientAndTicks) {
  Framebuffer fb(120, 90);
  fb.Clear({0, 0, 0});
  render::DrawScalarBar(render::GetColormap("grayscale"), 0.0, 1.0, fb);
  const int bar_width = std::max(6, fb.Width() / 60);
  const int x = fb.Width() - 2 * bar_width + bar_width / 2;  // inside bar
  const int top = fb.Height() / 10;
  const int bottom = fb.Height() - top;
  // Top of the bar maps to hi (white), bottom to lo (black-ish).
  EXPECT_GT(fb.Pixel(x, top + 1).r, 200);
  EXPECT_LT(fb.Pixel(x, bottom - 2).r, 55);
}


TEST(RasterizerTest, SharedEdgesThroughPixelCentresAreWatertight) {
  using Triangle = std::array<std::array<double, 2>, 3>;
  // Each shape tiles the square [lo, lo + n]^2, whose corners are pixel
  // centres, and its inner edges run exactly through pixel centres.
  struct Shape {
    std::string name;
    double lo;
    std::size_t n;
    std::vector<Triangle> triangles;
  };
  std::vector<Shape> shapes = {
      {"quad, main diagonal", 2.5, 10,
       {{{{2.5, 2.5}, {12.5, 2.5}, {12.5, 12.5}}},
        {{{2.5, 2.5}, {12.5, 12.5}, {2.5, 12.5}}}}},
      {"quad, anti-diagonal", 2.5, 10,
       {{{{12.5, 2.5}, {12.5, 12.5}, {2.5, 12.5}}},
        {{{12.5, 2.5}, {2.5, 12.5}, {2.5, 2.5}}}}},
      {"fan", 8.5, 16, {}}};
  // Eight triangles around the pixel centre (16.5, 16.5).
  const double ring[8][2] = {{8, 0},  {8, 8},   {0, 8},  {-8, 8},
                             {-8, 0}, {-8, -8}, {0, -8}, {8, -8}};
  for (int i = 0; i < 8; ++i) {
    const auto& p = ring[i];
    const auto& q = ring[(i + 1) % 8];
    shapes[2].triangles.push_back({{{16.5, 16.5},
                                    {16.5 + p[0], 16.5 + p[1]},
                                    {16.5 + q[0], 16.5 + q[1]}}});
  }
  const Colormap& gray = GetColormap("grayscale");
  for (const Shape& shape : shapes) {
    for (bool reversed : {false, true}) {
      Framebuffer fb(32, 32);
      render::RasterStats stats;
      for (std::size_t t = 0; t < shape.triangles.size(); ++t) {
        render::ScreenVertex v[3];
        for (std::size_t k = 0; k < 3; ++k) {
          const auto& xy = shape.triangles[t][reversed ? (3 - k) % 3 : k];
          v[k].x = xy[0];
          v[k].y = xy[1];
          // Each triangle nearer than the last, so a pixel covered twice
          // is shaded twice.
          v[k].depth = 100.0 - static_cast<double>(t);
          v[k].visible = true;
        }
        render::RasterizeShadedTriangle(v[0], v[1], v[2], gray, 0.0, 1.0, 1.0,
                                        fb, stats);
      }
      const std::string where =
          shape.name + (reversed ? ", reversed" : ", as given");
      EXPECT_EQ(stats.pixels_shaded, CoveredPixels(fb)) << where;
      auto inside = [&](int i) {
        return i + 0.5 > shape.lo && i + 0.5 < shape.lo + shape.n;
      };
      for (int y = 0; y < 32; ++y) {
        for (int x = 0; x < 32; ++x) {
          if (inside(x) && inside(y)) {
            EXPECT_LT(fb.Depth(x, y), Framebuffer::kFarDepth)
                << where << ": pixel " << x << ", " << y;
          }
        }
      }
      // The top-left rule keeps the square's left column and top row.
      EXPECT_EQ(CoveredPixels(fb), shape.n * shape.n) << where;
    }
  }
}

TEST(RasterizerTest, SharedFacesPairDuplicatedInterfaceNodes) {
  // 8 elements of 4x4x4 cells: 144 faces inside each element, and 3 planes
  // of 8x8 faces between elements, whose nodes are duplicated.
  const svtk::UnstructuredGrid grid = MakeSemGrid(2, 2, 2, 4, 1.0, 1.0, 1.0);
  const render::SharedFaces shared(grid);
  std::size_t paired = 0;
  for (std::size_t cell = 0; cell < grid.NumCells(); ++cell) {
    for (int f = 0; f < 6; ++f) {
      const std::int64_t other = shared.Neighbor(cell, f);
      if (other < 0) continue;
      ++paired;
      bool back = false;
      for (int g = 0; g < 6; ++g) {
        back = back || shared.Neighbor(static_cast<std::size_t>(other), g) ==
                           static_cast<std::int64_t>(cell);
      }
      EXPECT_TRUE(back) << "cell " << cell << " face " << f;
    }
  }
  EXPECT_EQ(paired, 2u * (8u * 144u + 3u * 64u));
}

TEST(RasterizerTest, CullingNeverChangesAPixel) {
  const svtk::UnstructuredGrid cube = MakeSemGrid(2, 2, 2, 4, 1.0, 1.0, 1.0);
  // The same grid after a blockfloat rate-8 round trip of its points, as an
  // in transit endpoint receives it: interface nodes no longer coincide.
  svtk::UnstructuredGrid lossy = MakeSemGrid(2, 2, 2, 4, 1.0, 1.0, 1.0);
  {
    const auto raw = std::as_bytes(lossy.Points());
    const codec::Spec blockfloat{codec::Kind::kBlockFloat, 8, false};
    const core::Buffer wire = codec::Encode(blockfloat, raw);
    const core::Buffer back =
        codec::Decode(codec::Kind::kBlockFloat, wire.bytes(), raw.size());
    std::memcpy(lossy.Points().data(), back.data(), raw.size());
  }
  // A second grid beside the first, for two grids in one framebuffer.
  svtk::UnstructuredGrid beside = MakeSemGrid(2, 2, 2, 4, 1.0, 1.0, 1.0);
  for (std::size_t i = 0; i < beside.NumPoints(); ++i) {
    beside.Points()[3 * i + 0] += 1.25;
  }
  // A long slab: a zoomed camera outside its bounds still has points
  // behind it.
  const svtk::UnstructuredGrid slab = MakeSemGrid(2, 2, 2, 4, 8.0, 1.0, 1.0);

  RenderSpec point;
  point.array = "f";
  RenderSpec cell = point;
  cell.array = "c";
  cell.centering = svtk::Centering::kCell;
  RenderSpec magnitude = point;
  magnitude.array = "v";
  magnitude.color_by_magnitude = true;
  RenderSpec threshold = point;
  threshold.threshold_min = 0.2;
  threshold.threshold_max = 1.0;
  RenderSpec cell_threshold = cell;
  cell_threshold.threshold_max = 3.0;
  RenderSpec slice = point;  // position set per grid below
  slice.slice_axis = 0;
  const std::vector<std::pair<std::string, RenderSpec>> specs = {
      {"point", point},         {"cell", cell},
      {"magnitude", magnitude}, {"threshold", threshold},
      {"cell threshold", cell_threshold}, {"slice", slice}};

  struct Case {
    std::string name;
    std::vector<const svtk::UnstructuredGrid*> grids;
    std::array<double, 6> bounds;
    double zoom;
  };
  const std::vector<Case> cases = {
      {"cube", {&cube}, cube.Bounds(), 1.0},
      {"blockfloat", {&lossy}, lossy.Bounds(), 1.0},
      {"two grids", {&cube, &beside}, {0.0, 2.25, 0.0, 1.0, 0.0, 1.0}, 1.0},
      {"zoom 8 inside", {&cube}, cube.Bounds(), 8.0},
      {"slab zoom 8", {&slab}, slab.Bounds(), 8.0},
  };
  // Elevation-0 views along an axis put pixel centres exactly on projected
  // edges, where the rasterizer's ties decide pixels.
  const double views[][2] = {{35, 25}, {270, 0}, {90, 0},
                             {250, 20}, {15, 45}, {120, -40}};
  std::size_t ties = 0;
  for (const Case& c : cases) {
    for (auto [spec_name, spec] : specs) {
      spec.slice_position = 0.4 * c.bounds[0] + 0.6 * c.bounds[1];
      for (const auto& v : views) {
        const Camera camera =
            FitCamera(c.bounds, v[0], v[1], 4.0 / 3.0, c.zoom);
        Framebuffer reference(320, 240, spec.background);
        Framebuffer culled(320, 240, spec.background);
        for (const svtk::UnstructuredGrid* grid : c.grids) {
          RasterizeAllFaces(*grid, spec, camera, reference);
          render::RasterizeGrid(*grid, spec, camera, culled);
        }
        const std::string where = c.name + ", " + spec_name + ", azimuth " +
                                  std::to_string(v[0]) + ", elevation " +
                                  std::to_string(v[1]);
        EXPECT_GT(CoveredPixels(reference), 0u) << where;
        const PlaneDiff diff = ComparePlanes(reference, culled);
        EXPECT_EQ(diff.depth, 0u) << where;
        ties += diff.ties;
      }
    }
  }
  // Depth ties that the reference gives to an earlier-drawn hidden face
  // are the only pixels allowed to differ; they are rare.
  EXPECT_LE(ties, 8u);
}

TEST(RasterizerTest, CullingBoundsOverdraw) {
  // The in situ benchmark's block: 4x4x4 elements of order 4 per rank.
  const svtk::UnstructuredGrid grid = MakeSemGrid(4, 4, 4, 4, 1.0, 1.0, 1.0);
  RenderSpec spec;
  spec.array = "f";
  // Views whose cell order runs back to front, so drawing every face
  // writes each pixel 11-17 times.
  const double views[][2] = {{35, 25}, {10, 80}, {0, 0}};
  for (const auto& v : views) {
    const Camera camera = FitCamera(grid.Bounds(), v[0], v[1], 4.0 / 3.0);
    Framebuffer fb(320, 240, spec.background);
    const render::RasterStats stats =
        render::RasterizeGrid(grid, spec, camera, fb);
    const std::size_t covered = CoveredPixels(fb);
    EXPECT_GT(covered, 10000u);
    // Only the front surface is drawn, so a pixel is written about once.
    EXPECT_LE(static_cast<double>(stats.pixels_shaded),
              1.02 * static_cast<double>(covered))
        << "azimuth " << v[0] << ", elevation " << v[1];
  }
}

}  // namespace
