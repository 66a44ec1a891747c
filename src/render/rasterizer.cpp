#include "render/rasterizer.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>

namespace render {

Framebuffer::Framebuffer(int width, int height, Rgb background)
    : width_(width),
      height_(height),
      color_("render", static_cast<std::size_t>(width) * height * 3),
      depth_("render", static_cast<std::size_t>(width) * height) {
  if (width < 1 || height < 1) {
    throw std::invalid_argument("render: framebuffer size must be positive");
  }
  Clear(background);
}

void Framebuffer::Clear(Rgb background) {
  for (std::size_t p = 0; p < depth_.size(); ++p) {
    color_[3 * p + 0] = background.r;
    color_[3 * p + 1] = background.g;
    color_[3 * p + 2] = background.b;
    depth_[p] = kFarDepth;
  }
}

Rgb Framebuffer::Pixel(int x, int y) const {
  const std::size_t p =
      static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) +
      static_cast<std::size_t>(x);
  return {color_[3 * p + 0], color_[3 * p + 1], color_[3 * p + 2]};
}

float Framebuffer::Depth(int x, int y) const {
  return depth_[static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) +
                static_cast<std::size_t>(x)];
}

void Framebuffer::SetPixel(int x, int y, Rgb color, float depth) {
  const std::size_t p =
      static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) +
      static_cast<std::size_t>(x);
  color_[3 * p + 0] = color.r;
  color_[3 * p + 1] = color.g;
  color_[3 * p + 2] = color.b;
  depth_[p] = depth;
}

namespace {

// The six faces of a VTK hexahedron (quad corner indices into the cell's
// 8 nodes), each wound outward.
constexpr int kHexFaces[6][4] = {{0, 3, 2, 1}, {4, 5, 6, 7}, {0, 1, 5, 4},
                                 {1, 2, 6, 5}, {2, 3, 7, 6}, {3, 0, 4, 7}};

// A face's corners as coordinate ids (see SharedFaces), in face order.
using FaceCorners = std::array<std::size_t, 4>;

// True when `b` runs around the corners of `a` in the opposite direction:
// the two faces have the same four edges, seen from either side.
bool Opposed(const FaceCorners& a, const FaceCorners& b) {
  for (std::size_t r = 0; r < 4; ++r) {
    bool match = true;
    for (std::size_t j = 0; j < 4 && match; ++j) {
      match = b[(r + 4 - j) % 4] == a[j];
    }
    if (match) return true;
  }
  return false;
}

// splitmix64's finalizer: spreads a word's bits over the whole word.
std::uint64_t Mix(std::uint64_t h) {
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

// Positive screen area: the triangle's outward winding shows its back.
bool BackFacing(const ScreenVertex& a, const ScreenVertex& b,
                const ScreenVertex& c) {
  return (b.x - a.x) * (c.y - a.y) - (c.x - a.x) * (b.y - a.y) > 0.0;
}

// The edge p -> q of a positively wound triangle, > 0 on the triangle's
// side.  It is evaluated from its smaller endpoint (on x, then y) and
// negated when it runs the other way, so triangles sharing it get exactly
// opposite values.  On the edge, only a top or left edge (running right or
// up the screen) owns the point: exactly one of the two triangles.
struct Edge {
  Edge(const ScreenVertex& p, const ScreenVertex& q)
      : sign(p.x < q.x || (p.x == q.x && p.y < q.y) ? 1.0 : -1.0),
        ox(sign > 0.0 ? p.x : q.x),
        oy(sign > 0.0 ? p.y : q.y),
        dx(sign * (q.x - p.x)),
        dy(sign * (q.y - p.y)),
        owns_ties(q.y < p.y || (q.y == p.y && q.x > p.x)) {}
  [[nodiscard]] double At(double x, double y) const {
    return sign * (dx * (y - oy) - dy * (x - ox));
  }
  // Whether a point is inside, given `e`, the edge's value there or a
  // positive multiple of it.
  [[nodiscard]] bool Covers(double e) const {
    return e > 0.0 || (e == 0.0 && owns_ties);
  }
  double sign, ox, oy, dx, dy;
  bool owns_ties;
};

}  // namespace

SharedFaces::SharedFaces(const svtk::UnstructuredGrid& grid)
    : neighbor_(6 * grid.NumCells(), -1) {
  // Both lookups are open-addressing tables over flat vectors; a hash only
  // picks where to start probing, every match compares the full key.
  constexpr std::size_t kEmpty = std::numeric_limits<std::size_t>::max();

  // Give every distinct point position (bit pattern of x, y, z) one id, so
  // the duplicated nodes at element interfaces share it.
  const auto points = grid.Points();
  const std::size_t np = grid.NumPoints();
  std::vector<std::size_t> id(np);
  {
    const std::size_t mask = std::bit_ceil(2 * np + 1) - 1;
    std::vector<std::size_t> slot(mask + 1, kEmpty);
    for (std::size_t p = 0; p < np; ++p) {
      std::uint64_t h = 0;
      for (std::size_t d = 0; d < 3; ++d) {
        h = Mix(h ^ std::bit_cast<std::uint64_t>(points[3 * p + d]));
      }
      for (std::size_t i = h & mask;; i = (i + 1) & mask) {
        if (slot[i] == kEmpty) {
          slot[i] = id[p] = p;
          break;
        }
        if (std::memcmp(&points[3 * slot[i]], &points[3 * p],
                        3 * sizeof(double)) == 0) {
          id[p] = slot[i];
          break;
        }
      }
    }
  }

  // Group the faces by their sorted corner ids.  A face pairs when its
  // group holds exactly one other face, of another cell, running around
  // the same corners in the opposite direction.
  const auto connectivity = grid.Connectivity();
  auto corners_of = [&](std::size_t face) {
    FaceCorners corners;
    for (std::size_t k = 0; k < 4; ++k) {
      corners[k] = id[static_cast<std::size_t>(
          connectivity[8 * (face / 6) +
                       static_cast<std::size_t>(kHexFaces[face % 6][k])])];
    }
    return corners;
  };
  const std::size_t nf = neighbor_.size();
  std::vector<FaceCorners> keys(nf);
  // Per group, indexed by its first face: the number of faces with the key
  // and the second of them.
  std::vector<std::size_t> group_size(nf, 0);
  std::vector<std::size_t> second(nf, kEmpty);
  {
    // Each slot keeps its face's hash, so probing past other keys costs no
    // look-up in `keys`.
    const std::size_t mask = std::bit_ceil(2 * nf + 1) - 1;
    std::vector<std::pair<std::uint64_t, std::size_t>> slot(mask + 1,
                                                            {0, kEmpty});
    for (std::size_t f = 0; f < nf; ++f) {
      keys[f] = corners_of(f);
      std::sort(keys[f].begin(), keys[f].end());
      std::uint64_t h = 0;
      for (std::size_t c : keys[f]) h = Mix(h ^ c);
      for (std::size_t i = h & mask;; i = (i + 1) & mask) {
        auto& [hash, first] = slot[i];
        if (first == kEmpty) {
          slot[i] = {h, f};
          group_size[f] = 1;
          break;
        }
        if (hash == h && keys[first] == keys[f]) {
          if (++group_size[first] == 2) second[first] = f;
          break;
        }
      }
    }
  }
  for (std::size_t f0 = 0; f0 < nf; ++f0) {
    const std::size_t f1 = second[f0];
    if (group_size[f0] == 2 && f0 / 6 != f1 / 6 &&
        Opposed(corners_of(f0), corners_of(f1))) {
      neighbor_[f0] = static_cast<std::int64_t>(f1 / 6);
      neighbor_[f1] = static_cast<std::int64_t>(f0 / 6);
    }
  }
}

ScreenVertex ProjectPoint(const Mat4& vp, const Mat4& view, const Vec3& world,
                          int width, int height) {
  ScreenVertex v;
  const Vec4 clip = Transform(vp, world);
  if (clip.w <= 0.0) {
    v.visible = false;
    return v;
  }
  v.x = (clip.x / clip.w * 0.5 + 0.5) * width;
  v.y = (1.0 - (clip.y / clip.w * 0.5 + 0.5)) * height;
  const Vec4 eye = Transform(view, world);
  v.depth = -eye.z;  // distance along the view axis
  v.visible = v.depth > 0.0;
  return v;
}

void RasterizeShadedTriangle(const ScreenVertex& a, const ScreenVertex& b,
                             const ScreenVertex& c, const Colormap& cmap,
                             double lo, double hi, double shade,
                             Framebuffer& fb, RasterStats& stats) {
  if (!a.visible || !b.visible || !c.visible) return;
  const double area =
      (b.x - a.x) * (c.y - a.y) - (c.x - a.x) * (b.y - a.y);
  if (std::abs(area) < 1e-12) return;
  if (area < 0.0) {  // wind positively: inside, every edge value is > 0
    RasterizeShadedTriangle(a, c, b, cmap, lo, hi, shade, fb, stats);
    return;
  }

  const int min_x = std::max(0, static_cast<int>(std::floor(
                                    std::min({a.x, b.x, c.x}))));
  const int max_x = std::min(fb.Width() - 1, static_cast<int>(std::ceil(
                                                 std::max({a.x, b.x, c.x}))));
  const int min_y = std::max(0, static_cast<int>(std::floor(
                                    std::min({a.y, b.y, c.y}))));
  const int max_y = std::min(fb.Height() - 1, static_cast<int>(std::ceil(
                                                  std::max({a.y, b.y, c.y}))));
  if (min_x > max_x || min_y > max_y) return;

  // Each edge's value is the weight of the opposite vertex, times area.
  const Edge bc(b, c);
  const Edge ca(c, a);
  const Edge ab(a, b);
  bool drew = false;
  const double inv_area = 1.0 / area;
  for (int y = min_y; y <= max_y; ++y) {
    const double py = y + 0.5;
    for (int x = min_x; x <= max_x; ++x) {
      const double px = x + 0.5;
      const double w0 = bc.At(px, py) * inv_area;
      const double w1 = ca.At(px, py) * inv_area;
      const double w2 = ab.At(px, py) * inv_area;
      if (!bc.Covers(w0) || !ca.Covers(w1) || !ab.Covers(w2)) continue;
      const double depth = w0 * a.depth + w1 * b.depth + w2 * c.depth;
      if (depth <= 0.0) continue;
      const auto fdepth = static_cast<float>(depth);
      if (fdepth >= fb.Depth(x, y)) continue;
      const double scalar = w0 * a.scalar + w1 * b.scalar + w2 * c.scalar;
      Rgb color = cmap.Map(scalar, lo, hi);
      if (shade != 1.0) {
        color.r = static_cast<unsigned char>(color.r * shade);
        color.g = static_cast<unsigned char>(color.g * shade);
        color.b = static_cast<unsigned char>(color.b * shade);
      }
      fb.SetPixel(x, y, color, fdepth);
      ++stats.pixels_shaded;
      drew = true;
    }
  }
  if (drew) ++stats.triangles_drawn;
}

void DrawScalarBar(const Colormap& cmap, double lo, double hi,
                   Framebuffer& fb) {
  (void)lo;
  (void)hi;
  const int bar_width = std::max(6, fb.Width() / 60);
  const int margin = bar_width;
  const int top = fb.Height() / 10;
  const int bottom = fb.Height() - top;
  const int x0 = fb.Width() - margin - bar_width;
  if (x0 < 0 || bottom <= top) return;
  for (int y = top; y < bottom; ++y) {
    const double t =
        1.0 - static_cast<double>(y - top) / static_cast<double>(bottom - top);
    const Rgb color = cmap.Sample(t);
    for (int x = x0; x < x0 + bar_width; ++x) {
      fb.SetPixel(x, y, color, 0.0F);
    }
  }
  // White tick marks at lo / mid / hi.
  for (int yt : {top, (top + bottom) / 2, bottom - 1}) {
    for (int x = x0 - bar_width / 2; x < x0; ++x) {
      fb.SetPixel(x, yt, {255, 255, 255}, 0.0F);
    }
  }
}

RasterStats RasterizeGrid(const svtk::UnstructuredGrid& grid,
                          const RenderSpec& spec, const Camera& camera,
                          Framebuffer& fb, const SharedFaces* shared) {
  RasterStats stats;
  const svtk::DataArray* array =
      spec.centering == svtk::Centering::kPoint
          ? grid.PointArray(spec.array)
          : grid.CellArray(spec.array);
  if (!array) {
    throw std::invalid_argument("render: no such array '" + spec.array + "'");
  }
  if (shared != nullptr && shared->NumCells() != grid.NumCells()) {
    throw std::invalid_argument(
        "render: shared-face classification is for another grid");
  }

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

  // Project all points once.
  const Mat4 vp = camera.ViewProjection();
  const Mat4 view = camera.ViewMatrix();
  const std::size_t np = grid.NumPoints();
  std::vector<ScreenVertex> projected(np);
  bool all_visible = true;
  for (std::size_t i = 0; i < np; ++i) {
    const auto p = grid.GetPoint(i);
    projected[i] = ProjectPoint(vp, view, {p[0], p[1], p[2]}, fb.Width(),
                                fb.Height());
    all_visible = all_visible && projected[i].visible;
    if (spec.centering == svtk::Centering::kPoint) {
      projected[i].scalar = scalar_of(i);
    }
  }

  // The view's slice/threshold filter, per cell.
  const std::size_t nc = grid.NumCells();
  std::vector<char> drawn(nc, 1);
  for (std::size_t cell = 0; cell < nc; ++cell) {
    if (spec.slice_axis) {
      // Keep only cells straddling the slice plane.
      const auto nodes = grid.GetCell(cell);
      double lo_c = 0.0, hi_c = 0.0;
      for (int k = 0; k < 8; ++k) {
        const auto p = grid.GetPoint(static_cast<std::size_t>(nodes[k]));
        const double v = p[static_cast<std::size_t>(*spec.slice_axis)];
        if (k == 0) {
          lo_c = hi_c = v;
        } else {
          lo_c = std::min(lo_c, v);
          hi_c = std::max(hi_c, v);
        }
      }
      if (spec.slice_position < lo_c || spec.slice_position > hi_c) {
        drawn[cell] = 0;
        continue;
      }
    }
    if (spec.threshold_min || spec.threshold_max) {
      double probe = 0.0;
      if (spec.centering == svtk::Centering::kCell) {
        probe = scalar_of(cell);
      } else {
        for (std::int64_t nid : grid.GetCell(cell)) {
          probe += scalar_of(static_cast<std::size_t>(nid));
        }
        probe /= 8.0;
      }
      if ((spec.threshold_min && probe < *spec.threshold_min) ||
          (spec.threshold_max && probe > *spec.threshold_max)) {
        drawn[cell] = 0;
      }
    }
  }

  // Cull only when every point lies in front of the camera, which also
  // keeps the camera outside every cell.  Then only the front-facing
  // triangles of faces no other drawn cell shares are drawn.
  const bool cull = all_visible && np > 0;
  std::optional<SharedFaces> own;
  if (cull && shared == nullptr) shared = &own.emplace(grid);

  for (std::size_t cell = 0; cell < nc; ++cell) {
    if (!drawn[cell]) continue;
    double cell_scalar = 0.0;
    if (spec.centering == svtk::Centering::kCell) {
      cell_scalar = scalar_of(cell);
    }
    const auto nodes = grid.GetCell(cell);
    bool drew_cell = false;
    for (int f = 0; f < 6; ++f) {
      if (cull) {
        const std::int64_t other = shared->Neighbor(cell, f);
        if (other >= 0 && drawn[static_cast<std::size_t>(other)]) continue;
      }
      ScreenVertex corners[4];
      for (int k = 0; k < 4; ++k) {
        corners[k] =
            projected[static_cast<std::size_t>(nodes[kHexFaces[f][k]])];
        if (spec.centering == svtk::Centering::kCell) {
          corners[k].scalar = cell_scalar;
        }
      }
      const std::size_t before = stats.triangles_drawn;
      for (int t = 1; t <= 2; ++t) {
        if (cull && BackFacing(corners[0], corners[t], corners[t + 1])) {
          continue;
        }
        RasterizeShadedTriangle(corners[0], corners[t], corners[t + 1], cmap,
                                lo, hi, 1.0, fb, stats);
      }
      drew_cell = drew_cell || stats.triangles_drawn != before;
    }
    if (drew_cell) ++stats.cells_drawn;
  }
  return stats;
}

}  // namespace render
