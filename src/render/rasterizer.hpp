// Software rasterization of svtk unstructured hex grids: the Catalyst/
// ParaView rendering stand-in.
//
// Every drawn hex cell contributes its quad faces (two triangles each) with
// per-vertex scalar colors mapped through a Colormap; a z-buffer resolves
// visibility, so the opaque outer surface (or a thresholded or sliced cell
// subset, as with ParaView's Threshold and Slice filters) is rendered
// correctly without needing global sorting.  Each rank rasterizes its own
// blocks; the compositor then merges framebuffers across ranks by depth
// (direct-send compositing).
//
// Like ParaView's surface representation, RasterizeGrid draws only the
// front surface: the front-facing triangles of faces no other drawn cell
// (one that passes the view's slice/threshold filter) shares.  Two faces
// are shared when their four corner points have bit-identical coordinates,
// so the duplicated nodes at element interfaces match, and run around the
// same edges in opposite directions.  The first face a ray from the camera
// crosses is such a face, so the colour and depth planes equal drawing
// every face of every drawn cell, except where two faces reach exactly the
// same float depth at a pixel and the first drawn wins.  Nothing is culled
// unless every grid point lies in front of the camera, which keeps the
// camera outside every cell (a zoomed camera can sit inside the domain)
// and every triangle whole.  The cull assumes cells wound like VTK
// hexahedra, every face turning outward.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "instrument/memory_tracker.hpp"
#include "render/camera.hpp"
#include "render/colormap.hpp"
#include "svtk/unstructured_grid.hpp"

namespace render {

/// RGB + depth framebuffer. Pixels are tracked under category "render".
class Framebuffer {
 public:
  /// A `width` x `height` frame cleared to `background` at far depth.
  Framebuffer(int width, int height, Rgb background = {0, 0, 0});

  [[nodiscard]] int Width() const { return width_; }
  [[nodiscard]] int Height() const { return height_; }

  void Clear(Rgb background);

  [[nodiscard]] Rgb Pixel(int x, int y) const;
  [[nodiscard]] float Depth(int x, int y) const;
  void SetPixel(int x, int y, Rgb color, float depth);

  /// Raw planes, row-major, y = 0 at the top.
  [[nodiscard]] const instrument::TrackedBuffer<unsigned char>& Color() const {
    return color_;
  }
  [[nodiscard]] const instrument::TrackedBuffer<float>& DepthPlane() const {
    return depth_;
  }
  instrument::TrackedBuffer<unsigned char>& Color() { return color_; }
  instrument::TrackedBuffer<float>& DepthPlane() { return depth_; }

  static constexpr float kFarDepth = std::numeric_limits<float>::infinity();

 private:
  int width_;
  int height_;
  instrument::TrackedBuffer<unsigned char> color_;  // 3 bytes per pixel
  instrument::TrackedBuffer<float> depth_;
};

/// What to render and how to color it.
struct RenderSpec {
  std::string array;                  ///< field name to color by
  svtk::Centering centering = svtk::Centering::kPoint;
  bool color_by_magnitude = false;    ///< use |vector| for multi-component
  std::string colormap = "viridis";
  double range_min = 0.0;             ///< color range; min==max => auto
  double range_max = 0.0;
  /// Optional threshold: draw only cells whose (mean) scalar lies inside.
  std::optional<double> threshold_min;
  std::optional<double> threshold_max;
  /// Optional axis-aligned slice (ParaView Slice filter): draw only cells
  /// straddling the plane axis = position (0=x, 1=y, 2=z).
  std::optional<int> slice_axis;
  double slice_position = 0.0;
  Rgb background{20, 20, 30};
};

/// Cells and triangles count only when they reach the framebuffer (write
/// at least one pixel); faces RasterizeGrid skips never count.
struct RasterStats {
  std::size_t cells_drawn = 0;
  std::size_t triangles_drawn = 0;
  std::size_t pixels_shaded = 0;
};

/// A projected vertex ready for rasterization.
struct ScreenVertex {
  double x = 0.0;
  double y = 0.0;
  double depth = 0.0;  ///< view-space depth for z-buffering
  double scalar = 0.0;
  bool visible = false;
};

/// Project a world-space point; `vp` and `view` come from the camera.
ScreenVertex ProjectPoint(const Mat4& vp, const Mat4& view, const Vec3& world,
                          int width, int height);

/// Rasterize one triangle, either winding, with barycentric scalar
/// interpolation; `shade` multiplies the mapped color (1 = unshaded;
/// isosurfaces pass a Lambert factor).  Watertight: a pixel centre on an
/// edge two triangles share belongs to exactly one of them (top-left
/// rule, DESIGN.md §3e).
void RasterizeShadedTriangle(const ScreenVertex& a, const ScreenVertex& b,
                             const ScreenVertex& c, const Colormap& cmap,
                             double lo, double hi, double shade,
                             Framebuffer& fb, RasterStats& stats);

/// Draw a vertical scalar bar (ParaView-style legend) along the right edge
/// of the framebuffer: the colormap gradient with tick marks at the bottom
/// (lo), middle, and top (hi). Drawn at zero depth so it overlays geometry.
void DrawScalarBar(const Colormap& cmap, double lo, double hi,
                   Framebuffer& fb);

/// Which hex faces of a grid are shared between two cells.  It depends
/// only on the points and the connectivity, not on the view, so one
/// classification serves every view of a grid.  Points with bit-identical
/// coordinates get one id (a sort), faces are bucketed by their smallest
/// corner id, and faces are compared on all four ids, so no hash ever
/// decides a match.  A face pairs only when exactly one face of another
/// cell has the same corners and runs around them in the opposite
/// direction.
class SharedFaces {
 public:
  explicit SharedFaces(const svtk::UnstructuredGrid& grid);

  [[nodiscard]] std::size_t NumCells() const { return neighbor_.size() / 6; }
  /// The cell on the other side of face `face` (0..5) of `cell`, or -1.
  [[nodiscard]] std::int64_t Neighbor(std::size_t cell, int face) const {
    return neighbor_[6 * cell + static_cast<std::size_t>(face)];
  }

 private:
  std::vector<std::int64_t> neighbor_;  // 6 per cell
};

/// Rasterize `grid` into `fb` (which must already be cleared / may contain
/// prior geometry). Returns drawing statistics.  `shared` is `grid`'s face
/// classification; when null and the camera allows culling, it is built
/// for this call.
RasterStats RasterizeGrid(const svtk::UnstructuredGrid& grid,
                          const RenderSpec& spec, const Camera& camera,
                          Framebuffer& fb,
                          const SharedFaces* shared = nullptr);

}  // namespace render
