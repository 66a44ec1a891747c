// Catalyst-style AnalysisAdaptor: in situ image rendering.
//
// The paper's Catalyst configuration renders images via ParaView/OSPRay
// driven by a Python pipeline; here the same role is played by the render
// module (rasterize local blocks, depth-composite across ranks, write PNG).
// Each Execute renders every configured view — the in transit mesoscale
// case renders two images per trigger, matching §4.2.
#pragma once

#include <string>
#include <vector>

#include "render/compositor.hpp"
#include "render/image_io.hpp"
#include "sensei/data_adaptor.hpp"

namespace sensei {

/// One rendered view (camera + coloring).
struct CatalystView {
  std::string array = "velocity";
  svtk::Centering centering = svtk::Centering::kPoint;
  bool color_by_magnitude = false;
  std::string colormap = "viridis";
  double azimuth = 45.0;    ///< degrees in the x-y plane
  double elevation = 25.0;  ///< degrees above the x-y plane
  double zoom = 1.0;
  double range_min = 0.0;   ///< color range; min==max => per-frame auto
  double range_max = 0.0;
  /// Optional ParaView-style threshold (only cells inside the band drawn).
  std::optional<double> threshold_min;
  std::optional<double> threshold_max;
  /// Optional Contour-filter mode: extract the isosurface of `iso_array`
  /// (defaults to `array` when empty) at this value and color it by
  /// `array`; replaces the surface rendering of the grid.
  std::optional<double> isovalue;
  std::string iso_array;
  /// Optional Slice-filter mode: only cells straddling axis = position.
  std::optional<int> slice_axis;
  double slice_position = 0.0;
  std::string name = "view";  ///< used in output filenames
};

struct CatalystOptions {
  int width = 640;
  int height = 480;
  std::string output_dir = ".";
  std::string prefix = "render";
  /// "png" (zlib-compressed, what a ParaView pipeline writes) or "ppm".
  std::string format = "png";
  /// Overlay a ParaView-style scalar bar legend on every view.
  bool scalar_bar = true;
  std::vector<CatalystView> views;
};

class CatalystAnalysisAdaptor final : public AnalysisAdaptor {
 public:
  explicit CatalystAnalysisAdaptor(CatalystOptions options);

  bool Execute(DataAdaptor& data) override;
  void Finalize() override {}
  [[nodiscard]] std::string Kind() const override { return "catalyst"; }
  [[nodiscard]] std::vector<std::string> RequestedArrays() const override {
    // Views may pull derived fields (vorticity, qcriterion) by name, and an
    // isosurface view pulls its iso_array on top of the colored array.
    std::vector<std::string> names;
    auto add = [&](const std::string& name) {
      if (name.empty()) return;
      for (const std::string& have : names) {
        if (have == name) return;
      }
      names.push_back(name);
    };
    for (const CatalystView& view : options_.views) {
      add(view.array);
      if (view.isovalue) add(view.iso_array.empty() ? view.array
                                                    : view.iso_array);
    }
    return names;
  }
  [[nodiscard]] std::size_t BytesWritten() const override {
    return bytes_written_;
  }

  [[nodiscard]] std::size_t ImagesWritten() const { return images_written_; }

 private:
  CatalystOptions options_;
  std::size_t bytes_written_ = 0;
  std::size_t images_written_ = 0;
};

}  // namespace sensei
