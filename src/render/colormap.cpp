#include "render/colormap.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

namespace render {

Colormap::Colormap(std::vector<std::array<double, 3>> control_points)
    : points_(std::move(control_points)) {
  if (points_.size() < 2) {
    throw std::invalid_argument("render: colormap needs >= 2 control points");
  }
}

Rgb Colormap::Sample(double t) const {
  t = std::clamp(t, 0.0, 1.0);
  const double scaled = t * static_cast<double>(points_.size() - 1);
  const auto lo = static_cast<std::size_t>(scaled);
  const std::size_t hi = std::min(lo + 1, points_.size() - 1);
  const double f = scaled - static_cast<double>(lo);
  Rgb out;
  auto mix = [&](int c) {
    const double v = points_[lo][static_cast<std::size_t>(c)] * (1.0 - f) +
                     points_[hi][static_cast<std::size_t>(c)] * f;
    const double x = 255.0 * std::clamp(v, 0.0, 1.0);
    const auto r = static_cast<long>(x);  // half away from 0, as std::lround
    return static_cast<unsigned char>(r + (x - static_cast<double>(r) >= 0.5));
  };
  out.r = mix(0);
  out.g = mix(1);
  out.b = mix(2);
  return out;
}

Rgb Colormap::Map(double value, double lo, double hi) const {
  if (hi <= lo) return Sample(0.5);
  return Sample((value - lo) / (hi - lo));
}

const Colormap& GetColormap(const std::string& name) {
  static const std::map<std::string, Colormap> maps = [] {
    std::map<std::string, Colormap> m;
    m.emplace("viridis",
              Colormap({{0.267, 0.005, 0.329},
                        {0.283, 0.141, 0.458},
                        {0.254, 0.265, 0.530},
                        {0.207, 0.372, 0.553},
                        {0.164, 0.471, 0.558},
                        {0.128, 0.567, 0.551},
                        {0.135, 0.659, 0.518},
                        {0.267, 0.749, 0.441},
                        {0.478, 0.821, 0.318},
                        {0.741, 0.873, 0.150},
                        {0.993, 0.906, 0.144}}));
    m.emplace("coolwarm",
              Colormap({{0.230, 0.299, 0.754},
                        {0.552, 0.690, 0.996},
                        {0.865, 0.865, 0.865},
                        {0.958, 0.603, 0.482},
                        {0.706, 0.016, 0.150}}));
    m.emplace("plasma",
              Colormap({{0.050, 0.030, 0.528},
                        {0.418, 0.001, 0.658},
                        {0.693, 0.165, 0.564},
                        {0.882, 0.392, 0.383},
                        {0.988, 0.652, 0.211},
                        {0.940, 0.975, 0.131}}));
    m.emplace("grayscale", Colormap({{0.0, 0.0, 0.0}, {1.0, 1.0, 1.0}}));
    return m;
  }();
  auto it = maps.find(name);
  if (it == maps.end()) {
    throw std::invalid_argument("render: unknown colormap '" + name + "'");
  }
  return it->second;
}

}  // namespace render
