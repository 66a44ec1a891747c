#include "sensei/catalyst_adaptor.hpp"

#include "render/isosurface.hpp"

#include <algorithm>
#include <cstdio>
#include <optional>

#include "instrument/metrics.hpp"
#include "instrument/provenance.hpp"
#include "instrument/tracer.hpp"

namespace sensei {

CatalystAnalysisAdaptor::CatalystAnalysisAdaptor(CatalystOptions options)
    : options_(std::move(options)) {
  if (options_.views.empty()) {
    throw std::invalid_argument("sensei: catalyst needs at least one view");
  }
  if (options_.format != "png" && options_.format != "ppm") {
    throw std::invalid_argument("sensei: catalyst format must be png or ppm");
  }
}

bool CatalystAnalysisAdaptor::Execute(DataAdaptor& data) {
  mpimini::Comm& comm = data.GetCommunicator();
  MeshMetadata metadata = data.GetMeshMetadata(0);
  std::shared_ptr<svtk::UnstructuredGrid> mesh = data.GetMesh(0);
  if (!mesh) return false;

  // The shared-face classification depends only on the grid, so every
  // surface view of this step reuses one.
  std::optional<render::SharedFaces> shared;
  for (const CatalystView& view : options_.views) {
    if (!mesh->PointArray(view.array) && !mesh->CellArray(view.array)) {
      if (!data.AddArray(*mesh, view.array, view.centering)) return false;
    }
    const std::string iso_array =
        view.iso_array.empty() ? view.array : view.iso_array;
    if (view.isovalue && !mesh->PointArray(iso_array)) {
      if (!data.AddArray(*mesh, iso_array, svtk::Centering::kPoint)) {
        return false;
      }
    }

    render::RenderSpec spec;
    spec.array = view.array;
    spec.centering = view.centering;
    spec.color_by_magnitude = view.color_by_magnitude;
    spec.colormap = view.colormap;
    spec.threshold_min = view.threshold_min;
    spec.threshold_max = view.threshold_max;
    spec.slice_axis = view.slice_axis;
    spec.slice_position = view.slice_position;

    // Global color range: per-frame auto-range needs a reduction so every
    // rank colors consistently.
    if (view.range_min == view.range_max) {
      const svtk::DataArray* array =
          view.centering == svtk::Centering::kPoint
              ? mesh->PointArray(view.array)
              : mesh->CellArray(view.array);
      const bool mag = view.color_by_magnitude && array->Components() > 1;
      auto range = array->ValueRange(mag);
      spec.range_min = comm.AllReduceValue(range.min, mpimini::Op::kMin);
      spec.range_max = comm.AllReduceValue(range.max, mpimini::Op::kMax);
    } else {
      spec.range_min = view.range_min;
      spec.range_max = view.range_max;
    }

    const double aspect = static_cast<double>(options_.width) /
                          static_cast<double>(options_.height);
    const render::Camera camera =
        render::FitCamera(metadata.global_bounds, view.azimuth,
                          view.elevation, aspect, view.zoom);

    render::Framebuffer fb(options_.width, options_.height, spec.background);
    instrument::MetricsRegistry* metrics = instrument::CurrentMetrics();
    {
      instrument::Span render_span("catalyst.render");
      const std::int64_t begin_ns =
          metrics != nullptr ? instrument::Tracer::NowNs() : 0;
      if (view.isovalue) {
        const render::TriangleMesh surface = render::ExtractIsosurface(
            *mesh, iso_array, *view.isovalue, view.array,
            view.color_by_magnitude);
        render::RasterizeTriangleMesh(surface, view.colormap, spec.range_min,
                                      spec.range_max, camera, fb);
      } else {
        if (!shared) shared.emplace(*mesh);
        render::RasterizeGrid(*mesh, spec, camera, fb, &*shared);
      }
      if (metrics != nullptr) {
        metrics->Observe(
            "catalyst.render_seconds",
            static_cast<double>(instrument::Tracer::NowNs() - begin_ns) *
                1e-9);
      }
    }
    {
      instrument::Span composite_span("catalyst.composite");
      const std::int64_t begin_ns =
          metrics != nullptr ? instrument::Tracer::NowNs() : 0;
      render::CompositeToRoot(comm, fb, /*root=*/0);
      if (metrics != nullptr) {
        metrics->Observe(
            "catalyst.composite_seconds",
            static_cast<double>(instrument::Tracer::NowNs() - begin_ns) *
                1e-9);
      }
    }

    if (comm.Rank() == 0 && options_.scalar_bar) {
      render::DrawScalarBar(render::GetColormap(view.colormap),
                            spec.range_min, spec.range_max, fb);
    }
    if (comm.Rank() == 0) {
      instrument::Span write_span("catalyst.write");
      char name[512];
      std::snprintf(name, sizeof(name), "%s/%s_%s_%06d.%s",
                    options_.output_dir.c_str(), options_.prefix.c_str(),
                    view.name.c_str(), data.GetDataTimeStep(),
                    options_.format.c_str());
      bytes_written_ += options_.format == "ppm"
                            ? render::WritePpm(fb, name)
                            : render::WritePng(fb, name);
      ++images_written_;
      if (metrics != nullptr) {
        metrics->SetTotal("catalyst.bytes_written",
                          static_cast<double>(bytes_written_));
        metrics->SetTotal("catalyst.images",
                          static_cast<double>(images_written_));
      }
    }
  }
  // End-to-end latency: solver-step completion (the wire-carried causal
  // origin, global timeline) to the step's images being on disk.  Observed
  // once per step on the compositing root only, so the histogram count is
  // one sample per rendered step regardless of how the work is partitioned
  // across ranks.
  if (comm.Rank() == 0) {
    const instrument::StepProvenance* origin = instrument::CurrentProvenance();
    if (origin != nullptr && origin->Valid()) {
      if (auto* metrics = instrument::CurrentMetrics()) {
        metrics->Observe(
            "e2e.step_to_image_seconds",
            std::max(0.0, static_cast<double>(instrument::GlobalNowNs() -
                                              origin->GlobalTimestampNs()) *
                              1e-9));
      }
    }
  }
  return true;
}

}  // namespace sensei
