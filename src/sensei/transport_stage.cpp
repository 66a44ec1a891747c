#include "sensei/transport_stage.hpp"

#include <cstring>
#include <stdexcept>

#include "svtk/serialize.hpp"

namespace sensei {

namespace {

/// Leading magic of a split-staged skeleton.
constexpr std::uint64_t kGridSkeletonMagic = 0x53564B534B454CULL;  // "SVKSKEL"

core::BufferChain ViewChain(const core::Buffer& storage) {
  return core::BufferChain(core::BufferView(storage));
}

const core::Buffer& RequireVariable(const adios::StepPayload& payload,
                                    const std::string& name) {
  const auto it = payload.variables.find(name);
  if (it == payload.variables.end()) {
    throw std::runtime_error("sensei: staged payload missing variable '" +
                             name + "'");
  }
  return it->second;
}

void CopyPlane(const adios::StepPayload& payload, const std::string& name,
               std::span<double> dst) {
  const core::Buffer& src = RequireVariable(payload, name);
  if (src.size() != dst.size_bytes()) {
    throw std::runtime_error(
        "sensei: staged variable '" + name + "' holds " +
        std::to_string(src.size()) + " byte(s), expected " +
        std::to_string(dst.size_bytes()));
  }
  std::memcpy(dst.data(), src.data(), src.size());
}

}  // namespace

codec::Spec TransportCodecs::ForArray(const std::string& name) const {
  auto it = arrays.find(name);
  if (it == arrays.end()) it = arrays.find("*");
  return it == arrays.end() ? codec::Spec{} : it->second;
}

bool TransportCodecs::Any() const {
  if (!points.Identity() || !connectivity.Identity()) return true;
  for (const auto& [name, spec] : arrays) {
    if (!spec.Identity()) return true;
  }
  return false;
}

void StageGridTo(const StagePut& put, const svtk::UnstructuredGrid& grid,
                 const TransportCodecs& codecs) {
  if (codecs.connectivity.kind == codec::Kind::kBlockFloat) {
    throw std::invalid_argument(
        "sensei: blockfloat codec cannot apply to the int64 connectivity "
        "plane (use shuffle_rle)");
  }
  svtk::ByteWriter skeleton;
  skeleton.U64(kGridSkeletonMagic);
  skeleton.U64(grid.NumPoints());
  skeleton.U64(grid.NumCells());
  const std::vector<std::string> point_names = grid.PointArrayNames();
  const std::vector<std::string> cell_names = grid.CellArrayNames();
  skeleton.U64(point_names.size());
  for (const std::string& name : point_names) {
    skeleton.Str(name);
    skeleton.I32(grid.PointArray(name)->Components());
  }
  skeleton.U64(cell_names.size());
  for (const std::string& name : cell_names) {
    skeleton.Str(name);
    skeleton.I32(grid.CellArray(name)->Components());
  }
  put("mesh",
      core::BufferChain(core::BufferView(
          core::Buffer::TakeVector("serialize", skeleton.Take()))),
      codec::Spec{});

  put("mesh.points", ViewChain(grid.PointsStorage()), codecs.points);
  put("mesh.conn", ViewChain(grid.ConnectivityStorage()),
      codecs.connectivity);
  for (const std::string& name : point_names) {
    put("mesh.pa." + name, ViewChain(grid.PointArray(name)->Storage()),
        codecs.ForArray(name));
  }
  for (const std::string& name : cell_names) {
    put("mesh.ca." + name, ViewChain(grid.CellArray(name)->Storage()),
        codecs.ForArray(name));
  }
}

svtk::UnstructuredGrid ReassembleGrid(const adios::StepPayload& payload) {
  const core::Buffer& mesh_var = RequireVariable(payload, "mesh");
  svtk::ByteReader r(mesh_var.bytes());
  if (mesh_var.size() < sizeof(std::uint64_t) ||
      r.U64() != kGridSkeletonMagic) {
    throw std::runtime_error(
        "sensei: staged variable 'mesh' does not hold a grid skeleton "
        "(too short, or foreign magic)");
  }
  const std::uint64_t np = r.U64();
  const std::uint64_t nc = r.U64();
  svtk::UnstructuredGrid grid(np, nc);

  // Bulk planes land in grid-owned storage: the payload buffers may be
  // slices of the transport message (identity) or freshly decoded blocks
  // with no alignment guarantee, so the copy is the safe landing either
  // way.
  CopyPlane(payload, "mesh.points", grid.Points());
  const core::Buffer& conn = RequireVariable(payload, "mesh.conn");
  if (conn.size() != grid.Connectivity().size_bytes()) {
    throw std::runtime_error(
        "sensei: staged variable 'mesh.conn' holds " +
        std::to_string(conn.size()) + " byte(s), expected " +
        std::to_string(grid.Connectivity().size_bytes()));
  }
  std::memcpy(grid.Connectivity().data(), conn.data(), conn.size());

  auto read_arrays = [&](bool point_data) {
    const std::uint64_t count = r.U64();
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::string name = r.Str();
      const int comps = r.I32();
      svtk::DataArray& target = point_data
                                   ? grid.AddPointArray(name, comps)
                                   : grid.AddCellArray(name, comps);
      CopyPlane(payload, (point_data ? "mesh.pa." : "mesh.ca.") + name,
                target.Data());
    }
  };
  read_arrays(/*point_data=*/true);
  read_arrays(/*point_data=*/false);
  if (!r.AtEnd()) {
    throw std::runtime_error(
        "sensei: grid skeleton has " + std::to_string(r.Remaining()) +
        " trailing byte(s)");
  }
  return grid;
}

}  // namespace sensei
