#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>

#include "core/buffer.hpp"
#include "instrument/memory_tracker.hpp"
#include "svtk/data_array.hpp"
#include "svtk/serialize.hpp"
#include "svtk/unstructured_grid.hpp"
#include "svtk/vtu_writer.hpp"

namespace {

using svtk::DataArray;
using svtk::MultiBlockDataSet;
using svtk::UnstructuredGrid;

UnstructuredGrid MakeUnitCubeGrid() {
  // One hexahedron spanning the unit cube, with a scalar and a vector array.
  UnstructuredGrid grid(8, 1);
  int p = 0;
  for (int k = 0; k < 2; ++k) {
    for (int j = 0; j < 2; ++j) {
      for (int i = 0; i < 2; ++i) {
        grid.SetPoint(static_cast<std::size_t>(p++), i, j, k);
      }
    }
  }
  grid.SetCell(0, {0, 1, 3, 2, 4, 5, 7, 6});
  DataArray& scalar = grid.AddPointArray("pressure", 1);
  for (std::size_t t = 0; t < 8; ++t) scalar.At(t) = static_cast<double>(t);
  DataArray& vec = grid.AddPointArray("velocity", 3);
  for (std::size_t t = 0; t < 8; ++t) {
    vec.At(t, 0) = 1.0;
    vec.At(t, 1) = 2.0;
    vec.At(t, 2) = 2.0;
  }
  DataArray& cell = grid.AddCellArray("rank", 1);
  cell.At(0) = 42.0;
  return grid;
}

TEST(DataArrayTest, StoresTuplesAndComponents) {
  DataArray array("velocity", 10, 3);
  EXPECT_EQ(array.Name(), "velocity");
  EXPECT_EQ(array.Tuples(), 10u);
  EXPECT_EQ(array.Components(), 3);
  EXPECT_EQ(array.Values(), 30u);
  array.At(4, 2) = 7.5;
  EXPECT_DOUBLE_EQ(array.Data()[4 * 3 + 2], 7.5);
}

TEST(DataArrayTest, MagnitudeAndRange) {
  DataArray array("v", 2, 3);
  array.At(0, 0) = 3.0;
  array.At(0, 1) = 4.0;
  array.At(1, 2) = 1.0;
  EXPECT_DOUBLE_EQ(array.Magnitude(0), 5.0);
  EXPECT_DOUBLE_EQ(array.Magnitude(1), 1.0);
  auto range = array.ValueRange(true);
  EXPECT_DOUBLE_EQ(range.min, 1.0);
  EXPECT_DOUBLE_EQ(range.max, 5.0);
  auto flat = array.ValueRange(false);
  EXPECT_DOUBLE_EQ(flat.min, 0.0);
  EXPECT_DOUBLE_EQ(flat.max, 4.0);
}

TEST(DataArrayTest, ValueRangeOfEmptyArrayIsEmptyInterval) {
  DataArray scalar("s", 0, 1);
  auto r = scalar.ValueRange(false);
  // No values: the range must come back inverted/empty, not garbage, and
  // must not read out of bounds.
  EXPECT_GT(r.min, r.max);
  DataArray vec("v", 0, 3);
  auto m = vec.ValueRange(true);
  EXPECT_GT(m.min, m.max);
}

TEST(DataArrayTest, MagnitudeAndRangeOfSingleTupleVector) {
  DataArray vec("v", 1, 3);
  vec.At(0, 0) = 2.0;
  vec.At(0, 1) = 3.0;
  vec.At(0, 2) = 6.0;
  EXPECT_DOUBLE_EQ(vec.Magnitude(0), 7.0);
  auto mag = vec.ValueRange(true);
  EXPECT_DOUBLE_EQ(mag.min, 7.0);
  EXPECT_DOUBLE_EQ(mag.max, 7.0);
  auto flat = vec.ValueRange(false);
  EXPECT_DOUBLE_EQ(flat.min, 2.0);
  EXPECT_DOUBLE_EQ(flat.max, 6.0);
}

TEST(DataArrayTest, AdoptsExternalStorageWithoutCopy) {
  core::Buffer storage("", 6 * sizeof(double));
  {
    auto values = storage.As<double>();
    for (std::size_t i = 0; i < values.size(); ++i) {
      values[i] = static_cast<double>(i);
    }
  }
  const std::byte* raw = storage.data();
  DataArray array("adopted", 2, 3, std::move(storage));
  EXPECT_EQ(array.Tuples(), 2u);
  EXPECT_EQ(array.Components(), 3);
  // Same bytes, same address: adopted, not copied.
  EXPECT_EQ(reinterpret_cast<const std::byte*>(array.Data().data()), raw);
  EXPECT_DOUBLE_EQ(array.At(1, 2), 5.0);
}

TEST(DataArrayTest, AdoptRejectsSizeMismatch) {
  core::Buffer storage("", 5 * sizeof(double));
  EXPECT_THROW(DataArray("bad", 2, 3, std::move(storage)),
               std::invalid_argument);
}

TEST(UnstructuredGridTest, AdoptPointArrayCountsAdoption) {
  UnstructuredGrid grid(8, 1);
  core::ResetLocalBufferStats();
  core::Buffer storage("", 8 * sizeof(double));
  grid.AdoptPointArray("p", 1, std::move(storage));
  EXPECT_GE(core::LocalBufferStats().adoptions, 1u);
  EXPECT_EQ(core::LocalBufferStats().full_copies, 0u);
  EXPECT_NE(grid.PointArray("p"), nullptr);
}

TEST(DataArrayTest, TracksMemory) {
  instrument::MemoryTracker tracker;
  instrument::TrackerScope scope(&tracker);
  {
    DataArray array("t", 100, 1);
    EXPECT_EQ(tracker.CurrentBytes("vtk"), 100 * sizeof(double));
  }
  EXPECT_EQ(tracker.CurrentBytes("vtk"), 0u);
}

TEST(UnstructuredGridTest, GeometryAndConnectivity) {
  UnstructuredGrid grid = MakeUnitCubeGrid();
  EXPECT_EQ(grid.NumPoints(), 8u);
  EXPECT_EQ(grid.NumCells(), 1u);
  auto cell = grid.GetCell(0);
  EXPECT_EQ(cell[0], 0);
  EXPECT_EQ(cell[7], 6);
  auto p = grid.GetPoint(7);
  EXPECT_DOUBLE_EQ(p[0], 1.0);
  EXPECT_DOUBLE_EQ(p[1], 1.0);
  EXPECT_DOUBLE_EQ(p[2], 1.0);
}

TEST(UnstructuredGridTest, BoundsComputed) {
  UnstructuredGrid grid = MakeUnitCubeGrid();
  auto b = grid.Bounds();
  EXPECT_DOUBLE_EQ(b[0], 0.0);
  EXPECT_DOUBLE_EQ(b[1], 1.0);
  EXPECT_DOUBLE_EQ(b[4], 0.0);
  EXPECT_DOUBLE_EQ(b[5], 1.0);
}

TEST(UnstructuredGridTest, ArrayLookupAndNames) {
  UnstructuredGrid grid = MakeUnitCubeGrid();
  EXPECT_NE(grid.PointArray("pressure"), nullptr);
  EXPECT_NE(grid.PointArray("velocity"), nullptr);
  EXPECT_EQ(grid.PointArray("nope"), nullptr);
  EXPECT_NE(grid.CellArray("rank"), nullptr);
  EXPECT_EQ(grid.PointArrayNames().size(), 2u);
  EXPECT_EQ(grid.CellArrayNames().size(), 1u);
}

TEST(UnstructuredGridTest, MemoryBytesCountsEverything) {
  UnstructuredGrid grid = MakeUnitCubeGrid();
  const std::size_t expected = 8 * 3 * sizeof(double)      // points
                               + 8 * sizeof(std::int64_t)  // connectivity
                               + 8 * sizeof(double)        // pressure
                               + 24 * sizeof(double)       // velocity
                               + 1 * sizeof(double);       // rank
  EXPECT_EQ(grid.MemoryBytes(), expected);
}

TEST(MultiBlockTest, AggregatesBlocks) {
  MultiBlockDataSet mb;
  mb.blocks.push_back(std::make_shared<UnstructuredGrid>(MakeUnitCubeGrid()));
  mb.blocks.push_back(nullptr);
  mb.global_block_count = 4;
  EXPECT_GT(mb.MemoryBytes(), 0u);
}

TEST(Base64Test, EncodesKnownVector) {
  EXPECT_EQ(svtk::Base64Encode("Man", 3), "TWFu");
  EXPECT_EQ(svtk::Base64Encode("Ma", 2), "TWE=");
  EXPECT_EQ(svtk::Base64Encode("M", 1), "TQ==");
}

TEST(Base64Test, RoundTripsBinary) {
  std::vector<std::byte> data(255);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>(i);
  }
  const std::string text = svtk::Base64Encode(data.data(), data.size());
  EXPECT_EQ(svtk::Base64Decode(text), data);
}

class VtuRoundTripTest : public ::testing::TestWithParam<svtk::VtuEncoding> {};

TEST_P(VtuRoundTripTest, WriteThenReadPreservesEverything) {
  UnstructuredGrid grid = MakeUnitCubeGrid();
  const std::string path = ::testing::TempDir() + "/roundtrip.vtu";
  const std::size_t bytes = svtk::WriteVtu(grid, path, GetParam());
  EXPECT_GT(bytes, 0u);
  EXPECT_EQ(std::filesystem::file_size(path), bytes);

  UnstructuredGrid back = svtk::ReadVtu(path);
  ASSERT_EQ(back.NumPoints(), grid.NumPoints());
  ASSERT_EQ(back.NumCells(), grid.NumCells());
  for (std::size_t i = 0; i < grid.Points().size(); ++i) {
    EXPECT_DOUBLE_EQ(back.Points()[i], grid.Points()[i]);
  }
  EXPECT_EQ(back.GetCell(0), grid.GetCell(0));
  const DataArray* pressure = back.PointArray("pressure");
  ASSERT_NE(pressure, nullptr);
  for (std::size_t t = 0; t < 8; ++t) {
    EXPECT_DOUBLE_EQ(pressure->At(t), static_cast<double>(t));
  }
  const DataArray* velocity = back.PointArray("velocity");
  ASSERT_NE(velocity, nullptr);
  EXPECT_EQ(velocity->Components(), 3);
  const DataArray* rank = back.CellArray("rank");
  ASSERT_NE(rank, nullptr);
  EXPECT_DOUBLE_EQ(rank->At(0), 42.0);
}

INSTANTIATE_TEST_SUITE_P(Encodings, VtuRoundTripTest,
                         ::testing::Values(svtk::VtuEncoding::kAscii,
                                           svtk::VtuEncoding::kBinary));

TEST(VtuFormatTest, BinarySmallerThanAsciiForLargeGrids) {
  // Binary (base64) encoding should beat ASCII once arrays get long.
  const std::size_t n = 1000;
  UnstructuredGrid grid(n, 1);
  for (std::size_t i = 0; i < n; ++i) {
    grid.SetPoint(i, 0.123456789 * static_cast<double>(i), 0.5, 0.75);
  }
  grid.SetCell(0, {0, 1, 2, 3, 4, 5, 6, 7});
  DataArray& a = grid.AddPointArray("f", 1);
  for (std::size_t i = 0; i < n; ++i) {
    a.At(i) = std::sqrt(static_cast<double>(i) + 0.1);
  }
  const std::string ascii_path = ::testing::TempDir() + "/size_a.vtu";
  const std::string binary_path = ::testing::TempDir() + "/size_b.vtu";
  const std::size_t ascii =
      svtk::WriteVtu(grid, ascii_path, svtk::VtuEncoding::kAscii);
  const std::size_t binary =
      svtk::WriteVtu(grid, binary_path, svtk::VtuEncoding::kBinary);
  EXPECT_LT(binary, ascii);
}

TEST(VtuFormatTest, FileIsWellFormedXml) {
  UnstructuredGrid grid = MakeUnitCubeGrid();
  const std::string path = ::testing::TempDir() + "/wellformed.vtu";
  svtk::WriteVtu(grid, path, svtk::VtuEncoding::kBinary);
  std::ifstream in(path);
  std::string first;
  std::getline(in, first);
  EXPECT_EQ(first, "<?xml version=\"1.0\"?>");
}

TEST(VtuFormatTest, ReadRejectsNonVtu) {
  const std::string path = ::testing::TempDir() + "/not_a.vtu";
  {
    std::ofstream out(path);
    out << "<other/>";
  }
  EXPECT_THROW(svtk::ReadVtu(path), std::runtime_error);
}

TEST(SerializeTest, ByteWriterReaderPrimitives) {
  svtk::ByteWriter w;
  w.U64(77);
  w.I32(-5);
  w.Str("hello");
  std::vector<std::byte> buf = w.Take();

  svtk::ByteReader r(buf);
  EXPECT_EQ(r.U64(), 77u);
  EXPECT_EQ(r.I32(), -5);
  EXPECT_EQ(r.Str(), "hello");
  EXPECT_TRUE(r.AtEnd());
  EXPECT_THROW(r.I32(), std::runtime_error);  // reading past the end
}

}  // namespace
