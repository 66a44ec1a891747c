// Little-endian byte primitives for small binary headers.
//
// sensei::StageGridTo writes the grid skeleton (counts plus array names and
// components) with ByteWriter, and sensei::ReassembleGrid reads it back with
// ByteReader; the bulk planes travel as their own marshal variables.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace svtk {

/// A low-level growable byte writer with little-endian primitives.
class ByteWriter {
 public:
  void U64(std::uint64_t v) { Raw(&v, sizeof(v)); }
  void I32(std::int32_t v) { Raw(&v, sizeof(v)); }
  void Str(const std::string& s) {
    U64(s.size());
    Raw(s.data(), s.size());
  }
  void Raw(const void* data, std::size_t bytes);

  std::vector<std::byte> Take() { return std::move(buf_); }

 private:
  std::vector<std::byte> buf_;
};

/// Cursor-based reader matching ByteWriter.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> bytes) : bytes_(bytes) {}

  std::uint64_t U64();
  std::int32_t I32();
  std::string Str();
  void Raw(void* out, std::size_t bytes);

  [[nodiscard]] bool AtEnd() const { return pos_ == bytes_.size(); }
  [[nodiscard]] std::size_t Remaining() const { return bytes_.size() - pos_; }

 private:
  std::span<const std::byte> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace svtk
