#include "svtk/serialize.hpp"

#include <cstring>
#include <stdexcept>

namespace svtk {

void ByteWriter::Raw(const void* data, std::size_t bytes) {
  const std::size_t old = buf_.size();
  buf_.resize(old + bytes);
  if (bytes) std::memcpy(buf_.data() + old, data, bytes);
}

std::uint64_t ByteReader::U64() {
  std::uint64_t v = 0;
  Raw(&v, sizeof(v));
  return v;
}

std::int32_t ByteReader::I32() {
  std::int32_t v = 0;
  Raw(&v, sizeof(v));
  return v;
}

std::string ByteReader::Str() {
  const std::uint64_t n = U64();
  std::string s(n, '\0');
  Raw(s.data(), n);
  return s;
}

void ByteReader::Raw(void* out, std::size_t bytes) {
  if (pos_ + bytes > bytes_.size()) {
    throw std::runtime_error("svtk: serialized buffer underrun");
  }
  if (bytes) std::memcpy(out, bytes_.data() + pos_, bytes);
  pos_ += bytes;
}

}  // namespace svtk
