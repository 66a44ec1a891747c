// Split grid staging for the transport boundary.
//
// A grid is staged as a family of marshal variables rather than one blob,
// so each plane can carry its own codec tag in the BP-like header:
//
//   "mesh"            the skeleton: counts plus array names/components
//                     (tiny, always identity)
//   "mesh.points"     xyz-interleaved f64 point coordinates
//   "mesh.conn"       int64 hex connectivity (8 ids per cell)
//   "mesh.pa.<name>"  one variable per point-centered data array
//   "mesh.ca.<name>"  one variable per cell-centered data array
//
// Every bulk variable is a single zero-copy view of the grid's own storage,
// so the identity path copies no bulk byte before the transport pack.
// ReassembleGrid inverts the staging on the endpoint.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <utility>

#include "adios/marshal.hpp"
#include "codec/codec.hpp"
#include "core/buffer.hpp"
#include "svtk/unstructured_grid.hpp"

namespace sensei {

/// Per-plane codec selection for a staged grid (parsed from the SENSEI
/// XML's <codec> elements; see ParseTransportCodecs).
struct TransportCodecs {
  codec::Spec points;
  codec::Spec connectivity;
  /// Per data-array specs, keyed by array name; "*" is the wildcard
  /// fallback for arrays without their own entry.
  std::map<std::string, codec::Spec> arrays;

  /// The spec for a named data array: exact entry, else "*", else identity.
  [[nodiscard]] codec::Spec ForArray(const std::string& name) const;
  /// True when any plane selects a non-identity codec.
  [[nodiscard]] bool Any() const;
};

/// Receives one staged variable: name, scatter-gather bytes, codec tag.
using StagePut = std::function<void(const std::string& name,
                                    core::BufferChain chain,
                                    const codec::Spec& spec)>;

/// Stage `grid` through `put` as the variable family documented above.
/// Throws std::invalid_argument if a blockfloat spec targets the int64
/// connectivity plane.
void StageGridTo(const StagePut& put, const svtk::UnstructuredGrid& grid,
                 const TransportCodecs& codecs);

/// Stage `grid` onto any writer with
/// PutChain(name, core::BufferChain, codec::Spec) — adios::SstWriter and
/// adios::BpFileWriter both qualify.
template <typename Writer>
void StageGrid(Writer& writer, const svtk::UnstructuredGrid& grid,
               const TransportCodecs& codecs) {
  StageGridTo(
      [&writer](const std::string& name, core::BufferChain chain,
                const codec::Spec& spec) {
        writer.PutChain(name, std::move(chain), spec);
      },
      grid, codecs);
}

/// Rebuild a grid from one writer's unmarshaled payload (the inverse of
/// StageGridTo; decoding already happened in the unmarshal layer).
/// Throws std::runtime_error naming the missing or mismatched variable on
/// malformed payloads.
[[nodiscard]] svtk::UnstructuredGrid ReassembleGrid(
    const adios::StepPayload& payload);

}  // namespace sensei
