// BP-style variable marshaling: named byte blobs packed per step into a
// single contiguous buffer (the "data marshaling option" the paper
// configures ADIOS2's SST engine with).
//
// The marshal step is scatter-gather over data-plane views: MarshalChain
// emits small header segments interleaved with zero-copy views of the
// variables, and the one contiguous pack happens only at the transport
// boundary (mpimini::Comm::SendGather / BufferChain::Pack).  The value
// semantics MarshalStep/UnmarshalStep wrappers keep the old copying API for
// file engines and tests; UnmarshalShared slices the packed buffer without
// copying for the streaming (SST) receive path.
//
// Wire format (v2, magic "BP6MINI"): after the step header each variable
// carries a codec tag —
//
//   u64 name_len, name bytes,
//   u64 codec_kind   (codec::Kind wire value),
//   u64 raw_len      (decoded size in bytes),
//   u64 wire_len     (encoded size in bytes; == raw_len for identity),
//   wire bytes.
//
// Identity-coded variables keep the zero-copy staging path end to end;
// other codecs run through codec::Encode at marshal time and codec::Decode
// at unmarshal time.
//
// Wire format v3 (magic "BP7MINI") adds a per-step trace context between
// the writer_rank and the variable count (DESIGN.md §5d):
//
//   u64 context_version  (1 — any other value is rejected by name),
//   u64 run_id, u64 origin_span_id,
//   i64 origin_ts_ns, i64 origin_offset_ns.
//
// The v3 header is emitted only when a step actually carries provenance;
// context-free chains stay bit-identical to v2, so pre-v3 readers and
// files keep working unchanged (pinned by test).  Readers accept both.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "codec/codec.hpp"
#include "core/buffer.hpp"

namespace adios {

/// Per-step causal trace context as carried by the v3 wire header.
/// Producing rank and step number already live in the step header; the
/// context adds the origin identity needed to link endpoint spans back to
/// the sim-side step that caused them.  run_id == 0 means "no context"
/// and the step marshals as plain v2.
struct StepContext {
  std::uint64_t run_id = 0;
  std::uint64_t origin_span_id = 0;
  std::int64_t origin_ts_ns = 0;      ///< origin monotonic clock, ns
  std::int64_t origin_offset_ns = 0;  ///< origin offset to global time, ns

  [[nodiscard]] bool Valid() const { return run_id != 0; }
};

/// One step's worth of named variables from one writer.  Variables are
/// ref-counted data-plane buffers: after UnmarshalShared they are slices of
/// the received transport buffer (no copy; identity-coded variables only —
/// compressed variables always own freshly decoded storage); after
/// UnmarshalStep they own fresh storage.
struct StepPayload {
  int step = -1;
  int writer_rank = -1;
  /// Causal origin parsed from a v3 header (invalid for v2 buffers).
  StepContext context;
  std::map<std::string, core::Buffer> variables;
  /// Byte accounting filled by the unmarshal parse: decoded (raw) and
  /// as-transported (wire) totals over all variables.
  std::size_t raw_bytes = 0;
  std::size_t wire_bytes = 0;

  [[nodiscard]] std::size_t TotalBytes() const {
    std::size_t total = 0;
    for (const auto& [name, data] : variables) total += data.size();
    return total;
  }
};

/// Writer-side staging for one step: each variable is a scatter-gather
/// chain (e.g. one plane staged by sensei::StageGridTo) that is never
/// flattened before the wire.  `codecs` selects a per-variable codec;
/// absent entries ship identity (zero-copy).
struct StepChain {
  int step = -1;
  int writer_rank = -1;
  /// When valid, the step marshals with the v3 header carrying it.
  StepContext context;
  std::map<std::string, core::BufferChain> variables;
  std::map<std::string, codec::Spec> codecs;

  [[nodiscard]] std::size_t TotalBytes() const {
    std::size_t total = 0;
    for (const auto& [name, chain] : variables) total += chain.TotalBytes();
    return total;
  }
};

/// Raw-vs-wire byte totals for one MarshalChain call (the writer-side twin
/// of StepPayload::raw_bytes/wire_bytes).
struct MarshalStats {
  std::size_t raw_bytes = 0;
  std::size_t wire_bytes = 0;
};

/// Marshal a staged step into a scatter-gather chain:
/// magic, step, writer_rank, [v3 context], count, then per variable the
/// record above.  The v3 header is used iff `staged.context.Valid()`.
/// Identity variables are appended as zero-copy views; coded variables are
/// encoded here (on the caller's thread — the async worker in async mode).
/// When `stats` is non-null the per-variable raw/wire totals are added to
/// it.
core::BufferChain MarshalChain(const StepChain& staged,
                               MarshalStats* stats = nullptr);

/// Pack a payload into a single BP-like buffer (value-semantics wrapper:
/// performs the one pack copy; all variables ship identity).
std::vector<std::byte> MarshalStep(const StepPayload& payload);

/// Inverse of MarshalStep; variables own fresh storage (one copy each;
/// coded variables are decoded).  Throws std::runtime_error naming the
/// offending header field on malformed input; never reads out of bounds.
StepPayload UnmarshalStep(std::span<const std::byte> buffer);

/// Zero-copy inverse: identity variables are slices sharing `packed`'s
/// block, valid for as long as any slice is held; coded variables own their
/// decoded bytes.  Same validation as UnmarshalStep.
StepPayload UnmarshalShared(const core::Buffer& packed);

}  // namespace adios
