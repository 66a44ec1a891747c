// Sustainable Staging Transport (SST) stand-in: a streaming writer/reader
// pair over mpimini messages, reproducing the in transit architecture the
// paper configures (classic streaming data architecture, BP marshaling,
// bounded staging queue).
//
// Control plane (the TCP-socket role): step announcements, acks, and
// end-of-stream markers.  Data plane (the UCX role): the marshaled BP
// buffer.  Flow control: a writer may have at most `queue_limit`
// unacknowledged steps in flight; beyond that BeginStep blocks until the
// reader acks — this bounds the writer-side staging memory exactly the way
// SST's queue limit does, which is what keeps the simulation-node memory
// footprint independent of the endpoint count (Fig 6).
#pragma once

#include <atomic>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "adios/marshal.hpp"
#include "core/thread_annotations.hpp"
#include "instrument/memory_tracker.hpp"
#include "mpimini/comm.hpp"

namespace adios {

struct SstParams {
  /// Max unacknowledged steps in flight per writer (SST QueueLimit).
  int queue_limit = 1;
};

/// Cumulative transport statistics (writer or reader side).
struct SstStats {
  std::uint64_t steps = 0;
  std::size_t payload_bytes = 0;
  std::uint64_t control_messages = 0;
  /// Codec-plane accounting: decoded (raw) vs as-transported (wire) variable
  /// bytes.  Equal unless at least one variable ships a non-identity codec.
  std::size_t raw_bytes = 0;
  std::size_t wire_bytes = 0;
};

/// Simulation-side SST endpoint: one per sim rank, streaming to a fixed
/// endpoint (reader) rank of the same world communicator.
///
/// Owned by its sim rank's thread: the staging queue (in_flight_) and
/// staged step are lock-free by the single-owner contract, machine-checked
/// under NSM_THREAD_CHECKS.  Cross-rank flow control happens through
/// mpimini messages, never through shared mutation of this object.
class SstWriter {
 public:
  SstWriter(mpimini::Comm world, int reader_world_rank, SstParams params = {});

  /// Begin step `step`; blocks while the staging queue is full.
  void BeginStep(int step);
  /// Stage a named variable for the current step (copies the bytes into the
  /// marshal buffer; tracked under category "marshal").
  void Put(const std::string& name, std::span<const std::byte> data);
  /// Zero-copy Put: stage a view of an owned data-plane buffer.  No bytes
  /// move until EndStep's transport pack.
  void PutBuffer(const std::string& name, core::Buffer data);
  /// Zero-copy Put of a scatter-gather chain (e.g. one plane staged by
  /// sensei::StageGridTo); the segments ride to the wire without being
  /// flattened here.
  /// A non-identity `spec` routes the variable through codec::Encode at
  /// EndStep (on this writer's owning thread — the async worker in async
  /// pipeline mode).
  void PutChain(const std::string& name, core::BufferChain chain,
                codec::Spec spec = {});
  /// Marshal and ship the staged step to the reader: the staged chains are
  /// packed exactly once, into the outgoing transport buffer.
  void EndStep();
  /// Send end-of-stream and drain outstanding acks.
  void Close();

  [[nodiscard]] const SstStats& Stats() const { return stats_; }

  /// Steps shipped but not yet acked — the live staging-queue occupancy
  /// (the heartbeat prints this next to queue_limit).  Reads a mirror of
  /// in_flight_.size(), so it is safe from any thread: in async-pipeline
  /// mode the worker thread owns the writer while the rank thread's
  /// heartbeat polls the depth.
  [[nodiscard]] int QueueDepth() const {
    return queue_depth_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] int QueueLimit() const { return params_.queue_limit; }

  /// Cumulative raw/wire variable bytes shipped, readable from any thread
  /// (lock-free mirrors of the stats, for the rank thread's heartbeat while
  /// the async worker owns the writer).
  [[nodiscard]] std::size_t RawBytes() const {
    return raw_bytes_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t WireBytes() const {
    return wire_bytes_.load(std::memory_order_relaxed);
  }

 private:
  /// One shipped-but-unacked step: the step number the reader must echo in
  /// its ack, and the marshaled byte size still attributed to this writer.
  struct InFlight {
    int step = -1;
    std::size_t bytes = 0;
  };

  void DrainAcks(int required_credits);

  mpimini::Comm world_;
  int reader_ = -1;
  SstParams params_;
  SstStats stats_;
  /// Marshaled steps shipped but not yet acked: this memory stays
  /// attributed to the writer ("marshal" category) until the reader acks,
  /// exactly like SST's writer-side staging queue — the mechanism that
  /// keeps Fig 6's sim-node footprint bounded by queue_limit.  Acks must
  /// arrive in step order (the stream is FIFO); DrainAcks validates each
  /// ack against the front entry's step.
  std::deque<InFlight> in_flight_;
  /// Lock-free mirror of in_flight_.size() for cross-thread QueueDepth().
  std::atomic<int> queue_depth_{0};
  /// Lock-free mirrors of stats_.raw_bytes / stats_.wire_bytes for
  /// cross-thread RawBytes()/WireBytes().
  std::atomic<std::size_t> raw_bytes_{0};
  std::atomic<std::size_t> wire_bytes_{0};
  bool step_open_ = false;
  bool closed_ = false;
  StepChain staged_;
  /// Single-owner audit (no-op unless NSM_THREAD_CHECKS).
  core::ThreadOwnershipChecker owner_;
};

/// Endpoint-side SST: receives streams from a fixed set of writer ranks.
class SstReader {
 public:
  SstReader(mpimini::Comm world, std::vector<int> writer_world_ranks,
            SstParams params = {});

  /// One completed step: every live writer's payload, keyed by writer rank.
  struct Step {
    int step = -1;
    std::map<int, StepPayload> payloads;
  };

  /// Block until the next step is complete on all live writers (acking each
  /// writer as its payload arrives), or all writers closed (nullopt).
  std::optional<Step> NextStep();

  [[nodiscard]] const SstStats& Stats() const { return stats_; }

 private:
  mpimini::Comm world_;
  std::vector<int> writers_;
  std::vector<bool> open_;
  SstParams params_;
  SstStats stats_;
  /// Messages received out of turn, per writer index: when the reader blocks
  /// on "any writer" (arrival-order drain) it may pull a message from a
  /// writer already served this round (queue_limit >= 2 lets writers run a
  /// step ahead).  Those park here, FIFO, and open the writer's next round.
  std::vector<std::deque<core::Buffer>> stash_;
};

}  // namespace adios
