// Rank-0 progress line plus the run-health collective of a workflow's
// stepping communicator (DESIGN.md §5c): the `[heartbeat]` stderr line,
// the straggler detector feed, and the live /metrics snapshot.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "instrument/monitor.hpp"
#include "instrument/straggler.hpp"
#include "instrument/telemetry.hpp"
#include "mpimini/comm.hpp"

namespace nek_sensei {

/// User-tag for the endpoint→monitor-host e2e latency feed: after each
/// analysed step the endpoint group's rank 0 ships the step's end-to-end
/// latency to world rank 0, whose heartbeat drains whatever has arrived
/// (buffered sends — never a collective, never a deadlock).
inline constexpr int kTagE2eSample = 8003;

/// Inputs of one rank-0 heartbeat progress line, after the cross-rank
/// reductions.  Public (with FormatHeartbeatLine) so the formatting rules —
/// including the display clamps — are unit-testable.
struct HeartbeatLine {
  int done = 0;
  int total = 0;
  double rate_steps_per_second = 0.0;
  /// Seconds to completion at the current rate.  Negative (or non-finite)
  /// means "unknown" — zero observed rate — and renders as `eta n/a`, never
  /// as inf/garbage.
  double eta_seconds = -1.0;
  std::size_t mem_mean_bytes = 0;
  std::size_t mem_max_bytes = 0;
  /// Mean across ranks of cumulative rank-thread in situ seconds over wall
  /// elapsed, as a percentage.  Negative omits the column (metrics plane
  /// off).  The display clamps at 100: bookkeeping skew (busy-clock vs
  /// wall) can push the raw ratio past it.
  double insitu_percent = -1.0;
  /// Same shape for updates offloaded to the async worker (which genuinely
  /// exceed rank-thread time under overlap — hence a separate column, not
  /// a bigger insitu%).  Negative = sync mode, column omitted.
  double offload_percent = -1.0;
  int queue_depth = -1;
  int queue_limit = -1;  ///< <= 0 omits the sst queue column
  /// Latest end-to-end step→image latency estimate, seconds (in transit:
  /// shipped from the endpoint group; in situ: the run's mean so far).
  /// Negative omits the column — no delivered step observed yet.
  double e2e_seconds = -1.0;
  /// Cross-rank sums of transport raw/wire bytes.  The wire column only
  /// prints when both are nonzero and they differ (i.e. a non-identity
  /// codec actually ran), so uncompressed runs keep their exact line.
  std::size_t raw_bytes = 0;
  std::size_t wire_bytes = 0;
  /// Free-form annotation appended as a final column (straggler verdicts).
  /// Empty omits the column.
  std::string note;
};

/// Render one heartbeat line ("[heartbeat] step ... | ...").
[[nodiscard]] std::string FormatHeartbeatLine(const HeartbeatLine& line);

// When enabled, every Tick at the interval runs the same fixed collective
// sequence (two small Reduces, one health-sample Gather, and — monitor
// runs only — one metrics reduction), so every rank of the stepping
// communicator must Tick at the same step; a zero interval makes Tick a
// no-op and the run collective-free.  The interval is config-derived
// (identical on every rank by construction), never data-dependent.
//
// Rank 0 additionally feeds the gathered health samples into the straggler
// detector — new verdicts go to the flight recorder, the printed line's
// `note` column, and (via Anomalies()) metrics.json — and publishes a
// MonitorStatus snapshot to the /metrics endpoint when one is serving.
class Heartbeat {
 public:
  /// `monitor` is rank 0's MonitorServer or nullptr; non-rank-0 callers
  /// always pass nullptr.  Printing follows config.heartbeat_steps; with
  /// the heartbeat off but the monitor on, ticks run every step (the
  /// endpoint wants fresh data) without printing anything.
  /// `e2e_source` is the communicator the endpoint group ships its
  /// kTagE2eSample latency samples on (in transit: the world comm), or
  /// nullptr when e2e arrives in this rank's own registry (in situ).
  Heartbeat(mpimini::Comm& comm, const instrument::TelemetryConfig& config,
            int total_steps, instrument::MonitorServer* monitor,
            mpimini::Comm* e2e_source = nullptr);

  /// `queue_depth`/`queue_limit` describe the SST staging queue (pass
  /// -1/-1 when the workflow has no transport, e.g. in situ).
  /// `offload_seconds` is this rank's cumulative async-worker update
  /// seconds, or negative in sync mode (must agree in sign across ranks —
  /// the reductions are collective).  `raw_bytes`/`wire_bytes` are this
  /// rank's cumulative transport codec-plane totals (0 when there is no
  /// transport; equal when every variable ships identity).
  void Tick(int step_index, int queue_depth, int queue_limit,
            double offload_seconds = -1.0, std::size_t raw_bytes = 0,
            std::size_t wire_bytes = 0);

  /// Straggler verdicts accumulated so far (meaningful on rank 0 only) —
  /// the source of metrics.json's `anomalies` array.
  [[nodiscard]] const std::vector<instrument::AnomalyRecord>& Anomalies()
      const {
    return straggler_.Anomalies();
  }

 private:
  // One interval's busy-time delta plus the per-span counter deltas that
  // could explain it, advancing the baselines the next delta starts from.
  instrument::RankHealthSample SampleHealth();

  mpimini::Comm& comm_;
  mpimini::Comm* e2e_source_;
  int print_interval_;
  int interval_;
  bool monitor_on_;
  instrument::MonitorServer* monitor_;
  int total_;
  std::int64_t start_ns_;
  double last_busy_ = 0.0;
  double last_e2e_seconds_ = -1.0;  ///< rank 0 only: latest e2e estimate
  double last_solver_ = 0.0;
  double last_insitu_ = 0.0;
  double last_transport_ = 0.0;
  instrument::StragglerMonitor straggler_;
};

}  // namespace nek_sensei
