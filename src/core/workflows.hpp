// End-to-end workflow drivers reproducing the paper's two experimental
// setups.  These are what the figure benches and the examples run.
//
//  * RunInSitu     — §4.1: NekRS + SENSEI on the simulation ranks
//    (configurations Original / Checkpointing / Catalyst are all just
//    different SENSEI XML — or no SENSEI at all for Original).
//  * RunInTransit  — §4.2: simulation ranks stream over the SST engine to
//    SENSEI endpoint ranks (4:1 by default); the endpoint runs its own
//    analyses (No Transport / Checkpointing / Catalyst).
//
// Both run the same simulation rank: one step loop calling the same Bridge
// after every step.  In transit differs only in its extra endpoint ranks
// and in the adios sender its simulation-side XML may name.
#pragma once

#include <string>
#include <vector>

#include "instrument/metrics.hpp"
#include "instrument/telemetry.hpp"
#include "nekrs/flow_solver.hpp"
#include "occamini/device.hpp"

namespace nek_sensei {

/// Per-rank measurements harvested from a workflow run.
struct RankReport {
  int world_rank = -1;
  bool is_sim = true;                ///< simulation rank vs endpoint rank
  double step_busy_seconds = 0.0;    ///< busy time inside the stepping loop
  double total_busy_seconds = 0.0;   ///< busy time of the whole run
  std::size_t host_peak_bytes = 0;   ///< CPU memory high-water (Figs 3/6)
  std::size_t device_peak_bytes = 0; ///< simulated GPU memory high-water
};

struct WorkflowMetrics {
  std::vector<RankReport> ranks;
  int steps = 0;
  double wall_seconds = 0.0;
  std::size_t bytes_written = 0;   ///< storage written by all analyses
  std::size_t images_written = 0;  ///< rendered frames (catalyst)
  /// Cross-rank span/counter aggregate; Empty() unless telemetry was on.
  instrument::TelemetrySummary telemetry;
  /// Rank-aggregated run-health report (min/mean/max/p95 + imbalance per
  /// metric); Empty() unless the metrics plane was on.
  instrument::MetricsReport metrics_report;

  /// Mean over simulation ranks of (step-loop busy seconds / steps): the
  /// "mean time per timestep on the simulation nodes" of Fig 5.
  [[nodiscard]] double MeanSimStepSeconds() const;
  /// Sum over simulation ranks of step-loop busy seconds (the
  /// time-to-solution proxy of Fig 2 under serialized rank threads).
  [[nodiscard]] double TotalSimBusySeconds() const;
  [[nodiscard]] std::size_t MaxSimHostPeakBytes() const;
  [[nodiscard]] std::size_t TotalSimHostPeakBytes() const;
  [[nodiscard]] std::size_t MaxSimDevicePeakBytes() const;
};

struct InSituOptions {
  nekrs::FlowConfig flow;
  int steps = 100;
  /// SENSEI runtime configuration; ignored when use_sensei is false.
  std::string sensei_xml = "<sensei/>";
  /// false reproduces the paper's "Original" configuration: NekRS without
  /// the SENSEI interface compiled in.
  bool use_sensei = true;
  occamini::Backend backend = occamini::Backend::kSimGpu;
  occamini::TransferModel transfer;
  /// Tracing opt-in.  When left disabled here, the sensei XML's
  /// <telemetry .../> element (if any) is honored instead, so tracing can
  /// be switched on without recompiling — like every other pipeline knob.
  instrument::TelemetryConfig telemetry;
  /// Test/demo knob: the named rank busy-spins this long after every
  /// solver step, feeding the extra seconds into solver.step_seconds so
  /// the straggler detector has a controlled, span-attributable target.
  /// Negative rank (the default) disables the injection.
  int straggler_rank = -1;
  double straggler_seconds = 0.0;
};

/// Run the in situ workflow on `nranks` rank threads. Collective-free
/// convenience: spawns its own mpimini runtime.
WorkflowMetrics RunInSitu(int nranks, const InSituOptions& options);

struct InTransitOptions {
  nekrs::FlowConfig flow;  ///< sized for the *simulation* communicator
  int steps = 100;
  int sim_per_endpoint = 4;  ///< the paper's 4:1 sim:endpoint ratio
  /// Simulation-side SENSEI XML; an <analysis type="adios" .../> entry
  /// activates the SST stream. frequency on that entry is the transport
  /// trigger cadence.
  std::string sim_xml = "<sensei/>";
  /// Endpoint-side SENSEI XML (checkpoint / catalyst / empty).
  std::string endpoint_xml = "<sensei/>";
  int sst_queue_limit = 1;
  occamini::Backend backend = occamini::Backend::kSimGpu;
  occamini::TransferModel transfer;
  /// Tracing opt-in; falls back to the sim-side XML's <telemetry .../>.
  instrument::TelemetryConfig telemetry;
};

/// Run the in transit workflow with `sim_ranks` simulation ranks plus
/// ceil(sim_ranks / sim_per_endpoint) endpoint ranks.
WorkflowMetrics RunInTransit(int sim_ranks, const InTransitOptions& options);

}  // namespace nek_sensei
