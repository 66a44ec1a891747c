// The mpimini runtime: spawns N rank threads, installs per-rank
// instrumentation (busy clock, memory tracker, tracer, metrics registry,
// flight recorder), runs the user's rank body, and collects per-rank
// metrics afterwards.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "instrument/flight_recorder.hpp"
#include "instrument/memory_tracker.hpp"
#include "instrument/metrics.hpp"
#include "instrument/timer.hpp"
#include "instrument/tracer.hpp"
#include "mpimini/comm.hpp"

namespace mpimini {

/// Per-rank instrumentation owned by the runtime for the lifetime of a run.
///
/// Rank code reaches it through CurrentEnv(); blocking mpimini operations
/// pause `busy` so it accumulates only active time.
struct RankEnv {
  int rank = -1;
  instrument::BusyClock busy;
  instrument::MemoryTracker memory;
  /// Span/counter recorder, allocated only when the run opted into tracing
  /// (RunSettings::trace); rank code reaches it via instrument::CurrentTracer.
  /// shared_ptr so RunResult can keep the recordings alive after the envs
  /// are gone.
  std::shared_ptr<instrument::Tracer> tracer;
  /// Typed gauge/counter/histogram registry, allocated only when the run
  /// opted into the metrics plane (RunSettings::metrics); rank code reaches
  /// it via instrument::CurrentMetrics.
  std::shared_ptr<instrument::MetricsRegistry> metrics;
  /// Always-on flight recorder (last-K-events forensic ring, ~22 KB);
  /// unlike the tracer/metrics it is shared with the rank's async worker
  /// (the ring is multi-writer safe) and dumped on crash.
  std::shared_ptr<instrument::FlightRecorder> flightrec;
  /// Additional single-owner tracers registered by rank code for helper
  /// threads it spawned (the async pipeline's worker records its spans and
  /// flow events here).  Appended after the helper thread has joined; the
  /// runtime folds them into RunResult::tracers so the trace export sees
  /// worker lanes without sharing a ring across threads.
  std::vector<std::shared_ptr<instrument::Tracer>> extra_tracers;
};

/// The calling thread's RankEnv, or nullptr outside a rank.
RankEnv* CurrentEnv();

/// RAII installation of a caller-owned RankEnv on the calling thread —
/// the per-rank-helper-thread counterpart of what Runtime::Run does for
/// rank threads.  The async in situ pipeline uses this so its worker
/// thread keeps per-rank attribution: blocking mpimini calls pause the
/// env's BusyClock, allocations land in the env's MemoryTracker, and
/// metric/span feeds reach the env's registries.  The env must outlive the
/// scope and must not be installed on two threads at once (the per-rank
/// structures inside it are single-owner).
class WorkerEnvScope {
 public:
  explicit WorkerEnvScope(RankEnv* env);
  ~WorkerEnvScope();

  WorkerEnvScope(const WorkerEnvScope&) = delete;
  WorkerEnvScope& operator=(const WorkerEnvScope&) = delete;

 private:
  RankEnv* env_;
  RankEnv* previous_env_;
  instrument::MemoryTracker* previous_tracker_;
  instrument::Tracer* previous_tracer_;
  instrument::MetricsRegistry* previous_metrics_;
  instrument::FlightRecorder* previous_flightrec_;
};

/// Metrics harvested from one rank after the run completes.
struct RankMetrics {
  int rank = -1;
  double busy_seconds = 0.0;
  std::size_t peak_bytes = 0;
  std::map<std::string, std::size_t> peak_by_category;
};

/// Result of Runtime::Run: wall time of the whole run plus per-rank metrics.
struct RunResult {
  double wall_seconds = 0.0;
  std::vector<RankMetrics> ranks;
  /// Per-rank trace recordings; empty unless RunSettings::trace was set.
  std::vector<std::shared_ptr<instrument::Tracer>> tracers;
  /// Per-rank metric registries; empty unless RunSettings::metrics was set.
  std::vector<std::shared_ptr<instrument::MetricsRegistry>> metrics;
  /// Per-rank flight recorders; always populated (the recorder is on by
  /// default — its cost is one ring allocation per rank and nothing on the
  /// step hot path until an event actually fires).
  std::vector<std::shared_ptr<instrument::FlightRecorder>> flight_recorders;

  /// Mean of per-rank busy seconds.
  [[nodiscard]] double MeanBusySeconds() const;
  /// Maximum per-rank peak tracked bytes.
  [[nodiscard]] std::size_t MaxPeakBytes() const;
  /// Sum of per-rank peak tracked bytes (aggregate footprint, as the paper's
  /// "aggregate memory high water mark across all MPI ranks").
  [[nodiscard]] std::size_t TotalPeakBytes() const;
  /// Non-owning view of the tracers, as the telemetry exporters take it.
  [[nodiscard]] std::vector<const instrument::Tracer*> TracerPointers() const;
};

/// Per-run knobs beyond the rank count.
struct RunSettings {
  /// Allocate and install an instrument::Tracer per rank thread.  Off by
  /// default: untraced runs keep the pre-tracer hot path (every Span
  /// degenerates to one thread-local null read).
  bool trace = false;
  instrument::Tracer::Options tracer;
  /// Allocate and install an instrument::MetricsRegistry per rank thread.
  /// Off by default for the same reason as `trace`: a disabled metrics
  /// plane costs rank threads exactly one thread-local null read per
  /// Metric call and allocates nothing.
  bool metrics = false;
  /// Flight-recorder ring slots per rank (always allocated; events are
  /// rare — step boundaries, stalls, errors — so a few hundred slots hold
  /// minutes of history).
  std::size_t flight_capacity = instrument::FlightRecorder::kDefaultCapacity;
};

/// Launches message-passing programs.
class Runtime {
 public:
  /// Run `body(comm)` on `nranks` rank threads sharing a fresh world
  /// communicator. Blocks until every rank returns. If any rank throws, the
  /// remaining ranks are still joined and the first exception is rethrown.
  static RunResult Run(int nranks, const std::function<void(Comm&)>& body);

  /// As above, honoring per-run settings (tracing).
  static RunResult Run(int nranks, const RunSettings& settings,
                       const std::function<void(Comm&)>& body);
};

}  // namespace mpimini
