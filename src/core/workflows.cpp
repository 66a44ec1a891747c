#include "core/workflows.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>

#include "adios/sst.hpp"
#include "core/bridge.hpp"
#include "core/buffer.hpp"
#include "core/heartbeat.hpp"
#include "core/lock_ranks.hpp"
#include "core/thread_annotations.hpp"
#include "instrument/flight_recorder.hpp"
#include "instrument/monitor.hpp"
#include "instrument/provenance.hpp"
#include "mpimini/clock_sync.hpp"
#include "mpimini/metrics_reduce.hpp"
#include "mpimini/runtime.hpp"
#include "sensei/adios_adaptor.hpp"
#include "sensei/catalyst_adaptor.hpp"
#include "sensei/configurable_analysis.hpp"
#include "sensei/intransit_data_adaptor.hpp"

namespace nek_sensei {

namespace {

// Run-start clock calibration (collective on `comm`, rank 0 is the
// reference): installs the calibrated offset on this thread — GlobalNowNs
// and step provenance read it from there — and in the rank tracer for the
// aligned trace export.  Returns the sync so the closing re-calibration
// can report drift.
mpimini::ClockSync CalibrateRankClock(mpimini::Comm& comm) {
  const mpimini::ClockSync sync = mpimini::CalibrateClockOffset(comm);
  instrument::SetClockOffsetNs(sync.offset_ns);
  if (instrument::Tracer* tracer = instrument::CurrentTracer()) {
    tracer->SetClockCalibration(sync.offset_ns, sync.min_rtt_ns);
  }
  return sync;
}

// End-of-run re-calibration: the offset delta against the run-start sync
// is the drift the run accumulated (bounded by min_rtt in a shared-clock
// process; real deployments watch this to decide re-sync cadence).
void RecalibrateRankClock(mpimini::Comm& comm,
                          const mpimini::ClockSync& start) {
  const mpimini::ClockSync end = mpimini::CalibrateClockOffset(comm);
  if (instrument::Tracer* tracer = instrument::CurrentTracer()) {
    tracer->SetClockDrift(end.offset_ns - start.offset_ns);
  }
}

// Rebuild the step's causal origin from the payload contexts of one
// delivered SST step.  A step is only complete once its *last* writer
// finished, so among the writers' contexts the latest global origin
// timestamp wins.  Invalid (default) when no payload carried a context.
instrument::StepProvenance StepOrigin(
    const std::map<int, adios::StepPayload>& payloads, int step) {
  instrument::StepProvenance origin;
  for (const auto& [writer, payload] : payloads) {
    if (!payload.context.Valid()) continue;
    instrument::StepProvenance candidate;
    candidate.run_id = payload.context.run_id;
    candidate.origin_rank = writer;
    candidate.step = step;
    candidate.origin_span_id = payload.context.origin_span_id;
    candidate.origin_ts_ns = payload.context.origin_ts_ns;
    candidate.origin_offset_ns = payload.context.origin_offset_ns;
    if (!origin.Valid() ||
        candidate.GlobalTimestampNs() > origin.GlobalTimestampNs()) {
      origin = candidate;
    }
  }
  return origin;
}

// Shared collection slot filled by world rank 0 inside the run (and read by
// the launching thread after the rank threads join — which still takes the
// lock, so the thread-safety analysis can prove every access).
struct SharedMetrics {
  core::Mutex mutex{core::lock_rank::kCoreWorkflowsMutex};
  WorkflowMetrics metrics NSM_GUARDED_BY(mutex);
};

// What one rank hands to the run-level collection once its loop is done.
struct RankOutcome {
  double step_busy_seconds = 0.0;  ///< busy time inside the stepping loop
  std::size_t bytes = 0;           ///< storage written by the rank's analyses
  std::size_t images = 0;          ///< frames the rank's catalyst wrote
  /// The async worker's high-water mark (0 in sync mode): the two threads
  /// coexist, so the rank's reported footprint is the conservative sum of
  /// both peaks.
  std::size_t worker_host_peak_bytes = 0;
  /// Straggler verdicts (meaningful on sim-group rank 0 only).
  std::vector<instrument::AnomalyRecord> anomalies;
};

// Gather per-rank reports and analysis byte counts onto world rank 0.
void CollectReports(mpimini::Comm& world, bool is_sim,
                    const RankOutcome& outcome, SharedMetrics& shared) {
  RankReport mine;
  mine.world_rank = world.Rank();
  mine.is_sim = is_sim;
  mine.step_busy_seconds = outcome.step_busy_seconds;
  if (mpimini::RankEnv* env = mpimini::CurrentEnv()) {
    mine.total_busy_seconds = env->busy.Seconds();
    mine.host_peak_bytes =
        env->memory.HostPeakBytes() + outcome.worker_host_peak_bytes;
    mine.device_peak_bytes =
        env->memory.PeakBytes(instrument::kDeviceCategory);
  }
  std::vector<RankReport> reports =
      world.Gather<RankReport>(std::span<const RankReport>(&mine, 1), 0);
  std::array<std::size_t, 2> io{outcome.bytes, outcome.images};
  world.Reduce(std::span<std::size_t>(io), mpimini::Op::kSum, 0);
  if (world.Rank() == 0) {
    core::MutexLock lock(shared.mutex);
    shared.metrics.ranks = std::move(reports);
    shared.metrics.bytes_written = io[0];
    shared.metrics.images_written = io[1];
  }
}

bool XmlHasAdios(const std::string& xml) {
  const xmlcfg::Document doc = xmlcfg::Parse(xml);
  for (const xmlcfg::Element* analysis : doc.root.FindAll("analysis")) {
    if (analysis->Attr("type") == "adios" &&
        analysis->AttrInt("enabled", 1) != 0) {
      return true;
    }
  }
  return false;
}

// Explicit options win; otherwise honor the XML's <telemetry> element.
instrument::TelemetryConfig ResolveTelemetry(
    const instrument::TelemetryConfig& explicit_config,
    const std::string& sensei_xml) {
  if (explicit_config.enabled || explicit_config.MetricsEnabled()) {
    return explicit_config;
  }
  return sensei::ParseTelemetryConfig(xmlcfg::Parse(sensei_xml).root);
}

// Fault-injection hook for the flight-recorder acceptance path: the named
// step throws an uncaught (by the workflow) exception on every rank, so the
// crash-dump machinery can be exercised end to end from a normal binary.
// In situ only — in transit endpoint ranks block in their receive loop and
// would never observe a sim-side throw (the join would hang).
int FailStepFromEnv() {
  const char* value = std::getenv("NEK_SENSEI_FAIL_STEP");
  return value != nullptr ? std::atoi(value) : -1;
}

// A run-level gauge derived from the reduced report: one value, so every
// statistic of it is that value and the imbalance is 1.
instrument::MetricStat DerivedGauge(int ranks, double value) {
  instrument::MetricStat stat;
  stat.ranks = ranks;
  stat.min = stat.mean = stat.max = stat.p95 = stat.sum = value;
  stat.low_watermark = stat.high_watermark = value;
  stat.imbalance = 1.0;
  return stat;
}

// Reduce every rank's metric snapshot onto world rank 0 and stash the
// rank-aggregated report.  Collective when the metrics plane is on: every
// world rank must call this (a disabled plane makes it a no-op everywhere,
// so the collective order stays identical across ranks).
void CollectRunHealth(mpimini::Comm& world,
                      const instrument::TelemetryConfig& config,
                      const std::vector<instrument::AnomalyRecord>& anomalies,
                      instrument::MonitorServer* monitor,
                      SharedMetrics& shared) {
  if (!config.MetricsEnabled()) return;
  instrument::MetricsSnapshot mine;
  if (const instrument::MetricsRegistry* reg = instrument::CurrentMetrics()) {
    mine = reg->Snapshot();
  }
  instrument::MetricsReport report = mpimini::ReduceMetrics(world, mine, 0);
  if (world.Rank() == 0) {
    // Derived metric: the run's aggregate compression ratio, from the
    // writer-fed raw/wire counters.  Computed from the global sums (not
    // per-rank ratios), so it is deterministic across 4-vs-8-rank
    // partitionings of the same work.
    const double raw = report.CounterSum("sst.bytes_raw");
    const double wire = report.CounterSum("sst.bytes_wire");
    if (raw > 0.0 && wire > 0.0) {
      report.gauges["sst.compression_ratio"] =
          DerivedGauge(report.ranks, raw / wire);
    }
    // Derived e2e attribution: what share of the step→image latency was
    // already spent when the step *arrived* at the endpoint (solver stage /
    // queue / wire / decode) vs the analysis+render tail.  Computed from
    // the merged histogram sums, so — like the compression ratio — it is
    // deterministic across rank partitionings of the same work.  The full
    // eight-segment critical path lives in tools/trace_merge.py; these two
    // gauges are the always-on summary.
    const auto image_it = report.histograms.find("e2e.step_to_image_seconds");
    const auto recv_it = report.histograms.find("e2e.step_to_recv_seconds");
    if (image_it != report.histograms.end() && image_it->second.count > 0 &&
        recv_it != report.histograms.end() && recv_it->second.count > 0 &&
        image_it->second.Mean() > 0.0) {
      const double share =
          std::clamp(recv_it->second.Mean() / image_it->second.Mean(), 0.0,
                     1.0);
      report.gauges["e2e.transport_share"] =
          DerivedGauge(report.ranks, share);
      report.gauges["e2e.analysis_share"] =
          DerivedGauge(report.ranks, 1.0 - share);
    }
    report.anomalies = anomalies;
    if (monitor != nullptr) {
      // Final agreement pass: a scrape after the last step (and the
      // persisted status file) must match metrics.json exactly.
      monitor->UpdateMetrics(report, anomalies);
    }
    core::MutexLock lock(shared.mutex);
    shared.metrics.metrics_report = std::move(report);
  }
}

// Sample the cumulative pipeline counters into the rank's tracer.  Called
// at step boundaries so consecutive samples attribute each step's deltas
// (DESIGN.md: counter-delta attribution).  No-op when tracing is off.
void SampleStepCounters(const occamini::Device* device,
                        const sensei::ConfigurableAnalysis* analysis,
                        const sensei::CatalystAnalysisAdaptor* catalyst,
                        const adios::SstStats* sst) {
  // Metrics-plane feeds: memory watermarks as gauges, cumulative pipeline
  // counters via SetTotal (idempotent for repeated step-boundary samples).
  if (auto* metrics = instrument::CurrentMetrics()) {
    if (mpimini::RankEnv* env = mpimini::CurrentEnv()) {
      metrics->Set("memory.host_bytes",
                   static_cast<double>(env->memory.HostCurrentBytes()));
      metrics->Set("memory.host_hwm_bytes",
                   static_cast<double>(env->memory.HostPeakBytes()));
    }
    const core::BufferStats& buffers = core::LocalBufferStats();
    metrics->SetTotal("buffer.full_copies",
                      static_cast<double>(buffers.full_copies));
    metrics->SetTotal("buffer.copied_bytes",
                      static_cast<double>(buffers.copied_bytes));
    if (device != nullptr) {
      metrics->SetTotal("d2h.bytes",
                        static_cast<double>(device->Transfers().d2h_bytes));
    }
    if (analysis != nullptr) {
      metrics->SetTotal("storage.bytes_written",
                        static_cast<double>(analysis->TotalBytesWritten()));
    }
  }
  instrument::Tracer* tracer = instrument::CurrentTracer();
  if (tracer == nullptr) return;
  const core::BufferStats& buffers = core::LocalBufferStats();
  tracer->SampleCounter("buffer.full_copies",
                        static_cast<double>(buffers.full_copies));
  tracer->SampleCounter("buffer.small_copies",
                        static_cast<double>(buffers.small_copies));
  tracer->SampleCounter("buffer.copied_bytes",
                        static_cast<double>(buffers.copied_bytes));
  tracer->SampleCounter("buffer.adoptions",
                        static_cast<double>(buffers.adoptions));
  tracer->SampleCounter("buffer.moves", static_cast<double>(buffers.moves));
  if (device != nullptr) {
    tracer->SampleCounter("d2h.bytes",
                          static_cast<double>(device->Transfers().d2h_bytes));
  }
  if (analysis != nullptr) {
    tracer->SampleCounter("storage.bytes_written",
                          static_cast<double>(analysis->TotalBytesWritten()));
  }
  if (catalyst != nullptr) {
    tracer->SampleCounter("catalyst.images",
                          static_cast<double>(catalyst->ImagesWritten()));
  }
  if (sst != nullptr) {
    tracer->SampleCounter("sst.bytes",
                          static_cast<double>(sst->payload_bytes));
    tracer->SampleCounter("sst.bytes_raw",
                          static_cast<double>(sst->raw_bytes));
    tracer->SampleCounter("sst.bytes_wire",
                          static_cast<double>(sst->wire_bytes));
  }
}

// The endpoint comm group's trace file: "trace.json" -> "trace_endpoint.json"
// (suffix-appended when the path has no extension).  A separate file per
// group mirrors a real in transit deployment — two MPI jobs, two trace
// files — and is exactly what tools/trace_merge.py fuses back together.
std::string EndpointTracePath(const std::string& path) {
  const std::size_t dot = path.rfind('.');
  if (dot == std::string::npos || path.find('/', dot) != std::string::npos) {
    return path + "_endpoint";
  }
  return path.substr(0, dot) + "_endpoint" + path.substr(dot);
}

// Merge the run's tracers into the metrics and write the configured trace /
// summary files.  Export failures are reported, never silent.
void ExportTelemetry(const instrument::TelemetryConfig& config,
                     const mpimini::RunResult& run,
                     WorkflowMetrics& metrics) {
  if (!config.enabled) return;
  const std::vector<const instrument::Tracer*> tracers = run.TracerPointers();
  metrics.telemetry = instrument::Summarize(tracers);
  if (!config.trace_path.empty()) {
    // One file per comm group (in transit: sim + endpoint), sharing one
    // clock-aligned base timestamp so the files fuse into a single global
    // timeline without re-shifting.
    std::vector<const instrument::Tracer*> sim_group;
    std::vector<const instrument::Tracer*> endpoint_group;
    for (const instrument::Tracer* tracer : tracers) {
      if (tracer == nullptr) continue;
      (tracer->Group() == 0 ? sim_group : endpoint_group).push_back(tracer);
    }
    const std::int64_t base = instrument::TraceBaseTimestamp(tracers);
    if (!instrument::WriteChromeTrace(config.trace_path, sim_group, base)) {
      std::fprintf(stderr, "warning: failed to write trace file %s\n",
                   config.trace_path.c_str());
    }
    if (!endpoint_group.empty()) {
      const std::string endpoint_path = EndpointTracePath(config.trace_path);
      if (!instrument::WriteChromeTrace(endpoint_path, endpoint_group, base)) {
        std::fprintf(stderr, "warning: failed to write trace file %s\n",
                     endpoint_path.c_str());
      }
    }
  }
  if (!config.summary_path.empty() &&
      !instrument::WriteTelemetryJson(config.summary_path,
                                      metrics.telemetry)) {
    std::fprintf(stderr, "warning: failed to write telemetry summary %s\n",
                 config.summary_path.c_str());
  }
}

// Write the single rank-aggregated metrics.json (the reduction already ran
// inside the rank body via CollectRunHealth).
void ExportRunHealth(const instrument::TelemetryConfig& config,
                     const WorkflowMetrics& metrics) {
  if (!config.MetricsEnabled() || config.metrics_path.empty()) return;
  if (!instrument::WriteMetricsJson(config.metrics_path,
                                    metrics.metrics_report)) {
    std::fprintf(stderr, "warning: failed to write metrics file %s\n",
                 config.metrics_path.c_str());
  }
}

// Seconds on the calling rank's busy clock (0 outside a rank).
double BusySeconds() {
  mpimini::RankEnv* env = mpimini::CurrentEnv();
  return env ? env->busy.Seconds() : 0.0;
}

// World ranks [0, sim_ranks) step the simulation; the endpoint_ranks
// after them receive its SST stream.  In situ has no endpoint ranks.
struct RankLayout {
  int sim_ranks = 1;
  int endpoint_ranks = 0;
  int sim_per_endpoint = 1;
  int sst_queue_limit = 1;
  bool streaming = false;  ///< the sim XML enables an adios sender
  std::string endpoint_xml;

  [[nodiscard]] int EndpointOf(int sim_rank) const {
    return sim_ranks + sim_rank / sim_per_endpoint;
  }
};

// One simulation rank: the only step loop of both workflows.  In transit
// it steps on the sim group and registers the "adios" sender; the SST
// feeds below follow whatever the rank's XML instantiated.
RankOutcome RunSimRank(mpimini::Comm& world, mpimini::Comm& group,
                       const InSituOptions& options, const RankLayout& layout,
                       const instrument::TelemetryConfig& telemetry,
                       std::uint64_t run_id,
                       instrument::MonitorServer* monitor) {
  occamini::Device device(options.backend, options.transfer);
  nekrs::FlowSolver solver(group, device, options.flow);
  std::function<void(sensei::ConfigurableAnalysis&)> customize;
  if (layout.endpoint_ranks > 0) {
    customize = [&](sensei::ConfigurableAnalysis& analysis) {
      analysis.RegisterFactory(
          "adios", [&](const xmlcfg::Element& e, mpimini::Comm&) {
            sensei::AdiosOptions adios_options;
            adios_options.arrays = sensei::SplitList(e.Attr("arrays"));
            adios_options.sst.queue_limit = layout.sst_queue_limit;
            adios_options.codecs = sensei::ParseTransportCodecs(e);
            return std::make_shared<sensei::AdiosAnalysisAdaptor>(
                world, layout.EndpointOf(world.Rank()), adios_options);
          });
    };
  }
  std::optional<Bridge> bridge;
  if (options.use_sensei) {
    bridge.emplace(solver, options.sensei_xml, customize);
  }
  const sensei::ConfigurableAnalysis* analysis =
      bridge ? &bridge->Analysis() : nullptr;
  std::shared_ptr<sensei::CatalystAnalysisAdaptor> catalyst;
  std::shared_ptr<sensei::AdiosAnalysisAdaptor> adios;
  if (analysis != nullptr) {
    catalyst = std::dynamic_pointer_cast<sensei::CatalystAnalysisAdaptor>(
        analysis->Find("catalyst"));
    adios = std::dynamic_pointer_cast<sensei::AdiosAnalysisAdaptor>(
        analysis->Find("adios"));
  }
  // Async mode: the analyses (the SST sender included) run concurrently on
  // the worker thread, so their counters must not be read at step
  // boundaries — sample with the device feed only, and take one full
  // sample after Finalize (SetTotal and counter sampling are cumulative,
  // so the final totals come out mode-independent).  The queue and wire
  // readings stay safe (atomic mirrors / immutable).
  const bool step_feeds = !(bridge && bridge->Async());
  auto sample_counters = [&](bool full) {
    SampleStepCounters(&device, full ? analysis : nullptr,
                       full ? catalyst.get() : nullptr,
                       full && adios ? &adios->TransportStats() : nullptr);
  };

  const double busy0 = BusySeconds();
  // Heartbeat runs on the stepping communicator: endpoint ranks cannot
  // join step-boundary collectives, so they ship e2e samples over world.
  Heartbeat heartbeat(group, telemetry, options.steps, monitor,
                      adios ? &world : nullptr);
  const int fail_step = layout.endpoint_ranks == 0 ? FailStepFromEnv() : -1;
  sample_counters(step_feeds);
  for (int s = 0; s < options.steps; ++s) {
    // Step boundary first: a crash dump's tail names the step that was
    // *in flight*, not the last one that completed.
    instrument::RecordFlightEvent(instrument::FlightEventKind::kStep,
                                  "solver.step", s);
    if (s == fail_step) {
      throw std::runtime_error("injected failure at step " +
                               std::to_string(s) + " (solver.step)");
    }
    solver.Step();
    if (group.Rank() == options.straggler_rank &&
        options.straggler_seconds > 0.0) {
      // Controlled straggler: busy-spin (not sleep — the busy clock must
      // see it) and book the time as solver work so the detector's span
      // attribution has a known right answer.
      const std::int64_t spin0 = instrument::Tracer::NowNs();
      double spun = 0.0;
      while (spun < options.straggler_seconds) {
        spun = static_cast<double>(instrument::Tracer::NowNs() - spin0) * 1e-9;
      }
      if (auto* metrics = instrument::CurrentMetrics()) {
        metrics->Add("solver.step_seconds", spun);
      }
    }
    {
      // Stamp the just-completed step's causal origin; the SENSEI update
      // (sync: inline; async: captured at Submit) runs under it so every
      // downstream write — in transit, across the SST wire in the v3 step
      // context — can attribute back to this step.
      instrument::StepProvenance provenance;
      if (run_id != 0) {
        provenance = instrument::MakeStepProvenance(run_id, world.Rank(), s);
      }
      instrument::ProvenanceScope provenance_scope(
          provenance.Valid() ? &provenance : nullptr);
      if (bridge) bridge->Update();
    }
    sample_counters(step_feeds);
    heartbeat.Tick(s, adios ? adios->QueueDepth() : -1,
                   adios ? adios->QueueLimit() : -1,
                   bridge ? bridge->OffloadedSeconds() : -1.0,
                   adios ? adios->RawBytes() : 0,
                   adios ? adios->WireBytes() : 0);
  }
  RankOutcome outcome;
  // Stop before teardown: Finalize (stream flushes, file closes) must not
  // count toward the per-step figures.
  outcome.step_busy_seconds = BusySeconds() - busy0;
  if (bridge) {
    bridge->Finalize();
    outcome.bytes = bridge->Analysis().TotalBytesWritten();
    outcome.worker_host_peak_bytes = bridge->WorkerHostPeakBytes();
  }
  // Post-Finalize the worker (if any) is joined and its attribution is
  // folded into this rank: the full-feed sample closes the totals.
  sample_counters(true);
  if (catalyst) outcome.images = catalyst->ImagesWritten();
  outcome.anomalies = heartbeat.Anomalies();
  return outcome;
}

// One endpoint rank of an in transit run: receive each delivered SST step
// and run the endpoint analyses on it.  Idle when the simulation side
// streams nothing.
RankOutcome RunEndpointRank(mpimini::Comm& world, mpimini::Comm& group,
                            const RankLayout& layout,
                            const instrument::TelemetryConfig& telemetry) {
  RankOutcome outcome;
  if (!layout.streaming) return outcome;
  std::vector<int> writers;
  for (int w = 0; w < layout.sim_ranks; ++w) {
    if (layout.EndpointOf(w) == world.Rank()) writers.push_back(w);
  }
  adios::SstReader reader(world, writers,
                          {.queue_limit = layout.sst_queue_limit});
  sensei::InTransitDataAdaptor data(group);
  sensei::ConfigurableAnalysis analysis(group);
  analysis.Initialize(xmlcfg::Parse(layout.endpoint_xml).root);

  const double busy0 = BusySeconds();
  SampleStepCounters(nullptr, &analysis, nullptr, &reader.Stats());
  const bool feed_e2e = group.Rank() == 0 && world.Rank() != 0 &&
                        (telemetry.heartbeat_steps > 0 ||
                         telemetry.MonitorEnabled());
  while (auto step = reader.NextStep()) {
    // Re-install the step's wire-carried origin around the analyses:
    // endpoint-side writes (images, checkpoints) measure their e2e
    // latency against it.  One rank per metric observes — group rank 0
    // here, the compositing root inside the adaptors — so histogram
    // counts stay partition-independent (one sample per step).
    const instrument::StepProvenance origin =
        StepOrigin(step->payloads, step->step);
    instrument::ProvenanceScope provenance_scope(
        origin.Valid() ? &origin : nullptr);
    auto since_origin = [&origin] {
      return std::max(0.0, static_cast<double>(instrument::GlobalNowNs() -
                                               origin.GlobalTimestampNs()) *
                               1e-9);
    };
    if (origin.Valid() && group.Rank() == 0) {
      if (auto* metrics = instrument::CurrentMetrics()) {
        metrics->Observe("e2e.step_to_recv_seconds", since_origin());
      }
    }
    data.SetStep(step->step, 0.0, step->payloads);
    analysis.Execute(data);
    if (feed_e2e && origin.Valid()) {
      // Ship this step's end-to-end latency (origin → analyses done,
      // which includes the image write) to the monitor host.  Buffered
      // send: the heartbeat drains at its own cadence.
      world.SendValue<double>(0, kTagE2eSample, since_origin());
    }
    SampleStepCounters(nullptr, &analysis, nullptr, &reader.Stats());
  }
  outcome.step_busy_seconds = BusySeconds() - busy0;
  analysis.Finalize();
  instrument::PrintTracerSummary();
  outcome.bytes = analysis.TotalBytesWritten();
  if (auto catalyst =
          std::dynamic_pointer_cast<sensei::CatalystAnalysisAdaptor>(
              analysis.Find("catalyst"))) {
    outcome.images = catalyst->ImagesWritten();
  }
  return outcome;
}

// The one workflow driver: run-level setup, collection and export for
// both workflows.
WorkflowMetrics RunWorkflow(const InSituOptions& sim,
                            const RankLayout& layout) {
  SharedMetrics shared;
  {
    core::MutexLock lock(shared.mutex);
    shared.metrics.steps = sim.steps;
  }
  const instrument::TelemetryConfig telemetry =
      ResolveTelemetry(sim.telemetry, sim.sensei_xml);
  // Causal plane (clock sync, step provenance, e2e latency) rides with the
  // observability opt-ins: without them, runs keep the pre-provenance wire
  // bytes and collective sequence exactly.
  const bool causal = telemetry.enabled || telemetry.MetricsEnabled();
  const std::uint64_t run_id = causal ? instrument::MakeRunId() : 0;
  mpimini::RunSettings settings;
  settings.trace = telemetry.enabled;
  settings.tracer = telemetry.TracerOptions();
  settings.metrics = telemetry.MetricsEnabled();

  mpimini::RunResult run = mpimini::Runtime::Run(
      layout.sim_ranks + layout.endpoint_ranks, settings,
      [&](mpimini::Comm& world) {
    const bool is_sim = world.Rank() < layout.sim_ranks;
    // Live run-health endpoint: world rank 0 only (also sim-group rank 0,
    // the heartbeat's root), opt-in, loopback.  Created before the step
    // loop so /healthz answers from the first step, and destroyed (-> Stop
    // -> persisted status) at rank-body scope end, after the closing
    // metrics reduction has refreshed it.
    std::unique_ptr<instrument::MonitorServer> monitor;
    if (world.Rank() == 0 && telemetry.MonitorEnabled()) {
      instrument::MonitorServer::Options monitor_options;
      monitor_options.port = telemetry.monitor_port;
      monitor_options.persist_path = telemetry.status_path;
      monitor_options.port_file = telemetry.monitor_port_file;
      monitor = std::make_unique<instrument::MonitorServer>(monitor_options);
    }
    // In transit splits sim and endpoint groups (one trace lane each);
    // in situ steps on the world communicator itself.
    mpimini::Comm group = world;
    if (layout.endpoint_ranks > 0) {
      group = world.Split(is_sim ? 0 : 1, world.Rank());
      if (instrument::Tracer* tracer = instrument::CurrentTracer()) {
        tracer->SetGroup(is_sim ? 0 : 1, is_sim ? "sim" : "endpoint");
      }
    }
    // Clock calibration brackets the run on the world communicator: the
    // start sync feeds provenance and the aligned trace export, the
    // closing re-sync measures drift.  Collective — gated identically on
    // every rank.
    std::optional<mpimini::ClockSync> clock;
    if (causal) clock = CalibrateRankClock(world);

    const RankOutcome outcome =
        is_sim ? RunSimRank(world, group, sim, layout, telemetry, run_id,
                            monitor.get())
               : RunEndpointRank(world, group, layout, telemetry);

    if (clock) RecalibrateRankClock(world, *clock);
    CollectReports(world, is_sim, outcome, shared);
    CollectRunHealth(world, telemetry, outcome.anomalies, monitor.get(),
                     shared);
  });

  // Rank threads are joined, but the analysis (rightly) still wants the
  // lock for these accesses.
  core::MutexLock lock(shared.mutex);
  shared.metrics.wall_seconds = run.wall_seconds;
  ExportTelemetry(telemetry, run, shared.metrics);
  ExportRunHealth(telemetry, shared.metrics);
  return shared.metrics;
}

}  // namespace

double WorkflowMetrics::MeanSimStepSeconds() const {
  const auto count = std::count_if(ranks.begin(), ranks.end(),
                                   [](const RankReport& r) { return r.is_sim; });
  return count && steps ? TotalSimBusySeconds() / count / steps : 0.0;
}

double WorkflowMetrics::TotalSimBusySeconds() const {
  double sum = 0.0;
  for (const RankReport& r : ranks) {
    if (r.is_sim) sum += r.step_busy_seconds;
  }
  return sum;
}

std::size_t WorkflowMetrics::MaxSimHostPeakBytes() const {
  std::size_t peak = 0;
  for (const RankReport& r : ranks) {
    if (r.is_sim) peak = std::max(peak, r.host_peak_bytes);
  }
  return peak;
}

std::size_t WorkflowMetrics::TotalSimHostPeakBytes() const {
  std::size_t total = 0;
  for (const RankReport& r : ranks) {
    if (r.is_sim) total += r.host_peak_bytes;
  }
  return total;
}

std::size_t WorkflowMetrics::MaxSimDevicePeakBytes() const {
  std::size_t peak = 0;
  for (const RankReport& r : ranks) {
    if (r.is_sim) peak = std::max(peak, r.device_peak_bytes);
  }
  return peak;
}

WorkflowMetrics RunInSitu(int nranks, const InSituOptions& options) {
  RankLayout layout;
  layout.sim_ranks = nranks;
  return RunWorkflow(options, layout);
}

WorkflowMetrics RunInTransit(int sim_ranks, const InTransitOptions& options) {
  const int ratio = std::max(1, options.sim_per_endpoint);
  // The simulation side of an in transit run is an in situ run whose XML
  // may name the adios sender.
  InSituOptions sim;
  sim.flow = options.flow;
  sim.steps = options.steps;
  sim.sensei_xml = options.sim_xml;
  sim.backend = options.backend;
  sim.transfer = options.transfer;
  sim.telemetry = options.telemetry;
  return RunWorkflow(sim, {.sim_ranks = sim_ranks,
                           .endpoint_ranks = (sim_ranks + ratio - 1) / ratio,
                           .sim_per_endpoint = ratio,
                           .sst_queue_limit = options.sst_queue_limit,
                           .streaming = XmlHasAdios(options.sim_xml),
                           .endpoint_xml = options.endpoint_xml});
}

}  // namespace nek_sensei
