#include "core/heartbeat.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <span>

#include "instrument/flight_recorder.hpp"
#include "instrument/metrics.hpp"
#include "instrument/report.hpp"
#include "instrument/tracer.hpp"
#include "mpimini/metrics_reduce.hpp"
#include "mpimini/runtime.hpp"

namespace nek_sensei {

std::string FormatHeartbeatLine(const HeartbeatLine& line) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "[heartbeat] step %d/%d (%d%%) | %.2f steps/s",
                line.done, line.total,
                line.total > 0 ? 100 * line.done / line.total : 0,
                line.rate_steps_per_second);
  std::string out = buf;
  // A zero observed rate (clock glitch, first tick landing in the same
  // timer quantum) has no defined ETA: print `n/a`, never inf/nan or a
  // garbage division result.
  if (line.eta_seconds >= 0.0 && std::isfinite(line.eta_seconds)) {
    std::snprintf(buf, sizeof(buf), " | eta %.1fs", line.eta_seconds);
    out += buf;
  } else {
    out += " | eta n/a";
  }
  out += " | mem mean " + instrument::FormatBytes(line.mem_mean_bytes) +
         " max " + instrument::FormatBytes(line.mem_max_bytes);
  if (line.insitu_percent >= 0.0) {
    // Clamp the display: busy-clock vs wall-clock skew can nudge the raw
    // ratio past 100, and a ">100% in situ" line reads as nonsense.  Work
    // running off the critical path is the offload column, never an
    // inflated insitu%.
    std::snprintf(buf, sizeof(buf), " | insitu %.0f%%",
                  std::min(line.insitu_percent, 100.0));
    out += buf;
  }
  if (line.offload_percent >= 0.0) {
    std::snprintf(buf, sizeof(buf), " | offload %.0f%%",
                  std::min(line.offload_percent, 100.0));
    out += buf;
  }
  if (line.queue_limit > 0) {
    std::snprintf(buf, sizeof(buf), " | sst queue %d/%d", line.queue_depth,
                  line.queue_limit);
    out += buf;
  }
  if (line.e2e_seconds >= 0.0) {
    std::snprintf(buf, sizeof(buf), " | e2e %.1fms", line.e2e_seconds * 1e3);
    out += buf;
  }
  // Wire column only when a codec actually shrank (or grew) the stream:
  // identity-only runs keep the pre-codec line byte for byte.
  if (line.raw_bytes > 0 && line.wire_bytes > 0 &&
      line.raw_bytes != line.wire_bytes) {
    std::snprintf(buf, sizeof(buf), " | wire %s (%.1fx)",
                  instrument::FormatBytes(line.wire_bytes).c_str(),
                  static_cast<double>(line.raw_bytes) /
                      static_cast<double>(line.wire_bytes));
    out += buf;
  }
  if (!line.note.empty()) out += " | " + line.note;
  return out;
}

Heartbeat::Heartbeat(mpimini::Comm& comm,
                     const instrument::TelemetryConfig& config,
                     int total_steps, instrument::MonitorServer* monitor,
                     mpimini::Comm* e2e_source)
    : comm_(comm),
      e2e_source_(e2e_source),
      print_interval_(config.heartbeat_steps),
      interval_(config.heartbeat_steps > 0
                    ? config.heartbeat_steps
                    : (config.MonitorEnabled() ? 1 : 0)),
      monitor_on_(config.MonitorEnabled()),
      monitor_(monitor),
      total_(total_steps),
      start_ns_(instrument::Tracer::NowNs()) {
  // Seed the per-interval baselines, so the first tick's deltas leave out
  // the setup that ran before the step loop.
  SampleHealth();
}

void Heartbeat::Tick(int step_index, int queue_depth, int queue_limit,
                     double offload_seconds, std::size_t raw_bytes,
                     std::size_t wire_bytes) {
  if (interval_ <= 0) return;
  const int done = step_index + 1;
  if (done % interval_ != 0 && done != total_) return;

  mpimini::RankEnv* env = mpimini::CurrentEnv();
  const double mem =
      env ? static_cast<double>(env->memory.HostPeakBytes()) : 0.0;
  double insitu_seconds = 0.0;
  if (const instrument::MetricsRegistry* m = instrument::CurrentMetrics()) {
    insitu_seconds = m->Counter("bridge.update_seconds");
  }
  const bool async = offload_seconds >= 0.0;
  std::array<double, 5> sums{mem, insitu_seconds,
                             async ? offload_seconds : 0.0,
                             static_cast<double>(raw_bytes),
                             static_cast<double>(wire_bytes)};
  std::array<double, 2> maxs{mem, static_cast<double>(queue_depth)};
  comm_.Reduce(std::span<double>(sums), mpimini::Op::kSum, 0);
  comm_.Reduce(std::span<double>(maxs), mpimini::Op::kMax, 0);

  // Health-sample gather: always part of the tick collective, so the
  // straggler detector works even with the metrics plane off (the busy
  // clock is unconditional; only the span attribution needs counters).
  const instrument::RankHealthSample health = SampleHealth();
  const std::vector<instrument::RankHealthSample> samples =
      comm_.Gather<instrument::RankHealthSample>(
          std::span<const instrument::RankHealthSample>(&health, 1), 0);

  // Monitor runs reduce the full registry each tick so /metrics serves
  // live cross-rank sums, not stale startup values.  MonitorEnabled()
  // implies the metrics plane is installed (TelemetryConfig contract).
  instrument::MetricsReport report;
  if (monitor_on_) {
    instrument::MetricsSnapshot snap;
    if (const instrument::MetricsRegistry* m = instrument::CurrentMetrics()) {
      snap = m->Snapshot();
    }
    report = mpimini::ReduceMetrics(comm_, snap, 0);
  }
  if (comm_.Rank() != 0) return;

  // End-to-end latency column: drain whatever the endpoint shipped since
  // the last tick (latest sample wins), or — with no cross-group feed —
  // read this rank's own step→image histogram (sync in situ: the image
  // writes land right here on rank 0).
  if (e2e_source_ != nullptr) {
    while (e2e_source_->HasMessage(mpimini::kAnySource, kTagE2eSample)) {
      last_e2e_seconds_ =
          e2e_source_->RecvValue<double>(mpimini::kAnySource, kTagE2eSample);
    }
  } else if (const instrument::MetricsRegistry* m =
                 instrument::CurrentMetrics()) {
    const auto it = m->Histograms().find("e2e.step_to_image_seconds");
    if (it != m->Histograms().end() && it->second.count > 0) {
      last_e2e_seconds_ = it->second.Mean();
    }
  }

  std::string note;
  for (const instrument::AnomalyRecord& a : straggler_.Update(samples, done)) {
    char verdict[64];
    std::snprintf(verdict, sizeof(verdict), "straggler rank %d (%s)", a.rank,
                  a.dominant_span.c_str());
    instrument::RecordFlightEvent(instrument::FlightEventKind::kAnomaly,
                                  verdict, done, a.z);
    if (!note.empty()) note += ", ";
    note += verdict;
  }

  const double elapsed =
      static_cast<double>(instrument::Tracer::NowNs() - start_ns_) * 1e-9;
  const double rate = elapsed > 0.0 ? done / elapsed : 0.0;
  const double ranks = static_cast<double>(comm_.Size());

  HeartbeatLine line;
  line.done = done;
  line.total = total_;
  line.rate_steps_per_second = rate;
  line.eta_seconds =
      rate > 0.0 ? static_cast<double>(total_ - done) / rate : -1.0;
  line.mem_mean_bytes = static_cast<std::size_t>(sums[0] / ranks);
  line.mem_max_bytes = static_cast<std::size_t>(maxs[0]);
  if (elapsed > 0.0 && instrument::CurrentMetrics() != nullptr) {
    line.insitu_percent = 100.0 * sums[1] / ranks / elapsed;
  }
  if (elapsed > 0.0 && async) {
    line.offload_percent = 100.0 * sums[2] / ranks / elapsed;
  }
  line.queue_depth = static_cast<int>(maxs[1]);
  line.queue_limit = queue_limit;
  line.raw_bytes = static_cast<std::size_t>(sums[3]);
  line.wire_bytes = static_cast<std::size_t>(sums[4]);
  line.e2e_seconds = last_e2e_seconds_;
  line.note = note;
  if (print_interval_ > 0 &&
      (done % print_interval_ == 0 || done == total_)) {
    std::fprintf(stderr, "%s\n", FormatHeartbeatLine(line).c_str());
    std::fflush(stderr);
  }

  if (monitor_ != nullptr && monitor_->Serving()) {
    instrument::MonitorStatus status;
    status.step = done;
    status.total_steps = total_;
    status.rate_steps_per_second = rate;
    status.eta_seconds = line.eta_seconds;
    double lo = 0.0;
    double hi = 0.0;
    double sum = 0.0;
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const double s = samples[i].step_seconds;
      lo = i == 0 ? s : std::min(lo, s);
      hi = std::max(hi, s);
      sum += s;
    }
    status.step_seconds_min = lo;
    status.step_seconds_max = hi;
    status.step_seconds_mean =
        samples.empty() ? 0.0 : sum / static_cast<double>(samples.size());
    status.queue_depth = line.queue_depth;
    status.queue_limit = queue_limit;
    status.insitu_percent = line.insitu_percent;
    status.offload_percent = line.offload_percent;
    status.e2e_seconds = line.e2e_seconds;
    status.anomalies = straggler_.Anomalies();
    report.anomalies = status.anomalies;
    status.metrics = std::move(report);
    monitor_->Publish(std::move(status));
  }
}

// The busy clock excludes comm waits by design, so a straggler's *victims*
// (ranks idling at the collective) do not get inflated samples — only the
// rank actually doing extra work does.
instrument::RankHealthSample Heartbeat::SampleHealth() {
  instrument::RankHealthSample sample;
  sample.rank = comm_.Rank();
  double busy = 0.0;
  if (mpimini::RankEnv* env = mpimini::CurrentEnv()) {
    busy = env->busy.Seconds();
  }
  sample.step_seconds = busy - last_busy_;
  last_busy_ = busy;
  if (const instrument::MetricsRegistry* m = instrument::CurrentMetrics()) {
    const double solver = m->Counter("solver.step_seconds");
    const double insitu = m->Counter("bridge.update_seconds");
    const double transport = m->Counter("sst.stall_seconds") +
                             m->Counter("pipeline.queue_wait_seconds");
    sample.solver_seconds = solver - last_solver_;
    sample.insitu_seconds = insitu - last_insitu_;
    sample.transport_seconds = transport - last_transport_;
    last_solver_ = solver;
    last_insitu_ = insitu;
    last_transport_ = transport;
  }
  return sample;
}

}  // namespace nek_sensei
