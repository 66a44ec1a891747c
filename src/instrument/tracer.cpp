#include "instrument/tracer.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "instrument/report.hpp"

namespace instrument {

namespace {
thread_local Tracer* g_tracer = nullptr;

void CopyName(char* dst, std::size_t capacity, std::string_view name) {
  const std::size_t n = std::min(name.size(), capacity);
  std::memcpy(dst, name.data(), n);
  dst[n] = '\0';
}
}  // namespace

Tracer* CurrentTracer() { return g_tracer; }

Tracer* SetCurrentTracer(Tracer* tracer) {
  Tracer* previous = g_tracer;
  g_tracer = tracer;
  return previous;
}

void PrintTracerSummary() {
  if (const Tracer* tracer = CurrentTracer()) {
    std::fprintf(stderr, "%s\n", tracer->SummaryLine().c_str());
    // Flush before the mpimini runtime tears the rank threads down: an
    // unflushed stdio buffer can lose the digest of a rank whose thread
    // exits last (observed with per-rank summaries interleaving at exit).
    std::fflush(stderr);
  }
}

Tracer::Tracer(int rank, Options options)
    : rank_(rank),
      options_(options),
      tid_(rank),
      thread_label_("rank " + std::to_string(rank)) {
  ring_.resize(options_.span_capacity);
  events_.reserve(options_.event_capacity);
  samples_.reserve(options_.event_capacity);
}

std::int64_t Tracer::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Tracer::Instant(std::string_view name) {
  owner_.Check("instrument::Tracer::Instant");
  if (events_.size() >= options_.event_capacity) {
    ++dropped_events_;
    return;
  }
  EventRecord rec;
  CopyName(rec.name, SpanRecord::kNameCapacity, name);
  rec.ts_ns = NowNs();
  events_.push_back(rec);
}

void Tracer::SampleCounter(std::string_view name, double value) {
  owner_.Check("instrument::Tracer::SampleCounter");
  counters_[std::string(name)] = value;
  if (samples_.size() >= options_.event_capacity) {
    ++dropped_events_;
    return;
  }
  CounterSample rec;
  CopyName(rec.name, SpanRecord::kNameCapacity, name);
  rec.ts_ns = NowNs();
  rec.value = value;
  samples_.push_back(rec);
}

void Tracer::AddCounter(std::string_view name, double delta) {
  owner_.Check("instrument::Tracer::AddCounter");
  counters_[std::string(name)] += delta;
}

void Tracer::Flow(std::uint64_t id, int step, bool start) {
  owner_.Check("instrument::Tracer::Flow");
  if (flows_.size() >= options_.event_capacity) {
    ++dropped_events_;
    return;
  }
  FlowRecord rec;
  rec.id = id;
  rec.ts_ns = NowNs();
  rec.step = step;
  rec.start = start;
  flows_.push_back(rec);
}

void Tracer::SetGroup(int group, std::string_view name) {
  group_ = group;
  group_name_.assign(name);
}

void Tracer::SetThreadLane(int tid, std::string_view label) {
  tid_ = tid;
  thread_label_.assign(label);
}

void Tracer::SetClockCalibration(std::int64_t offset_ns,
                                 std::int64_t min_rtt_ns) {
  clock_offset_ns_ = offset_ns;
  clock_rtt_ns_ = min_rtt_ns;
}

std::uint16_t Tracer::OpenSpan() {
  owner_.Check("instrument::Tracer::OpenSpan");
  const std::uint32_t depth = depth_++;
  return static_cast<std::uint16_t>(std::min<std::uint32_t>(depth, 0xffff));
}

void Tracer::CloseSpan(std::string_view name, std::int64_t start_ns,
                       std::int64_t end_ns, std::uint16_t depth) {
  ++total_;
  if (ring_.empty()) {
    ++dropped_;
    return;
  }
  if (total_ > ring_.size()) ++dropped_;  // the slot held a retained span
  SpanRecord& rec = ring_[head_];
  head_ = (head_ + 1) % ring_.size();
  CopyName(rec.name, SpanRecord::kNameCapacity, name);
  rec.start_ns = start_ns;
  rec.duration_ns = end_ns - start_ns;
  rec.depth = depth;
}

void Tracer::SkipWait(std::int64_t duration_ns) {
  ++skipped_waits_;
  skipped_wait_ns_ += duration_ns;
}

std::vector<Tracer::SpanRecord> Tracer::Spans() const {
  std::vector<SpanRecord> out;
  const std::size_t retained =
      static_cast<std::size_t>(std::min<std::uint64_t>(total_, ring_.size()));
  out.reserve(retained);
  if (total_ <= ring_.size()) {
    out.assign(ring_.begin(),
               ring_.begin() + static_cast<std::ptrdiff_t>(retained));
  } else {
    // head_ points at the oldest retained record once the ring has wrapped.
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(head_ + i) % ring_.size()]);
    }
  }
  return out;
}

std::string Tracer::SummaryLine() const {
  std::string line = "telemetry rank " + std::to_string(rank_) + ": " +
                     std::to_string(total_) + " spans";
  if (dropped_ > 0) {
    line += " (" + std::to_string(dropped_) + " dropped, ring wrapped)";
  }
  if (skipped_waits_ > 0) {
    line += ", " + std::to_string(skipped_waits_) + " short waits (" +
            FormatSeconds(SkippedWaitSeconds()) + " s)";
  }
  for (const auto& [name, value] : counters_) {
    line += "; " + name + "=";
    if (name.find("bytes") != std::string::npos && value >= 0.0) {
      line += FormatBytes(static_cast<std::size_t>(value));
    } else {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", value);
      line += buf;
    }
  }
  return line;
}

void Tracer::Clear() {
  // Clearing is an explicit ownership handoff point (benches reuse a tracer
  // across configurations): release the owner binding with the data.
  owner_.Reset();
  head_ = 0;
  total_ = 0;
  dropped_ = 0;
  depth_ = 0;
  events_.clear();
  samples_.clear();
  flows_.clear();
  dropped_events_ = 0;
  counters_.clear();
  skipped_waits_ = 0;
  skipped_wait_ns_ = 0;
}

}  // namespace instrument
