// One benchmark workload, composed from the program's public calls:
// mpimini::Runtime::Run, nekrs::FlowSolver, nek_sensei::Bridge and, in
// transit, adios::SstReader + sensei::InTransitDataAdaptor +
// sensei::ConfigurableAnalysis on the endpoint rank.  Layer timings come
// from timing those calls from outside, and from a pair of timestamp
// probe analyses placed around the Catalyst/ADIOS <analysis> entry.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "nekrs/cases.hpp"
#include "sensei/data_adaptor.hpp"

namespace perfbench {

/// Steady-clock nanoseconds.  Sim and endpoint ranks are threads of one
/// process, so their timestamps share this clock.
std::int64_t NowNs();

struct Workload {
  std::string name;
  bool intransit = false;
  bool async = false;
  bool compress = false;
  int sim_ranks = 2;
  int steps = 0;
  int frequency = 0;  ///< trigger cadence of the Catalyst/ADIOS entry

  [[nodiscard]] int Triggers() const { return steps / frequency; }
  [[nodiscard]] int WorldRanks() const { return sim_ranks + (intransit ? 1 : 0); }
  /// Images each trigger must produce (one view in situ, two in transit).
  [[nodiscard]] int Views() const { return intransit ? 2 : 1; }
};

/// The named workload, or nullptr.  `tiny` keeps two triggers per run.
const Workload* FindWorkload(const std::string& name, bool tiny);
std::vector<std::string> WorkloadNames();

/// pb146 stand-in options for `seed` (the seed sets only the pebble jitter).
nekrs::cases::PebbleBedOptions PebbleBedOptions(unsigned seed);
nekrs::FlowConfig FlowFor(const Workload& w, unsigned seed);

/// SENSEI XML of the sim ranks and (in transit) the endpoint rank.  With
/// `probes`, probe entries bracket the Catalyst/ADIOS entry; `probe_fail`
/// makes the closing probe report failure (tests only).
std::string SimXml(const Workload& w, const std::string& out, bool probes,
                   bool probe_fail);
std::string EndpointXml(const std::string& out, bool probes, bool probe_fail);

/// Timestamp probe: records the step and the time each time it executes.
/// It requests exactly the arrays of the analysis it brackets, so the async
/// pipeline snapshots the same fields with or without it.
class ProbeAnalysis final : public sensei::AnalysisAdaptor {
 public:
  struct Hit {
    int step = 0;
    std::int64_t ns = 0;
  };

  ProbeAnalysis(std::string kind, std::vector<std::string> arrays, bool fail);

  bool Execute(sensei::DataAdaptor& data) override;
  [[nodiscard]] std::string Kind() const override { return kind_; }
  [[nodiscard]] std::vector<std::string> RequestedArrays() const override {
    return arrays_;
  }
  [[nodiscard]] const std::vector<Hit>& Hits() const { return hits_; }

 private:
  std::string kind_;
  std::vector<std::string> arrays_;
  bool fail_ = false;
  std::vector<Hit> hits_;
};

/// One recorded span.  Times are relative to the repetition start.
struct Span {
  const char* name = "";
  std::int64_t start = 0;
  std::int64_t end = 0;
  int parent = -1;  ///< index in the same lane, -1 for a root
  int step = -1;
};

/// Spans of one thread, kept in memory; a disabled lane records nothing.
class Lane {
 public:
  Lane() = default;
  Lane(std::string name, bool enabled, std::int64_t origin)
      : name_(std::move(name)), enabled_(enabled), origin_(origin) {}

  /// Record a span; returns its index, or -1 when the lane is disabled.
  int Add(const char* name, std::int64_t start, std::int64_t end, int parent,
          int step);
  /// Set the end of a span opened with Add (an index of -1 is ignored).
  void Close(int index, std::int64_t end);
  [[nodiscard]] const std::string& Name() const { return name_; }
  [[nodiscard]] const std::vector<Span>& Spans() const { return spans_; }

 private:
  std::string name_;
  bool enabled_ = false;
  std::int64_t origin_ = 0;
  std::vector<Span> spans_;
};

/// What one rank thread measured.  Durations in ns.
struct RankOut {
  bool is_sim = true;
  std::int64_t body_start = 0;  ///< rank body entered (after spawn)
  std::int64_t solver_construct = 0;
  std::int64_t bridge_construct = 0;
  std::int64_t first_step_end = 0;  ///< absolute
  std::int64_t first_step = 0;
  std::int64_t finalize = 0;
  std::int64_t done = 0;  ///< absolute: Finalize returned
  std::int64_t loop_wall = 0;
  double loop_busy_seconds = 0.0;
  std::vector<std::int64_t> iterations;  ///< Step + Update, per step
  std::vector<std::int64_t> step_ns;
  std::vector<std::int64_t> update_trigger_ns;
  std::vector<std::int64_t> update_idle_ns;
  std::map<int, std::int64_t> step_end;  ///< sim step -> end of Step
  std::vector<ProbeAnalysis::Hit> begin_hits, end_hits;
  long pressure_iters = 0, velocity_iters = 0, scalar_iters = 0;
  // Endpoint loop.
  std::vector<std::int64_t> recv_wait_ns, execute_ns;
  int steps_received = 0;
  // Counters (exact).
  std::size_t d2h_bytes = 0;
  std::uint64_t d2h_copies = 0;
  std::size_t image_bytes = 0;
  std::size_t raw_bytes = 0, wire_bytes = 0;
  std::size_t host_peak = 0;  ///< rank + async worker host high-water
  // Correctness.
  long ops = 0, failed = 0;
  double diagnostic = 0.0;  ///< kinetic energy (pb146) or Nusselt (RBC)
  double max_divergence = 0.0;
  Lane lane, worker_lane;
};

struct RepResult {
  bool probes = false;
  bool traced = false;
  std::int64_t t0 = 0;
  std::int64_t wall = 0;  ///< start .. every rank's Finalize returned
  std::vector<RankOut> ranks;  ///< by world rank
  std::vector<std::map<std::string, std::size_t>> peak_by_category;
  long ops = 0, failed = 0;  ///< including the output checks below
  std::string check_error;   ///< first failed check, for the report
};

struct RepOptions {
  unsigned seed = 0;
  std::string out_dir;
  bool probes = true;
  bool probe_fail = false;
  bool trace = false;
};

/// Run the workload once, end to end, and check its outputs.
RepResult RunRep(const Workload& w, const RepOptions& options);

/// Upper bound on the final MaxDivergence() the checks accept.  Pointwise
/// nodal divergence, so far from zero next to the penalized pebbles: about
/// 7-8.3 on pb146 and 0.009-0.013 on the RBC slab over seeds and run
/// lengths; the bounds leave about 3x and 8x headroom and catch blow-up.
inline double DivergenceTolerance(const Workload& w) {
  return w.intransit ? 0.1 : 25.0;
}

}  // namespace perfbench
