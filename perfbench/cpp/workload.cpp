#include "workload.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <memory>

#include "adios/sst.hpp"
#include "core/bridge.hpp"
#include "mpimini/runtime.hpp"
#include "sensei/adios_adaptor.hpp"
#include "sensei/catalyst_adaptor.hpp"
#include "sensei/configurable_analysis.hpp"
#include "sensei/intransit_data_adaptor.hpp"

namespace perfbench {

namespace fs = std::filesystem;

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

// Why these workloads: see perfbench/README.md.  Step counts keep one run
// near two seconds, so a measured interval holds several whole runs.
const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> all = {
      {.name = "insitu_catalyst", .steps = 60, .frequency = 10},
      {.name = "insitu_catalyst_async", .async = true, .steps = 60,
       .frequency = 10},
      {.name = "intransit_catalyst", .intransit = true, .steps = 100,
       .frequency = 10},
      {.name = "intransit_compress", .intransit = true, .compress = true,
       .steps = 100, .frequency = 10},
  };
  return all;
}

}  // namespace

const Workload* FindWorkload(const std::string& name, bool tiny) {
  static std::vector<Workload> tiny_all;
  if (tiny_all.empty()) {
    for (Workload w : Workloads()) {
      w.steps = 2 * w.frequency;
      tiny_all.push_back(w);
    }
  }
  for (const Workload& w : tiny ? tiny_all : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const Workload& w : Workloads()) names.push_back(w.name);
  return names;
}

nekrs::cases::PebbleBedOptions PebbleBedOptions(unsigned seed) {
  // The Fig 2 pb146 stand-in (pMG off, as in the figure benches).
  nekrs::cases::PebbleBedOptions pb;
  pb.elements = {4, 4, 8};
  pb.order = 4;
  pb.pebble_count = 146;
  pb.dt = 1.5e-3;
  pb.seed = seed;
  return pb;
}

nekrs::FlowConfig FlowFor(const Workload& w, unsigned seed) {
  if (!w.intransit) return nekrs::cases::PebbleBedCase(PebbleBedOptions(seed));
  // The Fig 5 weak-scaling RBC slab, partitioned along the growing axis,
  // with the figure bench's element size but four times its elements per
  // rank: at 16 elements a rank waits on its peer for half of every step,
  // and the step time follows the host's thread wake-up jitter.  No random
  // part.
  nekrs::cases::RayleighBenardOptions rbc;
  rbc.elements = {4 * w.sim_ranks, 4, 4};
  rbc.order = 4;
  rbc.aspect = 1.5 * w.sim_ranks;
  rbc.rayleigh = 1e5;
  rbc.dt = 5e-3;
  nekrs::FlowConfig config = nekrs::cases::RayleighBenardCase(rbc);
  config.mesh.partition_axis = 0;
  return config;
}

namespace {

std::string Probe(const char* kind, int frequency, const std::string& arrays,
                  bool fail) {
  return "<analysis type=\"probe\" kind=\"" + std::string(kind) +
         "\" frequency=\"" + std::to_string(frequency) + "\" arrays=\"" +
         arrays + "\" fail=\"" + (fail ? "1" : "0") + "\"/>";
}

std::string Bracket(const std::string& analysis, int frequency,
                    const std::string& arrays, bool probes, bool fail) {
  if (!probes) return analysis;
  return Probe("probe.begin", frequency, arrays, false) + analysis +
         Probe("probe.end", frequency, arrays, fail);
}

}  // namespace

std::string SimXml(const Workload& w, const std::string& out, bool probes,
                   bool probe_fail) {
  const std::string f = std::to_string(w.frequency);
  // Explicit mode, so the NEK_SENSEI_ASYNC environment default cannot
  // change what a workload runs.
  std::string xml = w.async ? "<sensei><pipeline mode=\"async\" depth=\"2\"/>"
                            : "<sensei><pipeline mode=\"sync\"/>";
  if (!w.intransit) {
    const std::string catalyst =
        "<analysis type=\"catalyst\" frequency=\"" + f + "\" output=\"" +
        out + "\" width=\"640\" height=\"480\">"
        "<render array=\"temperature\" colormap=\"plasma\" azimuth=\"35\" "
        "elevation=\"25\"/></analysis>";
    return xml + Bracket(catalyst, w.frequency, "temperature", probes,
                         probe_fail) + "</sensei>";
  }
  std::string adios = "<analysis type=\"adios\" frequency=\"" + f + "\"";
  if (w.compress) {
    adios +=
        "><points><codec type=\"blockfloat\" rate=\"8\"/></points>"
        "<connectivity><codec type=\"shuffle_rle\" delta=\"1\"/>"
        "</connectivity>"
        "<array name=\"*\"><codec type=\"blockfloat\" rate=\"8\"/></array>"
        "</analysis>";
  } else {
    adios += "/>";
  }
  // The ADIOS sender ships every advertised array (empty request list);
  // an empty probe list requests the same.
  return xml + Bracket(adios, w.frequency, "", probes, probe_fail) +
         "</sensei>";
}

std::string EndpointXml(const std::string& out, bool probes,
                        bool probe_fail) {
  // The paper's two in transit views per trigger.
  const std::string catalyst =
      "<analysis type=\"catalyst\" output=\"" + out +
      "\" width=\"640\" height=\"240\">"
      "<render array=\"temperature\" name=\"side\" colormap=\"coolwarm\" "
      "azimuth=\"270\" elevation=\"0\" min=\"-0.5\" max=\"0.5\"/>"
      "<render array=\"velocity\" magnitude=\"1\" name=\"speed\" "
      "colormap=\"viridis\" azimuth=\"250\" elevation=\"20\"/>"
      "</analysis>";
  return "<sensei>" +
         Bracket(catalyst, 1, "temperature,velocity", probes, probe_fail) +
         "</sensei>";
}

ProbeAnalysis::ProbeAnalysis(std::string kind, std::vector<std::string> arrays,
                             bool fail)
    : kind_(std::move(kind)), arrays_(std::move(arrays)), fail_(fail) {
  hits_.reserve(1024);
}

bool ProbeAnalysis::Execute(sensei::DataAdaptor& data) {
  hits_.push_back({data.GetDataTimeStep(), NowNs()});
  return !fail_;
}

int Lane::Add(const char* name, std::int64_t start, std::int64_t end,
              int parent, int step) {
  if (!enabled_) return -1;
  spans_.push_back({name, start - origin_, end - origin_, parent, step});
  return static_cast<int>(spans_.size()) - 1;
}

void Lane::Close(int index, std::int64_t end) {
  if (index >= 0) spans_[static_cast<std::size_t>(index)].end = end - origin_;
}

namespace {

void RegisterProbe(sensei::ConfigurableAnalysis& analysis) {
  analysis.RegisterFactory(
      "probe", [](const xmlcfg::Element& e, mpimini::Comm&) {
        return std::make_shared<ProbeAnalysis>(
            e.Attr("kind"), sensei::SplitList(e.Attr("arrays")),
            e.AttrInt("fail", 0) != 0);
      });
}

/// Probe hits of the analysis, and the bracket spans they imply on `lane`
/// (each begin/end pair of one step), parented to `parent_of(step)`.
template <typename ParentOf>
void CollectProbes(const sensei::ConfigurableAnalysis& analysis,
                   const char* bracket, RankOut& out, Lane& lane,
                   ParentOf parent_of) {
  auto begin = std::dynamic_pointer_cast<ProbeAnalysis>(
      analysis.Find("probe.begin"));
  auto end =
      std::dynamic_pointer_cast<ProbeAnalysis>(analysis.Find("probe.end"));
  if (!begin || !end) return;
  out.begin_hits = begin->Hits();
  out.end_hits = end->Hits();
  const std::size_t n = std::min(out.begin_hits.size(), out.end_hits.size());
  for (std::size_t i = 0; i < n; ++i) {
    const int step = out.end_hits[i].step;
    lane.Add(bracket, out.begin_hits[i].ns, out.end_hits[i].ns,
             parent_of(step), step);
  }
}

void SimRank(const Workload& w, const RepOptions& options,
             const nekrs::FlowConfig& flow, mpimini::Comm& comm,
             mpimini::Comm& world, RankOut& out) {
  const std::int64_t body = out.body_start;
  const int root = out.lane.Add("rank", body, body, -1, -1);
  occamini::Device device(occamini::Backend::kSimGpu);
  std::int64_t a = NowNs();
  nekrs::FlowSolver solver(comm, device, flow);
  std::int64_t b = NowNs();
  out.solver_construct = b - a;
  out.lane.Add("nekrs.construct", a, b, root, -1);

  const std::string xml =
      SimXml(w, options.out_dir, options.probes, options.probe_fail);
  const int endpoint = w.sim_ranks;
  a = NowNs();
  nek_sensei::Bridge bridge(
      solver, xml, [&](sensei::ConfigurableAnalysis& analysis) {
        RegisterProbe(analysis);
        if (!w.intransit) return;
        analysis.RegisterFactory(
            "adios", [&](const xmlcfg::Element& e, mpimini::Comm&) {
              sensei::AdiosOptions adios_options;
              adios_options.arrays = sensei::SplitList(e.Attr("arrays"));
              adios_options.sst.queue_limit = 1;
              adios_options.codecs = sensei::ParseTransportCodecs(e);
              return std::make_shared<sensei::AdiosAnalysisAdaptor>(
                  world, endpoint, adios_options);
            });
      });
  b = NowNs();
  out.bridge_construct = b - a;
  out.lane.Add("bridge.construct", a, b, root, -1);

  mpimini::RankEnv* env = mpimini::CurrentEnv();
  const double busy0 = env ? env->busy.Seconds() : 0.0;
  const std::int64_t loop0 = NowNs();
  const int loop = out.lane.Add("sim.loop", loop0, loop0, root, -1);
  std::map<int, int> update_span;  // step -> bridge.update span (sync probes)
  out.iterations.reserve(static_cast<std::size_t>(w.steps));
  out.step_ns.reserve(static_cast<std::size_t>(w.steps));
  for (int s = 0; s < w.steps; ++s) {
    const std::int64_t it0 = NowNs();
    solver.Step();
    const std::int64_t ts = NowNs();
    const int step = solver.StepNumber();
    const bool trigger = step % w.frequency == 0;
    const bool ok = bridge.Update();
    const std::int64_t t1 = NowNs();

    const nekrs::StepStats& stats = solver.LastStats();
    out.pressure_iters += stats.pressure_iterations;
    out.velocity_iters += stats.velocity_iterations;
    out.scalar_iters += stats.temperature_iterations;
    out.iterations.push_back(t1 - it0);
    out.step_ns.push_back(ts - it0);
    (trigger ? out.update_trigger_ns : out.update_idle_ns).push_back(t1 - ts);
    if (s == 0) {
      out.first_step_end = ts;
      out.first_step = ts - it0;
    }
    if (trigger) {
      out.step_end[step] = ts;
      ++out.ops;
      if (!ok) ++out.failed;
    }
    const int it = out.lane.Add("sim.iteration", it0, t1, loop, step);
    out.lane.Add("nekrs.step", it0, ts, it, step);
    const int up = out.lane.Add("bridge.update", ts, t1, it, step);
    if (trigger) update_span[step] = up;
  }
  const std::int64_t loop1 = NowNs();
  out.loop_wall = loop1 - loop0;
  out.lane.Close(loop, loop1);
  out.loop_busy_seconds = (env ? env->busy.Seconds() : 0.0) - busy0;
  const occamini::TransferStats transfers = device.Transfers();

  a = NowNs();
  bridge.Finalize();
  b = NowNs();
  out.finalize = b - a;
  out.done = b;
  out.lane.Add("bridge.finalize", a, b, root, -1);

  const sensei::ConfigurableAnalysis& analysis = bridge.Analysis();
  const char* bracket = w.intransit ? "adios.execute" : "catalyst.execute";
  if (bridge.Async()) {
    CollectProbes(analysis, bracket, out, out.worker_lane,
                  [](int) { return -1; });
  } else {
    CollectProbes(analysis, bracket, out, out.lane, [&](int step) {
      auto found = update_span.find(step);
      return found == update_span.end() ? -1 : found->second;
    });
  }
  out.d2h_bytes = transfers.d2h_bytes;
  out.d2h_copies = transfers.d2h_count;
  if (auto catalyst = std::dynamic_pointer_cast<sensei::CatalystAnalysisAdaptor>(
          analysis.Find("catalyst"))) {
    out.image_bytes = catalyst->BytesWritten();
  }
  if (auto adios = std::dynamic_pointer_cast<sensei::AdiosAnalysisAdaptor>(
          analysis.Find("adios"))) {
    out.raw_bytes = adios->RawBytes();
    out.wire_bytes = adios->WireBytes();
  }
  out.host_peak =
      (env ? env->memory.HostPeakBytes() : 0) + bridge.WorkerHostPeakBytes();
  // Untimed diagnostics (collective on the sim group).
  out.diagnostic = w.intransit ? solver.NusseltNumber() : solver.KineticEnergy();
  out.max_divergence = solver.MaxDivergence();
  out.lane.Close(root, NowNs());
}

void EndpointRank(const Workload& w, const RepOptions& options,
                  mpimini::Comm& group, mpimini::Comm& world, RankOut& out) {
  const std::int64_t body = out.body_start;
  const int root = out.lane.Add("rank", body, body, -1, -1);
  std::vector<int> writers;
  for (int r = 0; r < w.sim_ranks; ++r) writers.push_back(r);
  std::int64_t a = NowNs();
  adios::SstReader reader(world, writers, {.queue_limit = 1});
  sensei::InTransitDataAdaptor data(group);
  sensei::ConfigurableAnalysis analysis(group);
  RegisterProbe(analysis);
  analysis.Initialize(
      xmlcfg::Parse(EndpointXml(options.out_dir, options.probes,
                                options.probe_fail))
          .root);
  std::int64_t b = NowNs();
  out.lane.Add("endpoint.construct", a, b, root, -1);

  const std::int64_t loop0 = NowNs();
  const int loop = out.lane.Add("endpoint.loop", loop0, loop0, root, -1);
  std::map<int, int> execute_span;
  while (true) {
    a = NowNs();
    auto step = reader.NextStep();
    b = NowNs();
    out.lane.Add("endpoint.recv_wait", a, b, loop, step ? step->step : -1);
    if (!step) break;
    out.recv_wait_ns.push_back(b - a);
    data.SetStep(step->step, 0.0, step->payloads);
    const bool ok = analysis.Execute(data);
    const std::int64_t c = NowNs();
    out.execute_ns.push_back(c - b);
    execute_span[step->step] =
        out.lane.Add("endpoint.execute", b, c, loop, step->step);
    ++out.steps_received;
    ++out.ops;
    if (!ok) ++out.failed;
  }
  out.loop_wall = NowNs() - loop0;
  out.lane.Close(loop, loop0 + out.loop_wall);
  a = NowNs();
  analysis.Finalize();
  b = NowNs();
  out.finalize = b - a;
  out.done = b;
  out.lane.Add("endpoint.finalize", a, b, root, -1);

  CollectProbes(analysis, "catalyst.execute", out, out.lane, [&](int step) {
    auto found = execute_span.find(step);
    return found == execute_span.end() ? -1 : found->second;
  });
  if (auto catalyst = std::dynamic_pointer_cast<sensei::CatalystAnalysisAdaptor>(
          analysis.Find("catalyst"))) {
    out.image_bytes = catalyst->BytesWritten();
  }
  out.lane.Close(root, NowNs());
}

/// Count (and check) this repetition's images on disk.
void CheckImages(const Workload& w, const std::string& dir, RepResult& rep) {
  std::size_t good = 0;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    if (e.is_regular_file() && e.path().extension() == ".png" &&
        e.file_size() > 0) {
      ++good;
    }
  }
  const std::size_t expected =
      static_cast<std::size_t>(w.Triggers() * w.Views());
  rep.ops += static_cast<long>(expected);
  if (good != expected) {
    rep.failed += static_cast<long>(
        good > expected ? good - expected : expected - good);
    if (rep.check_error.empty()) {
      rep.check_error = "images on disk: " + std::to_string(good) +
                        ", expected " + std::to_string(expected);
    }
  }
}

void Check(RepResult& rep, bool ok, const std::string& what) {
  ++rep.ops;
  if (ok) return;
  ++rep.failed;
  if (rep.check_error.empty()) rep.check_error = what;
}

}  // namespace

RepResult RunRep(const Workload& w, const RepOptions& options) {
  fs::remove_all(options.out_dir);
  fs::create_directories(options.out_dir);
  const nekrs::FlowConfig flow = FlowFor(w, options.seed);

  RepResult rep;
  rep.probes = options.probes;
  rep.traced = options.trace;
  rep.ranks.resize(static_cast<std::size_t>(w.WorldRanks()));
  // Repo telemetry, the metrics plane and clock sync stay off (default
  // settings): the run measures the plain program.
  rep.t0 = NowNs();
  const std::int64_t t0 = rep.t0;
  mpimini::RunResult run = mpimini::Runtime::Run(
      w.WorldRanks(), mpimini::RunSettings{}, [&](mpimini::Comm& world) {
        RankOut& out = rep.ranks[static_cast<std::size_t>(world.Rank())];
        out.body_start = NowNs();
        const bool is_sim = world.Rank() < w.sim_ranks;
        const std::string lane =
            (is_sim ? "sim" : "endpoint") + std::to_string(world.Rank());
        out.lane = Lane(lane, options.trace, t0);
        out.worker_lane = Lane(lane + ".worker", options.trace, t0);
        out.lane.Add("mpimini.spawn", t0, out.body_start, -1, -1);
        out.is_sim = is_sim;
        if (!w.intransit) {
          SimRank(w, options, flow, world, world, out);
          return;
        }
        mpimini::Comm group = world.Split(is_sim ? 0 : 1, world.Rank());
        if (is_sim) {
          SimRank(w, options, flow, group, world, out);
        } else {
          EndpointRank(w, options, group, world, out);
        }
      });
  std::int64_t done = 0;
  for (const RankOut& r : rep.ranks) done = std::max(done, r.done);
  rep.wall = done - t0;
  for (const mpimini::RankMetrics& m : run.ranks) {
    rep.peak_by_category.push_back(m.peak_by_category);
  }

  // Output checks, counted as operations next to the analysis executions.
  for (const RankOut& r : rep.ranks) {
    rep.ops += r.ops;
    rep.failed += r.failed;
    if (r.failed > 0 && rep.check_error.empty()) {
      rep.check_error = "an analysis execution returned false";
    }
  }
  CheckImages(w, options.out_dir, rep);
  const RankOut& sim0 = rep.ranks[0];
  Check(rep, std::isfinite(sim0.diagnostic),
        w.intransit ? "Nusselt number not finite" : "kinetic energy not finite");
  Check(rep, sim0.max_divergence < DivergenceTolerance(w),
        "max divergence " + std::to_string(sim0.max_divergence) +
            " over tolerance");
  if (w.intransit) {
    const RankOut& endpoint = rep.ranks.back();
    Check(rep, endpoint.steps_received == w.Triggers(),
          "SST steps delivered " + std::to_string(endpoint.steps_received) +
              ", sent " + std::to_string(w.Triggers()));
  }
  return rep;
}

}  // namespace perfbench
