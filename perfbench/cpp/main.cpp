// End-to-end benchmark program: runs one workload repeatedly for a fixed
// measuring interval, checks every run's outputs, and prints the
// end-to-end metrics (or, traced, the per-layer metrics) as the last line
// of standard output.  perfbench/README.md documents the metrics.
//
//   nsm_perfbench --workload NAME --seed N --seconds S --trace 0|1 --out DIR
//                 [--tiny] [--probe-fail] [--dump-case]
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "workload.hpp"

namespace {

using perfbench::RankOut;
using perfbench::RepResult;
using perfbench::Workload;

// ---- statistics ------------------------------------------------------

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// The highest of a fixed set of percentiles that still has at least ten
/// samples beyond it (nearest rank), with its value and the sample count.
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
  std::size_t samples = 0;
};

Tail HighestTail(std::vector<double> v) {
  Tail tail;
  tail.samples = v.size();
  std::sort(v.begin(), v.end());
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    const std::size_t n = v.size();
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    if (rank == 0 || n - rank < 10) continue;
    tail.percentile = p;
    tail.value = v[rank - 1];
    return tail;
  }
  return tail;
}

double Ms(std::int64_t ns) { return static_cast<double>(ns) * 1e-6; }

void Append(std::vector<double>& to, const std::vector<std::int64_t>& ns) {
  for (std::int64_t v : ns) to.push_back(Ms(v));
}

double Sum(const std::vector<std::int64_t>& ns) {
  double total = 0.0;
  for (std::int64_t v : ns) total += static_cast<double>(v);
  return total;
}

// ---- JSON ------------------------------------------------------------

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += Quote(metrics[i].name) + ": {\"value\": " + Num(metrics[i].value) +
           ", \"unit\": " + Quote(metrics[i].unit) + "}";
  }
  return out + "}";
}

// ---- host fingerprint ------------------------------------------------

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string model = brand;
    const auto first = model.find_first_not_of(' ');
    const auto last = model.find_last_not_of(' ');
    if (first != std::string::npos) return model.substr(first, last - first + 1);
  }
#endif
  return "unknown";
}

std::string HostJson() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int nproc =
      sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  return "{\"nproc\": " + std::to_string(nproc) +
         ", \"cpu_model\": " + Quote(CpuModel()) +
         ", \"compiler\": " + Quote(compiler) +
         ", \"build_type\": " + Quote(NSM_PERFBENCH_BUILD_TYPE) + "}";
}

// ---- per-run reductions ----------------------------------------------

std::vector<const RankOut*> SimRanks(const RepResult& rep) {
  std::vector<const RankOut*> out;
  for (const RankOut& r : rep.ranks) {
    if (r.is_sim) out.push_back(&r);
  }
  return out;
}

/// The rank whose end probe marks a trigger's final image: sim rank 0 in
/// situ, the endpoint's group rank 0 in transit.
const RankOut& ImageRank(const Workload& w, const RepResult& rep) {
  return w.intransit ? rep.ranks.back() : rep.ranks.front();
}

double SetupSeconds(const RepResult& rep) {
  std::int64_t last = 0;
  for (const RankOut* r : SimRanks(rep)) last = std::max(last, r->first_step_end);
  return static_cast<double>(last - rep.t0) * 1e-9;
}

std::vector<double> StepToImageMs(const Workload& w, const RepResult& rep) {
  std::vector<double> out;
  const std::map<int, std::int64_t>& step_end = rep.ranks.front().step_end;
  for (const perfbench::ProbeAnalysis::Hit& hit : ImageRank(w, rep).end_hits) {
    auto found = step_end.find(hit.step);
    if (found != step_end.end()) out.push_back(Ms(hit.ns - found->second));
  }
  return out;
}

double MaxOverSim(const RepResult& rep, std::int64_t RankOut::*field) {
  std::int64_t best = 0;
  for (const RankOut* r : SimRanks(rep)) best = std::max(best, r->*field);
  return Ms(best);
}

/// Durations of the rank's probe brackets (begin to end probe per trigger).
void AppendBrackets(std::vector<double>& to, const RankOut& r) {
  const std::size_t n = std::min(r.begin_hits.size(), r.end_hits.size());
  for (std::size_t i = 0; i < n; ++i) {
    to.push_back(Ms(r.end_hits[i].ns - r.begin_hits[i].ns));
  }
}

/// Exact per-trigger counters of one run: d2h bytes and copies summed over
/// sim ranks, image bytes, and SST raw/wire bytes summed over sim ranks.
struct Counters {
  double d2h_bytes = 0, d2h_copies = 0, image_bytes = 0, raw_bytes = 0,
         wire_bytes = 0;
  bool operator==(const Counters&) const = default;
};

Counters PerTrigger(const Workload& w, const RepResult& rep) {
  Counters c;
  for (const RankOut* r : SimRanks(rep)) {
    c.d2h_bytes += static_cast<double>(r->d2h_bytes);
    c.d2h_copies += static_cast<double>(r->d2h_copies);
    c.raw_bytes += static_cast<double>(r->raw_bytes);
    c.wire_bytes += static_cast<double>(r->wire_bytes);
  }
  c.image_bytes = static_cast<double>(ImageRank(w, rep).image_bytes);
  const double t = w.Triggers();
  c.d2h_bytes /= t;
  c.d2h_copies /= t;
  c.image_bytes /= t;
  c.raw_bytes /= t;
  c.wire_bytes /= t;
  return c;
}

double PeakCategoryMb(const RepResult& rep, const std::string& category) {
  std::size_t best = 0;
  for (std::size_t r = 0; r < rep.ranks.size(); ++r) {
    if (!rep.ranks[r].is_sim) continue;
    auto found = rep.peak_by_category[r].find(category);
    if (found != rep.peak_by_category[r].end()) {
      best = std::max(best, found->second);
    }
  }
  return static_cast<double>(best) * 1e-6;
}

double HostPeakMb(const RepResult& rep) {
  std::size_t best = 0;
  for (const RankOut* r : SimRanks(rep)) best = std::max(best, r->host_peak);
  return static_cast<double>(best) * 1e-6;
}

// ---- trace output ----------------------------------------------------

/// Self time per span name: duration minus the time its children cover
/// (children of one span never overlap), summed over the given runs.
std::map<std::string, double> SelfMs(const std::vector<const RepResult*>& reps) {
  std::map<std::string, double> self;
  auto lane_self = [&](const perfbench::Lane& lane) {
    const std::vector<perfbench::Span>& spans = lane.Spans();
    std::vector<std::int64_t> child(spans.size(), 0);
    for (const perfbench::Span& s : spans) {
      if (s.parent >= 0) {
        child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      self[spans[i].name] += Ms(spans[i].end - spans[i].start - child[i]);
    }
  };
  for (const RepResult* rep : reps) {
    for (const RankOut& r : rep->ranks) {
      lane_self(r.lane);
      lane_self(r.worker_lane);
    }
  }
  for (auto& [name, ms] : self) ms /= static_cast<double>(reps.size());
  return self;
}

bool WriteTrace(const std::string& path, const Workload& w,
                const std::vector<const RepResult*>& reps) {
  std::ofstream out(path);
  out << "{\"workload\": " << Quote(w.name) << ", \"spans\": [\n";
  bool first = true;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    for (const RankOut& r : reps[i]->ranks) {
      for (const perfbench::Lane* lane : {&r.lane, &r.worker_lane}) {
        for (const perfbench::Span& s : lane->Spans()) {
          out << (first ? "" : ",\n") << "{\"run\": " << i
              << ", \"lane\": " << Quote(lane->Name())
              << ", \"name\": " << Quote(s.name)
              << ", \"start_ns\": " << s.start << ", \"end_ns\": " << s.end
              << ", \"parent\": " << s.parent << ", \"step\": " << s.step
              << "}";
          first = false;
        }
      }
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// ---- command line ----------------------------------------------------

struct Args {
  std::string workload;
  unsigned seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string out = ".bench_build/out";
  bool tiny = false;
  bool probe_fail = false;
  bool dump_case = false;
};

[[noreturn]] void Usage(const std::string& error) {
  std::cerr << "nsm_perfbench: " << error << "\n"
            << "usage: nsm_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out DIR] [--tiny] [--probe-fail] "
               "[--dump-case]\nworkloads:";
  for (const std::string& name : perfbench::WorkloadNames()) {
    std::cerr << " " << name;
  }
  std::cerr << "\n";
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        args.workload = value();
      } else if (arg == "--seed") {
        args.seed = static_cast<unsigned>(std::stoull(value()));
      } else if (arg == "--seconds") {
        args.seconds = std::stod(value());
      } else if (arg == "--trace") {
        args.trace = std::stoi(value()) != 0;
      } else if (arg == "--out") {
        args.out = value();
      } else if (arg == "--tiny") {
        args.tiny = true;
      } else if (arg == "--probe-fail") {
        args.probe_fail = true;
      } else if (arg == "--dump-case") {
        args.dump_case = true;
      } else {
        Usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      Usage("bad value for " + arg);
    }
  }
  if (args.seconds < 0.0 || !std::isfinite(args.seconds)) {
    Usage("--seconds must be >= 0");
  }
  return args;
}

/// Everything the seed may reach: the case a workload runs and its XML.
/// The seed test diffs two of these.
void DumpCase(const Workload& w, unsigned seed) {
  const nekrs::FlowConfig flow = perfbench::FlowFor(w, seed);
  std::ostringstream o;
  o << "{\"workload\": " << Quote(w.name) << ", \"steps\": " << w.steps
    << ", \"frequency\": " << w.frequency << ", \"sim_ranks\": "
    << w.sim_ranks << ", \"sim_xml\": "
    << Quote(perfbench::SimXml(w, "OUT", true, false))
    << ", \"endpoint_xml\": "
    << Quote(w.intransit ? perfbench::EndpointXml("OUT", true, false) : "")
    << ", \"mesh\": [" << flow.mesh.order;
  for (int e : flow.mesh.elements) o << ", " << e;
  for (double l : flow.mesh.length) o << ", " << Num(l);
  o << ", " << flow.mesh.partition_axis << "], \"physics\": ["
    << Num(flow.dt) << ", " << Num(flow.viscosity) << ", "
    << Num(flow.conductivity) << ", " << Num(flow.buoyancy) << ", "
    << Num(flow.filter_strength) << ", " << flow.filter_modes << ", "
    << flow.pressure_multigrid << ", " << Num(flow.pressure_tol) << "]";
  if (!w.intransit) {
    const nekrs::cases::PebbleBedOptions pb = perfbench::PebbleBedOptions(seed);
    const nekrs::cases::PebbleLayout layout = nekrs::cases::MakePebbleLayout(pb);
    o << ", \"pebble_options\": [" << pb.pebble_count << ", "
      << Num(pb.pebble_radius) << ", " << Num(pb.drag) << ", "
      << Num(pb.heating) << ", " << Num(pb.driving_force) << "]"
      << ", \"pebble_radius\": " << Num(layout.radius)
      << ", \"pebble_centers\": [";
    for (std::size_t i = 0; i < layout.centers.size(); ++i) {
      const auto& c = layout.centers[i];
      o << (i ? ", " : "") << "[" << Num(c[0]) << ", " << Num(c[1]) << ", "
        << Num(c[2]) << "]";
    }
    o << "]";
  }
  o << "}";
  std::cout << o.str() << "\n";
}

int Run(const Args& args) {
  const Workload* found = perfbench::FindWorkload(args.workload, args.tiny);
  if (found == nullptr) Usage("unknown workload '" + args.workload + "'");
  const Workload& w = *found;
  if (args.dump_case) {
    DumpCase(w, args.seed);
    return 0;
  }
  namespace fs = std::filesystem;
  fs::create_directories(args.out);

  // Run 0 is the no-probe reference for the non-perturbation check; traced
  // mode alternates traced and untraced runs for trace.overhead_share.
  // A run that would end past the interval is not started, so the
  // process takes about --seconds whatever the run length.
  const std::size_t min_runs = args.trace ? 3 : 2;
  std::vector<RepResult> reps;
  const std::int64_t start = perfbench::NowNs();
  std::int64_t longest = 0;
  while (reps.size() < min_runs ||
         static_cast<double>(perfbench::NowNs() - start + longest) * 1e-9 <
             args.seconds) {
    const std::int64_t rep_start = perfbench::NowNs();
    perfbench::RepOptions options;
    options.seed = args.seed;
    options.out_dir = (fs::path(args.out) / "images").string();
    options.probes = !reps.empty();
    options.probe_fail = args.probe_fail;
    options.trace = args.trace && reps.size() % 2 == 1;
    reps.push_back(perfbench::RunRep(w, options));
    longest = std::max(longest, perfbench::NowNs() - rep_start);
  }

  long ops = 0, failed = 0;
  std::string check_error;
  for (const RepResult& rep : reps) {
    ops += rep.ops;
    failed += rep.failed;
    if (check_error.empty()) check_error = rep.check_error;
  }
  // Non-perturbation: the probes change no exact counter.
  const Counters reference = PerTrigger(w, reps.front());
  for (std::size_t i = 1; i < reps.size(); ++i) {
    ++ops;
    if (!(PerTrigger(w, reps[i]) == reference)) {
      ++failed;
      if (check_error.empty()) {
        check_error = "run " + std::to_string(i) +
                      ": counters differ from the no-probe reference run";
      }
    }
  }

  std::vector<const RepResult*> traced, untraced, probed;
  for (const RepResult& rep : reps) {
    (rep.traced ? traced : untraced).push_back(&rep);
    if (rep.probes) probed.push_back(&rep);
  }

  // Run 0 also warms the process (first-touch pages, lazy set-up), so the
  // timings come from the probed runs only.
  std::vector<double> setup, tts, sim_step, step_to_image, peak;
  for (const RepResult* rep : probed) {
    setup.push_back(SetupSeconds(*rep));
    tts.push_back(static_cast<double>(rep->wall) * 1e-9);
    peak.push_back(HostPeakMb(*rep));
    for (const RankOut* r : SimRanks(*rep)) Append(sim_step, r->iterations);
    for (double v : StepToImageMs(w, *rep)) step_to_image.push_back(v);
  }
  double max_divergence = 0.0;
  for (const RepResult& rep : reps) {
    max_divergence = std::max(max_divergence, rep.ranks.front().max_divergence);
  }
  const double failed_share =
      static_cast<double>(failed) / static_cast<double>(std::max(1L, ops));

  // Detail line: host fingerprint, tails with sample counts, failures.
  {
    std::ostringstream d;
    d << "{\"host\": " << HostJson() << ", \"workload\": " << Quote(w.name)
      << ", \"seed\": " << args.seed << ", \"runs\": " << reps.size()
      << ", \"failed_ops_share\": " << Num(failed_share)
      << ", \"check_error\": " << Quote(check_error)
      << ", \"max_divergence\": " << Num(max_divergence)
      << ", \"" << (w.intransit ? "nusselt" : "kinetic_energy")
      << "\": " << Num(reps.back().ranks.front().diagnostic)
      << ", \"time_to_solution_s_per_run\": [";
    for (std::size_t i = 0; i < tts.size(); ++i) {
      d << (i ? ", " : "") << Num(tts[i]);
    }
    d << "], \"tails\": {";
    const std::pair<const char*, const std::vector<double>*> series[] = {
        {"setup_s", &setup},
        {"time_to_solution_s", &tts},
        {"sim_step_ms", &sim_step},
        {"step_to_image_ms", &step_to_image}};
    bool first = true;
    for (const auto& [name, values] : series) {
      const Tail t = HighestTail(*values);
      d << (first ? "" : ", ") << Quote(name) << ": {\"samples\": "
        << t.samples << ", \"median\": " << Num(Median(*values))
        << ", \"percentile\": " << Num(t.percentile)
        << ", \"value\": " << Num(t.value) << "}";
      first = false;
    }
    d << "}";
    if (!traced.empty()) {
      d << ", \"self_ms_per_run\": {";
      first = true;
      for (const auto& [name, ms] : SelfMs(traced)) {
        d << (first ? "" : ", ") << Quote(name) << ": " << Num(ms);
        first = false;
      }
      d << "}";
    }
    d << "}";
    std::cout << d.str() << "\n";
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", Median(setup), "s"},
        {"time_to_solution_s", Median(tts), "s"},
        {"sim_step_p50_ms", Median(sim_step), "ms"},
        {"step_to_image_p50_ms", Median(step_to_image), "ms"},
        {"sim_host_peak_mb", Median(peak), "MB"},
        {"ok_ops_share", 1.0 - failed_share, "share"},
    };
  } else {
    const std::string trace_path = (fs::path(args.out) / "trace.json").string();
    if (!WriteTrace(trace_path, w, traced)) {
      std::cerr << "nsm_perfbench: cannot write " << trace_path << "\n";
      return 1;
    }
    std::vector<double> spawn, wait_share, construct, first_step, bridge_ctor,
        finalize, step_ms, update_trigger, update_idle, catalyst, adios,
        recv_wait, endpoint_exec, busy, staging, marshal, coverage, traced_tts,
        untraced_tts;
    double pressure = 0, velocity = 0, scalar = 0, steps = 0;
    for (const RepResult* rep : untraced) {
      if (!rep->probes) continue;  // the warm-up run
      untraced_tts.push_back(static_cast<double>(rep->wall) * 1e-9);
    }
    for (const RepResult* rep : traced) {
      traced_tts.push_back(static_cast<double>(rep->wall) * 1e-9);
      std::int64_t spawned = 0;
      for (const RankOut& r : rep->ranks) {
        spawned = std::max(spawned, r.body_start - rep->t0);
      }
      spawn.push_back(Ms(spawned));
      construct.push_back(MaxOverSim(*rep, &RankOut::solver_construct));
      first_step.push_back(MaxOverSim(*rep, &RankOut::first_step));
      bridge_ctor.push_back(MaxOverSim(*rep, &RankOut::bridge_construct));
      finalize.push_back(MaxOverSim(*rep, &RankOut::finalize));
      staging.push_back(PeakCategoryMb(*rep, "staging"));
      marshal.push_back(PeakCategoryMb(*rep, "marshal"));
      double wait = 0, covered = 0, loop = 0;
      const std::vector<const RankOut*> sims = SimRanks(*rep);
      for (const RankOut* r : sims) {
        const double wall = static_cast<double>(r->loop_wall) * 1e-9;
        wait += 1.0 - r->loop_busy_seconds / wall;
        Append(step_ms, r->step_ns);
        Append(update_trigger, r->update_trigger_ns);
        Append(update_idle, r->update_idle_ns);
        covered += Sum(r->step_ns) + Sum(r->update_trigger_ns) +
                   Sum(r->update_idle_ns);
        loop += static_cast<double>(r->loop_wall);
        if (w.intransit) AppendBrackets(adios, *r);
      }
      wait_share.push_back(wait / static_cast<double>(sims.size()));
      coverage.push_back(covered / loop);
      const RankOut& sim0 = *sims.front();
      pressure += static_cast<double>(sim0.pressure_iters);
      velocity += static_cast<double>(sim0.velocity_iters);
      scalar += static_cast<double>(sim0.scalar_iters);
      steps += w.steps;
      AppendBrackets(catalyst, ImageRank(w, *rep));
      if (w.intransit) {
        const RankOut& endpoint = rep->ranks.back();
        Append(recv_wait, endpoint.recv_wait_ns);
        Append(endpoint_exec, endpoint.execute_ns);
        busy.push_back(Sum(endpoint.execute_ns) /
                       static_cast<double>(endpoint.loop_wall));
      }
    }
    const Counters c = PerTrigger(w, *traced.front());
    metrics = {
        {"mpimini.spawn_ms", Median(spawn), "ms"},
        {"mpimini.sim_wait_share", Median(wait_share), "share"},
        {"nekrs.construct_ms", Median(construct), "ms"},
        {"nekrs.first_step_ms", Median(first_step), "ms"},
        {"nekrs.step_p50_ms", Median(step_ms), "ms"},
        {"nekrs.pressure_iters", pressure / steps, "count"},
        {"nekrs.velocity_iters", velocity / steps, "count"},
        {"nekrs.scalar_iters", scalar / steps, "count"},
        {"bridge.construct_ms", Median(bridge_ctor), "ms"},
        {"bridge.update_trigger_p50_ms", Median(update_trigger), "ms"},
        {"bridge.update_idle_p50_ms", Median(update_idle), "ms"},
        {"bridge.finalize_ms", Median(finalize), "ms"},
        {"occamini.d2h_mb_per_trigger", c.d2h_bytes * 1e-6, "MB"},
        {"occamini.d2h_copies_per_trigger", c.d2h_copies, "count"},
        {"catalyst.execute_p50_ms", Median(catalyst), "ms"},
        {"catalyst.image_kb_per_trigger", c.image_bytes * 1e-3, "kB"},
        {"adios.execute_p50_ms", Median(adios), "ms"},
        {"sst.raw_kb_per_trigger", c.raw_bytes * 1e-3, "kB"},
        {"sst.wire_kb_per_trigger", c.wire_bytes * 1e-3, "kB"},
        {"endpoint.recv_wait_p50_ms", Median(recv_wait), "ms"},
        {"endpoint.execute_p50_ms", Median(endpoint_exec), "ms"},
        {"endpoint.busy_share", Median(busy), "share"},
        {"mem.staging_peak_mb", Median(staging), "MB"},
        {"mem.marshal_peak_mb", Median(marshal), "MB"},
        {"coverage.sim_loop", Median(coverage), "share"},
        {"trace.overhead_share", Median(traced_tts) / Median(untraced_tts) - 1.0,
         "share"},
    };
  }
  std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
            << ", \"attempted\": " << ops << ", \"failed\": " << failed
            << ", \"metrics\": " << MetricsJson(metrics) << "}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  try {
    return Run(args);
  } catch (const std::exception& e) {
    std::cerr << "nsm_perfbench: " << e.what() << "\n";
    return 1;
  }
}
