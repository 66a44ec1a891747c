// Solver-heavy smoke: pressure-solve wall time and CG iteration counts on
// the pebble-bed stand-in, with and without the p-multigrid preconditioner
// stack (Chebyshev V-cycle + direct coarse solve).
//
// fig2/fig5 route much of their time through I/O, staging, and rendering,
// so a regression in the elliptic hot path — the fused Laplacian kernels,
// the smoother, the coarse solve — can hide inside their headroom.  This
// bench isolates solver.pressure and solver.step and emits BENCH_solver.json
// for the compare_runs gate: iteration counts are deterministic counters,
// timings get the usual noisy-CI headroom.

#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "mpimini/runtime.hpp"
#include "nekrs/flow_solver.hpp"

namespace {

struct SolveOutcome {
  double pressure_seconds = 0.0;  // solver.pressure span, summed over ranks
  double step_seconds = 0.0;      // solver.step span, summed over ranks
  long pressure_iterations = 0;   // summed over steps (rank-identical)
  long velocity_iterations = 0;
};

SolveOutcome RunCase(int nranks, int steps, bool multigrid) {
  SolveOutcome outcome;
  mpimini::RunSettings settings;
  settings.trace = true;
  const mpimini::RunResult result =
      mpimini::Runtime::Run(nranks, settings, [&](mpimini::Comm& comm) {
        occamini::Device device(occamini::Backend::kSimGpu);
        nekrs::FlowConfig config = bench::PebbleBedBenchCase();
        config.pressure_multigrid = multigrid;
        nekrs::FlowSolver solver(comm, device, config);
        long p_iters = 0, v_iters = 0;
        for (int s = 0; s < steps; ++s) {
          solver.Step();
          p_iters += solver.LastStats().pressure_iterations;
          v_iters += solver.LastStats().velocity_iterations;
        }
        if (comm.Rank() == 0) {
          outcome.pressure_iterations = p_iters;
          outcome.velocity_iterations = v_iters;
        }
      });
  const instrument::TelemetrySummary summary =
      instrument::Summarize(result.TracerPointers());
  outcome.pressure_seconds = summary.SpanTotalSeconds("solver.pressure");
  outcome.step_seconds = summary.SpanTotalSeconds("solver.step");
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::ParseBenchArgs(argc, argv);
  const int kSteps = args.smoke ? 16 : 48;
  const std::vector<int> rank_counts = bench::SweepRankCounts(args);

  instrument::BenchReport report;
  report.bench = "solver";
  report.config = args.smoke ? "smoke" : "full";

  instrument::Table table("Solver smoke: pressure hot path (pb146 stand-in, " +
                          std::to_string(kSteps) + " steps)");
  table.SetHeader({"ranks", "pmg", "p_iters", "v_iters", "pressure_s",
                   "step_s"});

  for (int ranks : rank_counts) {
    for (const bool multigrid : {false, true}) {
      const SolveOutcome r = RunCase(ranks, kSteps, multigrid);
      const std::string key = std::string("solver.") +
                              (multigrid ? "pmg" : "nomg") + ".r" +
                              std::to_string(ranks);
      report.metrics[key + ".pressure_iterations"] =
          static_cast<double>(r.pressure_iterations);
      report.metrics[key + ".velocity_iterations"] =
          static_cast<double>(r.velocity_iterations);
      report.metrics[key + ".pressure_seconds"] = r.pressure_seconds;
      report.metrics[key + ".step_seconds"] = r.step_seconds;
      table.AddRow({std::to_string(ranks), multigrid ? "on" : "off",
                    std::to_string(r.pressure_iterations),
                    std::to_string(r.velocity_iterations),
                    instrument::FormatSeconds(r.pressure_seconds),
                    instrument::FormatSeconds(r.step_seconds)});
    }
  }
  table.Print(std::cout);

  return bench::WriteBenchReportOrWarn(args, report) ? 0 : 1;
}
