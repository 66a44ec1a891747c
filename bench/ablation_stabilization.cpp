// Ablation A5: the solver stabilization choices DESIGN.md calls out.
//
//  * modal filter  — NekRS's explicit high-mode filter; without it the
//    under-resolved supercritical RBC run blows up (aliasing instability).
//  * dealiasing    — 3/2-rule over-integration of the convection term;
//    an alternative/additional stabilization with its own per-step cost.
//  * pressure projection — solution-projection initial guesses; pure
//    performance (iteration counts), no physics change.
//  * pressure p-multigrid — the pMG preconditioner against plain
//    Jacobi-PCG; pure performance again.
//
// One table per knob: stability horizon and final diagnostics for the
// filter/dealias matrix, pressure iteration totals for projection and pMG.

#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "mpimini/runtime.hpp"

namespace {

struct RunOutcome {
  bool stable = true;
  int blowup_step = -1;
  double kinetic_energy = 0.0;
  double nusselt = 0.0;
  int pressure_iterations = 0;
  double step_seconds = 0.0;
};

RunOutcome RunRbc(double filter_strength, bool dealias,
                  int projection_vectors, int steps,
                  bool pressure_multigrid = true) {
  RunOutcome outcome;
  mpimini::Runtime::Run(1, [&](mpimini::Comm& comm) {
    occamini::Device device(occamini::Backend::kSimGpu);
    nekrs::cases::RayleighBenardOptions o;
    o.elements = {4, 2, 3};
    o.order = 4;
    o.rayleigh = 1e5;
    o.dt = 5e-3;
    nekrs::FlowConfig config = nekrs::cases::RayleighBenardCase(o);
    config.filter_strength = filter_strength;
    config.dealias = dealias;
    config.pressure_projection_vectors = projection_vectors;
    config.pressure_multigrid = pressure_multigrid;
    nekrs::FlowSolver solver(comm, device, config);

    instrument::WallTimer timer;
    for (int s = 0; s < steps; ++s) {
      solver.Step();
      outcome.pressure_iterations += solver.LastStats().pressure_iterations;
      const double ke = solver.KineticEnergy();
      if (!std::isfinite(ke) || ke > 1e4) {
        outcome.stable = false;
        outcome.blowup_step = solver.StepNumber();
        break;
      }
    }
    outcome.step_seconds = timer.Elapsed() / steps;
    outcome.kinetic_energy = solver.KineticEnergy();
    outcome.nusselt = solver.NusseltNumber();
  });
  return outcome;
}

std::string Fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

}  // namespace

int main() {
  constexpr int kSteps = 400;

  instrument::Table stability(
      "Ablation A5a: stabilization matrix (RBC Ra=1e5, order 4, 400 steps)");
  stability.SetHeader({"filter", "dealias", "outcome", "KE", "Nu",
                       "step_ms"});
  struct Case {
    double filter;
    bool dealias;
  };
  for (const Case c : {Case{0.0, false}, Case{0.1, false}, Case{0.0, true},
                       Case{0.1, true}}) {
    const RunOutcome r = RunRbc(c.filter, c.dealias, 8, kSteps);
    stability.AddRow(
        {c.filter > 0 ? "on" : "off", c.dealias ? "on" : "off",
         r.stable ? "stable"
                  : "blow-up@" + std::to_string(r.blowup_step),
         r.stable ? Fmt(r.kinetic_energy) : "-",
         r.stable ? Fmt(r.nusselt) : "-", Fmt(r.step_seconds * 1e3)});
  }
  stability.Print(std::cout);

  instrument::Table projection(
      "Ablation A5b: pressure solution projection (stable configuration, "
      "150 steps)");
  projection.SetHeader({"projection_vectors", "pressure_iters", "step_ms"});
  for (int vectors : {0, 2, 8}) {
    const RunOutcome r = RunRbc(0.1, false, vectors, 150);
    projection.AddRow({std::to_string(vectors),
                       std::to_string(r.pressure_iterations),
                       Fmt(r.step_seconds * 1e3)});
  }
  projection.Print(std::cout);

  instrument::Table multigrid(
      "Ablation A5c: pressure p-multigrid (stable configuration, 150 steps)");
  multigrid.SetHeader({"pmg", "pressure_iters", "step_ms"});
  for (const bool on : {false, true}) {
    const RunOutcome r = RunRbc(0.1, false, 8, 150, on);
    multigrid.AddRow({on ? "on" : "off", std::to_string(r.pressure_iterations),
                      Fmt(r.step_seconds * 1e3)});
  }
  multigrid.Print(std::cout);
  return 0;
}
