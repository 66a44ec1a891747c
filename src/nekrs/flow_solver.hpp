// Incompressible Navier–Stokes + scalar transport on spectral elements:
// the NekRS time-stepping skeleton.
//
//  * semi-implicit splitting: explicit advection/forcing with EXT2
//    extrapolation, BDF2 time derivative, implicit viscous Helmholtz solve,
//    pressure-projection step enforcing the divergence-free constraint;
//  * optional Boussinesq temperature equation (Rayleigh-Bénard);
//  * optional Brinkman volume penalization (immersed pebbles) and a constant
//    body force (channel-like driving);
//  * all fields reside in occamini device memory — the in situ bridge must
//    copy them to the host before building VTK data, exactly the pathway
//    whose cost the paper measures.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <span>

#include "mpimini/comm.hpp"
#include "nekrs/helmholtz.hpp"
#include "nekrs/multigrid.hpp"
#include "occamini/device.hpp"
#include "sem/box_mesh.hpp"
#include "sem/filter.hpp"
#include "sem/gather_scatter.hpp"
#include "sem/operators.hpp"

namespace nekrs {

/// Pointwise initial condition: fills (u,v,w,T) from (x,y,z).
using InitialCondition = std::function<void(double x, double y, double z,
                                            double& u, double& v, double& w,
                                            double& T)>;
/// Time-independent spatial field, e.g. Brinkman drag or heat source.
using ScalarField = std::function<double(double x, double y, double z)>;

struct FlowConfig {
  sem::BoxMeshSpec mesh;
  double dt = 1e-3;
  double viscosity = 1e-2;     ///< momentum diffusivity (Pr in RBC units)
  double conductivity = 1e-2;  ///< scalar diffusivity (1 in RBC units)

  bool solve_temperature = false;
  /// Buoyancy coefficient: adds +buoyancy * T to the z-momentum (Ra*Pr in
  /// the standard nondimensionalization). 0 disables.
  double buoyancy = 0.0;

  std::array<double, 3> body_force = {0.0, 0.0, 0.0};
  ScalarField brinkman;     ///< drag coefficient chi(x) >= 0; null = none
  ScalarField heat_source;  ///< volumetric heating q(x); null = none
  InitialCondition initial_condition;  ///< null = all zero

  /// Dirichlet (no-slip) velocity faces; periodic axes ignore their faces.
  std::array<bool, 6> velocity_dirichlet = {false, false, false,
                                            false, false, false};
  /// When true, the initial condition supplies the (possibly nonzero)
  /// velocity values at Dirichlet nodes, which the masked solves then hold
  /// fixed — inhomogeneous velocity boundary conditions (e.g. inflow).
  /// When false (default) Dirichlet velocity nodes are forced to zero
  /// (no-slip walls).
  bool velocity_ic_carries_bc = false;
  /// Dirichlet temperature faces; values below are applied on z faces.
  std::array<bool, 6> temperature_dirichlet = {false, false, false,
                                               false, false, false};
  double temperature_zlo = 0.0;  ///< T at z=0 when kZlo is Dirichlet
  double temperature_zhi = 0.0;  ///< T at z=Lz when kZhi is Dirichlet

  /// Strength of the per-step modal filter (0 disables). NekRS-style
  /// stabilization for under-resolved runs; see sem::ModalFilter.
  double filter_strength = 0.0;
  int filter_modes = 2;  ///< number of top Legendre modes attenuated

  /// Over-integrate (de-alias) the convection term on a 3/2-rule fine grid
  /// (NekRS's dealiasing option). Costlier per step, removes the aliasing
  /// error of nodal products.
  bool dealias = false;

  /// Number of previous pressure solutions kept for solution-projection
  /// acceleration of the pressure Poisson solve (0 disables). NekRS's
  /// pressure projection, typically a severalfold iteration reduction.
  int pressure_projection_vectors = 8;

  /// Precondition the pressure Poisson solve with p-multigrid (NekRS's pMG
  /// + direct coarse-grid solve; DESIGN.md §3d).  On the pebble bed it cuts
  /// 1560 -> 89 pressure iterations over the 16 `bench/solver_smoke` steps
  /// (EXPERIMENTS.md A5c).  false = the plain Jacobi-PCG that the velocity
  /// and scalar solves use.
  bool pressure_multigrid = true;

  /// When > 0, adapt dt each step toward this advective CFL number
  /// (NekRS's targetCFL): dt changes by at most +-25 % per step and stays
  /// within [min_dt, max_dt]. The multistep coefficients use the proper
  /// variable-step BDF2/EXT2 formulas.
  double target_cfl = 0.0;
  double min_dt = 1e-8;
  double max_dt = 1e-1;

  double velocity_tol = 1e-8;
  double pressure_tol = 1e-6;
  double scalar_tol = 1e-8;
  int max_iterations = 2000;
};

/// Iteration counts of the last Step() (NekRS-style per-step report).
struct StepStats {
  int velocity_iterations = 0;  ///< summed over the three components
  int pressure_iterations = 0;
  int temperature_iterations = 0;
};

class FlowSolver {
 public:
  /// Collective: every rank constructs with the same config.
  FlowSolver(mpimini::Comm comm, occamini::Device& device, FlowConfig config);

  /// Advance one timestep. Collective.
  void Step();

  [[nodiscard]] int StepNumber() const { return step_; }
  [[nodiscard]] double Time() const { return time_; }
  /// Timestep that the *next* Step() will take (fixed unless target_cfl).
  [[nodiscard]] double Dt() const { return dt_; }
  [[nodiscard]] const FlowConfig& Config() const { return config_; }
  [[nodiscard]] const sem::BoxMesh& Mesh() const { return mesh_; }
  [[nodiscard]] const sem::GllRule& Rule() const { return rule_; }
  [[nodiscard]] const sem::ElementOperators& Operators() const { return ops_; }
  [[nodiscard]] const sem::GatherScatter& Gs() const { return gs_; }
  [[nodiscard]] occamini::Device& Device() { return device_; }
  [[nodiscard]] mpimini::Comm& Comm() { return comm_; }
  [[nodiscard]] const StepStats& LastStats() const { return stats_; }

  /// Device-resident solution fields (size NumLocalDofs each).
  occamini::Array<double>& VelocityX() { return u_; }
  occamini::Array<double>& VelocityY() { return v_; }
  occamini::Array<double>& VelocityZ() { return w_; }
  occamini::Array<double>& Pressure() { return pr_; }
  occamini::Array<double>& Temperature() { return temp_; }

  // ---- Diagnostics (collective) -------------------------------------

  /// 0.5 * integral of |u|^2 over the domain.
  double KineticEnergy();
  /// Maximum pointwise |div u| over the domain.
  double MaxDivergence();
  /// Volume integral of an arbitrary nodal field.
  double VolumeIntegral(std::span<const double> f);
  /// Volume-averaged Nusselt number 1 + <w T> (RBC units: kappa=DT=H=1).
  double NusseltNumber();
  /// Advective CFL number of the current velocity field.
  double CflNumber();

  /// Vorticity curl(u) at every node into caller device buffers (pointwise
  /// collocation derivatives, gather-scatter averaged for continuity).
  /// Collective.
  void ComputeVorticity(std::span<double> wx, std::span<double> wy,
                        std::span<double> wz);

  /// Q-criterion (second invariant of grad u): Q = -0.5 du_i/dx_j du_j/dx_i
  /// for incompressible flow; positive values mark vortex cores. Collective.
  void ComputeQCriterion(std::span<double> q);

  /// Restore prognostic fields from a snapshot (restart support). Field
  /// order: u, v, w, p, T. Resets multistep history to first-order.
  void LoadState(std::span<const double> u, std::span<const double> v,
                 std::span<const double> wz, std::span<const double> p,
                 std::span<const double> T, int step);

 private:
  std::span<double> Dev(occamini::Array<double>& a) {
    return {a.DevicePtr(), a.size()};
  }
  std::span<const double> Dev(const occamini::Array<double>& a) const {
    return {a.DevicePtr(), a.size()};
  }

  void ApplyInitialConditions();
  /// Advection + forcing + buoyancy + Brinkman, for all components (and T).
  void ComputeExplicitTerms();

  mpimini::Comm comm_;
  occamini::Device& device_;
  FlowConfig config_;
  sem::GllRule rule_;
  sem::BoxMesh mesh_;
  sem::ElementOperators ops_;
  sem::GatherScatter gs_;
  HelmholtzSolver helmholtz_;
  std::optional<MultigridPreconditioner> pressure_multigrid_;
  std::optional<HelmholtzSolver::Projection> pressure_projection_;
  std::optional<sem::ModalFilter> filter_;
  StepStats stats_;
  int step_ = 0;
  double time_ = 0.0;
  double dt_ = 0.0;       ///< next step size
  double dt_prev_ = 0.0;  ///< previous step size (variable-step BDF2)
  bool first_order_next_ = false;
  std::size_t n_ = 0;  ///< local dofs

  // Masks (host metadata mirrored once; values 0/1).
  std::vector<double> vel_mask_;
  std::vector<double> temp_mask_;
  std::vector<double> open_mask_;  ///< all ones (pressure)

  // Precomputed spatial fields.
  std::vector<double> chi_;   ///< Brinkman drag (empty if unused)
  std::vector<double> qsrc_;  ///< heat source (empty if unused)
  double min_spacing_ = 1.0;  ///< smallest GLL node spacing (CFL)

  // Prognostic fields and histories (device memory).
  occamini::Array<double> u_, v_, w_, pr_, temp_;
  occamini::Array<double> u1_, v1_, w1_, temp1_;      // previous step
  occamini::Array<double> nu_, nv_, nw_, nt_;         // N at step n
  occamini::Array<double> nu1_, nv1_, nw1_, nt1_;     // N at step n-1
  occamini::Array<double> rhs_, keep_, gx_, gy_, gz_;  // scratch
  occamini::Array<double> phi_;  // pressure increment, persisted as the
                                 // next step's warm start (NekRS-style)
};

}  // namespace nekrs
