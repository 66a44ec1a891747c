#include "nekrs/flow_solver.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "instrument/metrics.hpp"
#include "instrument/tracer.hpp"

namespace nekrs {

namespace {

sem::BoxMesh MakeMesh(const FlowConfig& config, const mpimini::Comm& comm) {
  return sem::BoxMesh(config.mesh, comm.Rank(), comm.Size());
}

std::vector<std::int64_t> MakeGids(const sem::BoxMesh& mesh) {
  std::vector<std::int64_t> gids(mesh.NumLocalDofs());
  mesh.FillGlobalIds(gids);
  return gids;
}

void Copy(std::span<const double> src, std::span<double> dst) {
  std::memcpy(dst.data(), src.data(), src.size_bytes());
}

}  // namespace

FlowSolver::FlowSolver(mpimini::Comm comm, occamini::Device& device,
                       FlowConfig config)
    : comm_(comm),
      device_(device),
      config_(std::move(config)),
      rule_(sem::MakeGllRule(config_.mesh.order)),
      mesh_(MakeMesh(config_, comm_)),
      ops_(rule_, mesh_),
      gs_(comm_, MakeGids(mesh_)),
      helmholtz_(comm_, ops_, gs_),
      n_(mesh_.NumLocalDofs()),
      u_(device, n_, "device"),
      v_(device, n_, "device"),
      w_(device, n_, "device"),
      pr_(device, n_, "device"),
      temp_(device, n_, "device"),
      u1_(device, n_, "device"),
      v1_(device, n_, "device"),
      w1_(device, n_, "device"),
      temp1_(device, n_, "device"),
      nu_(device, n_, "device"),
      nv_(device, n_, "device"),
      nw_(device, n_, "device"),
      nt_(device, n_, "device"),
      nu1_(device, n_, "device"),
      nv1_(device, n_, "device"),
      nw1_(device, n_, "device"),
      nt1_(device, n_, "device"),
      rhs_(device, n_, "device"),
      keep_(device, n_, "device"),
      gx_(device, n_, "device"),
      gy_(device, n_, "device"),
      gz_(device, n_, "device"),
      phi_(device, n_, "device") {
  vel_mask_.resize(n_);
  temp_mask_.resize(n_);
  open_mask_.assign(n_, 1.0);
  mesh_.FillDirichletMask(config_.velocity_dirichlet, vel_mask_);
  mesh_.FillDirichletMask(config_.temperature_dirichlet, temp_mask_);

  // Smallest GLL node spacing, for CFL estimates.
  const auto h = mesh_.ElementSize();
  double min_gap = 2.0;
  for (int i = 0; i + 1 < rule_.NumPoints(); ++i) {
    min_gap = std::min(min_gap,
                       rule_.nodes[static_cast<std::size_t>(i + 1)] -
                           rule_.nodes[static_cast<std::size_t>(i)]);
  }
  min_spacing_ = 0.5 * min_gap * std::min({h[0], h[1], h[2]});

  std::vector<double> x(n_), y(n_), z(n_);
  mesh_.FillCoordinates(rule_, x, y, z);
  if (config_.brinkman) {
    chi_.resize(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      chi_[i] = config_.brinkman(x[i], y[i], z[i]);
    }
  }
  if (config_.heat_source) {
    qsrc_.resize(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      qsrc_[i] = config_.heat_source(x[i], y[i], z[i]);
    }
  }
  if (config_.filter_strength > 0.0) {
    filter_.emplace(rule_, config_.filter_strength,
                    std::min(config_.filter_modes, config_.mesh.order));
  }
  if (config_.dealias) ops_.EnableDealiasing();
  if (config_.pressure_projection_vectors > 0) {
    pressure_projection_.emplace(n_, config_.pressure_projection_vectors);
  }
  if (config_.pressure_multigrid) {
    MultigridPreconditioner::Options mg;
    mg.remove_mean = true;  // the pressure problem is pure Neumann
    mg.smoother = config_.pressure_mg_smoother;
    mg.precision = config_.pressure_mg_precision;
    mg.max_levels = config_.pressure_mg_levels;
    mg.chebyshev_degree = config_.pressure_mg_chebyshev_degree;
    // Direct (redundant dense) coarse solve, the nekRS pairing for pMG;
    // auto-falls back to the coarse CG past the dense-size cap.
    mg.coarse_mode = MultigridPreconditioner::CoarseMode::kDirect;
    pressure_multigrid_.emplace(comm_, config_.mesh, comm_.Rank(),
                                comm_.Size(), ops_, gs_,
                                std::array<bool, 6>{}, mg);
  }
  dt_ = config_.dt;
  dt_prev_ = config_.dt;
  ApplyInitialConditions();
}

void FlowSolver::ApplyInitialConditions() {
  std::vector<double> x(n_), y(n_), z(n_);
  mesh_.FillCoordinates(rule_, x, y, z);
  auto us = Dev(u_);
  auto vs = Dev(v_);
  auto ws = Dev(w_);
  auto ps = Dev(pr_);
  auto ts = Dev(temp_);
  for (std::size_t i = 0; i < n_; ++i) {
    double uu = 0.0, vv = 0.0, ww = 0.0, tt = 0.0;
    if (config_.initial_condition) {
      config_.initial_condition(x[i], y[i], z[i], uu, vv, ww, tt);
    }
    const double lift = config_.velocity_ic_carries_bc ? 1.0 : vel_mask_[i];
    us[i] = uu * lift;
    vs[i] = vv * lift;
    ws[i] = ww * lift;
    ps[i] = 0.0;
    ts[i] = tt;
  }
  // Lift inhomogeneous temperature Dirichlet values on the z faces: masked
  // nodes carry the boundary value for the whole run.
  if (config_.solve_temperature) {
    const double lz = config_.mesh.length[2];
    for (std::size_t i = 0; i < n_; ++i) {
      if (temp_mask_[i] != 0.0) continue;
      if (z[i] < 0.5 * lz && config_.temperature_dirichlet[sem::kZlo]) {
        ts[i] = config_.temperature_zlo;
      } else if (z[i] >= 0.5 * lz && config_.temperature_dirichlet[sem::kZhi]) {
        ts[i] = config_.temperature_zhi;
      }
    }
  }
  Copy(Dev(u_), Dev(u1_));
  Copy(Dev(v_), Dev(v1_));
  Copy(Dev(w_), Dev(w1_));
  Copy(Dev(temp_), Dev(temp1_));
}

void FlowSolver::ComputeExplicitTerms() {
  auto us = Dev(u_);
  auto vs = Dev(v_);
  auto ws = Dev(w_);
  auto ts = Dev(temp_);
  auto scratch = Dev(rhs_);

  struct Component {
    std::span<const double> field;
    std::span<double> out;
    int axis;
  };
  const Component components[3] = {{us, Dev(nu_), 0},
                                   {vs, Dev(nv_), 1},
                                   {ws, Dev(nw_), 2}};
  for (const Component& c : components) {
    if (config_.dealias) {
      ops_.AdvectDealiased(us, vs, ws, c.field, scratch);
    } else {
      ops_.Advect(us, vs, ws, c.field, scratch);
    }
    const double f = config_.body_force[static_cast<std::size_t>(c.axis)];
    for (std::size_t i = 0; i < n_; ++i) {
      c.out[i] = -scratch[i] + f;
    }
  }
  if (config_.buoyancy != 0.0) {
    auto nwv = Dev(nw_);
    for (std::size_t i = 0; i < n_; ++i) {
      nwv[i] += config_.buoyancy * ts[i];
    }
  }
  if (config_.solve_temperature) {
    if (config_.dealias) {
      ops_.AdvectDealiased(us, vs, ws, ts, scratch);
    } else {
      ops_.Advect(us, vs, ws, ts, scratch);
    }
    auto ntv = Dev(nt_);
    for (std::size_t i = 0; i < n_; ++i) {
      double value = -scratch[i];
      if (!qsrc_.empty()) value += qsrc_[i];
      ntv[i] = value;
    }
  }
}

void FlowSolver::Step() {
  // Span taxonomy (see DESIGN.md): solver.step wraps the whole update;
  // the explicit/advective stage, the implicit velocity solves, and the
  // pressure projection each get a child span so telemetry can attribute
  // nearly all of a step's wall time to a named stage.
  instrument::Span step_span("solver.step");
  // Whole-step seconds for the metrics plane (the heartbeat and the
  // straggler detector read them), timed only when a registry is installed.
  instrument::MetricsRegistry* metrics = instrument::CurrentMetrics();
  const std::int64_t step_begin_ns =
      metrics != nullptr ? instrument::Tracer::NowNs() : 0;
  const bool first = (step_ == 0) || first_order_next_;
  first_order_next_ = false;
  instrument::Span advection_span("solver.advection");

  // CFL-adaptive timestep (NekRS targetCFL): nudge dt toward the target,
  // limited to +-25 % per step. Collective (CflNumber reduces).
  if (config_.target_cfl > 0.0 && step_ > 0) {
    const double cfl = CflNumber();  // CFL of the *last* step size
    if (cfl > 0.0) {
      const double scale =
          std::clamp(config_.target_cfl / cfl, 0.75, 1.25);
      dt_ = std::clamp(dt_ * scale, config_.min_dt, config_.max_dt);
    }
  }
  const double dt = dt_;

  // Variable-step BDF2/EXT2 coefficients with ratio rho = dt_n / dt_{n-1}:
  //   du/dt ~ [ (1+2rho)/(1+rho) u^{n+1} - (1+rho) u^n
  //             + rho^2/(1+rho) u^{n-1} ] / dt
  //   N*    ~ (1+rho) N^n - rho N^{n-1}
  // (rho = 1 recovers the constant-step 1.5/2.0/0.5 and 2/-1 sets.)
  const double rho_dt = first ? 1.0 : dt / dt_prev_;
  const double b0 = first ? 1.0 / dt
                          : (1.0 + 2.0 * rho_dt) / (1.0 + rho_dt) / dt;
  const double b1 = first ? 1.0 / dt : (1.0 + rho_dt) / dt;
  const double b2 =
      first ? 0.0 : rho_dt * rho_dt / (1.0 + rho_dt) / dt;
  const double e1 = first ? 1.0 : 1.0 + rho_dt;
  const double e2 = first ? 0.0 : rho_dt;
  stats_ = {};

  // Rotate the explicit-term history, then evaluate N at the current state.
  Copy(Dev(nu_), Dev(nu1_));
  Copy(Dev(nv_), Dev(nv1_));
  Copy(Dev(nw_), Dev(nw1_));
  if (config_.solve_temperature) Copy(Dev(nt_), Dev(nt1_));
  device_.Launch("makef", [&] { ComputeExplicitTerms(); });

  auto mass = ops_.MassDiag();
  // Pressure gradient at step n, shared by all three momentum equations.
  device_.Launch("gradp",
                 [&] { ops_.Gradient(Dev(pr_), Dev(gx_), Dev(gy_), Dev(gz_)); });
  advection_span.End();
  instrument::Span helmholtz_span("solver.helmholtz");

  struct Momentum {
    occamini::Array<double>* field;
    occamini::Array<double>* prev;
    occamini::Array<double>* nc;
    occamini::Array<double>* nc1;
    occamini::Array<double>* gp;
    const char* name;
  };
  Momentum momenta[3] = {{&u_, &u1_, &nu_, &nu1_, &gx_, "velocity_x"},
                         {&v_, &v1_, &nv_, &nv1_, &gy_, "velocity_y"},
                         {&w_, &w1_, &nw_, &nw1_, &gz_, "velocity_z"}};
  for (Momentum& m : momenta) {
    auto field = Dev(*m.field);
    auto prev = Dev(*m.prev);
    auto nc = Dev(*m.nc);
    auto nc1 = Dev(*m.nc1);
    auto gp = Dev(*m.gp);
    auto rhs = Dev(rhs_);
    auto keep = Dev(keep_);
    Copy(field, keep);  // preserve u^n for the history rotation
    device_.Launch("makef_rhs", [&] {
      for (std::size_t i = 0; i < n_; ++i) {
        const double bdf = b1 * field[i] - b2 * prev[i];
        const double next = e1 * nc[i] - e2 * nc1[i];
        rhs[i] = mass[i] * (bdf + next - gp[i]);
      }
    });
    HelmholtzSolver::Options options;
    options.h1 = config_.viscosity;
    options.h0 = b0;
    options.tolerance = config_.velocity_tol;
    options.relative_tolerance = true;
    options.max_iterations = config_.max_iterations;
    HelmholtzResult result;
    device_.Launch(m.name, [&] {
      result = helmholtz_.Solve(options, rhs, field, vel_mask_);
    });
    stats_.velocity_iterations += result.iterations;
    Copy(keep, prev);  // prev <- u^n
  }

  // Brinkman volume penalization, applied as a split-implicit relaxation
  // u* <- u*/(1 + chi/b0): unconditionally stable for any drag coefficient
  // (an explicit -chi*u term would restrict dt to ~1/chi).
  if (!chi_.empty()) {
    device_.Launch("brinkman", [&] {
      auto us = Dev(u_);
      auto vs = Dev(v_);
      auto ws = Dev(w_);
      for (std::size_t i = 0; i < n_; ++i) {
        const double relax = 1.0 / (1.0 + chi_[i] / b0);
        us[i] *= relax;
        vs[i] *= relax;
        ws[i] *= relax;
      }
    });
  }

  helmholtz_span.End();

  // Pressure projection: A phi = -b0 B div(u*), then u -= grad(phi)/b0.
  {
    instrument::Span pressure_span("solver.pressure");
    auto div = Dev(gx_);
    auto rhs = Dev(rhs_);
    device_.Launch("divergence",
                   [&] { ops_.Divergence(Dev(u_), Dev(v_), Dev(w_), div); });
    for (std::size_t i = 0; i < n_; ++i) {
      rhs[i] = -b0 * mass[i] * div[i];
    }
    // Warm start from the previous step's increment: successive pressure
    // increments vary slowly, which slashes CG iterations (NekRS's
    // projection-based initial guess, reduced to one history vector).
    auto phi = Dev(phi_);
    HelmholtzSolver::Options options;
    options.h1 = 1.0;
    options.h0 = 0.0;
    options.tolerance = config_.pressure_tol;
    options.relative_tolerance = true;
    options.max_iterations = config_.max_iterations;
    options.remove_mean = true;
    if (pressure_multigrid_) {
      options.preconditioner = &*pressure_multigrid_;
    }
    HelmholtzResult result;
    device_.Launch("pressure", [&] {
      result = helmholtz_.Solve(options, rhs, phi, open_mask_,
                                pressure_projection_ ? &*pressure_projection_
                                                     : nullptr);
    });
    stats_.pressure_iterations = result.iterations;
    device_.Launch("project", [&] {
      ops_.Gradient(phi, Dev(gx_), Dev(gy_), Dev(gz_));
      auto us = Dev(u_);
      auto vs = Dev(v_);
      auto ws = Dev(w_);
      auto ps = Dev(pr_);
      auto gxv = Dev(gx_);
      auto gyv = Dev(gy_);
      auto gzv = Dev(gz_);
      const double inv_b0 = 1.0 / b0;
      for (std::size_t i = 0; i < n_; ++i) {
        us[i] -= inv_b0 * gxv[i] * vel_mask_[i];
        vs[i] -= inv_b0 * gyv[i] * vel_mask_[i];
        ws[i] -= inv_b0 * gzv[i] * vel_mask_[i];
        ps[i] += phi[i];
      }
    });
  }

  if (config_.solve_temperature) {
    instrument::Span temperature_span("solver.temperature");
    auto field = Dev(temp_);
    auto prev = Dev(temp1_);
    auto nc = Dev(nt_);
    auto nc1 = Dev(nt1_);
    auto rhs = Dev(rhs_);
    auto keep = Dev(keep_);
    Copy(field, keep);
    device_.Launch("makeq_rhs", [&] {
      for (std::size_t i = 0; i < n_; ++i) {
        const double bdf = b1 * field[i] - b2 * prev[i];
        const double next = e1 * nc[i] - e2 * nc1[i];
        rhs[i] = mass[i] * (bdf + next);
      }
    });
    HelmholtzSolver::Options options;
    options.h1 = config_.conductivity;
    options.h0 = b0;
    options.tolerance = config_.scalar_tol;
    options.relative_tolerance = true;
    options.max_iterations = config_.max_iterations;
    HelmholtzResult result;
    device_.Launch("temperature", [&] {
      result = helmholtz_.Solve(options, rhs, field, temp_mask_);
    });
    stats_.temperature_iterations = result.iterations;
    Copy(keep, prev);
  }

  // NekRS-style stabilization: attenuate the top Legendre modes of every
  // prognostic field, then restore C0 continuity by averaging shared nodes.
  if (filter_) {
    instrument::Span filter_span("solver.filter");
    // Filtering + averaging perturbs Dirichlet nodes; hold their (possibly
    // inhomogeneous) boundary values fixed through the filter.
    auto us = Dev(u_);
    auto vs = Dev(v_);
    auto ws = Dev(w_);
    auto ts = Dev(temp_);
    auto keep = Dev(keep_);
    auto rhs = Dev(rhs_);
    auto gxs = Dev(gx_);
    auto gys = Dev(gy_);
    std::copy(us.begin(), us.end(), keep.begin());
    std::copy(vs.begin(), vs.end(), rhs.begin());
    std::copy(ws.begin(), ws.end(), gxs.begin());
    std::copy(ts.begin(), ts.end(), gys.begin());
    device_.Launch("filter", [&] {
      filter_->Apply(us);
      filter_->Apply(vs);
      filter_->Apply(ws);
      gs_.Average(us);
      gs_.Average(vs);
      gs_.Average(ws);
      if (config_.solve_temperature) {
        filter_->Apply(ts);
        gs_.Average(ts);
      }
    });
    for (std::size_t i = 0; i < n_; ++i) {
      if (vel_mask_[i] == 0.0) {
        us[i] = keep[i];
        vs[i] = rhs[i];
        ws[i] = gxs[i];
      }
      if (temp_mask_[i] == 0.0) ts[i] = gys[i];
    }
  }

  time_ += dt;
  dt_prev_ = dt;
  ++step_;
  if (metrics != nullptr) {
    const double step_seconds =
        static_cast<double>(instrument::Tracer::NowNs() - step_begin_ns) *
        1e-9;
    metrics->Add("solver.steps", 1.0);
    metrics->Add("solver.step_seconds", step_seconds);
    metrics->Observe("solver.step_seconds", step_seconds);
  }
}

double FlowSolver::KineticEnergy() {
  auto us = Dev(u_);
  auto vs = Dev(v_);
  auto ws = Dev(w_);
  auto mass = ops_.MassDiag();
  double local = 0.0;
  for (std::size_t i = 0; i < n_; ++i) {
    local += 0.5 * mass[i] *
             (us[i] * us[i] + vs[i] * vs[i] + ws[i] * ws[i]);
  }
  return comm_.AllReduceValue(local, mpimini::Op::kSum);
}

double FlowSolver::MaxDivergence() {
  auto div = Dev(gx_);
  ops_.Divergence(Dev(u_), Dev(v_), Dev(w_), div);
  double local = 0.0;
  for (double d : div) local = std::max(local, std::abs(d));
  return comm_.AllReduceValue(local, mpimini::Op::kMax);
}

double FlowSolver::VolumeIntegral(std::span<const double> f) {
  auto mass = ops_.MassDiag();
  double local = 0.0;
  for (std::size_t i = 0; i < n_; ++i) local += mass[i] * f[i];
  return comm_.AllReduceValue(local, mpimini::Op::kSum);
}

double FlowSolver::NusseltNumber() {
  auto ws = Dev(w_);
  auto ts = Dev(temp_);
  auto mass = ops_.MassDiag();
  double local = 0.0;
  double vol = 0.0;
  for (std::size_t i = 0; i < n_; ++i) {
    local += mass[i] * ws[i] * ts[i];
    vol += mass[i];
  }
  const double wt = comm_.AllReduceValue(local, mpimini::Op::kSum);
  const double volume = comm_.AllReduceValue(vol, mpimini::Op::kSum);
  // Nu = 1 + <w T> / (kappa dT / H); the case setups use dT = H = 1.
  return 1.0 + (wt / volume) / config_.conductivity;
}

double FlowSolver::CflNumber() {
  auto us = Dev(u_);
  auto vs = Dev(v_);
  auto ws = Dev(w_);
  double local = 0.0;
  for (std::size_t i = 0; i < n_; ++i) {
    const double speed = std::sqrt(us[i] * us[i] + vs[i] * vs[i] +
                                   ws[i] * ws[i]);
    local = std::max(local, speed);
  }
  const double vmax = comm_.AllReduceValue(local, mpimini::Op::kMax);
  return vmax * dt_prev_ / min_spacing_;
}

void FlowSolver::ComputeVorticity(std::span<double> wx, std::span<double> wy,
                                  std::span<double> wz) {
  // curl(u): wx = dw/dy - dv/dz, wy = du/dz - dw/dx, wz = dv/dx - du/dy.
  ops_.Gradient(Dev(w_), Dev(gx_), Dev(gy_), Dev(gz_));
  for (std::size_t i = 0; i < n_; ++i) {
    wx[i] = gy_.DevicePtr()[i];
    wy[i] = -gx_.DevicePtr()[i];
  }
  ops_.Gradient(Dev(v_), Dev(gx_), Dev(gy_), Dev(gz_));
  for (std::size_t i = 0; i < n_; ++i) {
    wx[i] -= gz_.DevicePtr()[i];
    wz[i] = gx_.DevicePtr()[i];
  }
  ops_.Gradient(Dev(u_), Dev(gx_), Dev(gy_), Dev(gz_));
  for (std::size_t i = 0; i < n_; ++i) {
    wy[i] += gz_.DevicePtr()[i];
    wz[i] -= gy_.DevicePtr()[i];
  }
  gs_.Average(wx);
  gs_.Average(wy);
  gs_.Average(wz);
}

void FlowSolver::ComputeQCriterion(std::span<double> q) {
  // Q = -0.5 (ux^2 + vy^2 + wz^2) - (uy vx + uz wx + vz wy).
  auto keep = Dev(keep_);  // u_y, later v_z
  auto rhs = Dev(rhs_);    // u_z
  ops_.Gradient(Dev(u_), Dev(gx_), Dev(gy_), Dev(gz_));
  for (std::size_t i = 0; i < n_; ++i) {
    const double ux = gx_.DevicePtr()[i];
    q[i] = -0.5 * ux * ux;
    keep[i] = gy_.DevicePtr()[i];
    rhs[i] = gz_.DevicePtr()[i];
  }
  ops_.Gradient(Dev(v_), Dev(gx_), Dev(gy_), Dev(gz_));
  for (std::size_t i = 0; i < n_; ++i) {
    const double vy = gy_.DevicePtr()[i];
    q[i] += -0.5 * vy * vy - keep[i] * gx_.DevicePtr()[i];
    keep[i] = gz_.DevicePtr()[i];  // v_z
  }
  ops_.Gradient(Dev(w_), Dev(gx_), Dev(gy_), Dev(gz_));
  for (std::size_t i = 0; i < n_; ++i) {
    const double wz = gz_.DevicePtr()[i];
    q[i] += -0.5 * wz * wz - rhs[i] * gx_.DevicePtr()[i] -
            keep[i] * gy_.DevicePtr()[i];
  }
  gs_.Average(q);
}

void FlowSolver::LoadState(std::span<const double> u, std::span<const double> v,
                           std::span<const double> wz,
                           std::span<const double> p,
                           std::span<const double> T, int step) {
  if (u.size() != n_ || v.size() != n_ || wz.size() != n_ || p.size() != n_ ||
      T.size() != n_) {
    throw std::invalid_argument("nekrs: LoadState size mismatch");
  }
  Copy(u, Dev(u_));
  Copy(v, Dev(v_));
  Copy(wz, Dev(w_));
  Copy(p, Dev(pr_));
  Copy(T, Dev(temp_));
  Copy(Dev(u_), Dev(u1_));
  Copy(Dev(v_), Dev(v1_));
  Copy(Dev(w_), Dev(w1_));
  Copy(Dev(temp_), Dev(temp1_));
  // The multistep history is unknown after a restart; the next step runs
  // first-order (BDF1/EXT1), exactly as NekRS does after reading a
  // checkpoint.
  step_ = step;
  time_ = step * config_.dt;
  dt_ = config_.dt;
  dt_prev_ = config_.dt;
  first_order_next_ = true;
  if (pressure_projection_) pressure_projection_->Clear();
}

}  // namespace nekrs
