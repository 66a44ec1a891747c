#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "mpimini/runtime.hpp"
#include "nekrs/cases.hpp"
#include "nekrs/flow_solver.hpp"
#include "nekrs/helmholtz.hpp"
#include "nekrs/multigrid.hpp"
#include "occamini/device.hpp"

namespace {

using mpimini::Comm;
using mpimini::Runtime;
using nekrs::FlowConfig;
using nekrs::FlowSolver;
using nekrs::HelmholtzSolver;

// ---- Helmholtz solver -----------------------------------------------------

class HelmholtzRankTest : public ::testing::TestWithParam<int> {};

TEST_P(HelmholtzRankTest, ManufacturedSolutionDirichlet) {
  // Solve (A + B) u = f with u = sin(pi x) sin(pi y) sin(pi z) on the unit
  // cube with homogeneous Dirichlet BCs; f = (3 pi^2 + 1) u.
  const int nranks = GetParam();
  Runtime::Run(nranks, [](Comm& comm) {
    using std::numbers::pi;
    sem::BoxMeshSpec spec;
    spec.order = 6;
    spec.elements = {2, 2, std::max(2, comm.Size())};
    sem::BoxMesh mesh(spec, comm.Rank(), comm.Size());
    const sem::GllRule rule = sem::MakeGllRule(spec.order);
    sem::ElementOperators ops(rule, mesh);
    std::vector<std::int64_t> gids(mesh.NumLocalDofs());
    mesh.FillGlobalIds(gids);
    sem::GatherScatter gs(comm, gids);
    HelmholtzSolver solver(comm, ops, gs);

    const std::size_t n = mesh.NumLocalDofs();
    std::vector<double> x(n), y(n), z(n), exact(n), rhs(n), mask(n), u(n, 0.0);
    mesh.FillCoordinates(rule, x, y, z);
    mesh.FillDirichletMask({true, true, true, true, true, true}, mask);
    auto massd = ops.MassDiag();
    for (std::size_t i = 0; i < n; ++i) {
      exact[i] = std::sin(pi * x[i]) * std::sin(pi * y[i]) *
                 std::sin(pi * z[i]);
      rhs[i] = massd[i] * (3.0 * pi * pi + 1.0) * exact[i];
    }

    HelmholtzSolver::Options options;
    options.h1 = 1.0;
    options.h0 = 1.0;
    options.tolerance = 1e-10;
    options.max_iterations = 2000;
    auto result = solver.Solve(options, rhs, u, mask);
    EXPECT_TRUE(result.converged);

    double max_err = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      max_err = std::max(max_err, std::abs(u[i] - exact[i]));
    }
    max_err = comm.AllReduceValue(max_err, mpimini::Op::kMax);
    // Spectral accuracy at order 6 with 2 elements/direction.
    EXPECT_LT(max_err, 2e-4);
  });
}

TEST_P(HelmholtzRankTest, PoissonPeriodicWithMeanRemoval) {
  // -lap(u) = f on the fully periodic cube [0,1]^3 with
  // u = cos(2 pi x), f = 4 pi^2 cos(2 pi x); singular system handled by
  // mean removal.
  const int nranks = GetParam();
  Runtime::Run(nranks, [](Comm& comm) {
    using std::numbers::pi;
    sem::BoxMeshSpec spec;
    spec.order = 6;
    spec.elements = {2, 2, std::max(2, comm.Size())};
    spec.periodic = {true, true, true};
    sem::BoxMesh mesh(spec, comm.Rank(), comm.Size());
    const sem::GllRule rule = sem::MakeGllRule(spec.order);
    sem::ElementOperators ops(rule, mesh);
    std::vector<std::int64_t> gids(mesh.NumLocalDofs());
    mesh.FillGlobalIds(gids);
    sem::GatherScatter gs(comm, gids);
    HelmholtzSolver solver(comm, ops, gs);

    const std::size_t n = mesh.NumLocalDofs();
    std::vector<double> x(n), y(n), z(n), rhs(n), mask(n, 1.0), u(n, 0.0);
    mesh.FillCoordinates(rule, x, y, z);
    auto massd = ops.MassDiag();
    for (std::size_t i = 0; i < n; ++i) {
      rhs[i] = massd[i] * 4.0 * pi * pi * std::cos(2.0 * pi * x[i]);
    }
    HelmholtzSolver::Options options;
    options.h1 = 1.0;
    options.h0 = 0.0;
    options.tolerance = 1e-10;
    options.max_iterations = 2000;
    options.remove_mean = true;
    auto result = solver.Solve(options, rhs, u, mask);
    EXPECT_TRUE(result.converged);

    double max_err = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      max_err = std::max(max_err, std::abs(u[i] - std::cos(2.0 * pi * x[i])));
    }
    max_err = comm.AllReduceValue(max_err, mpimini::Op::kMax);
    EXPECT_LT(max_err, 5e-4);
  });
}

INSTANTIATE_TEST_SUITE_P(Ranks, HelmholtzRankTest, ::testing::Values(1, 2));

TEST(HelmholtzTest, ZeroRhsConvergesImmediately) {
  Runtime::Run(1, [](Comm& comm) {
    sem::BoxMeshSpec spec;
    spec.order = 3;
    spec.elements = {2, 2, 2};
    sem::BoxMesh mesh(spec, 0, 1);
    const sem::GllRule rule = sem::MakeGllRule(spec.order);
    sem::ElementOperators ops(rule, mesh);
    std::vector<std::int64_t> gids(mesh.NumLocalDofs());
    mesh.FillGlobalIds(gids);
    sem::GatherScatter gs(comm, gids);
    HelmholtzSolver solver(comm, ops, gs);
    std::vector<double> rhs(mesh.NumLocalDofs(), 0.0), mask(rhs.size(), 1.0),
        u(rhs.size(), 0.0);
    auto result = solver.Solve({.h1 = 1.0, .h0 = 1.0}, rhs, u, mask);
    EXPECT_TRUE(result.converged);
    EXPECT_EQ(result.iterations, 0);
  });
}

// ---- Taylor-Green verification ---------------------------------------------

class TaylorGreenRankTest : public ::testing::TestWithParam<int> {};

TEST_P(TaylorGreenRankTest, KineticEnergyDecaysAtAnalyticRate) {
  const int nranks = GetParam();
  Runtime::Run(nranks, [](Comm& comm) {
    occamini::Device device(occamini::Backend::kSimGpu);
    nekrs::cases::TaylorGreenOptions options;
    options.elements = {3, 3, std::max(2, comm.Size())};
    options.order = 5;
    options.viscosity = 2e-2;
    options.dt = 5e-3;
    FlowSolver solver(comm, device, nekrs::cases::TaylorGreenCase(options));

    const double ke0 = solver.KineticEnergy();
    EXPECT_NEAR(ke0, nekrs::cases::TaylorGreenKineticEnergy(options.viscosity,
                                                            0.0),
                ke0 * 1e-6);

    const int steps = 40;
    for (int s = 0; s < steps; ++s) solver.Step();
    const double t = solver.Time();
    const double ke = solver.KineticEnergy();
    const double exact =
        nekrs::cases::TaylorGreenKineticEnergy(options.viscosity, t);
    EXPECT_NEAR(ke, exact, exact * 0.02)
        << "t=" << t << " ke=" << ke << " exact=" << exact;
  });
}

TEST_P(TaylorGreenRankTest, StaysDivergenceFree) {
  const int nranks = GetParam();
  Runtime::Run(nranks, [](Comm& comm) {
    occamini::Device device(occamini::Backend::kSimGpu);
    nekrs::cases::TaylorGreenOptions options;
    options.elements = {3, 3, std::max(2, comm.Size())};
    FlowSolver solver(comm, device, nekrs::cases::TaylorGreenCase(options));
    for (int s = 0; s < 10; ++s) solver.Step();
    // The projected field's pointwise divergence stays small relative to the
    // velocity scale (~1) over the spacing (~0.3).
    EXPECT_LT(solver.MaxDivergence(), 0.5);
    EXPECT_GT(solver.KineticEnergy(), 0.0);
  });
}

INSTANTIATE_TEST_SUITE_P(Ranks, TaylorGreenRankTest, ::testing::Values(1, 2));

// ---- Rayleigh-Bénard physics ----------------------------------------------

TEST(RayleighBenardTest, SubcriticalStaysConductive) {
  // Below the critical Rayleigh number (~1708) the seeded convection roll
  // decays: kinetic energy drops and the Nusselt number stays near 1.
  Runtime::Run(1, [](Comm& comm) {
    occamini::Device device(occamini::Backend::kSimGpu);
    nekrs::cases::RayleighBenardOptions options;
    options.elements = {4, 2, 3};
    options.order = 4;
    options.rayleigh = 1000.0;
    options.dt = 5e-3;
    options.perturbation = 0.1;
    FlowSolver solver(comm, device, nekrs::cases::RayleighBenardCase(options));
    for (int s = 0; s < 20; ++s) solver.Step();
    const double ke_early = solver.KineticEnergy();
    for (int s = 0; s < 120; ++s) solver.Step();
    const double ke_late = solver.KineticEnergy();
    EXPECT_LT(ke_late, 0.8 * ke_early);
    EXPECT_NEAR(solver.NusseltNumber(), 1.0, 0.05);
  });
}

TEST(RayleighBenardTest, SupercriticalConvects) {
  // Well above critical Ra the seeded roll is sustained/amplified and
  // transports heat: kinetic energy does not collapse and Nu > 1.
  Runtime::Run(1, [](Comm& comm) {
    occamini::Device device(occamini::Backend::kSimGpu);
    nekrs::cases::RayleighBenardOptions options;
    options.elements = {4, 2, 3};
    options.order = 4;
    options.rayleigh = 1e5;
    options.dt = 5e-3;
    options.perturbation = 0.1;
    FlowSolver solver(comm, device, nekrs::cases::RayleighBenardCase(options));
    const double ke0 = solver.KineticEnergy();
    for (int s = 0; s < 200; ++s) solver.Step();
    EXPECT_GT(solver.KineticEnergy(), 0.5 * ke0);
    EXPECT_GT(solver.NusseltNumber(), 1.05);
  });
}

// ---- Pebble bed -----------------------------------------------------------

TEST(PebbleBedTest, LayoutIsDeterministicAndInsideDomain) {
  nekrs::cases::PebbleBedOptions options;
  options.pebble_count = 146;
  auto layout_a = nekrs::cases::MakePebbleLayout(options);
  auto layout_b = nekrs::cases::MakePebbleLayout(options);
  ASSERT_EQ(layout_a.centers.size(), 146u);
  EXPECT_GT(layout_a.radius, 0.0);
  for (std::size_t i = 0; i < layout_a.centers.size(); ++i) {
    for (int d = 0; d < 3; ++d) {
      EXPECT_DOUBLE_EQ(layout_a.centers[i][static_cast<std::size_t>(d)],
                       layout_b.centers[i][static_cast<std::size_t>(d)]);
      EXPECT_GE(layout_a.centers[i][static_cast<std::size_t>(d)],
                layout_a.radius * 0.5);
      EXPECT_LE(layout_a.centers[i][static_cast<std::size_t>(d)],
                1.0 - layout_a.radius * 0.5);
    }
  }
}

TEST(PebbleBedTest, FlowDevelopsAndPebblesBlockIt) {
  Runtime::Run(1, [](Comm& comm) {
    occamini::Device device(occamini::Backend::kSimGpu);
    nekrs::cases::PebbleBedOptions options;
    options.elements = {3, 3, 3};
    options.order = 4;
    options.pebble_count = 8;
    options.dt = 1e-3;
    FlowSolver solver(comm, device, nekrs::cases::PebbleBedCase(options));
    for (int s = 0; s < 50; ++s) solver.Step();
    // The driving force produces through-flow...
    auto w = std::span<const double>(solver.VelocityZ().DevicePtr(),
                                     solver.VelocityZ().size());
    const double bulk = solver.VolumeIntegral(w);
    EXPECT_GT(bulk, 0.01);
    // ...and the heated pebbles deposit heat into the fluid.
    auto T = std::span<const double>(solver.Temperature().DevicePtr(),
                                     solver.Temperature().size());
    EXPECT_GT(solver.VolumeIntegral(T), 0.0);
  });
}

TEST(PebbleBedTest, DragReducesBulkVelocity) {
  Runtime::Run(1, [](Comm& comm) {
    occamini::Device device(occamini::Backend::kSimGpu);
    nekrs::cases::PebbleBedOptions options;
    options.elements = {3, 3, 3};
    options.order = 4;
    options.pebble_count = 8;
    options.dt = 1e-3;

    auto run_bulk = [&](double drag) {
      auto opts = options;
      opts.drag = drag;
      FlowSolver solver(comm, device, nekrs::cases::PebbleBedCase(opts));
      for (int s = 0; s < 40; ++s) solver.Step();
      auto w = std::span<const double>(solver.VelocityZ().DevicePtr(),
                                       solver.VelocityZ().size());
      return solver.VolumeIntegral(w);
    };
    EXPECT_LT(run_bulk(2e3), run_bulk(0.0));
  });
}

// ---- Restart --------------------------------------------------------------

TEST(RestartTest, LoadStateReproducesFields) {
  Runtime::Run(1, [](Comm& comm) {
    occamini::Device device(occamini::Backend::kSimGpu);
    nekrs::cases::TaylorGreenOptions options;
    options.elements = {2, 2, 2};
    options.order = 4;
    FlowSolver a(comm, device, nekrs::cases::TaylorGreenCase(options));
    for (int s = 0; s < 5; ++s) a.Step();

    const std::size_t n = a.VelocityX().size();
    std::vector<double> u(n), v(n), w(n), p(n), T(n);
    a.VelocityX().CopyToHost(u);
    a.VelocityY().CopyToHost(v);
    a.VelocityZ().CopyToHost(w);
    a.Pressure().CopyToHost(p);
    a.Temperature().CopyToHost(T);

    FlowSolver b(comm, device, nekrs::cases::TaylorGreenCase(options));
    b.LoadState(u, v, w, p, T, a.StepNumber());
    EXPECT_EQ(b.StepNumber(), 5);
    const double ke_a = a.KineticEnergy();
    const double ke_b = b.KineticEnergy();
    EXPECT_NEAR(ke_a, ke_b, 1e-12 * std::abs(ke_a));
  });
}

TEST(SolverDiagnosticsTest, CflPositiveAndStatsPopulated) {
  Runtime::Run(1, [](Comm& comm) {
    occamini::Device device(occamini::Backend::kSimGpu);
    nekrs::cases::TaylorGreenOptions options;
    options.elements = {2, 2, 2};
    options.order = 4;
    FlowSolver solver(comm, device, nekrs::cases::TaylorGreenCase(options));
    solver.Step();
    EXPECT_GT(solver.CflNumber(), 0.0);
    EXPECT_GT(solver.LastStats().velocity_iterations, 0);
    EXPECT_GT(solver.LastStats().pressure_iterations, 0);
    EXPECT_EQ(solver.StepNumber(), 1);
    EXPECT_DOUBLE_EQ(solver.Time(), options.dt);
    // Kernel launches were recorded through the device abstraction.
    EXPECT_GE(device.Kernels().at("pressure").launches, 1u);
  });
}


TEST(DealiasedSolverTest, TaylorGreenDecayWithOverIntegration) {
  Runtime::Run(1, [](Comm& comm) {
    occamini::Device device(occamini::Backend::kSimGpu);
    nekrs::cases::TaylorGreenOptions options;
    options.elements = {3, 3, 2};
    options.order = 5;
    options.viscosity = 2e-2;
    options.dt = 5e-3;
    nekrs::FlowConfig config = nekrs::cases::TaylorGreenCase(options);
    config.dealias = true;
    FlowSolver solver(comm, device, config);
    for (int s = 0; s < 30; ++s) solver.Step();
    const double exact = nekrs::cases::TaylorGreenKineticEnergy(
        options.viscosity, solver.Time());
    EXPECT_NEAR(solver.KineticEnergy(), exact, exact * 0.02);
  });
}


// ---- Solution projection ----------------------------------------------------

TEST(ProjectionTest, RepeatedIdenticalSolveConvergesInstantly) {
  // After one recorded solve, an identical right-hand side must be solved
  // entirely by the projection (zero CG iterations).
  Runtime::Run(1, [](Comm& comm) {
    sem::BoxMeshSpec spec;
    spec.order = 4;
    spec.elements = {2, 2, 2};
    sem::BoxMesh mesh(spec, 0, 1);
    const sem::GllRule rule = sem::MakeGllRule(spec.order);
    sem::ElementOperators ops(rule, mesh);
    std::vector<std::int64_t> gids(mesh.NumLocalDofs());
    mesh.FillGlobalIds(gids);
    sem::GatherScatter gs(comm, gids);
    HelmholtzSolver solver(comm, ops, gs);
    HelmholtzSolver::Projection projection(mesh.NumLocalDofs(), 4);

    const std::size_t n = mesh.NumLocalDofs();
    std::vector<double> rhs(n), mask(n), x(n, 0.0);
    mesh.FillDirichletMask({true, true, true, true, true, true}, mask);
    auto massd = ops.MassDiag();
    std::vector<double> xc(n), yc(n), zc(n);
    mesh.FillCoordinates(rule, xc, yc, zc);
    for (std::size_t i = 0; i < n; ++i) {
      rhs[i] = massd[i] * xc[i] * (1.0 - xc[i]);
    }
    HelmholtzSolver::Options options;
    options.h1 = 1.0;
    options.h0 = 1.0;
    options.tolerance = 1e-9;
    auto first = solver.Solve(options, rhs, x, mask, &projection);
    EXPECT_TRUE(first.converged);
    EXPECT_GT(first.iterations, 0);
    EXPECT_EQ(projection.Size(), 1);

    std::vector<double> y(n, 0.0);
    auto second = solver.Solve(options, rhs, y, mask, &projection);
    EXPECT_TRUE(second.converged);
    EXPECT_EQ(second.iterations, 0);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(y[i], x[i], 1e-7);
  });
}

TEST(ProjectionTest, ReducesPressureIterationsInTimeStepping) {
  // Same RBC run with and without pressure projection: identical physics,
  // materially fewer pressure CG iterations.
  Runtime::Run(1, [](Comm& comm) {
    auto run = [&](int vectors) {
      occamini::Device device(occamini::Backend::kSimGpu);
      nekrs::cases::RayleighBenardOptions o;
      o.elements = {4, 2, 3};
      o.order = 4;
      o.rayleigh = 1e5;
      o.dt = 5e-3;
      nekrs::FlowConfig config = nekrs::cases::RayleighBenardCase(o);
      config.pressure_projection_vectors = vectors;
      FlowSolver solver(comm, device, config);
      int iterations = 0;
      for (int s = 0; s < 30; ++s) {
        solver.Step();
        iterations += solver.LastStats().pressure_iterations;
      }
      return std::pair<int, double>{iterations, solver.KineticEnergy()};
    };
    auto [with_proj, ke_with] = run(8);
    auto [without, ke_without] = run(0);
    EXPECT_LT(with_proj, 0.9 * without)
        << "projection " << with_proj << " vs plain " << without;
    EXPECT_NEAR(ke_with, ke_without, 1e-4 * std::abs(ke_without));
  });
}

TEST(ProjectionTest, BasisRestartsWhenFull) {
  Runtime::Run(1, [](Comm& comm) {
    sem::BoxMeshSpec spec;
    spec.order = 3;
    spec.elements = {2, 2, 2};
    sem::BoxMesh mesh(spec, 0, 1);
    const sem::GllRule rule = sem::MakeGllRule(spec.order);
    sem::ElementOperators ops(rule, mesh);
    std::vector<std::int64_t> gids(mesh.NumLocalDofs());
    mesh.FillGlobalIds(gids);
    sem::GatherScatter gs(comm, gids);
    HelmholtzSolver solver(comm, ops, gs);
    HelmholtzSolver::Projection projection(mesh.NumLocalDofs(), 2);

    const std::size_t n = mesh.NumLocalDofs();
    std::vector<double> mask(n), xc(n), yc(n), zc(n);
    mesh.FillDirichletMask({true, true, true, true, true, true}, mask);
    mesh.FillCoordinates(rule, xc, yc, zc);
    auto massd = ops.MassDiag();
    HelmholtzSolver::Options options;
    options.h1 = 1.0;
    options.h0 = 1.0;
    options.tolerance = 1e-9;
    for (int k = 1; k <= 4; ++k) {
      std::vector<double> rhs(n), x(n, 0.0);
      for (std::size_t i = 0; i < n; ++i) {
        rhs[i] = massd[i] * std::sin(k * xc[i]) * yc[i];
      }
      auto result = solver.Solve(options, rhs, x, mask, &projection);
      EXPECT_TRUE(result.converged);
      EXPECT_LE(projection.Size(), 2);
    }
    projection.Clear();
    EXPECT_EQ(projection.Size(), 0);
  });
}


// ---- CFL-adaptive time stepping ---------------------------------------------

TEST(AdaptiveDtTest, ConstantDtStillMatchesAnalyticDecay) {
  // Regression guard: the variable-step coefficient formulas must reduce to
  // the classic BDF2/EXT2 set at fixed dt (rho = 1).
  Runtime::Run(1, [](Comm& comm) {
    occamini::Device device(occamini::Backend::kSimGpu);
    nekrs::cases::TaylorGreenOptions options;
    options.elements = {3, 3, 2};
    options.order = 5;
    options.viscosity = 2e-2;
    options.dt = 5e-3;
    FlowSolver solver(comm, device, nekrs::cases::TaylorGreenCase(options));
    for (int s = 0; s < 40; ++s) solver.Step();
    const double exact = nekrs::cases::TaylorGreenKineticEnergy(
        options.viscosity, solver.Time());
    EXPECT_NEAR(solver.KineticEnergy(), exact, exact * 0.02);
    EXPECT_NEAR(solver.Time(), 40 * options.dt, 1e-12);
  });
}

TEST(AdaptiveDtTest, DtGrowsTowardTargetCfl) {
  // TG velocities decay, so with a CFL target the step size must grow; the
  // realized CFL approaches the target and the decay stays accurate.
  Runtime::Run(1, [](Comm& comm) {
    occamini::Device device(occamini::Backend::kSimGpu);
    nekrs::cases::TaylorGreenOptions options;
    options.elements = {3, 3, 2};
    options.order = 5;
    options.viscosity = 2e-2;
    options.dt = 2e-3;  // starts well below the target CFL
    nekrs::FlowConfig config = nekrs::cases::TaylorGreenCase(options);
    config.target_cfl = 0.2;
    config.max_dt = 0.05;
    FlowSolver solver(comm, device, config);
    const double dt0 = solver.Dt();
    for (int s = 0; s < 60; ++s) solver.Step();
    EXPECT_GT(solver.Dt(), 2.0 * dt0);
    EXPECT_NEAR(solver.CflNumber(), 0.2, 0.08);
    const double exact = nekrs::cases::TaylorGreenKineticEnergy(
        options.viscosity, solver.Time());
    EXPECT_NEAR(solver.KineticEnergy(), exact, exact * 0.05);
  });
}

TEST(AdaptiveDtTest, DtRespectsBounds) {
  Runtime::Run(1, [](Comm& comm) {
    occamini::Device device(occamini::Backend::kSimGpu);
    nekrs::cases::TaylorGreenOptions options;
    options.elements = {2, 2, 2};
    options.order = 3;
    options.dt = 1e-3;
    nekrs::FlowConfig config = nekrs::cases::TaylorGreenCase(options);
    config.target_cfl = 10.0;  // would push dt far up
    config.max_dt = 2e-3;      // but the cap wins
    FlowSolver solver(comm, device, config);
    for (int s = 0; s < 20; ++s) solver.Step();
    EXPECT_LE(solver.Dt(), 2e-3 + 1e-15);
  });
}


// ---- p-multigrid ------------------------------------------------------------

class MultigridRankTest : public ::testing::TestWithParam<int> {};

TEST_P(MultigridRankTest, PoissonSolutionMatchesJacobiAndCutsIterations) {
  // Elongated wall-bounded Poisson problem: the long-wavelength error mode
  // that plain Jacobi-CG resolves slowly lives on the coarse (vertex) grid,
  // which is exactly where the pMG coarse correction pays.
  const int nranks = GetParam();
  Runtime::Run(nranks, [](Comm& comm) {
    using std::numbers::pi;
    sem::BoxMeshSpec spec;
    spec.order = 4;
    spec.elements = {2, 2, 6 * std::max(1, comm.Size())};
    spec.length = {1.0, 1.0, 6.0 * comm.Size()};
    sem::BoxMesh mesh(spec, comm.Rank(), comm.Size());
    const sem::GllRule rule = sem::MakeGllRule(spec.order);
    sem::ElementOperators ops(rule, mesh);
    std::vector<std::int64_t> gids(mesh.NumLocalDofs());
    mesh.FillGlobalIds(gids);
    sem::GatherScatter gs(comm, gids);
    HelmholtzSolver solver(comm, ops, gs);

    const std::array<bool, 6> dirichlet{true, true, true, true, true, true};
    nekrs::MultigridPreconditioner::Options mg_options;
    nekrs::MultigridPreconditioner mg(comm, spec, comm.Rank(), comm.Size(),
                                      ops, gs, dirichlet, mg_options);

    const std::size_t n = mesh.NumLocalDofs();
    std::vector<double> x(n), y(n), z(n), rhs(n), mask(n);
    mesh.FillCoordinates(rule, x, y, z);
    mesh.FillDirichletMask(dirichlet, mask);
    auto massd = ops.MassDiag();
    const double lz = spec.length[2];
    for (std::size_t i = 0; i < n; ++i) {
      // Lowest eigenmode of the box: maximally coarse-grid-shaped error.
      rhs[i] = massd[i] * std::sin(pi * x[i]) * std::sin(pi * y[i]) *
               std::sin(pi * z[i] / lz);
    }

    HelmholtzSolver::Options options;
    options.h1 = 1.0;
    options.h0 = 0.0;
    options.tolerance = 1e-9;
    options.max_iterations = 4000;

    std::vector<double> jac(n, 0.0);
    auto plain = solver.Solve(options, rhs, jac, mask);
    ASSERT_TRUE(plain.converged);

    std::vector<double> pmg(n, 0.0);
    options.preconditioner = &mg;
    auto accel = solver.Solve(options, rhs, pmg, mask);
    ASSERT_TRUE(accel.converged);

    // Same solution...
    double max_diff = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      max_diff = std::max(max_diff, std::abs(jac[i] - pmg[i]));
    }
    max_diff = comm.AllReduceValue(max_diff, mpimini::Op::kMax);
    EXPECT_LT(max_diff, 1e-6);
    // ...in materially fewer CG iterations (the reduction deepens with
    // refinement; at RBC production settings it is ~2.5-3x).
    EXPECT_LT(accel.iterations, 0.8 * plain.iterations)
        << "pMG " << accel.iterations << " vs Jacobi " << plain.iterations;
  });
}

INSTANTIATE_TEST_SUITE_P(Ranks, MultigridRankTest, ::testing::Values(1, 2));

TEST(MultigridTest, DirichletHelmholtzAccelerated) {
  Runtime::Run(1, [](Comm& comm) {
    using std::numbers::pi;
    sem::BoxMeshSpec spec;
    spec.order = 6;
    spec.elements = {3, 3, 3};
    sem::BoxMesh mesh(spec, 0, 1);
    const sem::GllRule rule = sem::MakeGllRule(spec.order);
    sem::ElementOperators ops(rule, mesh);
    std::vector<std::int64_t> gids(mesh.NumLocalDofs());
    mesh.FillGlobalIds(gids);
    sem::GatherScatter gs(comm, gids);
    HelmholtzSolver solver(comm, ops, gs);

    const std::array<bool, 6> all_dirichlet{true, true, true,
                                            true, true, true};
    nekrs::MultigridPreconditioner::Options mg_options;
    nekrs::MultigridPreconditioner mg(comm, spec, 0, 1, ops, gs,
                                      all_dirichlet, mg_options);

    const std::size_t n = mesh.NumLocalDofs();
    std::vector<double> x(n), y(n), z(n), rhs(n), mask(n), u(n, 0.0);
    mesh.FillCoordinates(rule, x, y, z);
    mesh.FillDirichletMask(all_dirichlet, mask);
    auto massd = ops.MassDiag();
    for (std::size_t i = 0; i < n; ++i) {
      const double exact = std::sin(pi * x[i]) * std::sin(pi * y[i]) *
                           std::sin(pi * z[i]);
      rhs[i] = massd[i] * (3.0 * pi * pi + 1.0) * exact;
    }
    HelmholtzSolver::Options options;
    options.h1 = 1.0;
    options.h0 = 1.0;
    options.tolerance = 1e-9;
    options.preconditioner = &mg;
    auto result = solver.Solve(options, rhs, u, mask);
    EXPECT_TRUE(result.converged);
    double max_err = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double exact = std::sin(pi * x[i]) * std::sin(pi * y[i]) *
                           std::sin(pi * z[i]);
      max_err = std::max(max_err, std::abs(u[i] - exact));
    }
    EXPECT_LT(max_err, 1e-4);
  });
}

TEST(MultigridTest, FullLadderMatchesJacobiReference) {
  // Order 8 builds the full 8 -> 4 -> 2 -> 1 ladder.  The cycle is a fixed
  // linear operation and therefore a valid CG preconditioner: the
  // preconditioned Helmholtz solve (mixed Dirichlet/Neumann faces) must
  // land on the tight Jacobi-PCG solution in a fraction of its iterations.
  Runtime::Run(1, [](Comm& comm) {
    using std::numbers::pi;
    sem::BoxMeshSpec spec;
    spec.order = 8;
    spec.elements = {2, 2, 4};
    spec.length = {1.0, 1.0, 4.0};
    sem::BoxMesh mesh(spec, 0, 1);
    const sem::GllRule rule = sem::MakeGllRule(spec.order);
    sem::ElementOperators ops(rule, mesh);
    std::vector<std::int64_t> gids(mesh.NumLocalDofs());
    mesh.FillGlobalIds(gids);
    sem::GatherScatter gs(comm, gids);
    HelmholtzSolver solver(comm, ops, gs);

    const std::array<bool, 6> dirichlet{true, true, false, false, true, false};
    using MG = nekrs::MultigridPreconditioner;
    MG mg(comm, spec, 0, 1, ops, gs, dirichlet, MG::Options{});
    ASSERT_EQ(mg.NumLevels(), 4);
    EXPECT_EQ(mg.LevelOrder(0), 8);
    EXPECT_EQ(mg.LevelOrder(1), 4);
    EXPECT_EQ(mg.LevelOrder(2), 2);
    EXPECT_EQ(mg.LevelOrder(3), 1);

    const std::size_t n = mesh.NumLocalDofs();
    std::vector<double> x(n), y(n), z(n), rhs(n), mask(n);
    mesh.FillCoordinates(rule, x, y, z);
    mesh.FillDirichletMask(dirichlet, mask);
    auto massd = ops.MassDiag();
    for (std::size_t i = 0; i < n; ++i) {
      rhs[i] = massd[i] * std::sin(pi * x[i]) * std::cos(pi * y[i]) *
               std::cos(0.5 * pi * z[i] / spec.length[2]);
    }
    HelmholtzSolver::Options options;
    options.h1 = 1.0;
    options.h0 = 0.1;
    options.tolerance = 1e-9;
    options.max_iterations = 4000;

    std::vector<double> reference(n, 0.0);
    auto plain = solver.Solve(options, rhs, reference, mask);
    ASSERT_TRUE(plain.converged);

    std::vector<double> u(n, 0.0);
    options.preconditioner = &mg;
    auto result = solver.Solve(options, rhs, u, mask);
    ASSERT_TRUE(result.converged);
    double max_diff = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      max_diff = std::max(max_diff, std::abs(u[i] - reference[i]));
    }
    EXPECT_LT(max_diff, 1e-6);
    EXPECT_LT(result.iterations, plain.iterations / 4)
        << "pMG " << result.iterations << " vs Jacobi " << plain.iterations;
  });
}

TEST(MultigridTest, ChebyshevBoundsCoverSpectrum) {
  // The Chebyshev polynomial AMPLIFIES modes above its upper eigenvalue
  // bound, so the Lanczos estimate must have converged: a
  // deliberately starved estimate (2 iterations) must come out strictly
  // below the default, and the default within a few percent of a
  // near-exact 200-iteration run.
  Runtime::Run(1, [](Comm& comm) {
    sem::BoxMeshSpec spec;
    spec.order = 4;
    spec.elements = {2, 2, 4};
    sem::BoxMesh mesh(spec, 0, 1);
    const sem::GllRule rule = sem::MakeGllRule(spec.order);
    sem::ElementOperators ops(rule, mesh);
    std::vector<std::int64_t> gids(mesh.NumLocalDofs());
    mesh.FillGlobalIds(gids);
    sem::GatherScatter gs(comm, gids);
    const std::array<bool, 6> dirichlet{true, true, true, true, true, true};

    auto lambda_with = [&](int iterations) {
      nekrs::MultigridPreconditioner::Options mg_options;
      mg_options.lanczos_iterations = iterations;
      nekrs::MultigridPreconditioner mg(comm, spec, 0, 1, ops, gs, dirichlet,
                                        mg_options);
      const std::size_t n = mesh.NumLocalDofs();
      std::vector<double> r(n, 1.0), z(n, 0.0);
      mg.Apply(1.0, 0.0, r, z);  // triggers the bound estimation
      return mg.LevelLambdaMax(0);
    };
    const double starved = lambda_with(2);
    nekrs::MultigridPreconditioner::Options defaults;
    const double at_default = lambda_with(defaults.lanczos_iterations);
    const double converged = lambda_with(200);
    EXPECT_GT(converged, 0.0);
    EXPECT_LT(starved, converged);
    // 1.1x safety margin must cover the true spectral radius.
    EXPECT_GT(1.1 * at_default, converged * 0.999);
  });
}

TEST(MultigridTest, DirectCoarseSolveMatchesIterative) {
  // The coarse level is factored densely (redundant Cholesky) while the
  // global vertex space fits kDirectCoarseMaxDofs and falls back to the
  // coarse Jacobi-CG past it.  On the pure-Neumann pressure problem both
  // cycles must land on the tight Jacobi-PCG solution in fewer iterations.
  using MG = nekrs::MultigridPreconditioner;
  auto check = [](const std::array<int, 3>& elements, bool expect_direct) {
    Runtime::Run(2, [&](Comm& comm) {
      using std::numbers::pi;
      sem::BoxMeshSpec spec;
      spec.order = 2;
      spec.elements = elements;
      spec.length = {1.0 * elements[0], 1.0 * elements[1], 1.0 * elements[2]};
      const std::size_t vertices =
          static_cast<std::size_t>(elements[0] + 1) * (elements[1] + 1) *
          (elements[2] + 1);
      EXPECT_EQ(vertices <= MG::kDirectCoarseMaxDofs, expect_direct);
      sem::BoxMesh mesh(spec, comm.Rank(), comm.Size());
      const sem::GllRule rule = sem::MakeGllRule(spec.order);
      sem::ElementOperators ops(rule, mesh);
      std::vector<std::int64_t> gids(mesh.NumLocalDofs());
      mesh.FillGlobalIds(gids);
      sem::GatherScatter gs(comm, gids);
      HelmholtzSolver solver(comm, ops, gs);

      const std::array<bool, 6> neumann{};
      MG mg(comm, spec, comm.Rank(), comm.Size(), ops, gs, neumann,
            MG::Options{});
      const std::size_t n = mesh.NumLocalDofs();
      std::vector<double> x(n), y(n), z(n), rhs(n), mask(n, 1.0);
      mesh.FillCoordinates(rule, x, y, z);
      auto massd = ops.MassDiag();
      for (std::size_t i = 0; i < n; ++i) {
        // Every mode present: a smooth large-scale part plus a gid-seeded
        // rough part (identical on every copy of a node).
        rhs[i] = massd[i] * (std::cos(pi * x[i] / spec.length[0]) +
                             std::sin(0.7 * static_cast<double>(gids[i])));
      }
      HelmholtzSolver::Options options;
      options.h1 = 1.0;
      options.h0 = 0.0;
      options.tolerance = 1e-9;
      options.relative_tolerance = true;
      options.max_iterations = 4000;
      options.remove_mean = true;

      std::vector<double> reference(n, 0.0);
      auto plain = solver.Solve(options, rhs, reference, mask);
      ASSERT_TRUE(plain.converged);
      std::vector<double> u(n, 0.0);
      options.preconditioner = &mg;
      auto result = solver.Solve(options, rhs, u, mask);
      ASSERT_TRUE(result.converged);
      EXPECT_EQ(mg.DirectCoarseSolve(), expect_direct);

      double max_diff = 0.0, max_ref = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        max_diff = std::max(max_diff, std::abs(u[i] - reference[i]));
        max_ref = std::max(max_ref, std::abs(reference[i]));
      }
      max_diff = comm.AllReduceValue(max_diff, mpimini::Op::kMax);
      max_ref = comm.AllReduceValue(max_ref, mpimini::Op::kMax);
      EXPECT_LT(max_diff, 1e-6 * max_ref);
      EXPECT_LT(result.iterations, plain.iterations / 2)
          << "pMG " << result.iterations << " vs Jacobi " << plain.iterations;
    });
  };
  check({2, 2, 8}, /*expect_direct=*/true);
  check({12, 12, 14}, /*expect_direct=*/false);  // 2535 vertices
}

TEST(MultigridTest, SolverRunsWithPressureMultigridEnabled) {
  Runtime::Run(2, [](Comm& comm) {
    occamini::Device device(occamini::Backend::kSimGpu);
    nekrs::cases::TaylorGreenOptions options;
    options.elements = {3, 3, 2};
    options.order = 5;
    options.viscosity = 2e-2;
    options.dt = 5e-3;
    nekrs::FlowConfig config = nekrs::cases::TaylorGreenCase(options);
    FlowSolver solver(comm, device, config);
    for (int s = 0; s < 20; ++s) solver.Step();
    const double exact = nekrs::cases::TaylorGreenKineticEnergy(
        options.viscosity, solver.Time());
    EXPECT_NEAR(solver.KineticEnergy(), exact, exact * 0.02);
  });
}


TEST(MultigridTest, DefaultConfigPressureSolveIsMultigridFast) {
  // The default FlowConfig preconditions the pressure solve with pMG: on
  // a 2-rank RBC slab it needs a small fraction of the pressure
  // iterations that the Jacobi-PCG path (pressure_multigrid = false) does.
  auto pressure_iterations = [](bool override_to_jacobi) {
    long total = 0;
    Runtime::Run(2, [&](Comm& comm) {
      occamini::Device device(occamini::Backend::kSimGpu);
      nekrs::cases::RayleighBenardOptions options;
      options.elements = {4, 2, 4};
      options.aspect = 1.5;
      FlowConfig config = nekrs::cases::RayleighBenardCase(options);
      if (override_to_jacobi) config.pressure_multigrid = false;
      FlowSolver solver(comm, device, config);
      long sum = 0;
      for (int s = 0; s < 20; ++s) {
        solver.Step();
        sum += solver.LastStats().pressure_iterations;
      }
      if (comm.Rank() == 0) total = sum;
    });
    return total;
  };
  const long by_default = pressure_iterations(false);
  const long jacobi = pressure_iterations(true);
  EXPECT_LE(by_default, 5 * 20) << "default config: " << by_default;
  EXPECT_LT(4 * by_default, jacobi)
      << "default " << by_default << " vs Jacobi " << jacobi;
}

// ---- Kovasznay flow (exact steady Navier-Stokes solution) -------------------

TEST(KovasznayTest, ExactSolutionRemainsSteady) {
  // Initialized at the exact solution with exact inflow/outflow Dirichlet
  // values, the flow must stay (near-)steady: the advection, pressure, and
  // viscous terms must balance. A wrong sign or scaling in any of them
  // drifts or blows up instead.
  Runtime::Run(2, [](Comm& comm) {
    occamini::Device device(occamini::Backend::kSimGpu);
    nekrs::cases::KovasznayOptions o;
    FlowSolver solver(comm, device, nekrs::cases::KovasznayCase(o));

    const std::size_t n = solver.VelocityX().size();
    std::vector<double> x(n), y(n), z(n);
    solver.Mesh().FillCoordinates(solver.Rule(), x, y, z);
    auto max_error = [&] {
      double m = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        double ue, ve;
        nekrs::cases::KovasznayExact(o.reynolds, x[i], y[i], ue, ve);
        m = std::max(m, std::abs(solver.VelocityX().DevicePtr()[i] - ue));
        m = std::max(m, std::abs(solver.VelocityY().DevicePtr()[i] - ve));
      }
      return comm.AllReduceValue(m, mpimini::Op::kMax);
    };

    EXPECT_LT(max_error(), 1e-4);  // spectral accuracy of the IC
    for (int s = 0; s < 150; ++s) solver.Step();
    // Steady within the splitting scheme's O(dt) pressure-boundary error.
    EXPECT_LT(max_error(), 0.05);
  });
}

TEST(KovasznayTest, InhomogeneousBoundaryValuesAreHeld) {
  Runtime::Run(1, [](Comm& comm) {
    occamini::Device device(occamini::Backend::kSimGpu);
    nekrs::cases::KovasznayOptions o;
    o.elements = {4, 2, 1};
    o.order = 4;
    nekrs::FlowConfig config = nekrs::cases::KovasznayCase(o);
    config.filter_strength = 0.05;  // the filter must not erode BC values
    config.filter_modes = 1;
    FlowSolver solver(comm, device, config);

    const std::size_t n = solver.VelocityX().size();
    std::vector<double> x(n), y(n), z(n);
    solver.Mesh().FillCoordinates(solver.Rule(), x, y, z);
    for (int s = 0; s < 20; ++s) solver.Step();
    for (std::size_t i = 0; i < n; ++i) {
      if (x[i] != 0.0 && x[i] != 1.5) continue;
      double ue, ve;
      nekrs::cases::KovasznayExact(o.reynolds, x[i], y[i], ue, ve);
      ASSERT_NEAR(solver.VelocityX().DevicePtr()[i], ue, 1e-12);
      ASSERT_NEAR(solver.VelocityY().DevicePtr()[i], ve, 1e-12);
    }
  });
}

}  // namespace
