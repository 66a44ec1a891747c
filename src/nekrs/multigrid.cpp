#include "nekrs/multigrid.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "instrument/metrics.hpp"
#include "instrument/tracer.hpp"
#include "sem/tensor.hpp"

namespace nekrs {

namespace {

sem::BoxMeshSpec LevelSpec(sem::BoxMeshSpec spec, int order) {
  spec.order = order;
  return spec;
}

// Largest eigenvalue of the symmetric tridiagonal matrix with diagonal `a`
// and off-diagonal `b` (b[i] couples i and i + 1): bisection inside the
// Gershgorin interval on the Sturm count, the number of negative pivots of
// the LDL^T factorization of T - x I, which is the number of eigenvalues
// below x.
double LargestEigenvalue(const std::vector<double>& a,
                         const std::vector<double>& b) {
  const std::size_t k = a.size();
  double lo = a[0];
  double hi = a[0];
  for (std::size_t i = 0; i < k; ++i) {
    const double radius = (i > 0 ? std::abs(b[i - 1]) : 0.0) +
                          (i + 1 < k ? std::abs(b[i]) : 0.0);
    lo = std::min(lo, a[i] - radius);
    hi = std::max(hi, a[i] + radius);
  }
  auto below = [&](double x) {
    std::size_t negative = 0;
    double pivot = 1.0;
    for (std::size_t i = 0; i < k; ++i) {
      pivot = a[i] - x - (i > 0 ? b[i - 1] * b[i - 1] / pivot : 0.0);
      if (pivot == 0.0) pivot = -std::numeric_limits<double>::min();
      if (pivot < 0.0) ++negative;
    }
    return negative;
  };
  for (int it = 0; it < 200 && hi - lo > 1e-12 * std::abs(hi); ++it) {
    const double mid = 0.5 * (lo + hi);
    if (below(mid) < k) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return hi;
}

}  // namespace

MultigridPreconditioner::MultigridPreconditioner(
    mpimini::Comm comm, const sem::BoxMeshSpec& spec, int rank, int nranks,
    const sem::ElementOperators& fine_ops, const sem::GatherScatter& fine_gs,
    const std::array<bool, 6>& dirichlet, Options options)
    : comm_(comm), options_(options), fine_ops_(fine_ops), fine_gs_(fine_gs) {
  // Order ladder: N, N/2, N/4, ..., plus the trilinear vertex level. An
  // order-1 fine space degenerates to the {1, 1} pair.
  std::vector<int> orders;
  orders.push_back(spec.order);
  for (int o = spec.order / 2; o > 1; o /= 2) orders.push_back(o);
  orders.push_back(1);

  levels_.reserve(orders.size());
  for (std::size_t l = 0; l < orders.size(); ++l) {
    Level level;
    level.order = orders[l];
    level.np = orders[l] + 1;
    level.per_el =
        static_cast<std::size_t>(level.np) * level.np * level.np;
    level.mesh = std::make_unique<sem::BoxMesh>(LevelSpec(spec, orders[l]),
                                                rank, nranks);
    level.ndofs = level.mesh->NumLocalDofs();
    level.nel = level.mesh->NumLocalElements();
    level.gids.resize(level.ndofs);
    level.mesh->FillGlobalIds(level.gids);
    level.mask.resize(level.ndofs);
    level.mesh->FillDirichletMask(dirichlet, level.mask);
    if (l == 0) {
      if (fine_ops_.NumDofs() != level.ndofs) {
        throw std::invalid_argument("nekrs: multigrid fine space mismatch");
      }
      level.ops = &fine_ops_;
      level.gs = &fine_gs_;
    } else {
      level.ops_owned = std::make_unique<sem::ElementOperators>(
          sem::MakeGllRule(level.order), *level.mesh);
      level.gs_owned = std::make_unique<sem::GatherScatter>(
          comm_, std::span<const std::int64_t>(level.gids));
      level.ops = level.ops_owned.get();
      level.gs = level.gs_owned.get();
    }
    level.diag.resize(level.ndofs);
    for (auto* v : {&level.r, &level.z, &level.res, &level.d, &level.tmp}) {
      v->resize(level.ndofs);
    }
    level.lap_scratch.resize(6 * level.per_el);
    if (l + 1 < orders.size()) {
      const int np_next = orders[l + 1] + 1;
      level.interp_scratch.resize(sem::Interp3DScratchSize(np_next, level.np));
      level.local_in.resize(level.per_el);
      level.local_out.resize(level.per_el);
    }
    levels_.push_back(std::move(level));
  }

  // 1-D transfer matrices between adjacent levels: the coarse basis
  // evaluated at the fine GLL nodes gives the prolongation, its transpose
  // the (multiplicity-unassembled) restriction.
  for (std::size_t l = 0; l + 1 < levels_.size(); ++l) {
    Level& fine = levels_[l];
    const Level& coarse = levels_[l + 1];
    const sem::GllRule fine_rule = sem::MakeGllRule(fine.order);
    const sem::GllRule coarse_rule = sem::MakeGllRule(coarse.order);
    fine.prolong_1d = sem::InterpolationMatrix(coarse_rule, fine_rule.nodes);
    fine.restrict_1d.assign(fine.prolong_1d.size(), 0.0);
    for (int f = 0; f < fine.np; ++f) {
      for (int c = 0; c < coarse.np; ++c) {
        fine.restrict_1d[static_cast<std::size_t>(c) * fine.np + f] =
            fine.prolong_1d[static_cast<std::size_t>(f) * coarse.np + c];
      }
    }
  }

  double masked = 0.0;
  for (double m : levels_.back().mask) {
    if (m == 0.0) masked = 1.0;
  }
  has_dirichlet_ = comm_.AllReduceValue(masked, mpimini::Op::kMax) > 0.0;

  coarse_solver_ = std::make_unique<HelmholtzSolver>(
      comm_, *levels_.back().ops, *levels_.back().gs);
}

void MultigridPreconditioner::LevelOperator(Level& level, double h1, double h0,
                                            std::span<const double> x,
                                            std::span<double> w) {
  const sem::GllRule& rule = level.ops->Rule();
  sem::LaplacianFused<double>(rule.deriv, rule.deriv_t, level.np, level.nel,
                              level.ops->Geo(), x, w, level.lap_scratch);
  auto mass = level.ops->MassDiag();
  for (std::size_t i = 0; i < w.size(); ++i) {
    w[i] = h1 * w[i] + h0 * mass[i] * x[i];
  }
  level.gs->Sum(w);
  for (std::size_t i = 0; i < w.size(); ++i) w[i] *= level.mask[i];
}

void MultigridPreconditioner::Smooth(Level& level, double h1, double h0,
                                     bool first) {
  // Chebyshev acceleration of Jacobi (nekRS form): a degree-2 polynomial
  // in D^-1 A tuned to damp [lambda_max/10, 1.1 lambda_max].
  const std::vector<double>& diag = level.diag;
  const std::vector<double>& mask = level.mask;
  const std::size_t n = level.ndofs;
  const double lam = level.lambda_max > 0.0 ? level.lambda_max : 1.0;
  const double lam_hi = 1.1 * lam;
  const double lam_lo = 0.1 * lam;
  const double theta = 0.5 * (lam_hi + lam_lo);
  const double delta = 0.5 * (lam_hi - lam_lo);
  const double sigma = theta / delta;
  const double inv_theta = 1.0 / theta;

  if (first) {
    for (std::size_t i = 0; i < n; ++i) {
      level.z[i] = 0;
      level.res[i] = level.r[i];
    }
  } else {
    LevelOperator(level, h1, h0, level.z, level.tmp);
    for (std::size_t i = 0; i < n; ++i) {
      level.res[i] = level.r[i] - level.tmp[i];
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    level.d[i] = level.res[i] / diag[i] * mask[i] * inv_theta;
  }
  double rho = 1.0 / sigma;
  for (int k = 1;; ++k) {
    for (std::size_t i = 0; i < n; ++i) level.z[i] += level.d[i];
    if (k == kChebyshevDegree) break;
    LevelOperator(level, h1, h0, level.d, level.tmp);
    for (std::size_t i = 0; i < n; ++i) level.res[i] -= level.tmp[i];
    const double rho_next = 1.0 / (2.0 * sigma - rho);
    const double c_d = rho_next * rho;
    const double c_r = 2.0 * rho_next / delta;
    for (std::size_t i = 0; i < n; ++i) {
      level.d[i] = c_d * level.d[i] + c_r * (level.res[i] / diag[i] * mask[i]);
    }
    rho = rho_next;
  }
}

void MultigridPreconditioner::RestrictTo(Level& fine, Level& coarse) {
  // Adjoint of Prolong under the multiplicity-weighted inner product:
  // unassemble the dual vector, then apply P^T element-wise. The coarse
  // result is *unassembled* (consumers assemble or solve as needed).
  const std::vector<double>& mult = fine.gs->Multiplicity();
  for (int e = 0; e < fine.nel; ++e) {
    const std::size_t fbase = static_cast<std::size_t>(e) * fine.per_el;
    for (std::size_t q = 0; q < fine.per_el; ++q) {
      fine.local_in[q] = fine.res[fbase + q] / mult[fbase + q];
    }
    sem::Interp3D<double>(fine.restrict_1d, coarse.np, fine.np,
                          {fine.local_in.data(), fine.per_el},
                          {fine.local_out.data(), coarse.per_el},
                          fine.interp_scratch);
    const std::size_t cbase = static_cast<std::size_t>(e) * coarse.per_el;
    for (std::size_t q = 0; q < coarse.per_el; ++q) {
      coarse.r[cbase + q] = fine.local_out[q];
    }
  }
}

void MultigridPreconditioner::ProlongFrom(Level& coarse, Level& fine) {
  for (int e = 0; e < fine.nel; ++e) {
    const std::size_t cbase = static_cast<std::size_t>(e) * coarse.per_el;
    for (std::size_t q = 0; q < coarse.per_el; ++q) {
      fine.local_in[q] = coarse.z[cbase + q];
    }
    sem::Interp3D<double>(fine.prolong_1d, fine.np, coarse.np,
                          {fine.local_in.data(), coarse.per_el},
                          {fine.local_out.data(), fine.per_el},
                          fine.interp_scratch);
    const std::size_t fbase = static_cast<std::size_t>(e) * fine.per_el;
    for (std::size_t q = 0; q < fine.per_el; ++q) {
      fine.d[fbase + q] = fine.local_out[q];
    }
  }
}

void MultigridPreconditioner::BuildCoarseDirect(double h1, double h0) {
  Level& coarse = levels_.back();
  const std::size_t n = coarse.ndofs;
  coarse_direct_ok_ = false;

  std::int64_t max_gid = -1;
  for (std::size_t i = 0; i < n; ++i) {
    if (coarse.gids[i] > max_gid) max_gid = coarse.gids[i];
  }
  max_gid = comm_.AllReduceValue(max_gid, mpimini::Op::kMax);
  const std::size_t nglobal = static_cast<std::size_t>(max_gid + 1);
  if (nglobal == 0 || nglobal > kDirectCoarseMaxDofs) return;
  coarse_nglobal_ = nglobal;

  // Assemble the global operator h1 K + h0 M from element stiffness
  // columns (one single-element fused-Laplacian apply per basis function —
  // the vertex space has 8 of them per element) and the diagonal mass.
  std::vector<double> a(nglobal * nglobal, 0.0);
  const sem::GllRule& rule = coarse.ops->Rule();
  const sem::LaplacianGeo<double> geo = coarse.ops->Geo();
  auto mass = coarse.ops->MassDiag();
  std::vector<double> ue(coarse.per_el), ke(coarse.per_el);
  for (int e = 0; e < coarse.nel; ++e) {
    const std::size_t base = static_cast<std::size_t>(e) * coarse.per_el;
    const sem::LaplacianGeo<double> geo_e{
        geo.g11.subspan(base, coarse.per_el),
        geo.g12.subspan(base, coarse.per_el),
        geo.g13.subspan(base, coarse.per_el),
        geo.g22.subspan(base, coarse.per_el),
        geo.g23.subspan(base, coarse.per_el),
        geo.g33.subspan(base, coarse.per_el)};
    for (std::size_t p = 0; p < coarse.per_el; ++p) {
      std::fill(ue.begin(), ue.end(), 0.0);
      ue[p] = 1.0;
      sem::LaplacianFused<double>(rule.deriv, rule.deriv_t, coarse.np, 1,
                                  geo_e, ue, ke, coarse.lap_scratch);
      const std::size_t gp = static_cast<std::size_t>(coarse.gids[base + p]);
      for (std::size_t q = 0; q < coarse.per_el; ++q) {
        const std::size_t gq = static_cast<std::size_t>(coarse.gids[base + q]);
        a[gq * nglobal + gp] += h1 * ke[q];
      }
    }
    if (h0 != 0.0) {
      for (std::size_t q = 0; q < coarse.per_el; ++q) {
        const std::size_t gq = static_cast<std::size_t>(coarse.gids[base + q]);
        a[gq * nglobal + gq] += h0 * mass[base + q];
      }
    }
  }
  comm_.AllReduce(std::span<double>(a), mpimini::Op::kSum);

  // Assembled Dirichlet row mask and lumped mass (the constant-nullspace
  // weight): a dof is constrained when any rank masks it.
  coarse_rowmask_.assign(nglobal, 1.0);
  coarse_weight_.assign(nglobal, 0.0);
  std::vector<double> masked(nglobal, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t g = static_cast<std::size_t>(coarse.gids[i]);
    if (coarse.mask[i] == 0.0) masked[g] = 1.0;
    coarse_weight_[g] += mass[i];
  }
  comm_.AllReduce(std::span<double>(masked), mpimini::Op::kMax);
  comm_.AllReduce(std::span<double>(coarse_weight_), mpimini::Op::kSum);
  for (std::size_t g = 0; g < nglobal; ++g) {
    if (masked[g] == 0.0) continue;
    coarse_rowmask_[g] = 0.0;
    coarse_weight_[g] = 0.0;
    for (std::size_t q = 0; q < nglobal; ++q) {
      a[g * nglobal + q] = 0.0;
      a[q * nglobal + g] = 0.0;
    }
    a[g * nglobal + g] = 1.0;
  }

  // A pure-Neumann vertex Laplacian is singular on constants; shift it by
  // a mass-weighted rank-one term scaled to sit inside the spectrum, so
  // the factorization exists and the constant mode stays well-behaved.
  if (coarse_singular_) {
    double trace = 0.0;
    double wsum = 0.0;
    for (std::size_t g = 0; g < nglobal; ++g) {
      trace += a[g * nglobal + g];
      wsum += coarse_weight_[g];
    }
    if (wsum <= 0.0) return;
    const double c =
        trace / (static_cast<double>(nglobal) * wsum * wsum);
    for (std::size_t g = 0; g < nglobal; ++g) {
      for (std::size_t q = 0; q < nglobal; ++q) {
        a[g * nglobal + q] += c * coarse_weight_[g] * coarse_weight_[q];
      }
    }
  }

  // In-place lower Cholesky; a non-positive pivot means the operator is
  // not SPD as assembled — leave the iterative fallback in charge.
  for (std::size_t j = 0; j < nglobal; ++j) {
    double diag = a[j * nglobal + j];
    for (std::size_t k = 0; k < j; ++k) {
      diag -= a[j * nglobal + k] * a[j * nglobal + k];
    }
    if (!(diag > 0.0)) return;
    const double ljj = std::sqrt(diag);
    a[j * nglobal + j] = ljj;
    const double inv = 1.0 / ljj;
    for (std::size_t i = j + 1; i < nglobal; ++i) {
      double v = a[i * nglobal + j];
      for (std::size_t k = 0; k < j; ++k) {
        v -= a[i * nglobal + k] * a[j * nglobal + k];
      }
      a[i * nglobal + j] = v * inv;
    }
  }
  coarse_chol_ = std::move(a);
  coarse_global_.assign(nglobal, 0.0);
  coarse_direct_ok_ = true;
}

void MultigridPreconditioner::CoarseSolveDirect() {
  Level& coarse = levels_.back();
  const std::size_t n = coarse.ndofs;
  const std::size_t nglobal = coarse_nglobal_;
  std::vector<double>& b = coarse_global_;
  std::fill(b.begin(), b.end(), 0.0);
  // The restricted residual is an unassembled dual vector: summing every
  // element-local contribution into its global id assembles it.
  for (std::size_t i = 0; i < n; ++i) {
    b[static_cast<std::size_t>(coarse.gids[i])] += coarse.r[i];
  }
  comm_.AllReduce(std::span<double>(b), mpimini::Op::kSum);
  for (std::size_t g = 0; g < nglobal; ++g) b[g] *= coarse_rowmask_[g];

  double wsum = 0.0;
  if (coarse_singular_) {
    // Project the constant component out of the dual vector ((1, b) = sum
    // of entries) before the solve, and out of the solution after it.
    double bsum = 0.0;
    for (std::size_t g = 0; g < nglobal; ++g) {
      bsum += b[g];
      wsum += coarse_weight_[g];
    }
    const double shift = bsum / wsum;
    for (std::size_t g = 0; g < nglobal; ++g) {
      b[g] -= shift * coarse_weight_[g];
    }
  }

  // L y = b, then L^T x = y, in place.
  const std::vector<double>& l = coarse_chol_;
  for (std::size_t i = 0; i < nglobal; ++i) {
    double v = b[i];
    for (std::size_t k = 0; k < i; ++k) v -= l[i * nglobal + k] * b[k];
    b[i] = v / l[i * nglobal + i];
  }
  for (std::size_t i = nglobal; i-- > 0;) {
    double v = b[i];
    for (std::size_t k = i + 1; k < nglobal; ++k) {
      v -= l[k * nglobal + i] * b[k];
    }
    b[i] = v / l[i * nglobal + i];
  }

  if (coarse_singular_) {
    double mean = 0.0;
    for (std::size_t g = 0; g < nglobal; ++g) {
      mean += coarse_weight_[g] * b[g];
    }
    mean /= wsum;
    for (std::size_t g = 0; g < nglobal; ++g) {
      b[g] = (b[g] - mean) * coarse_rowmask_[g];
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    coarse.z[i] = b[static_cast<std::size_t>(coarse.gids[i])];
  }
}

void MultigridPreconditioner::CoarseSolve(double h1, double h0) {
  if (coarse_direct_ok_) {
    CoarseSolveDirect();
    return;
  }
  Level& coarse = levels_.back();
  std::fill(coarse.z.begin(), coarse.z.end(), 0.0);
  HelmholtzSolver::Options coarse_options;
  coarse_options.h1 = h1;
  coarse_options.h0 = h0;
  coarse_options.tolerance = kCoarseTolerance;
  coarse_options.relative_tolerance = true;
  coarse_options.max_iterations = kCoarseMaxIterations;
  coarse_options.remove_mean = coarse_singular_;
  coarse_solver_->Solve(coarse_options, coarse.r, coarse.z, coarse.mask);
}

void MultigridPreconditioner::Cycle(std::size_t l, double h1, double h0) {
  Level& level = levels_[l];
  const std::size_t n = level.ndofs;

  Smooth(level, h1, h0, /*first=*/true);

  // Residual and coarse-grid correction.
  LevelOperator(level, h1, h0, level.z, level.res);
  for (std::size_t i = 0; i < n; ++i) level.res[i] = level.r[i] - level.res[i];
  Level& coarse = levels_[l + 1];
  RestrictTo(level, coarse);
  if (l + 2 == levels_.size()) {
    CoarseSolve(h1, h0);
  } else {
    coarse.gs->Sum(coarse.r);
    for (std::size_t i = 0; i < coarse.ndofs; ++i) {
      coarse.r[i] *= coarse.mask[i];
    }
    Cycle(l + 1, h1, h0);
  }
  ProlongFrom(coarse, level);
  for (std::size_t i = 0; i < n; ++i) level.z[i] += level.d[i] * level.mask[i];

  Smooth(level, h1, h0, /*first=*/false);
}

double MultigridPreconditioner::EstimateLambdaMax(Level& level, double h1,
                                                  double h0) {
  // Lanczos on the masked D^-1 A, which is self-adjoint in the D inner
  // product (nekRS estimates the bound the same way, with Arnoldi).  The
  // largest Ritz value approaches lambda_max from below much faster than a
  // power iteration does.  The seed is a fixed function of the global ids,
  // so the estimate does not depend on the rank partition (up to reduction
  // rounding).  Runs in the idle cycle vectors.
  const std::size_t n = level.ndofs;
  auto mult = std::span<const double>(level.gs->Multiplicity());
  std::vector<double>& prev = level.z;
  std::vector<double>& v = level.d;
  std::vector<double>& w = level.tmp;
  auto d_norm = [&](const std::vector<double>& x) {
    for (std::size_t i = 0; i < n; ++i) level.res[i] = level.diag[i] * x[i];
    return std::sqrt(sem::AssembledDot(comm_, level.res, x, mult));
  };
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = (1.0 + 0.5 * std::sin(0.7 * static_cast<double>(
                                         level.gids[i] % 4096))) *
           level.mask[i];
    prev[i] = 0.0;
  }
  double beta = d_norm(v);
  if (!(beta > 0.0)) return 1.0;
  for (std::size_t i = 0; i < n; ++i) v[i] /= beta;
  beta = 0.0;
  // The Lanczos tridiagonal: diagonal `alpha`, off-diagonal `offdiag`.
  std::vector<double> alpha, offdiag;
  const int iters = std::max(1, options_.lanczos_iterations);
  for (int k = 0; k < iters; ++k) {
    LevelOperator(level, h1, h0, v, w);
    const double a = sem::AssembledDot(comm_, w, v, mult);
    alpha.push_back(a);
    for (std::size_t i = 0; i < n; ++i) {
      w[i] = w[i] / level.diag[i] * level.mask[i] - a * v[i] - beta * prev[i];
    }
    if (k + 1 == iters) break;
    beta = d_norm(w);
    // An invariant subspace: the Ritz values are exact.
    if (!(beta > 1e-12 * std::abs(a))) break;
    offdiag.push_back(beta);
    for (std::size_t i = 0; i < n; ++i) {
      prev[i] = v[i];
      v[i] = w[i] / beta;
    }
  }
  return LargestEigenvalue(alpha, offdiag);
}

void MultigridPreconditioner::EnsureCoefficients(double h1, double h0) {
  if (coefficients_ready_ && h1 == cached_h1_ && h0 == cached_h0_) return;
  for (std::size_t l = 0; l + 1 < levels_.size(); ++l) {
    Level& level = levels_[l];
    auto adiag = level.ops->StiffnessDiag();
    auto mass = level.ops->MassDiag();
    for (std::size_t i = 0; i < level.ndofs; ++i) {
      level.diag[i] = h1 * adiag[i] + h0 * mass[i];
    }
    level.gs->Sum(std::span<double>(level.diag));
    for (std::size_t i = 0; i < level.ndofs; ++i) {
      if (level.diag[i] == 0.0 || level.mask[i] == 0.0) level.diag[i] = 1.0;
    }
    level.lambda_max = EstimateLambdaMax(level, h1, h0);
  }
  coarse_singular_ = !has_dirichlet_ && h0 == 0.0;
  BuildCoarseDirect(h1, h0);
  cached_h1_ = h1;
  cached_h0_ = h0;
  coefficients_ready_ = true;
}

void MultigridPreconditioner::Apply(double h1, double h0,
                                    std::span<const double> r,
                                    std::span<double> z) {
  const std::size_t n = levels_.front().ndofs;
  if (r.size() != n || z.size() != n) {
    throw std::invalid_argument("nekrs: multigrid size mismatch");
  }
  instrument::MetricsRegistry* metrics = instrument::CurrentMetrics();
  const std::int64_t begin_ns =
      metrics != nullptr ? instrument::Tracer::NowNs() : 0;

  EnsureCoefficients(h1, h0);

  Level& fine = levels_.front();
  std::copy(r.begin(), r.end(), fine.r.begin());
  Cycle(0, h1, h0);
  std::copy(fine.z.begin(), fine.z.end(), z.begin());

  if (metrics != nullptr) {
    metrics->Add("solver.mg.cycles", 1.0);
    metrics->Add("solver.mg.cycle_seconds",
                 static_cast<double>(instrument::Tracer::NowNs() - begin_ns) *
                     1e-9);
  }
}

}  // namespace nekrs
