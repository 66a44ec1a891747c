// p-multigrid preconditioner — the role NekRS's pMG + coarse-grid solve
// plays for the pressure Poisson equation.
//
// The ladder coarsens in polynomial order on the same element mesh:
// N -> N/2 -> ... -> 1, ending at the trilinear (vertex) space.  Each level
// owns its GLL rule, ElementOperators, GatherScatter, Dirichlet mask, and
// 1-D transfer matrices to the next coarser level; one symmetric V-cycle
// per application:
//
//   smooth       : degree-2 Chebyshev-accelerated Jacobi
//   restrict     : multiplicity-unassemble + P^T, level by level
//   coarse solve : redundant dense Cholesky of the vertex problem, or
//                  Jacobi-CG (loose tolerance) past the dense-size cap
//   prolong      : P, add masked correction
//   smooth       : symmetric with the pre-smoothing
//
// Chebyshev smoothing follows nekRS: a degree-2 polynomial in D^-1 A with
// eigenvalue bounds [lambda_max/10, 1.1 lambda_max], lambda_max estimated
// by a few Lanczos steps per level whenever (h1, h0) changes.  The cycle
// runs in double and is a fixed linear operation, so it is a valid CG
// preconditioner.
#pragma once

#include <memory>

#include "nekrs/helmholtz.hpp"
#include "sem/box_mesh.hpp"
#include "sem/gather_scatter.hpp"
#include "sem/operators.hpp"

namespace nekrs {

class MultigridPreconditioner final : public Preconditioner {
 public:
  struct Options {
    /// Lanczos steps for the D^-1 A spectral-radius estimate.  Chebyshev
    /// AMPLIFIES modes beyond its upper bound, so an under-converged
    /// estimate poisons the smoother; 12 steps of setup-only cost land
    /// within 4 % of lambda_max on the bench cases, inside the 1.1x margin.
    int lanczos_iterations = 12;
  };

  /// Collective constructor. `spec` must be the fine mesh's spec;
  /// `dirichlet` the face flags of the solve family this preconditioner
  /// serves (all false for the pressure Poisson problem).
  MultigridPreconditioner(mpimini::Comm comm, const sem::BoxMeshSpec& spec,
                          int rank, int nranks,
                          const sem::ElementOperators& fine_ops,
                          const sem::GatherScatter& fine_gs,
                          const std::array<bool, 6>& dirichlet,
                          Options options);

  /// z = V-cycle(r). Collective.
  void Apply(double h1, double h0, std::span<const double> r,
             std::span<double> z) override;

  [[nodiscard]] int NumLevels() const {
    return static_cast<int>(levels_.size());
  }
  [[nodiscard]] int LevelOrder(int level) const {
    return levels_[static_cast<std::size_t>(level)].order;
  }
  /// Spectral-radius estimate of D^-1 A on a level (0 before the first
  /// Apply).
  [[nodiscard]] double LevelLambdaMax(int level) const {
    return levels_[static_cast<std::size_t>(level)].lambda_max;
  }

  /// Whether the coarse level is solved by the dense factorization (set on
  /// the first Apply); false means the Jacobi-CG fallback.
  [[nodiscard]] bool DirectCoarseSolve() const { return coarse_direct_ok_; }

  /// Largest global vertex space the direct coarse solve factors.
  static constexpr std::size_t kDirectCoarseMaxDofs = 2048;

 private:
  struct Level {
    int order = 0;
    int np = 0;
    int nel = 0;
    std::size_t ndofs = 0;
    std::size_t per_el = 0;
    std::unique_ptr<sem::BoxMesh> mesh;
    std::unique_ptr<sem::ElementOperators> ops_owned;  // null on level 0
    const sem::ElementOperators* ops = nullptr;
    std::unique_ptr<sem::GatherScatter> gs_owned;  // null on level 0
    const sem::GatherScatter* gs = nullptr;
    std::vector<std::int64_t> gids;
    std::vector<double> mask;
    // 1-D transfers to the NEXT coarser level (absent on the last level):
    // prolong is np x np_next, restrict its transpose.
    std::vector<double> restrict_1d, prolong_1d;
    std::vector<double> diag;  // assembled Jacobi diagonal
    double lambda_max = 0.0;
    // Cycle vectors: rhs, solution, residual, smoother direction, operator
    // scratch.
    std::vector<double> r, z, res, d, tmp;
    // Fused-Laplacian (6 np^3) and Interp3D workspaces, per-element
    // transfer staging.
    std::vector<double> lap_scratch, interp_scratch, local_in, local_out;
  };

  /// w = mask (QQ^T (h1 A + h0 B) x) on `level`.
  void LevelOperator(Level& level, double h1, double h0,
                     std::span<const double> x, std::span<double> w);

  /// In-place smoothing of A z = r on `level`; `first` means z is to be
  /// treated as zero (pre-smoothing), saving one operator application.
  void Smooth(Level& level, double h1, double h0, bool first);

  void RestrictTo(Level& fine, Level& coarse);
  void ProlongFrom(Level& coarse, Level& fine);

  void Cycle(std::size_t l, double h1, double h0);

  void CoarseSolve(double h1, double h0);

  /// Assemble, regularize (singular problems), and Cholesky-factor the
  /// global vertex operator.  Collective; leaves coarse_direct_ok_ false
  /// (iterative fallback) past the size cap or on factorization failure.
  void BuildCoarseDirect(double h1, double h0);

  /// One direct coarse solve: assembled dual AllReduce, triangular sweeps,
  /// nullspace projection for singular problems. Collective.
  void CoarseSolveDirect();

  /// Rebuild per-level diagonals, Chebyshev eigenvalue bounds and the
  /// coarse factorization when the Helmholtz coefficients change.
  /// Collective.
  void EnsureCoefficients(double h1, double h0);

  /// Lanczos estimate of lambda_max(D^-1 A) (deterministic gid-based
  /// seed).
  double EstimateLambdaMax(Level& level, double h1, double h0);

  static constexpr int kChebyshevDegree = 2;
  static constexpr double kCoarseTolerance = 0.05;  ///< relative, coarse CG
  static constexpr int kCoarseMaxIterations = 200;

  mpimini::Comm comm_;
  Options options_;
  const sem::ElementOperators& fine_ops_;
  const sem::GatherScatter& fine_gs_;

  std::vector<Level> levels_;
  std::unique_ptr<HelmholtzSolver> coarse_solver_;

  // Whether any rank masks a dof: without Dirichlet nodes and with h0 = 0
  // the problem is pure Neumann (singular on constants).
  bool has_dirichlet_ = false;
  bool coarse_singular_ = false;

  // Direct coarse solve state: the in-place Cholesky factor of the
  // assembled global vertex operator, the assembled lumped mass (nullspace
  // weight), the 0/1 Dirichlet row mask, and the global right-hand-side
  // staging vector.
  std::size_t coarse_nglobal_ = 0;
  bool coarse_direct_ok_ = false;
  std::vector<double> coarse_chol_;
  std::vector<double> coarse_weight_;
  std::vector<double> coarse_rowmask_;
  std::vector<double> coarse_global_;

  double cached_h1_ = -1.0, cached_h0_ = -1.0;
  bool coefficients_ready_ = false;
};

}  // namespace nekrs
