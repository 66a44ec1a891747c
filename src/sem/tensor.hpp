// Tensor-product kernels on hexahedral spectral elements.
//
// Element data is stored x-fastest: u[i + np*(j + np*k)] with np = N+1.
// All heavy SEM operators (derivatives, interpolation) are applications of a
// small dense matrix along one of the three index directions; these kernels
// are the flop-dominant inner loops of the solver (libParanumal's core).
//
// Every kernel is templated on the scalar type: the solver runs in double
// (`dfloat`); the float (`pfloat`) instantiations are kept for the kernel
// benches and tests (NekRS's mixed-precision split).  The double
// instantiations keep a fixed floating-point evaluation order so callers
// may rely on bit-identical results across refactors (no FMA contraction or
// reassociation is licensed by this code).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "sem/gll.hpp"

namespace sem {

/// out(i,j,k) = sum_m A(i,m) u(m,j,k); A is rows x np row-major.
/// `u` has np*np*np entries, `out` has rows*np*np (x-direction resized).
template <typename T>
void ApplyDim0T(std::span<const T> a, int rows, int np, std::span<const T> u,
                std::span<T> out) {
  // out(i, jk) = sum_m a(i,m) u(m, jk) — a plain (rows x np) * (np x np*np)
  // matrix product with u's first index contiguous.
  const int planes = np * np;
  for (int jk = 0; jk < planes; ++jk) {
    const T* ucol = u.data() + static_cast<std::size_t>(jk) * np;
    T* ocol = out.data() + static_cast<std::size_t>(jk) * rows;
    for (int i = 0; i < rows; ++i) {
      const T* arow = a.data() + static_cast<std::size_t>(i) * np;
      T sum = 0;
      for (int m = 0; m < np; ++m) sum += arow[m] * ucol[m];
      ocol[i] = sum;
    }
  }
}

/// out(i,j,k) = sum_m A(j,m) u(i,m,k).
template <typename T>
void ApplyDim1T(std::span<const T> a, int rows, int np, std::span<const T> u,
                std::span<T> out) {
  for (int k = 0; k < np; ++k) {
    const T* uslab = u.data() + static_cast<std::size_t>(k) * np * np;
    T* oslab = out.data() + static_cast<std::size_t>(k) * np * rows;
    for (int j = 0; j < rows; ++j) {
      const T* arow = a.data() + static_cast<std::size_t>(j) * np;
      for (int i = 0; i < np; ++i) {
        T sum = 0;
        for (int m = 0; m < np; ++m) {
          sum += arow[m] * uslab[static_cast<std::size_t>(m) * np + i];
        }
        oslab[static_cast<std::size_t>(j) * np + i] = sum;
      }
    }
  }
}

/// out(i,j,k) = sum_m A(k,m) u(i,j,m).
template <typename T>
void ApplyDim2T(std::span<const T> a, int rows, int np, std::span<const T> u,
                std::span<T> out) {
  const int plane = np * np;
  for (int k = 0; k < rows; ++k) {
    const T* arow = a.data() + static_cast<std::size_t>(k) * np;
    T* oslab = out.data() + static_cast<std::size_t>(k) * plane;
    for (int ij = 0; ij < plane; ++ij) {
      T sum = 0;
      for (int m = 0; m < np; ++m) {
        sum += arow[m] * u[static_cast<std::size_t>(m) * plane + ij];
      }
      oslab[ij] = sum;
    }
  }
}

// Non-template double entry points (the original API, kept so existing
// call sites and the fused-vs-separate tests have a stable composition to
// pin against).
void ApplyDim0(std::span<const double> a, int rows, int np,
               std::span<const double> u, std::span<double> out);
void ApplyDim1(std::span<const double> a, int rows, int np,
               std::span<const double> u, std::span<double> out);
void ApplyDim2(std::span<const double> a, int rows, int np,
               std::span<const double> u, std::span<double> out);

/// Spectral derivatives at GLL nodes in reference coordinates (r,s,t):
/// ur = (D (x) I (x) I) u, etc. Buffers must hold np^3 values.
void DerivR(const GllRule& rule, std::span<const double> u,
            std::span<double> ur);
void DerivS(const GllRule& rule, std::span<const double> u,
            std::span<double> us);
void DerivT(const GllRule& rule, std::span<const double> u,
            std::span<double> ut);

/// Transposed derivative accumulation: out += D^T-applied field, the adjoint
/// used in the weak-form Laplacian.
void DerivRTAdd(const GllRule& rule, std::span<const double> f,
                std::span<double> out);
void DerivSTAdd(const GllRule& rule, std::span<const double> f,
                std::span<double> out);
void DerivTTAdd(const GllRule& rule, std::span<const double> f,
                std::span<double> out);

/// Symmetric weak-Laplacian geometric factors of one precision: spans over
/// nel*np^3 node values of G11..G33 (element-major, x-fastest).
template <typename T>
struct LaplacianGeo {
  std::span<const T> g11, g12, g13, g22, g23, g33;
};

namespace detail {

/// Shared body of the fused Laplacian.  NPC > 0 bakes the polynomial-order
/// extent into the type so every loop has a compile-time trip count (the
/// dominant cost at SEM orders is loop overhead on trip counts of 3..9, not
/// arithmetic); NPC == 0 falls back to the runtime extent.  Both paths run
/// the exact same statements in the same order, so the dispatch cannot
/// change a single bit of the result.
template <typename T, int NPC>
void LaplacianFusedImpl(std::span<const T> deriv, std::span<const T> deriv_t,
                        int np_runtime, int nel, const LaplacianGeo<T>& geo,
                        std::span<const T> u, std::span<T> out,
                        std::span<T> scratch) {
  const int np = NPC > 0 ? NPC : np_runtime;
  const int plane = np * np;
  const std::size_t per_el = static_cast<std::size_t>(np) * plane;
  const T* const dmat = deriv.data();
  const T* const tmat = deriv_t.data();
  T* const ur = scratch.data();
  T* const us = ur + per_el;
  T* const ut = us + per_el;
  T* const wr = ut + per_el;
  T* const ws = wr + per_el;
  T* const wt = ws + per_el;
  // One dim-0 / dim-1 / dim-2 sweep (the ApplyDim0T/1T/2T loop structures
  // inlined so the NPC trip counts propagate).
  auto dim0 = [&](const T* a, const T* in, T* o) {
    for (int jk = 0; jk < plane; ++jk) {
      const T* ucol = in + static_cast<std::size_t>(jk) * np;
      T* ocol = o + static_cast<std::size_t>(jk) * np;
      for (int i = 0; i < np; ++i) {
        const T* arow = a + static_cast<std::size_t>(i) * np;
        T sum = 0;
        for (int m = 0; m < np; ++m) sum += arow[m] * ucol[m];
        ocol[i] = sum;
      }
    }
  };
  auto dim1 = [&](const T* a, const T* in, T* o) {
    for (int k = 0; k < np; ++k) {
      const T* uslab = in + static_cast<std::size_t>(k) * plane;
      T* oslab = o + static_cast<std::size_t>(k) * plane;
      for (int j = 0; j < np; ++j) {
        const T* arow = a + static_cast<std::size_t>(j) * np;
        for (int i = 0; i < np; ++i) {
          T sum = 0;
          for (int m = 0; m < np; ++m) {
            sum += arow[m] * uslab[static_cast<std::size_t>(m) * np + i];
          }
          oslab[static_cast<std::size_t>(j) * np + i] = sum;
        }
      }
    }
  };
  auto dim2 = [&](const T* a, const T* in, T* o) {
    for (int k = 0; k < np; ++k) {
      const T* arow = a + static_cast<std::size_t>(k) * np;
      T* oslab = o + static_cast<std::size_t>(k) * plane;
      for (int ij = 0; ij < plane; ++ij) {
        T sum = 0;
        for (int m = 0; m < np; ++m) {
          sum += arow[m] * in[static_cast<std::size_t>(m) * plane + ij];
        }
        oslab[ij] = sum;
      }
    }
  };
  for (int e = 0; e < nel; ++e) {
    const std::size_t base = static_cast<std::size_t>(e) * per_el;
    const T* const ue = u.data() + base;
    dim0(dmat, ue, ur);
    dim1(dmat, ue, us);
    dim2(dmat, ue, ut);
    const T* const g11 = geo.g11.data() + base;
    const T* const g12 = geo.g12.data() + base;
    const T* const g13 = geo.g13.data() + base;
    const T* const g22 = geo.g22.data() + base;
    const T* const g23 = geo.g23.data() + base;
    const T* const g33 = geo.g33.data() + base;
    for (std::size_t q = 0; q < per_el; ++q) {
      const T dr = ur[q];
      const T ds = us[q];
      const T dt = ut[q];
      wr[q] = g11[q] * dr + g12[q] * ds + g13[q] * dt;
      ws[q] = g12[q] * dr + g22[q] * ds + g23[q] * dt;
      wt[q] = g13[q] * dr + g23[q] * ds + g33[q] * dt;
    }
    // The adjoint applications land back in ur/us/ut (their inputs are
    // consumed); the final combine preserves the reference accumulation
    // order ((r + s) + t).
    dim0(tmat, wr, ur);
    dim1(tmat, ws, us);
    dim2(tmat, wt, ut);
    T* const oe = out.data() + base;
    for (std::size_t q = 0; q < per_el; ++q) {
      oe[q] = (ur[q] + us[q]) + ut[q];
    }
  }
}

}  // namespace detail

/// Fused weak Laplacian over all elements: one pass per element computing
/// the reference derivatives (ur, us, ut), applying the geometric factors,
/// and accumulating the three adjoint derivative applications — the six
/// separate matrix sweeps + three temporaries of the naive composition
/// collapsed into a single allocation-free kernel.  `u` and `out` must not
/// alias.
///
/// `deriv`/`deriv_t` are the np x np differentiation matrix and its
/// transpose; `scratch` must hold at least 6*np^3 entries.  The double
/// instantiation is bit-identical to the composition
///   DerivR/S/T -> G-combine -> out = 0; DerivRTAdd; DerivSTAdd; DerivTTAdd
/// (same per-entry operation order), which the sem tests pin.  Common SEM
/// extents (np = 2..9, i.e. orders 1..8) dispatch to compile-time-unrolled
/// instantiations; anything larger takes the runtime-extent path, computing
/// identical values.
template <typename T>
void LaplacianFused(std::span<const T> deriv, std::span<const T> deriv_t,
                    int np, int nel, const LaplacianGeo<T>& geo,
                    std::span<const T> u, std::span<T> out,
                    std::span<T> scratch) {
  switch (np) {
    case 2:
      detail::LaplacianFusedImpl<T, 2>(deriv, deriv_t, np, nel, geo, u, out,
                                       scratch);
      break;
    case 3:
      detail::LaplacianFusedImpl<T, 3>(deriv, deriv_t, np, nel, geo, u, out,
                                       scratch);
      break;
    case 4:
      detail::LaplacianFusedImpl<T, 4>(deriv, deriv_t, np, nel, geo, u, out,
                                       scratch);
      break;
    case 5:
      detail::LaplacianFusedImpl<T, 5>(deriv, deriv_t, np, nel, geo, u, out,
                                       scratch);
      break;
    case 6:
      detail::LaplacianFusedImpl<T, 6>(deriv, deriv_t, np, nel, geo, u, out,
                                       scratch);
      break;
    case 7:
      detail::LaplacianFusedImpl<T, 7>(deriv, deriv_t, np, nel, geo, u, out,
                                       scratch);
      break;
    case 8:
      detail::LaplacianFusedImpl<T, 8>(deriv, deriv_t, np, nel, geo, u, out,
                                       scratch);
      break;
    case 9:
      detail::LaplacianFusedImpl<T, 9>(deriv, deriv_t, np, nel, geo, u, out,
                                       scratch);
      break;
    default:
      detail::LaplacianFusedImpl<T, 0>(deriv, deriv_t, np, nel, geo, u, out,
                                       scratch);
      break;
  }
}

/// Interpolate np^3 element data onto an m^3 lattice using interpolation
/// matrix `interp` (m x np row-major, e.g. from InterpolationMatrix()).
/// Scratch-free convenience; returns m^3 values.
std::vector<double> Interp3D(std::span<const double> interp, int m, int np,
                             std::span<const double> u);

/// Workspace size (in T entries) required by the scratch-buffer Interp3D
/// overload below: the two intermediate mixed lattices.
[[nodiscard]] constexpr std::size_t Interp3DScratchSize(int m, int np) {
  return static_cast<std::size_t>(m) * np * np +
         static_cast<std::size_t>(m) * m * np;
}

/// Allocation-free Interp3D: `out` must hold m^3 entries and `scratch` at
/// least Interp3DScratchSize(m, np).  The double instantiation computes
/// bit-identical values to the vector-returning overload (same loops) —
/// this is the multigrid Restrict/Prolong hot path.
template <typename T>
void Interp3D(std::span<const T> interp, int m, int np, std::span<const T> u,
              std::span<T> out, std::span<T> scratch) {
  // Apply along x, then y, then z, growing/shrinking the lattice each pass.
  T* const a = scratch.data();                                  // m*np*np
  T* const b = a + static_cast<std::size_t>(m) * np * np;       // m*m*np
  ApplyDim0T<T>(interp, m, np, u, {a, static_cast<std::size_t>(m) * np * np});

  // After the x pass the layout is m-fast; apply along y with the generic
  // kernel by treating each z-slab as (np rows of m) columns.
  for (int k = 0; k < np; ++k) {
    const T* aslab = a + static_cast<std::size_t>(k) * m * np;
    T* bslab = b + static_cast<std::size_t>(k) * m * m;
    for (int j = 0; j < m; ++j) {
      const T* irow = interp.data() + static_cast<std::size_t>(j) * np;
      for (int i = 0; i < m; ++i) {
        T sum = 0;
        for (int q = 0; q < np; ++q) {
          sum += irow[q] * aslab[static_cast<std::size_t>(q) * m + i];
        }
        bslab[static_cast<std::size_t>(j) * m + i] = sum;
      }
    }
  }

  const int plane = m * m;
  for (int k = 0; k < m; ++k) {
    const T* irow = interp.data() + static_cast<std::size_t>(k) * np;
    T* cslab = out.data() + static_cast<std::size_t>(k) * plane;
    for (int ij = 0; ij < plane; ++ij) {
      T sum = 0;
      for (int q = 0; q < np; ++q) {
        sum += irow[q] * b[static_cast<std::size_t>(q) * plane + ij];
      }
      cslab[ij] = sum;
    }
  }
}

}  // namespace sem
