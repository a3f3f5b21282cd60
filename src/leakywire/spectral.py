"""Top eigenvalues of the discretized boundary-integral operator and their
dependence on the spectral parameter kappa.

Desk-scale grids (N <= a few thousand) make a dense symmetric eigensolve the
most robust choice; only the top few eigenvalues are ever needed, so the
subset driver is used.  Eigensolves at distinct kappa run one after another:
the BLAS underneath each one already uses every core.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg

from .curve import Curve
from .errors import GeometryError, NumericalFailureError
from .operators import DiscretizedOperator, GridSpec, OperatorCache, s_kappa


#: largest grid solved by dense decomposition; above this the top of the
#: spectrum comes from a deterministic Lanczos iteration
DENSE_EIGEN_LIMIT = 2048


def _iterative_top(matrix: np.ndarray, m: int, want_vectors: bool):
    """Top-m eigenpairs by implicitly restarted Lanczos with a fixed
    deterministic start vector.

    A bare shifted power iteration stalls on these operators: the top of the
    spectrum sits ~1e-3 above a dense cluster of near-edge values while the
    spectral range is O(1), so its convergence ratio is 1 - O(1e-3).  Krylov
    iteration reaches the same subspace in a few dozen matvecs.
    """
    import scipy.sparse.linalg

    n = matrix.shape[0]
    v0 = np.full(n, 1.0 / math.sqrt(n))
    ncv = min(n - 1, max(4 * m + 1, 40))
    try:
        vals, vecs = scipy.sparse.linalg.eigsh(
            matrix, k=m, which="LA", v0=v0, ncv=ncv, maxiter=200 * m)
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        raise NumericalFailureError(
            f"Lanczos failed to converge for N={n}, m={m}: {exc}") from exc
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    vecs = vecs[:, order]
    return (vals, vecs) if want_vectors else (vals, None)


@dataclass
class SpectralCurve:
    """Sampled map kappa -> top eigenvalues, with the free-line reference."""

    kappas: np.ndarray          # ascending, shape (nk,)
    lambdas: np.ndarray         # shape (nk, m), each row descending
    s_k_values: np.ndarray      # s_kappa at each sample
    grid: GridSpec
    vectors: Optional[list] = field(default=None, repr=False)

    def to_csv(self, path) -> None:
        """Columns: kappa, s_kappa, lambda_1 .. lambda_m."""
        m = self.lambdas.shape[1]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["kappa", "s_kappa"] + [f"lambda_{j + 1}" for j in range(m)])
            for k, sk, lams in zip(self.kappas, self.s_k_values, self.lambdas):
                writer.writerow([repr(float(k)), repr(float(sk))]
                                + [repr(float(x)) for x in lams])


def _fix_sign(v: np.ndarray) -> np.ndarray:
    """Make the first non-negligible component positive."""
    scale = np.max(np.abs(v))
    if scale == 0:
        return v
    idx = int(np.argmax(np.abs(v) > 1e-12 * scale))
    return -v if v[idx] < 0 else v


def top_eigenpairs(op: DiscretizedOperator, m: int):
    """The m largest eigenvalues with orthonormal eigenvectors, descending.

    Residuals ||Q v - lambda v|| are verified against 1e-9 * ||Q||.
    """
    n = op.grid.N
    if not 1 <= m <= n:
        raise GeometryError(f"need 1 <= m <= N, got m={m}, N={n}")
    if n > DENSE_EIGEN_LIMIT:
        vals, vecs = _iterative_top(op.matrix, m, want_vectors=True)
    else:
        vals, vecs = scipy.linalg.eigh(op.matrix, subset_by_index=[n - m, n - 1])
        vals = vals[::-1]
        vecs = vecs[:, ::-1]
    norm_q = max(abs(vals[0]), float(np.max(np.abs(op.matrix))) * n ** 0.5)
    for j in range(m):
        resid = float(np.linalg.norm(op.matrix @ vecs[:, j] - vals[j] * vecs[:, j]))
        if resid > 1e-9 * max(norm_q, 1e-30):
            raise NumericalFailureError(
                f"eigenpair {j} residual {resid:.3e} exceeds 1e-9 * ||Q|| "
                f"(kappa={op.kappa:.6g}, N={n})")
    return [(float(vals[j]), _fix_sign(vecs[:, j].copy())) for j in range(m)]


def _top_values(matrix: np.ndarray, m: int) -> np.ndarray:
    n = matrix.shape[0]
    if n > DENSE_EIGEN_LIMIT:
        return _iterative_top(matrix, m, want_vectors=False)[0]
    vals = scipy.linalg.eigvalsh(matrix, subset_by_index=[n - m, n - 1])
    return vals[::-1]


def _reorder_degenerate(vals, vecs, prev_vecs, tol):
    """Within clusters of numerically equal eigenvalues, order the vectors by
    overlap with the previous kappa sample so branch curves stay continuous."""
    m = len(vals)
    order = list(range(m))
    i = 0
    while i < m:
        j = i + 1
        while j < m and abs(vals[order[j]] - vals[order[i]]) < tol:
            j += 1
        if j - i > 1 and prev_vecs is not None:
            cluster = order[i:j]
            overlaps = np.abs(prev_vecs[:, i:j].T @ vecs[:, cluster])
            perm = []
            used = set()
            for row in overlaps:
                cand = [c for c in np.argsort(row)[::-1] if c not in used]
                perm.append(cand[0])
                used.add(cand[0])
            order[i:j] = [cluster[p] for p in perm]
        i = j
    return order


def lambda_curve(curve: Curve, grid: GridSpec, kappa_list, m: int = 8,
                 cache: Optional[OperatorCache] = None,
                 with_vectors: bool = True) -> SpectralCurve:
    """Top-m eigenvalue curves lambda_j(kappa) over an ascending kappa list."""
    kappas = np.asarray(kappa_list, dtype=float)
    if kappas.ndim != 1 or kappas.size == 0:
        raise GeometryError("kappa_list must be a non-empty 1D sequence")
    if np.any(kappas <= 0) or np.any(np.diff(kappas) <= 0):
        raise GeometryError("kappa_list must be positive and strictly ascending")
    cache = cache or OperatorCache(curve, grid)

    def solve(kap):
        mat = cache.q_matrix(kap)
        if with_vectors:
            n = grid.N
            if n > DENSE_EIGEN_LIMIT:
                return _iterative_top(mat, m, want_vectors=True)
            vals, vecs = scipy.linalg.eigh(mat, subset_by_index=[n - m, n - 1])
            return vals[::-1].copy(), vecs[:, ::-1].copy()
        return _top_values(mat, m), None

    lambdas = np.empty((kappas.size, m))
    vectors = [] if with_vectors else None
    prev_vecs = None
    for i, (vals, vecs) in enumerate(map(solve, kappas)):
        if vecs is not None:
            tol = 1e-10 * max(1.0, abs(vals[0]))
            order = _reorder_degenerate(vals, vecs, prev_vecs, tol)
            vals = vals[order]
            vecs = vecs[:, order]
            for j in range(m):
                vecs[:, j] = _fix_sign(vecs[:, j])
            vectors.append(vecs)
            prev_vecs = vecs
        lambdas[i] = vals
    return SpectralCurve(kappas=kappas, lambdas=lambdas,
                         s_k_values=np.asarray(s_kappa(kappas)),
                         grid=grid, vectors=vectors)
