"""Top eigenvalues of the discretized boundary-integral operator and their
dependence on the spectral parameter kappa.

``top_eigen`` is the one eigensolve entry point: every caller that needs the
top of a spectrum goes through it.  Desk-scale grids (N <= DENSE_EIGEN_LIMIT)
make a dense symmetric eigensolve the most robust choice; only the top few
eigenvalues are ever needed, so the subset driver is used.  Larger grids use
a deterministic Lanczos iteration.  Eigensolves at distinct kappa run one
after another: the BLAS underneath each one already uses every core.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

    @classmethod
    def sample(cls, kappa_list, values, grid: GridSpec) -> "SpectralCurve":
        """The curve of ``values(kappa)`` (top eigenvalues, descending) over
        a positive, strictly ascending kappa list."""
        kappas = np.asarray(kappa_list, dtype=float)
        if kappas.ndim != 1 or kappas.size == 0:
            raise GeometryError("kappa_list must be a non-empty 1D sequence")
        if np.any(kappas <= 0) or np.any(np.diff(kappas) <= 0):
            raise GeometryError("kappa_list must be positive and strictly ascending")
        return cls(kappas=kappas, lambdas=np.array([values(k) for k in kappas]),
                   s_k_values=np.asarray(s_kappa(kappas)), grid=grid)

    def csv_text(self) -> str:
        """CSV with LF line endings.  Columns: kappa, s_kappa, lambda_1 .. lambda_m."""
        m = self.lambdas.shape[1]
        rows = [["kappa", "s_kappa"] + [f"lambda_{j + 1}" for j in range(m)]]
        rows += [[repr(float(x)) for x in (k, sk, *lams)]
                 for k, sk, lams in zip(self.kappas, self.s_k_values, self.lambdas)]
        return "".join(",".join(row) + "\n" for row in rows)


def _fix_sign(v: np.ndarray) -> np.ndarray:
    """Make the first non-negligible component positive."""
    scale = np.max(np.abs(v))
    if scale == 0:
        return v
    idx = int(np.argmax(np.abs(v) > 1e-12 * scale))
    return -v if v[idx] < 0 else v


def top_eigen(matrix: np.ndarray, m: int, vectors: bool = False):
    """The m largest eigenvalues of a symmetric matrix, descending.

    Up to DENSE_EIGEN_LIMIT the dense subset driver runs, above it Lanczos.
    With ``vectors=True`` returns ``(values, vectors)``: orthonormal
    eigenvectors as columns, sign-fixed, with residuals ||Q v - lambda v||
    verified against 1e-9 * ||Q||.
    """
    n = matrix.shape[0]
    if not 1 <= m <= n:
        raise GeometryError(f"need 1 <= m <= N, got m={m}, N={n}")
    if n > DENSE_EIGEN_LIMIT:
        vals, vecs = _iterative_top(matrix, m, vectors)
    elif vectors:
        vals, vecs = scipy.linalg.eigh(matrix, subset_by_index=[n - m, n - 1])
        vals, vecs = vals[::-1], vecs[:, ::-1]
    else:
        vals = scipy.linalg.eigvalsh(matrix, subset_by_index=[n - m, n - 1])[::-1]
    if not vectors:
        return vals
    # largest |entry| without an N x N temporary
    norm_q = max(abs(vals[0]), max(matrix.max(), -matrix.min()) * n ** 0.5)
    # one matrix-vector product per column: a single matrix product would
    # touch the BLAS GEMM buffers, about 7 MiB more peak memory per process
    resid = [np.linalg.norm(matrix @ v - lam * v) for lam, v in zip(vals, vecs.T)]
    j = int(np.argmax(resid))
    if resid[j] > 1e-9 * max(norm_q, 1e-30):
        raise NumericalFailureError(
            f"eigenpair {j} residual {resid[j]:.3e} exceeds 1e-9 * ||Q|| (N={n})")
    return vals, np.column_stack([_fix_sign(vecs[:, j]) for j in range(m)])


def top_eigenpairs(op: DiscretizedOperator, m: int):
    """The m largest eigenpairs of an assembled operator as a descending list
    of (value, vector) pairs; see top_eigen."""
    vals, vecs = top_eigen(op.matrix, m, vectors=True)
    return [(float(vals[j]), vecs[:, j]) for j in range(m)]


def lambda_curve(curve: Curve, grid: GridSpec, kappa_list, m: int = 8) -> SpectralCurve:
    """Top-m eigenvalue curves lambda_j(kappa) over an ascending kappa list."""
    cache = OperatorCache(curve, grid)
    return SpectralCurve.sample(kappa_list, lambda k: top_eigen(cache.q_matrix(k), m), grid)
