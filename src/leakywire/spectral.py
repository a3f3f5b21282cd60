"""Top eigenvalues of the discretized boundary-integral operator and their
dependence on the spectral parameter kappa.

``top_eigen`` is the one eigensolve entry point: every caller that needs the
top of a spectrum goes through it, and ``eigensolver`` names the path it
takes.  Desk-scale grids make a dense symmetric eigensolve the most robust
choice; only the top few eigenvalues are ever needed, so the subset driver
is used.  Larger grids use a deterministic Lanczos iteration.  Where the
switch lies depends on how many eigenvalues are wanted.  Measured on bump
operators (2 vCPU, OpenBLAS, min of 3 runs; eigenvalues agree to 2e-16):

==============================  ============  ======================
case                            dense         Lanczos
==============================  ============  ======================
m=1, N=1152, L=36               0.067 s       0.04-0.16 s
m=1, N=1536, L=24 / 36 / 60     0.18-0.20 s   0.065 / 0.084 / 0.143 s
m=8, N=1536, L=48 / 60          0.18 s        0.26 / 0.30 s
==============================  ============  ======================

So one eigenvalue goes to Lanczos above N = 1152 (DENSE_TOP1_LIMIT), where
it wins clearly, while m > 1 stays dense up to N = 2048
(DENSE_EIGEN_LIMIT): Lanczos pays for every extra Ritz vector it converges.
Eigensolves at distinct kappa run one after another: the BLAS underneath
each one already uses every core.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .curve import Curve
from .errors import GeometryError, NumericalFailureError
from .operators import GridSpec, OperatorCache, s_kappa


#: largest grid solved by dense decomposition when m > 1 eigenvalues are
#: wanted; above it Lanczos runs.  At m=8, N=1536 dense still wins (0.18 s
#: against 0.26-0.30 s for Lanczos; table in the module docstring)
DENSE_EIGEN_LIMIT = 2048
#: the same limit for the top eigenvalue alone (m = 1).  Lanczos wins from
#: N=1536 on (0.065-0.143 s against 0.18-0.20 s dense); at N=1152 the two
#: are level (0.067 s dense, 0.04-0.16 s Lanczos), so 1152 stays dense
DENSE_TOP1_LIMIT = 1152


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


def eigensolver(n: int, m: int) -> str:
    """``"dense"`` or ``"lanczos"``: the path ``top_eigen`` takes for the top
    m eigenvalues of an n x n matrix."""
    limit = DENSE_TOP1_LIMIT if m == 1 else DENSE_EIGEN_LIMIT
    return "lanczos" if n > limit else "dense"


def top_eigen(matrix: np.ndarray, m: int, vectors: bool = False):
    """The m largest eigenvalues of a symmetric matrix, descending.

    ``eigensolver(N, m)`` picks the dense subset driver or Lanczos.
    With ``vectors=True`` returns ``(values, vectors)``: orthonormal
    eigenvectors as columns, sign-fixed, with residuals ||Q v - lambda v||
    verified against 1e-9 * ||Q||.
    """
    n = matrix.shape[0]
    if not 1 <= m <= n:
        raise GeometryError(f"need 1 <= m <= N, got m={m}, N={n}")
    if eigensolver(n, m) == "lanczos":
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


def lambda_curve(curve: Curve, grid: GridSpec, kappa_list, m: int = 8) -> SpectralCurve:
    """Top-m eigenvalue curves lambda_j(kappa) over an ascending kappa list."""
    cache = OperatorCache(curve, grid)
    return SpectralCurve.sample(kappa_list, lambda k: top_eigen(cache.q_matrix(k), m), grid)
