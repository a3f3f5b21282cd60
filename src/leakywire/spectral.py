"""Top eigenvalues of the discretized boundary-integral operator and their
dependence on the spectral parameter kappa.

``top_eigen`` is the one eigensolve entry point and returns one ``Eigen``
record; ``_BranchEvaluator`` is the one place that pairs it with
``OperatorCache.q_matrix``.  Desk-scale grids make a dense symmetric
eigensolve the most robust choice; only the top few eigenvalues are ever
needed, so the subset driver is used.  Larger grids use a deterministic
Lanczos iteration.  Where the switch lies depends on how many eigenvalues
are wanted, and on the size n of the blocks solved: N for one matrix, N/2
for parity blocks.  Measured on
one N x N bump operator (2 vCPU, OpenBLAS, min of 3 runs; eigenvalues agree
to 2e-16):

==============================  ============  ======================
case                            dense         Lanczos
==============================  ============  ======================
m=1, N=1152, L=36               0.067 s       0.04-0.16 s
m=1, N=1536, L=24 / 36 / 60     0.18-0.20 s   0.065 / 0.084 / 0.143 s
m=8, N=1536, L=48 / 60          0.18 s        0.26 / 0.30 s
==============================  ============  ======================

So one eigenvalue goes to Lanczos above n = 1152 (DENSE_TOP1_LIMIT), where
it wins clearly, while m > 1 stays dense up to n = 2048
(DENSE_EIGEN_LIMIT): Lanczos pays for every extra Ritz vector it converges.

Parity: a persymmetric operator arrives as the (2, N/2, N/2) stack of its
even and odd blocks (see ``operators``).  A stack is solved for values
only: one batched LAPACK call, or one Lanczos run on the block-diagonal
operator whose Ritz vectors tell the block of each value, and the top m of
their values are merged.  A root search needs both blocks only at its
bracket start: a branch lives in one block, so every other evaluation and
the root solve that N/2 x N/2 block alone (see ``_BranchEvaluator``), and
eigenvectors are solved for one matrix only.  Each block costs an eighth
of the full matrix's O(N^3) reduction.  Measured per block size on bump
a=1, w=1 at kappa = 1.15 (same machine; the two paths agree to 4e-16):

=================================  =============  ==================
case (block n = N/2)               dense, batch   Lanczos, 2 blocks
=================================  =============  ==================
m=1 / 8, n=512, L=24               0.025 / 0.032  0.050 / 0.085 s
m=1, n=1152, L=24 / 36             0.185 / 0.199  0.215 / 0.247 s
m=8, n=1152, L=24                  0.174 s        0.300 s
m=1, n=1536, L=24 / 60             0.50 / 0.60 s  0.37 / 0.72 s
m=8, n=1536, L=24 / 60             0.56 / 0.48 s  0.65 / 1.15 s
=================================  =============  ==================

The same limits hold for the block size: at n = 1536 and m = 1 the two
paths trade places with L, and dense wins every m = 8 case.  Against one
N x N matrix, a bump's N=1024, m=8 solve falls from 0.094 s to 0.032 s, and
the N=2304, m=1 solve of the converge tail from 0.38 s (Lanczos) to 0.20 s
(dense on 2 x 1152).  Eigensolves at distinct kappa run one after another:
the BLAS underneath each one already uses every core.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
import scipy.linalg
from scipy.sparse.linalg import LinearOperator

from .curve import Curve
from .errors import GeometryError, NumericalFailureError
from .operators import GridSpec, OperatorCache, s_kappa

#: labels of the blocks of a parity stack, in ``OperatorCache`` order
PARITIES = ("even", "odd")


#: largest grid solved by dense decomposition when m > 1 eigenvalues are
#: wanted; above it Lanczos runs.  At m=8, N=1536 dense still wins (0.18 s
#: against 0.26-0.30 s for Lanczos; table in the module docstring)
DENSE_EIGEN_LIMIT = 2048
#: the same limit for the top eigenvalue alone (m = 1).  Lanczos wins from
#: N=1536 on (0.065-0.143 s against 0.18-0.20 s dense); at N=1152 the two
#: are level (0.067 s dense, 0.04-0.16 s Lanczos), so 1152 stays dense
DENSE_TOP1_LIMIT = 1152


def _iterative_top(matrix, m: int, want_vectors: bool):
    """Top-m eigenpairs of a symmetric array or LinearOperator by implicitly
    restarted Lanczos with a fixed deterministic start vector.

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

    @classmethod
    def sample(cls, kappa_list, values) -> "SpectralCurve":
        """The curve of ``values(kappa)`` (top eigenvalues, descending) over
        a positive, strictly ascending kappa list."""
        kappas = np.asarray(kappa_list, dtype=float)
        if kappas.ndim != 1 or kappas.size == 0:
            raise GeometryError("kappa_list must be a non-empty 1D sequence")
        if np.any(kappas <= 0) or np.any(np.diff(kappas) <= 0):
            raise GeometryError("kappa_list must be positive and strictly ascending")
        return cls(kappas, np.array([values(k) for k in kappas]), np.asarray(s_kappa(kappas)))

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
    m eigenvalues of a matrix made of n x n blocks."""
    limit = DENSE_TOP1_LIMIT if m == 1 else DENSE_EIGEN_LIMIT
    return "lanczos" if n > limit else "dense"


def _block_diagonal(blocks: np.ndarray) -> LinearOperator:
    """The block-diagonal matrix of a (b, n, n) stack as a LinearOperator."""
    b, n, _ = blocks.shape
    product = lambda x: np.matmul(blocks, x.reshape(b, n, -1)).reshape(b * n, -1)
    return LinearOperator((b * n, b * n), matvec=product, matmat=product, dtype=blocks.dtype)


class Eigen(NamedTuple):
    """The top m eigenpairs of one Q, as ``top_eigen`` returns them."""

    values: np.ndarray              # shape (m,), descending
    parity: list                    # "even", "odd" or None (one block) per value
    path: str                       # "dense" or "lanczos"
    vectors: Optional[np.ndarray]   # (N, m) columns; None unless asked for

    def branch(self, j: int):
        """(block, k): value j is the k-th of its parity block (0 even, 1
        odd), or (None, j) on one matrix."""
        label = self.parity[j]
        if label is None:
            return None, j
        return PARITIES.index(label), self.parity[:j].count(label)


def top_eigen(matrix: np.ndarray, m: int, vectors: bool = False) -> Eigen:
    """The m largest eigenvalues of a symmetric matrix, descending.

    ``matrix`` is one N x N matrix, or the (2, N/2, N/2) stack of the even
    and odd blocks of a persymmetric one (``OperatorCache.q_matrix`` returns
    either).  The blocks of a stack are solved together, in one batched
    dense call or one Lanczos run on the block-diagonal operator, and their
    values merged; the parity of a value is the block it comes from.
    ``eigensolver(n, m)`` picks the path from the block size n.  Only one
    matrix is solved with ``vectors=True``: the record then holds its
    orthonormal eigenvectors as columns, sign-fixed, with residuals
    ||Q v - lambda v|| verified against 1e-9 * ||Q||.
    """
    blocks = matrix if matrix.ndim == 3 else matrix[None]
    nb, n, _ = blocks.shape
    if not 1 <= m <= nb * n:
        raise GeometryError(f"need 1 <= m <= N, got m={m}, N={nb * n}")
    if vectors and nb > 1:
        raise ValueError("eigenvectors are solved for one matrix only")
    path = eigensolver(n, m)
    if path == "lanczos":
        vals, vecs = _iterative_top(_block_diagonal(blocks), m, vectors or nb > 1)
        if nb > 1:   # the parity of a value is the block its Ritz vector lies in
            block = np.argmax(np.linalg.norm(vecs.T.reshape(m, nb, n), axis=2), axis=1)
    else:
        # a 2-D matrix goes to LAPACK as it is; a stack in one batched call
        k = min(m, n)
        if vectors:   # LAPACK's columns ascend
            w, vecs = scipy.linalg.eigh(matrix, subset_by_index=[n - k, n - 1])
            vecs = vecs[:, ::-1]
        else:
            w = scipy.linalg.eigvalsh(matrix, subset_by_index=[n - k, n - 1])
        w = w.reshape(nb, k)[:, ::-1].ravel()
        # a stable merge: for one matrix this is the identity
        order = np.argsort(-w, kind="stable")[:m]
        vals, block = w[order], order // k
    parity = [None] * m if nb == 1 else [PARITIES[b] for b in block]
    if not vectors:
        return Eigen(vals, parity, path, None)
    # largest |entry| without an N x N temporary
    norm_q = max(abs(vals[0]), max(matrix.max(), -matrix.min()) * n ** 0.5)
    # one matrix-vector product per value: a single matrix product would
    # touch the BLAS GEMM buffers, about 7 MiB more peak memory per process
    resid = [np.linalg.norm(matrix @ v - lam * v) for lam, v in zip(vals, vecs.T)]
    j = int(np.argmax(resid))
    if resid[j] > 1e-9 * max(norm_q, 1e-30):
        raise NumericalFailureError(
            f"eigenpair {j} residual {resid[j]:.3e} exceeds 1e-9 * ||Q|| (N={n})")
    return Eigen(vals, parity, path, np.column_stack([_fix_sign(v) for v in vecs.T]))


class _BranchEvaluator:
    """lambda_j(kappa): the top-m values of Q_kappa, or of one parity block
    of it, memoized per (kappa, block), from ``OperatorCache.q_matrix`` and
    ``top_eigen``.

    A root search follows one branch, and on a split cache each branch lives
    in one block, so ``values(kappa, block)`` builds the stack and solves
    that N/2 x N/2 block of it alone, half the eigensolve.  Its subset size
    min(m, N/2) is the batched call's, so a dense block solve gives the
    stack's values bit for bit.  Only ``record``, which a search reads at
    its bracket start, solves both blocks; at a kappa that has that record,
    a block's values are read from it.  ``eigenpair(kappa, block)`` solves
    the root's block again with vectors.

    Used as a context manager: leaving the block drops the operator cache.
    scipy's brentq keeps the objective in a self-referencing wrapper, so a
    root-search closure over the evaluator would otherwise hold the cache's
    N x N arrays until the cyclic garbage collector next runs.
    """

    def __init__(self, curve: Curve, grid: GridSpec, m: int):
        self.cache = OperatorCache(curve, grid)
        self.m = m
        self._records = {}
        self._block_values = {}
        self.evaluations = 0        # values-only solves, one per distinct (kappa, block)
        self.block_evaluations = 0  # those of them that solved one parity block

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.cache = None

    def record(self, kappa: float) -> Eigen:
        """The values-only record of both blocks at kappa, solved once per kappa."""
        key = float(kappa)
        if key not in self._records:
            self._records[key] = top_eigen(self.cache.q_matrix(key), self.m)
            self.evaluations += 1
        return self._records[key]

    def values(self, kappa: float, block=None) -> np.ndarray:
        """The top values at kappa, descending: of Q with ``block`` None, else
        of parity block ``block`` (0 even, 1 odd) of a split cache."""
        key = float(kappa)
        if block is None:
            return self.record(key).values
        if (key, block) not in self._block_values:
            if key in self._records:
                both = self._records[key]
                vals = both.values[[p == PARITIES[block] for p in both.parity]]
            else:
                q = self.cache.q_matrix(key)[block]
                vals = top_eigen(q, min(self.m, q.shape[0])).values
                self.evaluations += 1
                self.block_evaluations += 1
            self._block_values[key, block] = vals
        return self._block_values[key, block]

    def eigenpair(self, kappa: float, block=None) -> Eigen:
        """A fresh record with vectors at kappa, not memoized: of Q with
        ``block`` None, else of parity block ``block`` of a split cache, each
        block vector y unfolded to [y; J y]/sqrt 2 (even) or [y; -J y]/sqrt 2
        (odd), an eigenvector of Q."""
        q = self.cache.q_matrix(float(kappa))
        if block is None:
            return top_eigen(q, self.m, vectors=True)
        rec = top_eigen(q[block], min(self.m, q.shape[1]), vectors=True)
        y = rec.vectors
        mirror = y[::-1] if block == 0 else -y[::-1]
        h = np.vstack((y, mirror)) / math.sqrt(2.0)
        return rec._replace(parity=[PARITIES[block]] * len(rec.values), vectors=h)


def lambda_curve(curve: Curve, grid: GridSpec, kappa_list, m: int = 8) -> SpectralCurve:
    """Top-m eigenvalue curves lambda_j(kappa) over an ascending kappa list."""
    with _BranchEvaluator(curve, grid, m) as ev:
        return SpectralCurve.sample(kappa_list, ev.values)
