"""Top eigenvalues of the discretized boundary-integral operator and their
dependence on the spectral parameter kappa.

``top_eigen`` solves every Q as the (b, n, n) stack of blocks that
``OperatorCache.q_matrix`` returns: (1, N, N), or (2, N/2, N/2) on a wire
that splits.  It is the one eigensolve entry point and returns one
``Eigen`` record; ``_BranchEvaluator`` is the one place that pairs it with
``q_matrix``.  Desk-scale grids make a dense symmetric eigensolve the most
robust choice; only the top few eigenvalues are ever needed, so the subset
driver is used.  Larger grids use a deterministic Lanczos iteration.
Where the switch lies depends on how many eigenvalues are wanted, and on
the block size n: N for one block, N/2 for parity blocks.  Measured on one
N x N bump operator (2 vCPU, OpenBLAS, min of 3 runs; eigenvalues agree to
2e-16):

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
even and odd blocks (see ``operators``).  Each block is solved on its own,
both in one batched LAPACK call or one Lanczos run per block, and the top
m of their values are merged: the parity of a value is the block it was
solved in, and with vectors each block keeps its own top min(m, n)
columns.  A root search needs both blocks only at its search start: a
branch lives in one block, so every Newton point and the root solve that
N/2 x N/2 block alone (see ``_BranchEvaluator``).  Each block costs an
eighth of the full matrix's O(N^3) reduction.  Measured per block size on
bump a=1, w=1 at kappa = 1.15 (same machine; the Lanczos column was
re-measured later as one run per block, min of 6 runs over two processes,
when the dense batch took 0.021 / 0.025, 0.159 / 0.145, 0.151, 0.40 / 0.40
and 0.48 / 0.46 s; the two paths agree to 2e-16):

=================================  =============  ==================
case (block n = N/2)               dense, batch   Lanczos, 2 blocks
=================================  =============  ==================
m=1 / 8, n=512, L=24               0.025 / 0.032  0.020 / 0.026 s
m=1, n=1152, L=24 / 36             0.185 / 0.199  0.160 / 0.160 s
m=8, n=1152, L=24                  0.174 s        0.270 s
m=1, n=1536, L=24 / 60             0.50 / 0.60 s  0.24 / 0.36 s
m=8, n=1536, L=24 / 60             0.56 / 0.48 s  0.43 / 0.54 s
=================================  =============  ==================

The same limits hold for the block size: up to n = 1152 the two paths are
level at m = 1 and dense wins m = 8, while at n = 1536 Lanczos wins m = 1
and the m = 8 cases split with L.  Against one N x N matrix, a bump's
N=1024, m=8 solve falls from 0.094 s to 0.032 s, and the N=2304, m=1 solve
of the converge tail from 0.38 s (Lanczos) to 0.20 s (dense on 2 x 1152).
Eigensolves at distinct kappa run one after another: the BLAS underneath
each one already uses every core.

Ritz steps: Q changes smoothly with kappa, so the top p = min(m, n) + 4
vectors V of a block at one kappa nearly span its top eigenvectors at a
nearby one (eigenvector continuation, Frame et al., PRL 121, 032501
(2018)).  ``top_eigen(..., seed=V)`` takes one Rayleigh-Ritz step per
block on the block Krylov space span{V, Q V, Q^2 V, ...}, built by block
Lanczos one block of p vectors at a time (``_ritz_step``), and accepts it
under a residual-gap certificate (block Rayleigh-Ritz bounds, Knyazev,
SIAM J. Sci. Comput. 23 (2001)).  The certificate is checked from 3
blocks on, and while it fails the step adds one more block, up to
RITZ_DEPTH = 8 blocks and fewer than n columns; a block that still fails
is solved in full, as with no seed.  The evaluator keeps no vectors: each
caller holds its own seeds.  A scan steps each sample from the sample
before it with ``_BranchEvaluator.solve``, and each Newton point of a
crossing from its interval's left sample with ``eigenpair``, one block
alone (see ``solver.spectrum_scan``).  Measured at m = 8,
kappa 1.3 to 1.313 (same machine, min of 9; the seed solve is the full
solve with p vectors, and a step includes its certificates):

=======================================  ============  ==========  ==============
case                                     values solve  seed solve  Ritz step
=======================================  ============  ==========  ==============
2 x 512 blocks, scan wire, L=20, N=1024  23 ms         29 ms       2.9 ms, 3 deep
1024 one block, Simpson bump, L=24       88 ms         94 ms       5.7 ms, 4 deep
=======================================  ============  ==========  ==============

A Q build takes 2.4 and 3.7 ms.  The same steps forced to a depth (every
block of the stack, each certificate from 3 blocks on included):

=======================================  ===  ===  ===  ===  ====  ====
depth, in blocks of p = 12               3    4    5    6    7     8
=======================================  ===  ===  ===  ===  ====  ====
2 x 512 blocks, ms                       2.9  4.7  6.5  9.0  12.3  16.0
1024 one block, ms                       4.0  5.7  7.6  9.8  12.7  15.0
=======================================  ===  ===  ===  ===  ====  ====

So the deepest step costs a sixth of the values solve it replaces on one
1024 block, and two thirds on two 512 blocks.  A fixed 3-block step
stopped the sample chain of the benchmark's split scan wires at samples 8
to 11 of 20; at up to 8 blocks, 15 of the 16 blocks of 8 such wires step
through all 20, and the last fails only its step to sample 20.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dgemm
from scipy.linalg.lapack import dsyevd

from .curve import Curve
from .errors import GeometryError, NumericalFailureError
from .operators import GridSpec, OperatorCache, _product, s_kappa, unfold

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
#: a seeded solve keeps this many vectors per block beyond the k = min(m, n)
#: values it returns, so that the top k stay inside the stepped subspace
RITZ_EXTRA = 4
#: a Rayleigh-Ritz step is accepted when each of its top k values has
#: residual r and gap g to the nearest other Ritz value with g > 2 r and
#: r^2 / (g - r) <= RITZ_BOUND, its bound on the value's error; the values
#: are O(0.1), and the root tolerance on lambda is 1e-9
RITZ_BOUND = 1e-13
#: the deepest Krylov basis of a Ritz step, in blocks of p vectors; a step
#: whose certificate fails at 3 blocks adds one at a time up to this many
RITZ_DEPTH = 8


def _iterative_top(matrix, m: int, want_vectors: bool):
    """Top-m eigenpairs of a symmetric array by implicitly restarted
    Lanczos with a fixed deterministic start vector.

    A bare shifted power iteration stalls on these operators: the top of the
    spectrum sits ~1e-3 above a dense cluster of near-edge values while the
    spectral range is O(1), so its convergence ratio is 1 - O(1e-3).  Krylov
    iteration reaches the same subspace in a few dozen matvecs.
    """
    import scipy.sparse.linalg

    n = matrix.shape[0]
    v0 = np.full(n, 1.0 / math.sqrt(n))
    # ARPACK needs m < ncv <= n, so a block gives up to n - 1 values
    ncv = min(n, max(4 * m + 1, 40))
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
    diagnostics: dict = field(default_factory=dict)   # how a scan solved it

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
    m eigenvalues of a matrix made of n x n blocks.  m >= n asks for every
    value of a block, which ARPACK cannot give (it needs m < n), so that
    is dense too."""
    limit = DENSE_TOP1_LIMIT if m == 1 else DENSE_EIGEN_LIMIT
    return "lanczos" if limit < n and m < n else "dense"


class Eigen(NamedTuple):
    """The top m eigenpairs of one Q, as ``top_eigen`` returns them."""

    values: np.ndarray              # shape (m,), descending
    parity: list                    # "even" or "odd" per value, None on one block
    path: str                       # "dense", "lanczos" or "ritz"
    vectors: Optional[tuple]        # None, or per block its (n, c) columns
                                    # (None for a block solved values-only)
    bounds: tuple = ()              # per block, a Ritz bound or None; see top_eigen
    ritz_blocks: int = 0            # p-column products made by its Ritz steps
    block_values: Optional[np.ndarray] = None   # shape (b, k): each block's top
                                                # k = min(m, n), descending

    def branch(self, j: int):
        """(block, k): value j is the k-th of its block, block 0 of one
        block or parity block 0 (even) or 1 (odd)."""
        label = self.parity[j]
        block = 0 if label is None else PARITIES.index(label)
        return block, self.parity[:j].count(label)


def _full_solve(blocks: np.ndarray, c: int, vectors: bool, path: str):
    """The top c eigenvalues of each block of a (b, n, n) stack, (b, c) and
    descending per block, and with ``vectors`` a tuple of each block's (n, c)
    sign-fixed eigenvectors, residual-checked against 1e-9 * ||block||."""
    b, n, _ = blocks.shape
    if path == "lanczos":
        runs = [_iterative_top(a, c, vectors) for a in blocks]
        w = np.array([vals for vals, _ in runs])
        vecs = [v for _, v in runs]
    else:
        # one block goes to LAPACK as its 2-D matrix, two in one batched call
        a = blocks if b > 1 else blocks[0]
        if vectors:   # LAPACK's columns ascend
            w, vecs = scipy.linalg.eigh(a, subset_by_index=[n - c, n - 1])
            vecs = vecs.reshape(b, n, c)[:, :, ::-1]
        else:
            w, vecs = scipy.linalg.eigvalsh(a, subset_by_index=[n - c, n - 1]), None
        w = w.reshape(b, c)[:, ::-1]
    if not vectors:
        return w, None
    for a, vals, vs in zip(blocks, w, vecs):
        # largest |entry| without an n x n temporary
        norm_q = max(abs(vals[0]), max(a.max(), -a.min()) * n ** 0.5)
        resid = np.linalg.norm(_product(a, vs) - vs * vals, axis=0)
        j = int(np.argmax(resid))
        if resid[j] > 1e-9 * max(norm_q, 1e-30):
            raise NumericalFailureError(
                f"eigenpair {j} residual {resid[j]:.3e} exceeds 1e-9 * ||Q|| (N={n})")
    return w, tuple(np.column_stack([_fix_sign(v) for v in vs.T]) for vs in vecs)


def _orthonormal(x: np.ndarray) -> np.ndarray:
    """The Householder Q factor of an (n, p) block, in LAPACK."""
    return scipy.linalg.qr(x, mode="economic", overwrite_a=True, check_finite=False)[0]


def _ritz_step(a: np.ndarray, v: np.ndarray, k: int):
    """One block Rayleigh-Ritz step of the n x n block A on the block
    Krylov space of its (n, p) seed vectors V, deepened until certified.

    The basis is block Lanczos with full reorthogonalization: B_1 = qr(V)
    and B_{j+1} = qr((I - B B^T)^2 A B_j), B the blocks so far, with both
    Gram-Schmidt passes against all of them; every product A B_j is kept,
    so depth d costs d products of A with p columns.  From depth 3 on the
    top k values are checked: each has residual r and gap g to the nearest
    other Ritz value, and their bound is the largest r^2 / (g - r), inf
    where some g <= 2 r.  While it is above RITZ_BOUND one more block is
    added, up to RITZ_DEPTH blocks and while the basis stays below n
    columns.  The caller ensures 3 p < n.

    Returns the top k Ritz values (k,), descending, the top p Ritz vectors
    (n, p), the bound of the last depth checked and that depth, the number
    of p-column products made.  The products and factorizations run in
    scipy's BLAS and LAPACK (see ``_product``).
    """
    n, p = v.shape
    depth = min(RITZ_DEPTH, (n - 1) // p)
    basis = np.empty((n, depth * p), order="F")
    a_basis = np.empty((n, depth * p), order="F")
    t = np.empty((depth * p, depth * p), order="F")
    basis[:, :p] = _orthonormal(v)
    for d in range(1, depth + 1):
        lo, hi = (d - 1) * p, d * p
        b = basis[:, :hi]
        a_basis[:, lo:hi] = _product(a, basis[:, lo:hi])
        # the new block column of T = B^T A B, and its mirror row; dsyevd
        # reads the lower triangle
        t[:hi, lo:hi] = dgemm(1.0, b, a_basis[:, lo:hi], trans_a=True)
        t[lo:hi, :lo] = t[:lo, lo:hi].T
        if d >= 3:
            theta, c, info = dsyevd(t[:hi, :hi])
            if info != 0:
                raise NumericalFailureError(f"projected eigensolve failed (info={info})")
            theta, c = theta[::-1], c[:, ::-1]
            y = dgemm(1.0, b, c[:, :p])
            r = np.linalg.norm(dgemm(1.0, a_basis[:, :hi], c[:, :k]) - y[:, :k] * theta[:k],
                               axis=0)
            step = theta[:-1] - theta[1:]
            gap = np.minimum(np.r_[np.inf, step[:k - 1]], step[:k])
            with np.errstate(divide="ignore", invalid="ignore"):
                bound = np.where(gap > 2 * r, r ** 2 / (gap - r), np.inf).max()
            if bound <= RITZ_BOUND or d == depth:
                return theta[:k], y, bound, d
        # the first pass reuses T's column B^T A B_d
        w = a_basis[:, lo:hi] - dgemm(1.0, b, t[:hi, lo:hi])
        w -= dgemm(1.0, b, dgemm(1.0, b, w, trans_a=True))
        basis[:, hi:hi + p] = _orthonormal(w)


def top_eigen(blocks: np.ndarray, m: int, vectors: bool = False, seed=None) -> Eigen:
    """The m largest eigenvalues of a symmetric matrix, descending.

    ``blocks`` is the (b, n, n) stack of its diagonal blocks, as
    ``OperatorCache.q_matrix`` returns it: (1, N, N) for one matrix, or
    (2, N/2, N/2) for the even and odd blocks of a persymmetric one.  The
    top k = min(m, n) values of each block are merged; the parity of a
    value is the block it comes from, None on one block, and the record's
    ``block_values`` keeps each block's top k.  ``eigensolver(n, m)``
    picks the path from the block size n.

    ``seed`` is None or holds one entry per block: the (n, p) vectors of an
    earlier record on a stack of the same shape, or None.  Seed vectors
    take one Rayleigh-Ritz step (``_ritz_step``), deepened until its Ritz
    values' bound is at most RITZ_BOUND; ``ritz_blocks`` counts the
    p-column products of the steps, accepted or not.  Every other block,
    and every block when 3p >= n, is solved in full, all of them in one
    batched dense call or one Lanczos run per block.  With ``vectors=True``
    the record's ``vectors`` hold, per block, the orthonormal, sign-fixed
    eigenvectors of its top values as (n, c) columns, descending and
    residual-checked against 1e-9 * ||Q||: c = k with no seed, and with a
    seed c = p = k + RITZ_EXTRA (at most n), which a later call steps from.
    Without, a seeded record's ``vectors`` hold the stepped blocks' p
    vectors and None for a block solved in full, and an unseeded one's are
    None.  A block solved in full gives the values of a solve with no seed,
    bit for bit, on the dense path.  ``bounds`` holds per block the
    accepted bound, or None where the block was solved in full, and
    ``path`` is ``"ritz"`` when every block was stepped.
    """
    nb, n, _ = blocks.shape
    if not 1 <= m <= nb * n:
        raise GeometryError(f"need 1 <= m <= N, got m={m}, N={nb * n}")
    k = min(m, n)
    path = eigensolver(n, m)
    p = k if seed is None else min(k + RITZ_EXTRA, n)
    w = np.empty((nb, k))
    vecs, bounds, ritz_blocks = [None] * nb, [None] * nb, 0
    for i, v in enumerate(() if seed is None else seed):
        if v is not None and 3 * p < n:
            w_i, y, bound, depth = _ritz_step(blocks[i], v, k)
            ritz_blocks += depth
            if bound <= RITZ_BOUND:
                w[i], vecs[i], bounds[i] = w_i, y, float(bound)
    full = [i for i in range(nb) if bounds[i] is None]
    if full:
        # a stack has at most two blocks, so the blocks to solve are all or one
        part = blocks if len(full) == nb else blocks[full[0]:full[0] + 1]
        w_full, v_full = _full_solve(part, p if vectors else k, vectors, path)
        for j, i in enumerate(full):
            w[i] = w_full[j, :k]
            vecs[i] = v_full[j] if vectors else None
    else:
        path = "ritz"
    # a stable merge: for one block this is the identity
    order = np.argsort(-w.ravel(), kind="stable")[:m]
    vals, block = w.ravel()[order], order // k
    parity = [None] * m if nb == 1 else [PARITIES[b] for b in block]
    vecs = tuple(vecs) if vectors or seed is not None else None
    return Eigen(vals, parity, path, vecs, tuple(bounds), ritz_blocks, w)


class _BranchEvaluator:
    """lambda_j(kappa): the top-m values of the stack Q_kappa, or of one of
    its blocks, from ``OperatorCache.q_matrix`` and ``top_eigen``, counted.
    Nothing is kept between calls: every evaluation builds its Q.

    ``solve(kappa, seed=None, vectors=False)`` solves every block of the
    stack and counts the record as an evaluation.  ``seed`` and ``vectors``
    are ``top_eigen``'s, except that ``vectors=True`` asks for seed
    vectors, p = min(m, n) + RITZ_EXTRA per block, with or without a seed;
    the caller keeps the seeds.

    A root search solves with ``eigenpair(kappa, block=None, seed=None)``:
    one solve with the vectors of its values, which give the
    Hellmann-Feynman slope (``OperatorCache.slope``).  A root search
    follows one branch, which lives in one block, so it names that block:
    on a split cache the N/2 x N/2 block is solved alone, half the
    eigensolve, at the batched call's subset size min(m, n), so a dense
    block solve gives the stack's values bit for bit; block 0 of a cache
    that does not split is the whole stack.  ``seed`` is None or that
    block's (n, p) vectors from an earlier record, which the block steps
    from as in ``top_eigen``.  It is not counted until the search calls
    ``count``: ``solve``'s search start and every Newton point that is not
    the root are counted as evaluations, its root is not, so Q is built
    once per evaluation plus once per root; a scan counts its roots too.

    The counters say how each counted solve went: ``evaluations`` counts
    them, ``dense_solves`` those that solved some block in full (dense or
    Lanczos), ``ritz_steps`` counts blocks that took a Ritz step,
    ``ritz_fallbacks`` blocks that had seed vectors but were solved in full,
    ``ritz_blocks`` the p-column products of every step, accepted or not,
    and ``ritz_worst_bound`` is the largest accepted bound.

    Used as a context manager: leaving the block drops the operator cache,
    so that no reference cycle through the evaluator, such as a closure
    over it, can hold the cache's N x N arrays until the cyclic garbage
    collector next runs.
    """

    def __init__(self, curve: Curve, grid: GridSpec, m: int):
        self.cache = OperatorCache(curve, grid)
        self.m = m
        self.evaluations = 0
        self.dense_solves = 0
        self.ritz_steps = 0
        self.ritz_fallbacks = 0
        self.ritz_blocks = 0
        self.ritz_worst_bound = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.cache = None

    def solve(self, kappa: float, seed=None, vectors: bool = False) -> Eigen:
        """The record of the stack at kappa, counted as an evaluation."""
        q = self.cache.q_matrix(float(kappa))
        if vectors and seed is None:
            seed = (None,) * len(q)
        rec = top_eigen(q, self.m, vectors, seed)
        self.count(rec, seed)
        return rec

    def count(self, rec: Eigen, seed=None) -> None:
        """Count ``rec``, solved with ``seed``, as an evaluation."""
        stepped = [b for b in rec.bounds if b is not None]
        if stepped:
            self.ritz_worst_bound = max(stepped + [self.ritz_worst_bound or 0.0])
        self.ritz_fallbacks += sum(v is not None and b is None
                                   for v, b in zip(seed or (), rec.bounds))
        self.ritz_steps += len(stepped)
        self.ritz_blocks += rec.ritz_blocks
        self.dense_solves += rec.path != "ritz"
        self.evaluations += 1

    def eigenpair(self, kappa: float, block=None, seed=None):
        """(record, h): a record at kappa with the vectors of its values,
        k = min(m, n) per block, or p with a seed, not counted until
        ``count``.  Block None solves the whole stack, and h is None.  Block
        ``block`` solves that block alone, stepping from ``seed`` if given,
        and h holds the eigenvectors of Q its vectors give: the one block's
        as they are, and on a split cache each block vector unfolded
        (``unfold``)."""
        q = self.cache.q_matrix(float(kappa))
        if block is None:
            return top_eigen(q, self.m, vectors=True), None
        rec = top_eigen(q[block:block + 1], min(self.m, q.shape[1]), vectors=True,
                        seed=None if seed is None else (seed,))
        y = rec.vectors[0]
        if len(q) == 1:
            return rec, y
        return rec._replace(parity=[PARITIES[block]] * len(rec.values)), unfold(y, block)


def lambda_curve(curve: Curve, grid: GridSpec, kappa_list, m: int = 8) -> SpectralCurve:
    """Top-m eigenvalue curves lambda_j(kappa) over a finite, positive,
    strictly ascending kappa list, checked with 1 <= m <= N before anything
    is built."""
    kappas = np.asarray(kappa_list, dtype=float)
    if kappas.ndim != 1 or kappas.size == 0:
        raise GeometryError("kappa_list must be a non-empty 1D sequence")
    if not np.all(np.isfinite(kappas) & (kappas > 0)) or np.any(np.diff(kappas) <= 0):
        raise GeometryError("kappa_list must be finite, positive and strictly ascending")
    if not 1 <= m <= grid.N:
        raise GeometryError(f"need 1 <= m <= N, got m={m}, N={grid.N}")
    with _BranchEvaluator(curve, grid, m) as ev:
        lambdas = np.array([ev.solve(k).values for k in kappas])
    return SpectralCurve(kappas, lambdas, np.asarray(s_kappa(kappas)))
