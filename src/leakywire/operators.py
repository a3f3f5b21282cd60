"""Discretized boundary-integral operators on a truncated wire.

The Birman-Schwinger reduction replaces the 3D eigenvalue problem at energy
-kappa^2 by a one-dimensional integral operator acting on functions of arc
length,

    Q_kappa = T_kappa + B_kappa ,

where T_kappa is the translation-invariant part (a Fourier multiplier, the
whole operator for a straight wire) and B_kappa is the bending kernel

    B_kappa(s, s') = exp(-kappa*rho)/(4 pi rho) - exp(-kappa*sigma)/(4 pi sigma),
    rho = |gamma(s) - gamma(s')|,  sigma = |s - s'| ,

which is pointwise >= 0 because rho <= sigma and x -> exp(-kappa x)/x is
decreasing.  A bound state of coupling alpha corresponds to an eigenvalue
lambda(kappa) = alpha of Q_kappa with kappa above the continuum edge.

Discretization:

* T_kappa is assembled spectrally, as a symmetric circulant on the midpoint
  grid of [-L, L] with exact eigenvalues m_kappa(p_n) on the grid momenta
  p_n = pi n / L.  This sidesteps the logarithmic on-diagonal renormalization
  of the position-space kernel entirely and makes the straight wire exactly
  solvable on the grid: the top eigenvalue is s_kappa to machine precision.
* B_kappa uses midpoint quadrature with uniform weight Delta = 2L/N and its
  diagonal set to 0, the continuous extension (the kernel vanishes linearly
  on the diagonal for C^2 curves, B(s, s+u) ~ k(s)^2 u / (96 pi)).

Parity: a wire whose chords satisfy rho(s_i, s_j) = rho(s_(N-1-i),
s_(N-1-j)) on the grid (any bump or power tail: an even curvature profile;
a sampled wire that is the same after a rotation by pi, such as x and z
odd and y even in t) has a persymmetric Q, Q = J Q J with J the index
reversal.  With Q11 the top-left and Q12 the top-right N/2 x N/2 block,
the orthogonal basis [y; J y]/sqrt 2, [y; -J y]/sqrt 2 splits Q exactly
into the even block Q11 + Q12 J and the odd block Q11 - Q12 J (Cantoni &
Butler, Linear Algebra Appl. 13, 1976).  ``OperatorCache`` tests the N
positions, not the N^2 chords: it fits an isometry p(s_(N-1-i)) ~ R p(s_i)
+ t by an orthogonal Procrustes (Kabsch) fit, and a wire passes when no
position misses by more than ``MIRROR_ULPS`` ulps of the largest distance
between mirror nodes, which keeps mirror chords within 16 ulps of the
largest chord.  A cache keeps one chord array from one ``pairwise_chords``
call, on the nodes s_0 .. s_(h-1), s_(N-1) .. s_h and columns the first
h: the N x N chords (h = N) when the wire fails the test, an N x N/2
array (h = N/2) when it passes.  Its top rows are then the top-left block
rho(s_i, s_j), and its bottom rows the transpose of the column-reversed
top-right block rho(s_i, s_(N-1-j)), averaged with its mirror image, its
transpose.  A planar profile's chords are compensated, accurate relative
to each chord, and its top-left block is kept as it is; any other curve's
chords carry the absolute rounding of their positions, which the kernel
scales by Delta / rho^2 next to the diagonal, so the block is averaged
with its mirror image, the reversed bottom-right block, and the halves
are those of (rho + J rho J)/2.  The array reshapes to the (2, N/2, N/2)
stack of the halves without a copy, so one contiguous pass of
exponentials builds Q11 and Q12 J, summed and differenced in blocks of
``curve.PAIR_ROWS`` rows.  T is symmetric Toeplitz and splits on every
wire, the straight line, which has no chords, included.  A sampled curve
centres its arc length as the mean of the sums from either end, so
mirror-image samples get mirror-image arc lengths up to rounding and a
symmetric sampled wire splits too.  Wires that fail the test (sampled
data that are asymmetric themselves, such as a one-sided cumulative
Simpson sum, miss by 84 ulps or more) keep Q whole: ``q_matrix`` returns
every Q as a (b, n, n) stack of blocks, here the (1, N, N) stack of one
block.  A split cache builds half the chords (three quarters on a curve
whose chords are not compensated), keeps half and computes half the
exponentials per kappa.  Measured on bump a=1, w=1 at kappa = 1.15 (2
vCPU, OpenBLAS, min of 3 runs; the set-up row from min of 7, the one block
there on the same bump centred at s = 0.25, which fails the test):

=============  ==========  ============  =============================
Q build        one block   parity stack  chord array (one / split)
=============  ==========  ============  =============================
N=1024, L=24   8.2 ms      4.0 ms        N x N, 8 MiB / N x N/2, 4 MiB
N=2304, L=24   58 ms       27 ms         40.5 MiB / 20.25 MiB
N=2304 set-up  151 ms      86 ms         N^2 / (N^2 / 2) chords built
=============  ==========  ============  =============================

Assembly: there is one builder and one reference.  ``OperatorCache.q_matrix``
builds every Q the solvers use, so a change of quadrature rule is made
there alone.  ``assemble_T(grid, kappa) + grid.delta *
bending_kernel_matrix(curve, grid, kappa)`` is the independent pointwise
reference: the tests hold the cache to it, and the oracles use its parts.

Slope: the root search's Newton steps need dlambda/dkappa = <y, dQ/dkappa
y> for a unit eigenvector y (Hellmann-Feynman).  ``OperatorCache.slope``
computes it for one block without an N x N array: dQ/dkappa is Toeplitz,
-kappa / (2 pi (p^2 + kappa^2)) on the grid momenta plus (Delta / 4 pi)
exp(-kappa sigma), whose form is read off the unfolded vector's
autocorrelation by FFT, less (Delta / 4 pi) exp(-kappa rho) on the chords,
one pass of exponentials over the kept chord array.

Free-line constants:

    m_kappa(p) = (1/2pi) (psi(1) + ln 2 - ln sqrt(p^2 + kappa^2))
    s_kappa    = m_kappa(0) = (1/2pi) (psi(1) - ln(kappa/2))
    kappa0(alpha) = 2 exp(psi(1) - 2 pi alpha)   (solves s_kappa = alpha)
    zeta0(alpha)  = -kappa0(alpha)^2             (continuum edge)

with psi(1) = -0.57721566490153286, the digamma function at 1 (minus the
Euler-Mascheroni constant).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg.blas import dgemm

from .curve import PAIR_ROWS, Curve, StraightLine
from .errors import GeometryError, InvalidKernelError, SingularGeometryError

PSI_ONE = -0.57721566490153286
TWO_PI = 2.0 * math.pi

#: entries of an assembled bending matrix may dip this far below zero
#: before we call the kernel invalid (pure floating-point noise floor)
KERNEL_NEGATIVITY_TOL = 1e-14


@dataclass(frozen=True)
class GridSpec:
    """Midpoint grid on [-L, L]: nodes s_i = -L + (i + 1/2) Delta."""

    L: float
    N: int

    def __post_init__(self):
        if not 0 < self.L < math.inf:   # NaN fails too
            raise GeometryError("grid half-length L must be positive and finite")
        if not isinstance(self.N, numbers.Integral) or self.N <= 0 or self.N % 2 != 0:
            raise GeometryError("grid size N must be a positive even integer")

    @property
    def delta(self) -> float:
        return 2.0 * self.L / self.N

    @cached_property
    def nodes(self) -> np.ndarray:
        return -self.L + (np.arange(self.N) + 0.5) * self.delta

    @cached_property
    def momenta(self) -> np.ndarray:
        """Grid momenta pi*n/L, n = -N/2 .. N/2 - 1, in FFT ordering."""
        return TWO_PI * np.fft.fftfreq(self.N, d=self.delta)


def s_kappa(kappa) -> float:
    """Top of the free-line spectrum, (1/2pi)(psi(1) - ln(kappa/2))."""
    kappa = np.asarray(kappa, dtype=float)
    if np.any(kappa <= 0):
        raise GeometryError("kappa must be positive")
    out = (PSI_ONE - np.log(kappa / 2.0)) / TWO_PI
    return float(out) if out.ndim == 0 else out


def kappa0(alpha: float) -> float:
    """Unique kappa with s_kappa = alpha."""
    return 2.0 * math.exp(PSI_ONE - TWO_PI * alpha)


def zeta0(alpha: float) -> float:
    """Continuum edge -4 exp(2(psi(1) - 2 pi alpha)) = -kappa0(alpha)^2."""
    return -(kappa0(alpha) ** 2)


def t_multiplier(p, kappa):
    """Fourier multiplier of the free-line operator.

    m_kappa(p) = (1/2pi)(psi(1) + ln 2 - ln sqrt(p^2 + kappa^2)); the value
    at p = 0 is s_kappa and the function decreases monotonically in |p|.
    """
    if kappa <= 0:
        raise GeometryError("kappa must be positive")
    p = np.asarray(p, dtype=float)
    out = (PSI_ONE + math.log(2.0) - 0.5 * np.log(p * p + kappa * kappa)) / TWO_PI
    return float(out) if out.ndim == 0 else out


def _check_chord_arc(rho: np.ndarray, delta: float, rows: np.ndarray | None = None) -> None:
    """Raise on the first pair of distinct grid nodes, node spacing delta,
    whose chord rho[k, j] is below 1e-12: their points coincide.  Row k of
    rho is grid node rows[k], node k by default, and column j is node j;
    the pair is reported as (min, max)."""
    k, j = np.nonzero(rho < 1e-12)
    i = k if rows is None else rows[k]
    distinct = np.flatnonzero(np.abs(i - j) * delta > 1e-9)
    if distinct.size:
        a, b = sorted((i[distinct[0]], j[distinct[0]]))
        raise SingularGeometryError(
            f"distinct parameters map to the same point (pair index "
            f"({a}, {b})); the curve violates the chord-arc condition")


def bending_kernel_matrix(curve: Curve, grid: GridSpec, kappa: float) -> np.ndarray:
    """Kernel values B_kappa(s_i, s_j) on the grid nodes (no quadrature weight)."""
    nodes = grid.nodes
    rho = curve.pairwise_chords(nodes)
    _check_chord_arc(rho, grid.delta)
    sigma = np.abs(nodes[:, None] - nodes[None, :])
    off = sigma > 0
    out = np.zeros_like(sigma)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = (np.exp(-kappa * rho) / rho - np.exp(-kappa * sigma) / sigma) / (4.0 * math.pi)
    out[off] = vals[off]
    return out


def assemble_T(grid: GridSpec, kappa: float) -> np.ndarray:
    """Symmetric circulant with eigenvalues m_kappa(p_n) on the grid momenta.

    The constant vector is an exact eigenvector with eigenvalue
    m_kappa(0) = s_kappa.
    """
    return _symmetric_toeplitz(_t_first_row(grid, kappa)).copy()


def _symmetric_toeplitz(row: np.ndarray) -> np.ndarray:
    """Read-only N x N view with entry (i, j) = row[|i - j|]; no N^2 copy.

    For the circulant first row of T (row[d] == row[N - d] exactly) this is
    the circulant row[(i - j) % N] itself.
    """
    n = row.size
    both_ways = np.concatenate((row[:0:-1], row))   # row[|k - (n - 1)|], k < 2n - 1
    return np.lib.stride_tricks.sliding_window_view(both_ways, n)[::-1]


def _hankel_reversed(row: np.ndarray) -> np.ndarray:
    """Read-only N/2 x N/2 view with entry (i, j) = row[N - 1 - i - j]: the
    block T12 J of the symmetric Toeplitz matrix of ``row``; no copy."""
    h = row.size // 2
    return np.lib.stride_tricks.sliding_window_view(row[:0:-1], h)


def _t_first_row(grid: GridSpec, kappa: float) -> np.ndarray:
    return _circulant_row(t_multiplier(grid.momenta, kappa))


def _dt_first_row(grid: GridSpec, kappa: float) -> np.ndarray:
    """First row of dT/dkappa: the circulant of dm_kappa/dkappa =
    -kappa / (2 pi (p^2 + kappa^2))."""
    p = grid.momenta
    return _circulant_row(-kappa / (TWO_PI * (p * p + kappa * kappa)))


def _circulant_row(m: np.ndarray) -> np.ndarray:
    """First row of the symmetric circulant with eigenvalues m on the grid
    momenta (FFT ordering)."""
    row = np.fft.ifft(m).real
    # enforce row[d] == row[N-d] exactly
    rev = np.roll(row[::-1], 1)
    return 0.5 * (row + rev)


def _toeplitz_form(row: np.ndarray, x: np.ndarray) -> float:
    """x^T A x for the symmetric Toeplitz A with first row ``row``, from the
    autocorrelation of x by FFT, without the N x N matrix."""
    n = row.size
    corr = np.fft.irfft(np.abs(np.fft.rfft(x, 2 * n)) ** 2, 2 * n)[:n]
    return float(row[0] * corr[0] + 2.0 * np.dot(row[1:], corr[1:]))


def unfold(y: np.ndarray, block: int) -> np.ndarray:
    """The vectors of Q that the vectors y (rows: block nodes) of parity
    block ``block`` give: [y; J y]/sqrt 2 for 0 (even), [y; -J y]/sqrt 2
    for 1 (odd); unit vectors stay unit vectors."""
    mirror = y[::-1] if block == 0 else -y[::-1]
    return np.concatenate((y, mirror)) / math.sqrt(2.0)


def _product(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x in scipy's BLAS, whose threads and GEMM buffers the dense solves
    already use; ``a.T`` is the Fortran-ordered view BLAS reads without a copy.

    numpy's OpenBLAS is a second thread pool, and on 2 cores the two pools'
    spinning threads starve each other: with numpy products a Ritz step on
    2 x 512 blocks took 21 ms inside a scan instead of 5 ms, and scan
    requests were no faster than with no steps at all (1.7-2.1 s against
    1.6-2.0 s).
    """
    return dgemm(1.0, a.T, x, trans_a=True)


def hs_norm(b: np.ndarray) -> float:
    """Grid estimate of the Hilbert-Schmidt norm (integral of the squared
    kernel) of a weighted bending matrix Delta * B(s_i, s_j); for the
    midpoint matrix this is its Frobenius norm."""
    return float(np.sqrt(np.sum(b ** 2)))


def schur_holmgren_norm(b: np.ndarray) -> float:
    """Row-integral bound sup_s int B(s, s') ds' for a positive kernel: the
    largest row sum of the weighted bending matrix Delta * B(s_i, s_j).
    Dominates the operator 2-norm."""
    if float(b.min()) < -KERNEL_NEGATIVITY_TOL:
        i, j = np.unravel_index(int(np.argmin(b)), b.shape)
        raise InvalidKernelError(
            f"kernel entry ({i}, {j}) = {b[i, j]:.3e} is negative beyond tolerance")
    return float(np.max(np.sum(b, axis=1)))


#: a wire is mirror-symmetric on the grid when one isometry maps every node's
#: position onto its mirror node's within this many ulps of the largest
#: distance between mirror nodes, itself a chord; mirror chords then agree
#: within 16 ulps of the largest chord.  Measured (N = 128 .. 2304): planar
#: profiles 6.4 at most, the benchmark's seeded scan wires 6.5, and a bump
#: sampled from a one-sided cumulative Simpson sum 84 to 100
MIRROR_ULPS = 8


def _mirror_symmetric(p: np.ndarray) -> bool:
    """True if an isometry x -> R x + t maps p[i] to p[N-1-i] for every row
    i of the (N, 3) positions p within MIRROR_ULPS.  R is the orthogonal
    Procrustes (Kabsch) fit on the centred positions, with no determinant
    sign imposed: a reflection keeps chords as a rotation does."""
    centred = p - p.mean(axis=0)
    mirror = centred[::-1]
    u, _, vt = np.linalg.svd(centred.T @ mirror)
    residual = np.max(np.linalg.norm(centred @ (u @ vt) - mirror, axis=1))
    spread = np.max(np.linalg.norm(p - p[::-1], axis=1))
    return bool(residual <= MIRROR_ULPS * np.finfo(float).eps * spread)


def _symmetrize(a: np.ndarray) -> None:
    """a replaced in place by (a + a.T) / 2, a square tile of PAIR_ROWS rows
    and its mirror tile at a time, so both triangles get the same bits."""
    n = a.shape[0]
    for k in range(0, n, PAIR_ROWS):
        rows = slice(k, k + PAIR_ROWS)
        for c in range(k, n, PAIR_ROWS):
            cols = slice(c, c + PAIR_ROWS)
            mean = a[rows, cols] + a[cols, rows].T
            mean *= 0.5
            a[rows, cols] = mean
            a[cols, rows] = mean.T


class OperatorCache:
    """Per-(curve, grid) assembly cache for repeated kappa sweeps.

    Only the chord half of the bending kernel, exp(-kappa rho)/(4 pi rho),
    needs an N x N array.  The arc half, exp(-kappa sigma)/(4 pi sigma) with
    sigma = |i - j| Delta, depends on |i - j| only, as does the circulant T,
    so both fold into one Toeplitz row.  The pairwise chords are computed
    and checked for coincident points once, with an infinite diagonal so
    that exp(-kappa rho)/rho is exactly 0 there (the kernel's diagonal
    value); each kappa then costs one Toeplitz row and one N x N
    exponential, written into the returned (1, N, N) stack.

    A wire whose N positions pass the mirror test (see the module
    docstring) sets ``parity``: its one chord array is then N x N/2, the
    top-left block over the transposed, column-reversed top-right block,
    from one ``pairwise_chords`` call (and one more for the mirrored
    bottom-right block when the curve's chords are not compensated).  It
    reshapes to the (2, N/2, N/2) stack of the two halves without a copy,
    so each kappa costs one pass of N^2/2 exponentials; coincident pairs
    are reported in full-grid numbering.  The straight line has no chords
    and always splits.
    """

    def __init__(self, curve: Curve, grid: GridSpec):
        self.curve = curve
        self.grid = grid
        self._straight = isinstance(curve, StraightLine)
        #: True when ``q_matrix`` returns the (even, odd) parity blocks
        self.parity = True
        if self._straight:
            return
        nodes, n = grid.nodes, grid.N
        positions = curve.point(nodes)
        if not np.all(np.isfinite(positions)):
            # a sampled curve whose coordinates overflow between samples
            raise GeometryError("curve positions on the grid are not finite")
        self.parity = _mirror_symmetric(positions)
        h = n // 2 if self.parity else n
        order = np.r_[0:h, n - 1:h - 1:-1]   # on a split, the bottom half reversed
        rho = curve.pairwise_chords(nodes[order], h)
        if self.parity:
            # rho[:h] is the top-left block and rho[h:] the transpose of the
            # column-reversed top-right block, each averaged with its mirror
            # image: the transpose, and the reversed bottom-right block,
            # unless the chords are compensated
            _symmetrize(rho[h:])
            if not curve.compensated_chords:
                rho[:h] += curve.pairwise_chords(nodes[order[h:]])
                rho[:h] *= 0.5
        _check_chord_arc(rho, grid.delta, rows=order)
        np.fill_diagonal(rho, np.inf)    # the top-left block's diagonal
        self._rho = rho

    def q_matrix(self, kappa: float) -> np.ndarray:
        """Q_kappa as a (b, n, n) stack of blocks: the (1, N, N) stack of Q
        itself or, when ``parity`` is set, the (2, N/2, N/2) stack of its
        even block Q11 + Q12 J and its odd block Q11 - Q12 J."""
        n = self.grid.N
        h = n // 2
        shape = (2, h, h) if self.parity else (1, n, n)
        row = _t_first_row(self.grid, kappa)
        if self._straight:
            q = np.zeros(shape)
        else:
            weight = self.grid.delta / (4.0 * math.pi)
            sigma = np.arange(1, n) * self.grid.delta
            row[1:] -= weight * np.exp(-kappa * sigma) / sigma
            rho = self._rho.reshape(shape)     # a view: the chord array is contiguous
            q = np.multiply(rho, -kappa)       # weight * exp(-kappa rho) / rho
            np.exp(q, out=q)
            q /= rho
            q *= weight
        if not self.parity:
            q[0] += _symmetric_toeplitz(row)
            return q
        left, right = q      # Q11 and Q12 J first, then the two blocks
        left += _symmetric_toeplitz(row)[:h, :h]
        right += _hankel_reversed(row)
        for a in range(0, h, PAIR_ROWS):
            rows = slice(a, a + PAIR_ROWS)
            q11 = left[rows].copy()
            left[rows] += right[rows]
            np.subtract(q11, right[rows], out=right[rows])
        return q

    def slope(self, kappa: float, y: np.ndarray, block: int = 0) -> float:
        """<y, dQ_b/dkappa y> for the unit vector y of block b = ``block`` of
        ``q_matrix(kappa)``: by Hellmann-Feynman, the kappa-derivative of
        the eigenvalue of that block whose eigenvector is y.

        dQ/dkappa is Toeplitz, dT's row plus weight * exp(-kappa sigma) off
        the diagonal, less the chord part weight * exp(-kappa rho).  The
        Toeplitz part is the form of the unfolded vector of Q, from its
        autocorrelation by FFT; the chord part takes one pass of
        exponentials over the kept chord array, ``PAIR_ROWS`` rows of every
        block at a time, summed or differenced into block b as
        ``q_matrix`` does and multiplied into y in scipy's BLAS
        (``_product``).  No N x N array is made.
        """
        row = _dt_first_row(self.grid, kappa)
        x = unfold(y, block) if self.parity else y
        if self._straight:
            return _toeplitz_form(row, x)
        weight = self.grid.delta / (4.0 * math.pi)
        sigma = np.arange(1, self.grid.N) * self.grid.delta
        row[1:] += weight * np.exp(-kappa * sigma)
        rows = self._rho.shape[1]          # n, the size of one block
        rho = self._rho.reshape(-1, rows, rows)
        ey = np.empty(rows)
        for a in range(0, rows, PAIR_ROWS):
            e = np.multiply(rho[:, a:a + PAIR_ROWS], -kappa)
            np.exp(e, out=e)
            if self.parity:   # the chords of Q11 and of Q12 J into block b
                (np.subtract if block else np.add)(e[0], e[1], out=e[0])
            ey[a:a + PAIR_ROWS] = _product(e[0], y[:, None])[:, 0]
        return _toeplitz_form(row, x) - weight * float(np.dot(y, ey))
