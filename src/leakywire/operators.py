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

Parity: a wire whose chords satisfy rho(s_i, s_j) = rho(s_(N-1-i), s_(N-1-j))
on the grid (any bump or power tail: an even curvature profile; a sampled
wire that is the same after a rotation by pi, such as x and z odd and y
even in t) has a persymmetric Q, Q = J Q J with J the index reversal.
With Q11 the top-left and Q12 the top-right N/2 x N/2 block, the
orthogonal basis [y; J y]/sqrt 2, [y; -J y]/sqrt 2 splits Q exactly into
the even block Q11 + Q12 J and the odd block Q11 - Q12 J (Cantoni &
Butler, Linear Algebra Appl. 13, 1976).  ``OperatorCache`` tests the
chords for this and folds them into halves in one pass over blocks of
``curve.PAIR_ROWS`` rows, then builds Q as the (2, N/2, N/2) stack of
these blocks, summed and differenced by the same blocks; T is symmetric
Toeplitz and splits on every wire, the straight line included.  A sampled
curve centres its arc length as the mean of the sums from either end, so
mirror-image samples get mirror-image arc lengths up to rounding and a
symmetric sampled wire splits too.  Wires that fail the test (sampled
data that are asymmetric themselves, such as a one-sided cumulative
Simpson sum, miss by 150 ulps or more, in the first block already) keep
the one N x N matrix.  A split cache keeps half the chords and computes
half the exponentials per kappa.  Measured on bump a=1, w=1 at
kappa = 1.15 (2 vCPU, OpenBLAS, min of 3 runs):

=============  ==========  ============  ===========================
Q build        one matrix  parity stack  chords kept (one / split)
=============  ==========  ============  ===========================
N=1024, L=24   8.2 ms      4.0 ms        8 MiB / 4 MiB
N=2304, L=24   58 ms       27 ms         40.5 MiB / 20.25 MiB
=============  ==========  ============  ===========================

Assembly: there is one builder and one reference.  ``OperatorCache.q_matrix``
builds every Q the solvers use, so a change of quadrature rule is made
there alone.  ``assemble_T(grid, kappa) + grid.delta *
bending_kernel_matrix(curve, grid, kappa)`` is the independent pointwise
reference: the tests hold the cache to it, and the oracles use its parts.

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
from dataclasses import dataclass
from functools import cached_property

import numpy as np

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
        if self.L <= 0:
            raise GeometryError("grid half-length L must be positive")
        if self.N <= 0 or self.N % 2 != 0:
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


def _check_chord_arc(coincident_pairs: np.ndarray) -> None:
    """Raise on the first of the (i, j) index pairs whose parameters are
    distinct but whose points coincide."""
    if len(coincident_pairs):
        raise SingularGeometryError(
            f"distinct parameters map to the same point (pair index "
            f"{tuple(coincident_pairs[0])}); the curve violates the chord-arc condition")


def _kernel_from_distances(rho, sigma, kappa):
    _check_chord_arc(np.argwhere((rho < 1e-12) & (sigma > 1e-9)))
    off = sigma > 0
    out = np.zeros_like(sigma)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = (np.exp(-kappa * rho) / rho - np.exp(-kappa * sigma) / sigma) / (4.0 * math.pi)
    out[off] = vals[off]
    return out


def bending_kernel_matrix(curve: Curve, grid: GridSpec, kappa: float) -> np.ndarray:
    """Kernel values B_kappa(s_i, s_j) on the grid nodes (no quadrature weight)."""
    nodes = grid.nodes
    rho = curve.pairwise_chords(nodes)
    sigma = np.abs(nodes[:, None] - nodes[None, :])
    return _kernel_from_distances(rho, sigma, kappa)


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
    m = t_multiplier(grid.momenta, kappa)
    row = np.fft.ifft(m).real
    # enforce row[d] == row[N-d] exactly
    rev = np.roll(row[::-1], 1)
    return 0.5 * (row + rev)


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


#: chords within this many ulps of max rho of their mirror images count as
#: persymmetric; planar profiles measure at most 8 ulps (N = 128 .. 2304),
#: mirror-symmetric sampled wires at most 11.4 (the benchmark's scan wires,
#: N = 512 .. 2048), sampled data that are asymmetric themselves 150 and more
PERSYMMETRY_ULPS = 16


def _persymmetric_halves(rho: np.ndarray):
    """The top-left and the column-reversed top-right N/2 x N/2 blocks of
    (rho + J rho J) / 2, or None if max |rho - J rho J| exceeds
    PERSYMMETRY_ULPS eps max rho (rho is finite, with a zero diagonal).
    One pass over blocks of PAIR_ROWS rows tests and folds, with no N x N
    temporary, and stops at the first block that fails: unwritten pages
    cost no memory."""
    n = rho.shape[0]
    h = n // 2
    tol = PERSYMMETRY_ULPS * np.finfo(float).eps * float(rho.max())
    left = np.empty((h, h))
    right_rev = np.empty((h, h))
    for a in range(0, h, PAIR_ROWS):
        b = min(a + PAIR_ROWS, h)
        top = rho[a:b]
        bottom = rho[n - 1 - a:n - 1 - b:-1]   # rows N - 1 - i
        if float(np.max(np.abs(top - bottom[:, ::-1]))) > tol:
            return None
        np.add(top[:, :h], bottom[:, :h - 1:-1], out=left[a:b])
        np.add(top[:, :h - 1:-1], bottom[:, :h], out=right_rev[a:b])
    left *= 0.5
    right_rev *= 0.5
    return left, right_rev


def _chord_part(rho: np.ndarray, kappa: float, weight: float, out: np.ndarray) -> np.ndarray:
    """weight * exp(-kappa rho) / rho, written into ``out``."""
    np.multiply(rho, -kappa, out=out)
    np.exp(out, out=out)
    out /= rho
    out *= weight
    return out


class OperatorCache:
    """Per-(curve, grid) assembly cache for repeated kappa sweeps.

    Only the chord half of the bending kernel, exp(-kappa rho)/(4 pi rho),
    needs an N x N array.  The arc half, exp(-kappa sigma)/(4 pi sigma) with
    sigma = |i - j| Delta, depends on |i - j| only, as does the circulant T,
    so both fold into one Toeplitz row.  The pairwise chords are computed
    and checked for coincident points once, with an infinite diagonal so
    that exp(-kappa rho)/rho is exactly 0 there (the kernel's diagonal
    value); each kappa then costs one Toeplitz row and one N x N
    exponential, written into the returned array.

    Persymmetric chords (see the module docstring) set ``parity``: the
    cache then keeps only the two N/2 x N/2 halves of (rho + J rho J)/2,
    the top-left block and the column-reversed top-right one, and each
    kappa costs two N/2 x N/2 exponentials.  The straight line has no
    chords and always splits.
    """

    def __init__(self, curve: Curve, grid: GridSpec):
        self.curve = curve
        self.grid = grid
        self._straight = isinstance(curve, StraightLine)
        #: True when ``q_matrix`` returns the (even, odd) parity blocks
        self.parity = True
        if not self._straight:
            rho = curve.pairwise_chords(grid.nodes)
            close = np.argwhere(rho < 1e-12)
            _check_chord_arc(close[np.abs(close[:, 0] - close[:, 1]) * grid.delta > 1e-9])
            halves = _persymmetric_halves(rho)
            self.parity = halves is not None
            if self.parity:
                self._rho_left, self._rho_right = halves
                np.fill_diagonal(self._rho_left, np.inf)
            else:
                np.fill_diagonal(rho, np.inf)
                self._rho = rho

    def q_matrix(self, kappa: float) -> np.ndarray:
        """Q_kappa as one N x N matrix or, when ``parity`` is set, as the
        (2, N/2, N/2) stack of its even block Q11 + Q12 J and its odd block
        Q11 - Q12 J."""
        row = _t_first_row(self.grid, kappa)
        weight = self.grid.delta / (4.0 * math.pi)
        if not self._straight:
            sigma = np.arange(1, self.grid.N) * self.grid.delta
            row[1:] -= weight * np.exp(-kappa * sigma) / sigma
        if not self.parity:
            q = _chord_part(self._rho, kappa, weight, np.empty_like(self._rho))
            q += _symmetric_toeplitz(row)
            return q
        h = self.grid.N // 2
        q = np.empty((2, h, h))
        left, right = q      # Q11 and Q12 J first, then the two blocks
        if self._straight:
            left[...] = _symmetric_toeplitz(row)[:h, :h]
            right[...] = _hankel_reversed(row)
        else:
            _chord_part(self._rho_left, kappa, weight, left)
            left += _symmetric_toeplitz(row)[:h, :h]
            _chord_part(self._rho_right, kappa, weight, right)
            right += _hankel_reversed(row)
        for a in range(0, h, PAIR_ROWS):
            rows = slice(a, a + PAIR_ROWS)
            q11 = left[rows].copy()
            left[rows] += right[rows]
            np.subtract(q11, right[rows], out=right[rows])
        return q
