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

from .curve import Curve, StraightLine
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


@dataclass
class DiscretizedOperator:
    """Real symmetric finite section of T, B or Q on a grid."""

    grid: GridSpec
    kappa: float
    matrix: np.ndarray
    kind: str  # "T" | "B" | "Q"

    def __post_init__(self):
        if self.kind not in ("T", "B", "Q"):
            raise GeometryError(f"unknown operator kind {self.kind!r}")
        m = self.matrix
        if m.shape != (self.grid.N, self.grid.N):
            raise GeometryError("matrix shape does not match the grid")
        scale = float(np.max(np.abs(m))) or 1.0
        asym = float(np.max(np.abs(m - m.T)))
        if asym > 1e-12 * scale:
            raise InvalidKernelError(
                f"{self.kind} matrix asymmetry {asym:.3e} exceeds 1e-12 * {scale:.3e}")


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


def b_kernel(curve: Curve, s, sp, kappa):
    """Bending kernel value(s); 0 on the diagonal (continuous extension)."""
    if kappa <= 0:
        raise GeometryError("kappa must be positive")
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    sp_arr = np.atleast_1d(np.asarray(sp, dtype=float))
    s_arr, sp_arr = np.broadcast_arrays(s_arr, sp_arr)
    sigma = np.abs(s_arr - sp_arr)
    rho = np.asarray(curve.chord_between(s_arr, sp_arr)).reshape(sigma.shape)
    out = _kernel_from_distances(rho, sigma, kappa)
    if np.isscalar(s) and np.isscalar(sp):
        return float(out.ravel()[0])
    return out


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


def assemble_T(grid: GridSpec, kappa: float) -> DiscretizedOperator:
    """Symmetric circulant with eigenvalues m_kappa(p_n) on the grid momenta.

    The constant vector is an exact eigenvector with eigenvalue
    m_kappa(0) = s_kappa.
    """
    matrix = _symmetric_toeplitz(_t_first_row(grid, kappa)).copy()
    return DiscretizedOperator(grid=grid, kappa=float(kappa), matrix=matrix, kind="T")


def _symmetric_toeplitz(row: np.ndarray) -> np.ndarray:
    """Read-only N x N view with entry (i, j) = row[|i - j|]; no N^2 copy.

    For the circulant first row of T (row[d] == row[N - d] exactly) this is
    the circulant row[(i - j) % N] itself.
    """
    n = row.size
    both_ways = np.concatenate((row[:0:-1], row))   # row[|k - (n - 1)|], k < 2n - 1
    return np.lib.stride_tricks.sliding_window_view(both_ways, n)[::-1]


def _t_first_row(grid: GridSpec, kappa: float) -> np.ndarray:
    m = t_multiplier(grid.momenta, kappa)
    row = np.fft.ifft(m).real
    # enforce row[d] == row[N-d] exactly
    rev = np.roll(row[::-1], 1)
    return 0.5 * (row + rev)


def assemble_B(curve: Curve, grid: GridSpec, kappa: float) -> DiscretizedOperator:
    """Midpoint-quadrature section of the bending kernel: Delta * B(s_i, s_j)."""
    if isinstance(curve, StraightLine):
        matrix = np.zeros((grid.N, grid.N))
    else:
        matrix = grid.delta * bending_kernel_matrix(curve, grid, kappa)
    return DiscretizedOperator(grid=grid, kappa=float(kappa), matrix=matrix, kind="B")


def assemble_Q(curve: Curve, grid: GridSpec, kappa: float) -> DiscretizedOperator:
    """Q = T + B."""
    t = assemble_T(grid, kappa)
    b = assemble_B(curve, grid, kappa)
    return DiscretizedOperator(grid=grid, kappa=float(kappa),
                               matrix=t.matrix + b.matrix, kind="Q")


def hs_norm(op: DiscretizedOperator) -> float:
    """Grid estimate of the Hilbert-Schmidt norm (integral of the squared
    kernel); for the midpoint matrix this is its Frobenius norm."""
    if op.kind != "B":
        raise InvalidKernelError("hs_norm is defined for bending operators only")
    return float(np.sqrt(np.sum(op.matrix ** 2)))


def schur_holmgren_norm(op: DiscretizedOperator) -> float:
    """Row-integral bound sup_s int B(s, s') ds' for a positive kernel: the
    largest row sum of the midpoint matrix.  Dominates the operator 2-norm."""
    if op.kind != "B":
        raise InvalidKernelError("schur_holmgren_norm is defined for bending operators only")
    if float(op.matrix.min()) < -KERNEL_NEGATIVITY_TOL:
        i, j = np.unravel_index(int(np.argmin(op.matrix)), op.matrix.shape)
        raise InvalidKernelError(
            f"kernel entry ({i}, {j}) = {op.matrix[i, j]:.3e} is negative beyond tolerance")
    return float(np.max(np.sum(op.matrix, axis=1)))


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
    """

    def __init__(self, curve: Curve, grid: GridSpec):
        self.curve = curve
        self.grid = grid
        self._straight = isinstance(curve, StraightLine)
        if not self._straight:
            rho = curve.pairwise_chords(grid.nodes)
            close = np.argwhere(rho < 1e-12)
            _check_chord_arc(close[np.abs(close[:, 0] - close[:, 1]) * grid.delta > 1e-9])
            np.fill_diagonal(rho, np.inf)
            self._rho = rho

    def q_matrix(self, kappa: float) -> np.ndarray:
        row = _t_first_row(self.grid, kappa)
        if self._straight:
            return _symmetric_toeplitz(row).copy()
        weight = self.grid.delta / (4.0 * math.pi)
        sigma = np.arange(1, self.grid.N) * self.grid.delta
        row[1:] -= weight * np.exp(-kappa * sigma) / sigma
        q = np.multiply(self._rho, -kappa)
        np.exp(q, out=q)
        q /= self._rho
        q *= weight
        q += _symmetric_toeplitz(row)
        return q
