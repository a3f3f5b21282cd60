"""Arc-length parametrized curves in R^3 and their admissibility audits.

Curves come in three families:

* ``StraightLine``      -- gamma(s) = (s, 0, 0), the reference geometry.
* ``PlanarCurvatureProfile`` -- built from a signed curvature profile k(s)
  through theta(s) = int_0^s k and gamma = (int cos theta, int sin theta, 0),
  so the parametrization is unit speed by construction.
* ``SampledParametric`` -- user samples (t, x, y, z) in an arbitrary
  parameter, reparametrized by arc length numerically.

Chord lengths rho(s, s') = |gamma(s) - gamma(s')| are the quantity everything
downstream depends on, and the bending kernels need rho - sigma (with
sigma = |s - s'|) resolved far below double rounding of the absolute
positions.  Planar profiles therefore keep their cumulative positions in
compensated (hi, lo) pairs so pairwise differences stay accurate relative to
the separation, not to the distance from the origin.

The admissibility audits are sampled checks, not certificates: the chord-arc
constant (``check_a1``), the quantified asymptotic-straightness inequality on
the two-branch pair set (``check_a2``) and the curvature-decay exponent
(``check_curvature_decay``) are all evaluated on dense grids whose resolution
is part of the report.  ``pairwise_chords(s, cols)`` evaluates the positions
of s once and gives the chords of every node with the first ``cols`` nodes,
all of them by default.  The audits keep one N x N array, the chords, and
walk it ``PAIR_ROWS`` rows at a time; no chord array allocates more than a
few strips of rows besides itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import (
    BuildSizeError,
    CurveFormatError,
    DegenerateFrameError,
    GeometryError,
    OutOfDomainError,
)

_GL_NODES, _GL_WEIGHTS = leggauss(12)
_CELL_WIDTH = 0.05      # requested planar cell width; rounded down to 2^-m
# peak bytes per planar cell while the cache is built, the nested rule
# running a chunk of cells at a time: 177 B measured (tracemalloc) for the
# Gaussian bump and the power tail at domain hint 4800, chunk included
_CELL_BUILD_BYTES = 192
MAX_BUILD_BYTES = 2 ** 31  # larger planar builds and grids are refused up front
_CELL_CHUNK = 2048      # cells per chunk of the nested quadrature rule
PAIR_ROWS = 64          # rows per block of every walk over a pair matrix
# rows per strip of a planar chord block, whose double-double differences run
# in three scratch strips: 0.19 MiB for the 512 columns of a split N = 1024
_CHORD_ROWS = 16
_CHORD_ARC_MIN = 1e-3   # c_estimate below which the (a1) audit fails
_FLAT = 1e-8            # curvature below which a sampled point counts as straight
_COMPLETIONS = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])  # binormals of straight data

# ---------------------------------------------------------------------------
# compensated (double-double) helpers for position bookkeeping


def _two_sum(a, b):
    """Error-free transform: a + b = s + err exactly."""
    s = a + b
    bp = s - a
    err = (a - (s - bp)) + (b - bp)
    return s, err


def _fast_two_sum(a, b):
    s = a + b
    err = b - (s - a)
    return s, err


def _dd_sub(h1, l1, h2, l2, out, bp, tmp):
    """(h1 + l1) - (h2 + l2) collapsed to a double into ``out``, accurate
    relative to the magnitude of the difference rather than of the operands:
    s + (e + (l1 - l2)) with s, e the two-sum of h1 and -h2.  ``bp`` and
    ``tmp``, of the shape of ``out``, hold the intermediates, so a block of
    pairs allocates nothing; each operation is the one of ``_two_sum``."""
    b = -h2
    np.add(h1, b, out=out)          # s
    np.subtract(out, h1, out=bp)    # bp = s - a
    np.subtract(out, bp, out=tmp)
    np.subtract(h1, tmp, out=tmp)   # a - (s - bp)
    np.subtract(b, bp, out=bp)      # b - bp
    np.add(tmp, bp, out=tmp)        # e
    np.subtract(l1, l2, out=bp)
    np.add(tmp, bp, out=tmp)
    return np.add(out, tmp, out=out)


def _dd_prefix(increments):
    """Compensated prefix sums of an (n, d) increment array.

    Returns (hi, lo) arrays of shape (n + 1, d) with hi[0] = lo[0] = 0.
    Each column runs on Python floats: the same IEEE operations in the same
    order as on float64 arrays, without numpy's per-call overhead.
    """
    n, d = increments.shape
    hi = np.zeros((n + 1, d))
    lo = np.zeros((n + 1, d))
    for k in range(d):
        h = l = 0.0
        col_hi = [h]
        col_lo = [l]
        for x in increments[:, k].tolist():
            s, e = _two_sum(h, x)
            h, l = _fast_two_sum(s, l + e)
            col_hi.append(h)
            col_lo.append(l)
        hi[:, k] = col_hi
        lo[:, k] = col_lo
    return hi, lo


def _panel(f, start, stop):
    """int_start^stop f on one 12-point Gauss-Legendre panel per entry of the
    broadcast (start, stop).  f maps the panel's nodes, on a new last axis,
    to values with that axis last; their leading axes broadcast with start."""
    half = (stop - start) / 2.0
    return half * (f(start[..., None] + half[..., None] * (_GL_NODES + 1.0)) @ _GL_WEIGHTS)


def _normal_part(t_hat, v):
    """v minus its component along the unit tangent(s) t_hat, and its length
    (last axis of length 3); for v = gamma'' this is the principal normal."""
    perp = v - np.vecdot(v, t_hat)[..., None] * t_hat
    return perp, np.sqrt(np.vecdot(perp, perp))


# ---------------------------------------------------------------------------


@dataclass
class FrenetFrame:
    """Orthonormal right-handed triple (t, b, n) at a point; t x n = b."""

    t: np.ndarray
    b: np.ndarray
    n: np.ndarray


@dataclass
class A2Certificate:
    """Witness for the asymptotic-straightness inequality on the sampled set."""

    omega: float
    epsilon: float
    mu: float
    d: float
    max_violation: float


@dataclass
class AssumptionReport:
    """Outcome of one sampled admissibility audit.

    Fields are optional because each check fills in only its own part.
    """

    c_estimate: Optional[float] = None
    a2_certificate: Optional[A2Certificate] = None
    pass_a1: Optional[bool] = None
    pass_a2: Optional[bool] = None


class Curve:
    """Base class; subclasses provide vectorized point/curvature and frames.
    Arc length runs over [-half_length, half_length]: all of R unless sampled."""

    half_length = math.inf
    #: True when ``pairwise_chords`` is accurate relative to each chord, so
    #: the mirror chords of a mirror-symmetric wire agree to an ulp or two of
    #: themselves; otherwise a chord carries the absolute rounding of its two
    #: positions, which next to the diagonal is large relative to the chord
    compensated_chords = False

    def point(self, s):
        raise NotImplementedError

    def curvature(self, s):
        raise NotImplementedError

    def frame(self, s: float) -> FrenetFrame:
        raise NotImplementedError

    def max_curvature(self) -> float:
        raise NotImplementedError

    def max_shift_radius(self) -> float:
        """Radius below which shifted copies cannot touch the curve.

        Uses the tubular-neighbourhood bound 0.5 / max|k|, clamped to 0.5.
        """
        kmax = self.max_curvature()
        if kmax <= 0.0:
            return 0.5
        return min(0.5, 0.5 / kmax)

    def pairwise_chords(self, s, cols=None):
        """Chords rho[i, j] = |gamma(s_i) - gamma(s_j)| for every i and for
        j < cols (every j by default), from one evaluation of the positions
        of s, built PAIR_ROWS rows at a time so no difference array of 3
        floats per pair is allocated."""
        p = np.atleast_2d(self.point(np.asarray(s, dtype=float)))
        q = p[:cols]
        rho = np.empty((p.shape[0], q.shape[0]))
        for a in range(0, p.shape[0], PAIR_ROWS):
            diff = p[a:a + PAIR_ROWS, None, :] - q[None, :, :]
            np.sqrt(np.einsum("ijk,ijk->ij", diff, diff), out=rho[a:a + PAIR_ROWS])
        return rho


class StraightLine(Curve):
    """gamma(s) = (s, 0, 0) with the fixed completion b=(0,0,1), n=(0,1,0);
    the base-class chords are exactly |s - s'|, as sqrt(x * x) == |x|."""

    def point(self, s):
        s = np.asarray(s, dtype=float)
        out = np.zeros(s.shape + (3,))
        out[..., 0] = s
        return out

    def curvature(self, s):
        return np.zeros_like(np.asarray(s, dtype=float))

    def frame(self, s):
        return FrenetFrame(
            t=np.array([1.0, 0.0, 0.0]),
            b=np.array([0.0, 0.0, 1.0]),
            n=np.array([0.0, 1.0, 0.0]),
        )

    def max_curvature(self):
        return 0.0


class PlanarCurvatureProfile(Curve):
    """Planar curve built from a curvature profile k(s).

    theta(s) = int_0^s k(u) du and gamma(s) = (int_0^s cos theta,
    int_0^s sin theta, 0).  Over a core window [-S, S] of dyadic cells the
    build and every evaluation share one 12-point Gauss-Legendre panel rule
    (``_panel``) and one locator (``_locate``): theta and gamma at s are
    their values at the start bound of s's cell plus one panel from there,
    gamma's panel running on theta at its nodes from a nested panel.  Beyond
    the core the curve continues as an exact straight ray along the frozen
    end tangent, anchored at the end bound.  Cumulative positions are stored
    compensated so chord differences of nearby points do not lose the tiny
    arc-chord defect to rounding.
    """

    compensated_chords = True   # differences of double-double positions

    def __init__(self, curvature_fn: Callable, domain_hint: float = 48.0):
        if domain_hint <= 0:
            raise CurveFormatError("domain_hint must be positive")
        self.k_signed = curvature_fn
        self.domain_hint = float(domain_hint)
        self._build_cache()

    @classmethod
    def gaussian_bump(cls, a: float, w: float, domain_hint: float = 48.0):
        """k(s) = a * exp(-(s/w)^2)."""
        if w <= 0:
            raise CurveFormatError("gaussian profile needs w > 0")
        return cls(lambda s: a * np.exp(-((s / w) ** 2)), domain_hint)

    @classmethod
    def power_tail(cls, a: float, beta: float, domain_hint: float = 48.0):
        """k(s) = a for |s| < 1 and a * |s|^(-beta) outside."""
        if beta <= 0:
            raise CurveFormatError("power_tail profile needs beta > 0")
        return cls(lambda s: a * np.maximum(1.0, np.abs(s)) ** (-beta), domain_hint)

    # -- construction -------------------------------------------------------

    def _build_cache(self):
        # dyadic cell width: boundaries are exact multiples of 2^-m, so the
        # partial and whole-cell integration intervals tile [-S, S] exactly
        # in floating point (otherwise tiling slack ~ eps*S leaks into the
        # arc-chord defect of nearby pairs)
        m = max(1, math.ceil(-math.log2(min(_CELL_WIDTH, 0.5))))
        delta = 2.0 ** (-m)
        n_half = max(64, int(math.ceil(self.domain_hint / delta)))
        S = n_half * delta
        n_cells = 2 * n_half
        if n_cells * _CELL_BUILD_BYTES > MAX_BUILD_BYTES:
            raise BuildSizeError(
                f"a planar profile with domain hint {self.domain_hint:.6g} needs "
                f"{n_cells} cells, about {n_cells * _CELL_BUILD_BYTES / 2 ** 30:.3g} "
                f"GiB to build, above the {MAX_BUILD_BYTES / 2 ** 30:.3g} GiB "
                "limit; lower the domain hint", self.domain_hint)
        bounds = (np.arange(n_cells + 1) - n_half) * delta
        chunks = [slice(a, min(a + _CELL_CHUNK, n_cells))
                  for a in range(0, n_cells, _CELL_CHUNK)]
        kmax = 0.0

        def k_kept(u):      # k at the whole-cell nodes also gives max |k|
            nonlocal kmax
            k = np.asarray(self.k_signed(u))
            kmax = max(kmax, float(np.max(np.abs(k))))
            return k

        # whole cells, a chunk at a time: bounds[c] + delta is exactly the
        # next bound, both being integers times 2^-m
        dtheta = np.concatenate([_panel(k_kept, bounds[c], bounds[c] + delta)
                                 for c in chunks])
        theta_b = np.concatenate(([0.0], np.cumsum(dtheta)))
        i0 = n_cells // 2
        self._S = S
        self._delta = delta
        self._bounds = bounds
        self._theta_b = theta_b - theta_b[i0]
        self._kmax = kmax
        hi, lo = _dd_prefix(np.concatenate([self._increment(c, bounds[c] + delta)
                                            for c in chunks]))
        # re-anchor at s = 0 so gamma(0) = 0 exactly
        sa, ea = _two_sum(hi, -hi[i0])
        self._pos_hi, self._pos_lo = _fast_two_sum(sa, ea + (lo - lo[i0]))

    # -- internals ----------------------------------------------------------

    def _locate(self, s):
        """(anchor, core) of each s: a core s, in [-S, S], anchors at the start
        bound of its cell; the left ray at bound 0, the right ray at bound -1."""
        right = s > self._S
        cell = ((np.clip(s, -self._S, self._S) + self._S) / self._delta).astype(int)
        return (np.where(right, -1, np.clip(cell, 0, len(self._bounds) - 2)),
                ~(right | (s < -self._S)))

    def _increment(self, cell, s):
        """gamma(s) - gamma(bounds[cell]), shape (n, 2), for s in that cell
        (``cell`` holds n cell indices, as an index array or a slice)."""
        start = self._bounds[cell]

        def tangent(u):     # theta at the panel's nodes, by a nested panel
            th = self._theta_b[cell][:, None] + _panel(self.k_signed, start[:, None], u)
            return np.stack([np.cos(th), np.sin(th)])

        return _panel(tangent, start, s).T

    def theta(self, s):
        """Tangent angle theta(s) = int_0^s k."""
        s = np.asarray(s, dtype=float)
        scalar = s.ndim == 0
        s = np.atleast_1d(s)
        anchor, core = self._locate(s)
        out = self._theta_b[anchor]
        out[core] += _panel(self.k_signed, self._bounds[anchor[core]], s[core])
        return out[0] if scalar else out

    def _positions_dd(self, s):
        """Compensated planar positions: (hi, lo) arrays of shape (n, 2)."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        anchor, core = self._locate(s)
        step = np.empty((s.size, 2))
        step[core] = self._increment(anchor[core], s[core])
        ray = ~core     # beyond the core: the straight ray along the end tangent
        ends = np.array([[math.cos(t), math.sin(t)] for t in self._theta_b[[0, -1]]])
        step[ray] = (s[ray] - self._bounds[anchor[ray]])[:, None] * ends[anchor[ray]]
        h, e = _two_sum(self._pos_hi[anchor], step)
        return h, e + self._pos_lo[anchor]

    # -- Curve interface ----------------------------------------------------

    def point(self, s):
        s = np.asarray(s, dtype=float)
        scalar = s.ndim == 0
        hi, lo = self._positions_dd(np.atleast_1d(s).ravel())
        xy = hi + lo
        out = np.zeros((xy.shape[0], 3))
        out[:, :2] = xy
        out = out.reshape(np.atleast_1d(s).shape + (3,))
        return out[0] if scalar else out

    def curvature(self, s):
        return np.abs(np.asarray(self.k_signed(np.asarray(s, dtype=float))))

    def frame(self, s):
        th = float(self.theta(float(s)))
        t = np.array([math.cos(th), math.sin(th), 0.0])
        n = np.array([-math.sin(th), math.cos(th), 0.0])
        b = np.array([0.0, 0.0, 1.0])
        return FrenetFrame(t=t, b=b, n=n)

    def max_curvature(self):
        return self._kmax

    def pairwise_chords(self, s, cols=None):
        """Chords rho[i, j] = |gamma(s_i) - gamma(s_j)| for every i and for
        j < cols (every j by default), from one evaluation of the compensated
        positions of s, _CHORD_ROWS rows at a time: dx goes straight into
        rho's rows, dy into one scratch strip."""
        hi, lo = self._positions_dd(s)
        t_hi, t_lo = hi[:cols], lo[:cols]
        rho = np.empty((hi.shape[0], t_hi.shape[0]))
        scratch = np.empty((3, min(_CHORD_ROWS, hi.shape[0]), t_hi.shape[0]))
        for a in range(0, hi.shape[0], _CHORD_ROWS):
            rows = slice(a, a + _CHORD_ROWS)
            dx = rho[rows]
            dy, bp, tmp = scratch[:, :dx.shape[0]]
            for d, out in ((0, dx), (1, dy)):
                _dd_sub(t_hi[None, :, d], t_lo[None, :, d], hi[rows, None, d], lo[rows, None, d],
                        out, bp, tmp)
            np.hypot(dx, dy, out=dx)
        return rho


class SampledParametric(Curve):
    """Curve given by samples (t, x, y, z), reparametrized by arc length.

    The parameter s is centred: s = 0 at the arc-length midpoint of the
    sampled data.  Evaluation outside the sampled range raises
    ``OutOfDomainError``.
    """

    def __init__(self, samples):
        try:
            samples = np.asarray(samples, dtype=float)
        except (TypeError, ValueError) as exc:
            raise CurveFormatError(f"samples must be an (n, 4) array of numbers: {exc}") from exc
        if samples.ndim != 2 or samples.shape[1] != 4:
            raise CurveFormatError("samples must be an (n, 4) array of [t, x, y, z]")
        bad = np.flatnonzero(~np.all(np.isfinite(samples), axis=1))
        if bad.size:
            raise CurveFormatError(
                f"samples must be finite; violated at sample index {int(bad[0])}")
        if samples.shape[0] < 4:
            raise CurveFormatError("need at least 4 samples for a C1 interpolant")
        t = samples[:, 0]
        dt = np.diff(t)
        bad = np.where(dt <= 0)[0]
        if bad.size:
            raise CurveFormatError(
                f"parameter column must be strictly increasing; "
                f"violated at sample index {int(bad[0]) + 1}"
            )
        from scipy.interpolate import CubicSpline

        self._xyz = CubicSpline(t, samples[:, 1:])
        self._d1 = self._xyz.derivative()
        self._d2 = self._xyz.derivative(2)
        self._build_arclength(t)

    def _build_arclength(self, t):
        # dense sub-grid: 8 panels per sample interval, 12-pt GL each
        sub = np.linspace(t[:-1], t[1:], 9, axis=1)
        starts = sub[:, :-1].ravel()
        stops = sub[:, 1:].ravel()
        seg = _panel(lambda u: np.sqrt(np.sum(self._d1(u) ** 2, axis=-1)), starts, stops)
        # centred arc length, the mean of the sums from either end: mirror-image
        # nodes of mirror-symmetric data get mirror-image values up to rounding
        # in seg alone, so their grid chords stay persymmetric
        forward = np.concatenate(([0.0], np.cumsum(seg)))
        backward = np.concatenate((np.cumsum(seg[::-1])[::-1], [0.0]))
        ell = (forward - backward) / 2.0
        tdense = np.concatenate((starts, [stops[-1]]))
        if np.any(np.diff(ell) <= 0):
            raise CurveFormatError("degenerate samples: arc length is not increasing")
        from scipy.interpolate import PchipInterpolator

        self._t_of_ell = PchipInterpolator(ell, tdense)
        self.half_length = float(min(-ell[0], ell[-1]))
        kdense = self._curvature_t(tdense)
        self._kmax = float(np.max(kdense))
        # binormals at the curved dense nodes, borrowed by frames on straight parts
        curved = kdense > _FLAT
        d1 = self._d1(tdense[curved])
        t_hat = d1 / np.sqrt(np.vecdot(d1, d1))[:, None]
        a_perp, norm = _normal_part(t_hat, self._d2(tdense[curved]))
        self._curved_s = ell[curved]
        self._curved_b = np.cross(t_hat, a_perp / norm[:, None])

    def _t_param(self, s):
        s = np.asarray(s, dtype=float)
        if np.any(s < -self.half_length - 1e-9) or np.any(s > self.half_length + 1e-9):
            raise OutOfDomainError(
                f"arc length {float(np.max(np.abs(s))):.6g} outside sampled range "
                f"[-{self.half_length:.6g}, {self.half_length:.6g}]"
            )
        return self._t_of_ell(np.clip(s, -self.half_length, self.half_length))

    def _curvature_t(self, t):
        """|d1 x d2| / |d1|^3 at spline parameters t (any shape), 0 where d1 = 0."""
        # vecdot (BLAS dot) and float_power (libm pow) give the same bits as a
        # 1-D np.linalg.norm and a scalar ** 3, so frames and payloads stay fixed
        d1 = self._d1(t)
        cross = np.cross(d1, self._d2(t))
        speed = np.sqrt(np.vecdot(d1, d1))
        with np.errstate(divide="ignore", invalid="ignore"):
            k = np.sqrt(np.vecdot(cross, cross)) / np.float_power(speed, 3)
        return np.where(speed == 0, 0.0, k)[()]

    def point(self, s):
        return self._xyz(self._t_param(s))

    def curvature(self, s):
        return self._curvature_t(self._t_param(s))

    def frame(self, s):
        s = float(s)
        tv = float(self._t_param(s))
        d1 = self._d1(tv)
        t_hat = d1 / np.linalg.norm(d1, axis=-1, keepdims=True)
        d2 = self._d2(tv)
        a_perp, norm = _normal_part(t_hat, d2)
        if norm > 1e-8 * max(1.0, np.linalg.norm(d2)) and self._curvature_t(tv) > _FLAT:
            n = a_perp / norm
            return FrenetFrame(t=t_hat, b=np.cross(t_hat, n), n=n)
        # parallel-transport surrogate: the binormal of the nearest curved
        # dense node projected onto the normal plane at s; on globally
        # straight data, a fixed completion
        order = np.argsort(np.abs(self._curved_s - s), kind="stable")
        for refs, floor in ((self._curved_b[order], 1e-10), (_COMPLETIONS, 1e-6)):
            b, size = _normal_part(t_hat, refs)
            ok = np.flatnonzero(size > floor)
            if ok.size:
                b = b[ok[0]] / size[ok[0]]
                return FrenetFrame(t=t_hat, b=b, n=np.cross(b, t_hat))
        raise DegenerateFrameError(f"no orthonormal completion at s = {s!r}")

    def max_curvature(self):
        return self._kmax


# ---------------------------------------------------------------------------
# spec operations


def eval_point(curve: Curve, s: float) -> np.ndarray:
    """gamma(s) as a 3-vector."""
    if not np.isfinite(s):
        raise OutOfDomainError("arc length must be finite")
    return np.asarray(curve.point(float(s)), dtype=float)


def eval_frame(curve: Curve, s: float) -> FrenetFrame:
    """Orthonormal right-handed frame at s (fallback completion on straight parts)."""
    fr = curve.frame(float(s))
    if not (np.all(np.isfinite(fr.t)) and np.all(np.isfinite(fr.b))
            and np.all(np.isfinite(fr.n))):
        raise DegenerateFrameError(f"frame has non-finite components at s = {s}")
    return fr


def xi_threshold(omega: float) -> float:
    """Branch-splitting factor xi(omega) = (1 + omega) / (1 - omega)."""
    if not 0.0 < omega < 1.0:
        raise GeometryError("omega must lie in (0, 1)")
    return (1.0 + omega) / (1.0 - omega)


def in_asymptotic_set(s, sp, omega: float, eps: float):
    """Membership in the two-branch pair set used by the a2 audit.

    Pairs with |s + s'| above xi(omega) * eps belong iff the ratio s/s'
    lies strictly between omega and 1/omega; pairs below the threshold
    belong iff |s - s'| < eps.
    """
    if eps <= 0:
        raise GeometryError("eps must be positive")
    xi = xi_threshold(omega)
    s = np.asarray(s, dtype=float)
    sp = np.asarray(sp, dtype=float)
    far = np.abs(s + sp) > xi * eps
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = np.where(sp != 0.0, s / sp, np.inf)
    ratio_ok = (ratio > omega) & (ratio < 1.0 / omega)
    near_ok = np.abs(s - sp) < eps
    return np.where(far, ratio_ok, near_ok)


def _sample_range(s_range, n_samples):
    lo, hi = float(s_range[0]), float(s_range[1])
    if not (np.isfinite(lo) and np.isfinite(hi) and hi > lo):
        raise GeometryError(f"bad sample range {s_range!r}")
    if n_samples < 2:
        raise GeometryError("need at least 2 samples")
    return np.linspace(lo, hi, int(n_samples))


def _pair_rows(s, rho):
    """(s rows, rho rows, sigma rows) of an audit grid's pair matrix, PAIR_ROWS
    rows at a time, with sigma = |s - s'|."""
    for a in range(0, s.size, PAIR_ROWS):
        s_rows = s[a:a + PAIR_ROWS, None]
        yield s_rows, rho[a:a + PAIR_ROWS], np.abs(s_rows - s[None, :])


def check_a1(curve: Curve, s_range, n_samples: int) -> AssumptionReport:
    """Sampled chord-arc audit: c_estimate = min(1, rho/sigma off the diagonal)."""
    s = _sample_range(s_range, n_samples)
    c_est = 1.0
    for _, rho, sigma in _pair_rows(s, curve.pairwise_chords(s)):
        off = sigma > 0
        c_est = float(np.min(rho[off] / sigma[off], initial=c_est))
    return AssumptionReport(c_estimate=c_est, pass_a1=bool(c_est >= _CHORD_ARC_MIN))


def _a2_members(s, rho, omega, eps, mu):
    """Per block of rows, 1 - rho/sigma and its weight sigma / ((sigma + 1)
    sqrt(1 + (s^2 + s'^2)^mu)) on the member pairs (never the diagonal)."""
    for s_rows, rho_b, sigma_b in _pair_rows(s, rho):
        member = in_asymptotic_set(s_rows, s[None, :], omega, eps) & (sigma_b > 0)
        sigma = sigma_b[member]
        ssq = (s_rows ** 2 + s[None, :] ** 2)[member]
        yield (1.0 - rho_b[member] / sigma,
               sigma / ((sigma + 1.0) * np.sqrt(1.0 + ssq ** mu)))


def check_a2(curve: Curve, omega: float, eps: float, mu: float, s_range,
             n_samples: int, d_max: float = 1e3) -> AssumptionReport:
    """Search the smallest d certifying the straightness inequality on the
    sampled pair set (d_max, failing, if it is larger); pairs outside the set
    count as 0.  Failure is reported through pass_a2, not raised."""
    if not (math.isfinite(mu) and mu >= 0 and math.isfinite(eps)):
        raise GeometryError(f"need a finite mu >= 0 and a finite eps, got {mu} and {eps}")
    s = _sample_range(s_range, n_samples)
    rho = curve.pairwise_chords(s)
    d_star = 0.0
    for lhs, weight in _a2_members(s, rho, omega, eps, mu):
        pos = weight > 0
        d_star = float(np.max(lhs[pos] / weight[pos], initial=d_star))
    d = d_star if d_star <= d_max else d_max
    violation = 0.0
    for lhs, weight in _a2_members(s, rho, omega, eps, mu):
        violation = float(np.max(lhs - d * weight, initial=violation))
    return AssumptionReport(
        a2_certificate=A2Certificate(omega=omega, epsilon=eps, mu=mu, d=d,
                                     max_violation=violation),
        pass_a2=bool(d_star <= d_max and violation <= 1e-12),
    )


CURVATURE_DECAY_THRESHOLD = 1.25  # decay exponent above which a2 with mu > 1/2 holds


def check_curvature_decay(curve: Curve, s_range, n_samples: int) -> float:
    """Least-squares exponent beta of k(s) ~ |s|^(-beta) on the outer half
    of the range.  Returns +inf for an identically vanishing tail."""
    s = _sample_range(s_range, n_samples)
    smax = np.max(np.abs(s))
    outer = np.abs(s) >= smax / 2.0
    k = np.asarray(curve.curvature(s[outer]), dtype=float)
    svals = np.abs(s[outer])
    alive = k > 1e-280
    if not np.any(alive):
        return math.inf
    logk = np.log(k[alive])
    logs = np.log(svals[alive])
    if np.ptp(logs) < 1e-12:
        return math.inf
    slope = np.polyfit(logs, logk, 1)[0]
    beta = -float(slope)
    if beta > 50.0:
        # super-polynomial decay; the power-law model diverges
        return math.inf
    return beta


# ---------------------------------------------------------------------------
# curve-definition JSON schema

#: planar profile name -> (constructor, its fields in argument order)
PROFILES = {
    "gaussian": (PlanarCurvatureProfile.gaussian_bump, ("a", "w")),
    "power_tail": (PlanarCurvatureProfile.power_tail, ("a", "beta")),
}


def _number(value, field: str) -> float:
    try:
        number = float(value)
    except (TypeError, ValueError) as exc:
        raise CurveFormatError(f"field {field!r} must be a number, got {value!r}") from exc
    if not math.isfinite(number):
        raise CurveFormatError(f"field {field!r} must be finite, got {value!r}")
    return number


def curve_from_dict(spec: dict) -> Curve:
    """Build a curve from its JSON definition.

    Schema: {"family": "straight" | "planar_curvature" | "sampled",
             "params": {"profile": a key of PROFILES, its fields ...},
             "samples": [[t, x, y, z], ...], "domain_hint": number}.
    """
    if not isinstance(spec, dict):
        raise CurveFormatError("curve definition must be a JSON object")
    family = spec.get("family")
    hint = _number(spec.get("domain_hint", 48.0), "domain_hint")
    if family == "straight":
        return StraightLine()
    if family == "planar_curvature":
        params = spec.get("params")
        if not isinstance(params, dict):
            raise CurveFormatError("planar_curvature needs a 'params' object")
        profile = params.get("profile")
        if not (isinstance(profile, str) and profile in PROFILES):
            raise CurveFormatError(f"unknown planar curvature profile {profile!r}")
        build, fields = PROFILES[profile]
        try:
            values = [_number(params[name], name) for name in fields]
        except KeyError as exc:
            raise CurveFormatError(f"{profile} profile missing field {exc}") from exc
        return build(*values, hint)
    if family == "sampled":
        samples = spec.get("samples")
        if samples is None:
            raise CurveFormatError("sampled curve needs a 'samples' array")
        return SampledParametric(samples)
    raise CurveFormatError(f"unknown curve family {family!r}")
