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
is part of the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.interpolate import CubicSpline, PchipInterpolator

from .errors import (
    CurveFormatError,
    DegenerateFrameError,
    GeometryError,
    OutOfDomainError,
)

_GL_NODES, _GL_WEIGHTS = leggauss(12)

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


def _dd_sub(h1, l1, h2, l2):
    """(h1 + l1) - (h2 + l2) collapsed to a double, accurate relative to the
    magnitude of the difference rather than of the operands."""
    s, e = _two_sum(h1, -h2)
    return s + (e + (l1 - l2))


def _dd_prefix(increments):
    """Compensated prefix sums of an (n, d) increment array.

    Returns (hi, lo) arrays of shape (n + 1, d) with hi[0] = lo[0] = 0.
    """
    n, d = increments.shape
    hi = np.zeros((n + 1, d))
    lo = np.zeros((n + 1, d))
    h = np.zeros(d)
    l = np.zeros(d)
    for i in range(n):
        s, e = _two_sum(h, increments[i])
        h, l = _fast_two_sum(s, l + e)
        hi[i + 1] = h
        lo[i + 1] = l
    return hi, lo


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
    """Outcome of the sampled admissibility audits.

    Fields are optional because each check fills in only its own part;
    the CLI merges them into one report.
    """

    c_estimate: Optional[float] = None
    a2_certificate: Optional[A2Certificate] = None
    beta_fit: Optional[float] = None
    pass_a1: Optional[bool] = None
    pass_a2: Optional[bool] = None
    sample_grid: dict = field(default_factory=dict)


class Curve:
    """Base class; subclasses provide vectorized point/tangent/curvature."""

    family = "abstract"

    def point(self, s):
        raise NotImplementedError

    def tangent(self, s):
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

    def chord_between(self, sa, sb):
        """|gamma(sa) - gamma(sb)| elementwise for broadcastable arrays."""
        pa = self.point(np.asarray(sa, dtype=float))
        pb = self.point(np.asarray(sb, dtype=float))
        return np.linalg.norm(np.atleast_2d(pa) - np.atleast_2d(pb), axis=-1)

    def pairwise_chords(self, s):
        """Full matrix rho[i, j] = |gamma(s_i) - gamma(s_j)|, built 64 rows
        at a time so no N x N x 3 difference array is allocated."""
        p = np.atleast_2d(self.point(np.asarray(s, dtype=float)))
        n = p.shape[0]
        rho = np.empty((n, n))
        for start in range(0, n, 64):
            diff = p[start:start + 64, None, :] - p[None, :, :]
            np.sqrt(np.einsum("ijk,ijk->ij", diff, diff), out=rho[start:start + 64])
        return rho


class StraightLine(Curve):
    """gamma(s) = (s, 0, 0) with the fixed completion b=(0,0,1), n=(0,1,0)."""

    family = "straight"

    def point(self, s):
        s = np.asarray(s, dtype=float)
        out = np.zeros(s.shape + (3,))
        out[..., 0] = s
        return out

    def tangent(self, s):
        s = np.asarray(s, dtype=float)
        out = np.zeros(s.shape + (3,))
        out[..., 0] = 1.0
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

    def chord_between(self, sa, sb):
        return np.abs(np.asarray(sa, dtype=float) - np.asarray(sb, dtype=float))

    def pairwise_chords(self, s):
        s = np.asarray(s, dtype=float)
        return np.abs(s[:, None] - s[None, :])


class PlanarCurvatureProfile(Curve):
    """Planar curve built from a curvature profile k(s).

    theta(s) = int_0^s k(u) du and gamma(s) = (int_0^s cos theta,
    int_0^s sin theta, 0).  Integrals are accumulated per cell with
    12-point Gauss-Legendre rules over a core window [-S, S]; beyond the
    core the curve continues as an exact straight ray along the frozen
    end tangent.  Cumulative positions are stored compensated so chord
    differences of nearby points do not lose the tiny arc-chord defect
    to rounding.
    """

    family = "planar_curvature"

    def __init__(self, curvature_fn: Callable, domain_hint: float = 48.0,
                 params: Optional[dict] = None, cell_width: float = 0.05):
        if domain_hint <= 0:
            raise CurveFormatError("domain_hint must be positive")
        self.k_signed = curvature_fn
        self.domain_hint = float(domain_hint)
        self.params = dict(params or {})
        self._build_cache(cell_width)

    @classmethod
    def gaussian_bump(cls, a: float, w: float, domain_hint: float = 48.0):
        """k(s) = a * exp(-(s/w)^2)."""
        if w <= 0:
            raise CurveFormatError("gaussian profile needs w > 0")
        return cls(lambda s: a * np.exp(-((s / w) ** 2)), domain_hint,
                   params={"profile": "gaussian", "a": a, "w": w})

    @classmethod
    def power_tail(cls, a: float, beta: float, domain_hint: float = 48.0):
        """k(s) = a for |s| < 1 and a * |s|^(-beta) outside."""
        if beta <= 0:
            raise CurveFormatError("power_tail profile needs beta > 0")
        return cls(lambda s: a * np.maximum(1.0, np.abs(s)) ** (-beta),
                   domain_hint,
                   params={"profile": "power_tail", "a": a, "beta": beta})

    # -- construction -------------------------------------------------------

    def _build_cache(self, cell_width):
        # dyadic cell width: boundaries are exact multiples of 2^-m, so the
        # partial and whole-cell integration intervals tile [-S, S] exactly
        # in floating point (otherwise tiling slack ~ eps*S leaks into the
        # arc-chord defect of nearby pairs)
        m = max(1, math.ceil(-math.log2(min(cell_width, 0.5))))
        delta = 2.0 ** (-m)
        n_half = max(64, int(math.ceil(self.domain_hint / delta)))
        S = n_half * delta
        n_cells = 2 * n_half
        bounds = (np.arange(n_cells + 1) - n_half) * delta
        half = delta / 2.0
        mids = bounds[:-1, None] + half * (_GL_NODES[None, :] + 1.0)

        dtheta = half * (np.asarray(self.k_signed(mids)) @ _GL_WEIGHTS)
        theta_b = np.concatenate(([0.0], np.cumsum(dtheta)))
        i0 = n_cells // 2
        theta_b = theta_b - theta_b[i0]

        # theta at the quadrature nodes of every cell (nested partial rule)
        inner = bounds[:-1, None, None] + (
            (mids - bounds[:-1, None])[:, :, None] * (_GL_NODES[None, None, :] + 1.0) / 2.0
        )
        partial = ((mids - bounds[:-1, None]) / 2.0) * (
            np.asarray(self.k_signed(inner)) @ _GL_WEIGHTS
        )
        theta_nodes = theta_b[:-1, None] + partial

        incr = np.empty((n_cells, 2))
        incr[:, 0] = half * (np.cos(theta_nodes) @ _GL_WEIGHTS)
        incr[:, 1] = half * (np.sin(theta_nodes) @ _GL_WEIGHTS)
        hi, lo = _dd_prefix(incr)
        # re-anchor at s = 0 so gamma(0) = 0 exactly
        sa, ea = _two_sum(hi, -hi[i0])
        hi_a, lo_a = _fast_two_sum(sa, ea + (lo - lo[i0]))

        self._S = S
        self._delta = delta
        self._bounds = bounds
        self._theta_b = theta_b
        self._pos_hi = hi_a
        self._pos_lo = lo_a
        self._theta_left = theta_b[0]
        self._theta_right = theta_b[-1]
        self._kmax = float(np.max(np.abs(np.asarray(self.k_signed(mids)))))

    # -- internals ----------------------------------------------------------

    def _theta_partial(self, start, s):
        """int_start^s k with a single 12-point rule (|s - start| <= cell)."""
        half = (s - start) / 2.0
        nodes = start[..., None] + half[..., None] * (_GL_NODES + 1.0)
        return half * (np.asarray(self.k_signed(nodes)) @ _GL_WEIGHTS)

    def theta(self, s):
        """Tangent angle theta(s) = int_0^s k."""
        s = np.asarray(s, dtype=float)
        scalar = s.ndim == 0
        s = np.atleast_1d(s)
        out = np.empty_like(s)
        left = s < -self._S
        right = s > self._S
        core = ~(left | right)
        out[left] = self._theta_left
        out[right] = self._theta_right
        if np.any(core):
            sc = s[core]
            cell = np.clip(((sc + self._S) / self._delta).astype(int), 0,
                           len(self._bounds) - 2)
            start = self._bounds[cell]
            out[core] = self._theta_b[cell] + self._theta_partial(start, sc)
        return out[0] if scalar else out

    def _positions_dd(self, s):
        """Compensated planar positions: (hi, lo) arrays of shape (n, 2)."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        hi = np.empty((s.size, 2))
        lo = np.empty((s.size, 2))
        left = s < -self._S
        right = s > self._S
        core = ~(left | right)
        if np.any(core):
            sc = s[core]
            cell = np.clip(((sc + self._S) / self._delta).astype(int), 0,
                           len(self._bounds) - 2)
            start = self._bounds[cell]
            half = (sc - start) / 2.0
            nodes = start[:, None] + half[:, None] * (_GL_NODES + 1.0)
            th0 = self._theta_b[cell]
            inner_half = (nodes - start[:, None]) / 2.0
            inner_nodes = start[:, None, None] + inner_half[:, :, None] * (_GL_NODES + 1.0)
            th_nodes = th0[:, None] + inner_half * (
                np.asarray(self.k_signed(inner_nodes)) @ _GL_WEIGHTS
            )
            px = half * (np.cos(th_nodes) @ _GL_WEIGHTS)
            py = half * (np.sin(th_nodes) @ _GL_WEIGHTS)
            h, e = _two_sum(self._pos_hi[cell], np.stack([px, py], axis=1))
            hi[core] = h
            lo[core] = e + self._pos_lo[cell]
        for mask, edge, theta_end in ((left, -self._S, self._theta_left),
                                      (right, self._S, self._theta_right)):
            if np.any(mask):
                idx = 0 if edge < 0 else -1
                ds = s[mask] - edge
                ray = np.stack([ds * math.cos(theta_end),
                                ds * math.sin(theta_end)], axis=1)
                h, e = _two_sum(self._pos_hi[idx], ray)
                hi[mask] = h
                lo[mask] = e + self._pos_lo[idx]
        return hi, lo

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

    def tangent(self, s):
        th = np.asarray(self.theta(s))
        out = np.zeros(th.shape + (3,))
        out[..., 0] = np.cos(th)
        out[..., 1] = np.sin(th)
        return out

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

    def chord_between(self, sa, sb):
        sa = np.atleast_1d(np.asarray(sa, dtype=float))
        sb = np.atleast_1d(np.asarray(sb, dtype=float))
        sa, sb = np.broadcast_arrays(sa, sb)
        ha, la = self._positions_dd(sa.ravel())
        hb, lb = self._positions_dd(sb.ravel())
        d = _dd_sub(ha, la, hb, lb)
        return np.hypot(d[:, 0], d[:, 1]).reshape(sa.shape)

    def pairwise_chords(self, s, block: int = 256):
        s = np.asarray(s, dtype=float)
        hi, lo = self._positions_dd(s)
        n = s.size
        rho = np.empty((n, n))
        for start in range(0, n, block):
            stop = min(start + block, n)
            dx = _dd_sub(hi[None, start:stop, 0], lo[None, start:stop, 0],
                         hi[:, None, 0], lo[:, None, 0])
            dy = _dd_sub(hi[None, start:stop, 1], lo[None, start:stop, 1],
                         hi[:, None, 1], lo[:, None, 1])
            rho[:, start:stop] = np.hypot(dx, dy)
        return rho


class SampledParametric(Curve):
    """Curve given by samples (t, x, y, z), reparametrized by arc length.

    The parameter s is centred: s = 0 at the arc-length midpoint of the
    sampled data.  Evaluation outside the sampled range raises
    ``OutOfDomainError``.
    """

    family = "sampled"

    def __init__(self, samples):
        samples = np.asarray(samples, dtype=float)
        if samples.ndim != 2 or samples.shape[1] != 4:
            raise CurveFormatError("samples must be an (n, 4) array of [t, x, y, z]")
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
        self._spl = [CubicSpline(t, samples[:, k]) for k in (1, 2, 3)]
        self._dspl = [sp.derivative() for sp in self._spl]
        self._build_arclength(t)
        self.domain_hint = self._half_length

    def _build_arclength(self, t):
        # dense sub-grid: 8 panels per sample interval, 12-pt GL each
        sub = np.linspace(t[:-1], t[1:], 9, axis=1)
        starts = sub[:, :-1].ravel()
        stops = sub[:, 1:].ravel()
        half = (stops - starts) / 2.0
        nodes = starts[:, None] + half[:, None] * (_GL_NODES + 1.0)
        speed = np.zeros_like(nodes)
        for d in self._dspl:
            speed += d(nodes) ** 2
        speed = np.sqrt(speed)
        seg = half * (speed @ _GL_WEIGHTS)
        ell = np.concatenate(([0.0], np.cumsum(seg)))
        tdense = np.concatenate((starts, [stops[-1]]))
        if np.any(np.diff(ell) <= 0):
            raise CurveFormatError("degenerate samples: arc length is not increasing")
        self._t_of_ell = PchipInterpolator(ell, tdense)
        self._total = float(ell[-1])
        self._half_length = self._total / 2.0
        ksamp = [self._curvature_t(tv) for tv in tdense]
        self._kmax = float(np.max(ksamp))
        self._tdense = tdense
        self._ell_dense = ell

    def _t_param(self, s):
        s = np.asarray(s, dtype=float)
        if np.any(s < -self._half_length - 1e-9) or np.any(s > self._half_length + 1e-9):
            raise OutOfDomainError(
                f"arc length {float(np.max(np.abs(s))):.6g} outside sampled range "
                f"[-{self._half_length:.6g}, {self._half_length:.6g}]"
            )
        return self._t_of_ell(np.clip(s + self._half_length, 0.0, self._total))

    def _curvature_t(self, t):
        d1 = np.array([d(t) for d in self._dspl])
        d2 = np.array([sp.derivative(2)(t) for sp in self._spl])
        speed = np.linalg.norm(d1)
        if speed == 0:
            return 0.0
        return float(np.linalg.norm(np.cross(d1, d2)) / speed ** 3)

    def point(self, s):
        s = np.asarray(s, dtype=float)
        t = self._t_param(s)
        return np.stack([sp(t) for sp in self._spl], axis=-1)

    def tangent(self, s):
        t = self._t_param(np.asarray(s, dtype=float))
        d1 = np.stack([d(t) for d in self._dspl], axis=-1)
        return d1 / np.linalg.norm(d1, axis=-1, keepdims=True)

    def curvature(self, s):
        s = np.asarray(s, dtype=float)
        if s.ndim == 0:
            return self._curvature_t(float(self._t_param(s)))
        t = self._t_param(s)
        return np.array([self._curvature_t(float(tv)) for tv in t])

    def frame(self, s):
        s = float(s)
        t_hat = self.tangent(s)
        tv = float(self._t_param(s))
        d2 = np.array([sp.derivative(2)(tv) for sp in self._spl])
        a_perp = d2 - np.dot(d2, t_hat) * t_hat
        norm = np.linalg.norm(a_perp)
        if norm > 1e-8 * max(1.0, np.linalg.norm(d2)) and self._curvature_t(tv) > 1e-8:
            n = a_perp / norm
            b = np.cross(t_hat, n)
            return FrenetFrame(t=t_hat, b=b, n=n)
        return self._fallback_frame(s, t_hat)

    def _fallback_frame(self, s, t_hat):
        # parallel-transport surrogate: borrow the normal plane orientation
        # from the nearest point with supporting curvature
        ells = self._ell_dense - self._half_length
        order = np.argsort(np.abs(ells - s))
        for idx in order:
            tv = self._tdense[idx]
            if self._curvature_t(tv) > 1e-8:
                d1 = np.array([d(tv) for d in self._dspl])
                d2 = np.array([sp.derivative(2)(tv) for sp in self._spl])
                th = d1 / np.linalg.norm(d1)
                a_perp = d2 - np.dot(d2, th) * th
                n_ref = a_perp / np.linalg.norm(a_perp)
                b_ref = np.cross(th, n_ref)
                b = b_ref - np.dot(b_ref, t_hat) * t_hat
                if np.linalg.norm(b) > 1e-10:
                    b /= np.linalg.norm(b)
                    n = np.cross(b, t_hat)
                    return FrenetFrame(t=t_hat, b=b, n=n)
        # globally straight data: fixed completion
        for e in (np.array([0.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.0])):
            b = e - np.dot(e, t_hat) * t_hat
            if np.linalg.norm(b) > 1e-6:
                b /= np.linalg.norm(b)
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


def curvature_at(curve: Curve, s: float) -> float:
    """|gamma''(s)| for the unit-speed parametrization."""
    return float(curve.curvature(float(s)))


def shifted_point(curve: Curve, s: float, r: float, angle: float) -> np.ndarray:
    """Point of the shifted curve: gamma(s) + r cos(angle) b + r sin(angle) n."""
    if r <= 0:
        raise GeometryError("shift radius must be positive")
    r0 = curve.max_shift_radius()
    if r >= r0:
        raise GeometryError(f"shift radius {r} exceeds the safe bound r0 = {r0:.6g}")
    fr = eval_frame(curve, s)
    base = eval_point(curve, s)
    return base + r * math.cos(angle) * fr.b + r * math.sin(angle) * fr.n


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


def check_a1(curve: Curve, s_range, n_samples: int, c_min: float = 1e-3) -> AssumptionReport:
    """Sampled chord-arc audit: c_estimate = min rho/sigma over the grid."""
    s = _sample_range(s_range, n_samples)
    rho = curve.pairwise_chords(s)
    sigma = np.abs(s[:, None] - s[None, :])
    off = sigma > 0
    ratio = np.ones_like(rho)
    ratio[off] = rho[off] / sigma[off]
    c_est = float(np.min(ratio))
    return AssumptionReport(
        c_estimate=c_est,
        pass_a1=bool(c_est >= c_min),
        sample_grid={"s_range": [float(s_range[0]), float(s_range[1])],
                     "n_samples": int(n_samples)},
    )


def check_a2(curve: Curve, omega: float, eps: float, mu: float, s_range,
             n_samples: int, d_max: float = 1e3) -> AssumptionReport:
    """Search the smallest d certifying the straightness inequality on the
    sampled pair set; failure is reported through pass_a2, not raised."""
    if mu < 0:
        raise GeometryError("mu must be nonnegative")
    s = _sample_range(s_range, n_samples)
    rho = curve.pairwise_chords(s)
    sigma = np.abs(s[:, None] - s[None, :])
    member = in_asymptotic_set(s[:, None], s[None, :], omega, eps) & (sigma > 0)
    lhs = np.zeros_like(rho)
    lhs[member] = 1.0 - rho[member] / sigma[member]
    weight = np.zeros_like(rho)
    ssq = s[:, None] ** 2 + s[None, :] ** 2
    weight[member] = sigma[member] / (
        (sigma[member] + 1.0) * np.sqrt(1.0 + ssq[member] ** mu)
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(member & (weight > 0), lhs / np.where(weight > 0, weight, 1.0), 0.0)
    d_star = float(np.max(ratios)) if np.any(member) else 0.0
    d_star = max(d_star, 0.0)
    if d_star <= d_max:
        violation = float(np.max(lhs - d_star * weight)) if np.any(member) else 0.0
        cert = A2Certificate(omega=omega, epsilon=eps, mu=mu, d=d_star,
                             max_violation=violation)
        passed = violation <= 1e-12
    else:
        violation = float(np.max(lhs - d_max * weight))
        cert = A2Certificate(omega=omega, epsilon=eps, mu=mu, d=d_max,
                             max_violation=violation)
        passed = False
    return AssumptionReport(
        a2_certificate=cert,
        pass_a2=bool(passed),
        sample_grid={"s_range": [float(s_range[0]), float(s_range[1])],
                     "n_samples": int(n_samples)},
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


def curve_from_dict(spec: dict) -> Curve:
    """Build a curve from its JSON definition.

    Schema: {"family": "straight" | "planar_curvature" | "sampled",
             "params": {...}, "samples": [[t, x, y, z], ...],
             "domain_hint": number}.
    """
    if not isinstance(spec, dict):
        raise CurveFormatError("curve definition must be a JSON object")
    family = spec.get("family")
    hint = float(spec.get("domain_hint", 48.0))
    if family == "straight":
        return StraightLine()
    if family == "planar_curvature":
        params = spec.get("params")
        if not isinstance(params, dict):
            raise CurveFormatError("planar_curvature needs a 'params' object")
        profile = params.get("profile")
        if profile == "gaussian":
            try:
                return PlanarCurvatureProfile.gaussian_bump(
                    float(params["a"]), float(params["w"]), hint)
            except KeyError as exc:
                raise CurveFormatError(f"gaussian profile missing field {exc}") from exc
        if profile == "power_tail":
            try:
                return PlanarCurvatureProfile.power_tail(
                    float(params["a"]), float(params["beta"]), hint)
            except KeyError as exc:
                raise CurveFormatError(f"power_tail profile missing field {exc}") from exc
        raise CurveFormatError(f"unknown planar curvature profile {profile!r}")
    if family == "sampled":
        samples = spec.get("samples")
        if samples is None:
            raise CurveFormatError("sampled curve needs a 'samples' array")
        return SampledParametric(samples)
    raise CurveFormatError(f"unknown curve family {family!r}")
