"""Bound-state search via the spectral root condition lambda_j(kappa) = alpha.

For a non-straight admissible wire the top eigenvalue of the boundary
operator exceeds the free-line value s_kappa, is continuous in kappa and
drops to -infinity as kappa grows, so each branch that starts above the
coupling alpha crosses it exactly once on the sampled range.  The crossing
kappa~ gives a bound state with energy E = -kappa~^2 strictly below the
continuum edge zeta0 = -kappa0(alpha)^2.

The search starts at kappa0 * (1 + 1e-4): exactly at kappa0 the straight
line satisfies lambda = alpha spuriously (continuum edge, not an
eigenvalue), and the offset keeps that degeneracy out of the search.
Branches that bend the spectrum up but fail to clear alpha at the search
start are reported as threshold-uncertain records instead of being dropped:
a finite box cannot distinguish a weakly bound state from the edge.

Roots are searched by Newton's method in u = ln kappa.  By Hellmann-Feynman
the slope of a branch with unit eigenvector h is dlambda/dkappa =
<h, dQ/dkappa h>, which ``OperatorCache.slope`` computes from the kept chord
array, so every point solved with vectors gives its own Newton step
-(lambda - alpha) / (kappa dlambda/dkappa).  The free-line top
s_kappa = (psi(1) - ln(kappa/2)) / (2 pi) is exactly linear in u with slope
-1/(2 pi), and bent branches are close to linear there too: from the search
start a bump's ground state takes one Newton point and then its root.  The
curvature of the branch, from the slopes of the last two points, predicts
the error of the next Newton point; once that is below tol/10 the point is
solved as the root, and its own Newton correction, at most
``tol_kappa_rel`` (a step in u is a relative step in kappa), certifies
it.  A point that fails the certificate is counted as an evaluation, like
every other point, and the iteration goes on.  Safeguards keep each point
inside [kappa_lo, kappa_hi], the largest point seen above alpha and the
smallest below it: a Newton point outside is replaced by bisection, or,
while no point lies below alpha, by a step of the free line's distance to
alpha that grows by BRACKET_GROWTH, up to BRACKET_MAX_FACTOR * kappa0.
So each root costs the start, shared by all branches, its Newton points
and one root solve, and no kappa is built twice.  A scan's crossings are
refined by Brent's method (``_brentq``) on values alone, since a scan's
values come from Ritz steps, about as cheap as a slope.

On a mirror-symmetric wire Q splits into an even and an odd block, and each
branch lives in one of them: branch j of the search-start record, the k-th
value of its block p, is searched as lambda_(p,k)(kappa) = alpha with that
block alone solved at each Newton point and the root.  Only the search
start solves both blocks.  A wire that does not split is one
block, block 0, whose values are the merged lambda_j.  A state's
``branch`` is its rank in energy: branches fall with kappa, so the values
above branch j's at its root are those of the states below it, each of
which was above alpha at the search start and so is tracked.  This is the
merged index whose crossing lies at that kappa, which can differ from j
when branches of the two blocks cross on the way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
import scipy  # noqa: F401

from .curve import Curve, check_a1
from .errors import (
    AssumptionError,
    BracketFailureError,
    ConfigError,
    GeometryError,
    NumericalFailureError,
)
from .operators import GridSpec, kappa0, s_kappa, zeta0
# neither scipy nor _iterative_top is used here: perfbench/tracing.py wraps
# the eigensolvers at solver.scipy (whose linalg it replaces) and at
# solver._iterative_top, so both names stay bound.  The bare ``import scipy``
# loads no subpackage.
from .spectral import SpectralCurve, _BranchEvaluator, _iterative_top  # noqa: F401

BRACKET_START_OFFSET = 1e-4  # the search starts at kappa0 * (1 + offset)
BRACKET_GROWTH = 2.0         # factor by which a step with no upper end grows
BRACKET_MAX_FACTOR = 1e6     # no sign change up to this multiple of kappa0 fails
THRESHOLD_GAP_FRAC = 1e-6    # gaps below this fraction of |zeta0| are uncertain
NEWTON_MAXITER = 100         # Newton points per root before the search fails


@dataclass
class SolveConfig:
    alpha: float
    grid: GridSpec
    tol_kappa_rel: float = 1e-10
    tol_lambda: float = 1e-9
    m_branches: int = 8

    def __post_init__(self):
        # written so that NaN fails too; an infinite tol_lambda would switch
        # off the root's residual check
        if not (0 < self.tol_kappa_rel < math.inf and 0 < self.tol_lambda < math.inf):
            raise GeometryError("tolerances must be finite and positive")
        if self.m_branches < 1:
            raise GeometryError("need at least one tracked branch")


@dataclass
class BoundState:
    kappa_tilde: float
    energy: float
    branch: int
    h: Optional[np.ndarray]
    gap: float                      # zeta0 - energy, positive below the edge
    residual: float                 # |lambda_j(kappa~) - alpha|
    threshold_uncertain: bool = False
    diagnostics: dict = field(default_factory=dict)


@dataclass
class Crossing:
    branch: int
    kappa: float


@dataclass
class ConvergenceLevel:
    N: int
    L: float
    energy: Optional[float]


@dataclass
class ConvergenceReport:
    levels: list
    diffs: list
    observed_order: Optional[float]
    richardson_energy: Optional[float]
    tail_change: Optional[float]
    accepted: bool
    warnings: list


def _require_admissible(curve: Curve, grid: GridSpec):
    report = check_a1(curve, (-grid.L, grid.L), 256)
    if not report.pass_a1:
        raise AssumptionError(
            f"curve fails the chord-arc audit on [-{grid.L}, {grid.L}] "
            f"(c_estimate = {report.c_estimate:.3e})")
    return report


def find_bound_states(curve: Curve, config: SolveConfig, *,
                      ground_only: bool = False) -> list:
    """All branch crossings lambda_j(kappa~) = alpha above the continuum edge.

    Returns BoundState records sorted by energy; threshold-uncertain records
    (gap below THRESHOLD_GAP_FRAC * |zeta0|, or a bent branch that never
    clears alpha at the search start) carry the flag instead of being
    silently dropped.  The straight line yields an empty list.  If the last
    tracked branch would give a record, more states may lie beyond the
    m_branches cap, so ConfigError is raised instead of a partial list.

    Callers that read only the lowest accepted state pass ground_only=True:
    the search then tracks branch 0 alone (one eigenvalue per evaluation,
    whatever m_branches is) and returns at most one record, branch 0's state
    or its threshold-uncertain record.  That is the answer the full list
    gives: lambda_j <= lambda_0 at every kappa and every branch decreases,
    so kappa~_j <= kappa~_0; a branch 0 that is uncertain or never clears
    alpha leaves every other branch the same.
    """
    _require_admissible(curve, config.grid)
    alpha = config.alpha
    k0 = kappa0(alpha)
    z0 = zeta0(alpha)
    k_start = k0 * (1.0 + BRACKET_START_OFFSET)
    s_start = s_kappa(k_start)
    # straight wires lift the top value by rounding only (at most about
    # 5e-14 at N = 256 to 1024); a bump lifts it by about 3.5e-4 a^2
    lift_floor = 1e-12 * max(1.0, abs(s_start))

    m = 1 if ground_only else config.m_branches
    states = []
    with _BranchEvaluator(curve, config.grid, m) as ev:
        start, _ = ev.eigenpair(k_start)
        ev.count(start)
        lam_last = start.values[-1]
        if not ground_only and (lam_last > alpha or lam_last - s_start > lift_floor):
            raise ConfigError(
                f"the last of the {m} tracked branches gives a bound or threshold-"
                "uncertain state, so states beyond it would be dropped; raise -m "
                "(m_branches)")
        for j, lam_start in enumerate(start.values):
            if lam_start > alpha:
                states.append(_solve_branch(ev, start, j, alpha, k_start, k0, z0, config))
            elif lam_start - s_start > lift_floor:
                # bent branch hugging the continuum edge: report, don't drop
                states.append(BoundState(
                    kappa_tilde=k_start,
                    energy=-k_start ** 2,
                    branch=j,
                    h=None,
                    gap=z0 - (-k_start ** 2),
                    residual=abs(lam_start - alpha),
                    threshold_uncertain=True,
                    diagnostics={"reason": "branch lifted above the free line but "
                                           "below alpha at the bracket start",
                                 "lambda_start": float(lam_start),
                                 "s_kappa_start": float(s_start),
                                 "eigensolver": start.path,
                                 "parity": start.parity[j]},
                ))
    states.sort(key=lambda st: st.energy)
    # a state's branch is its energy rank: the index of its value at its
    # root (see the module docstring)
    for rank, st in enumerate(states):
        st.branch = rank
    return states


def _brentq(f, xa, xb, xtol, rtol, maxiter=100):
    """(root, iterations): Brent's root of f on [xa, xb], a port of scipy's
    ``brentq.c`` that calls f at the same points in the same order and so
    returns scipy.optimize.brentq's root and iteration count.

    An end where f is 0 is returned with 1 iteration, as scipy counts it.
    ValueError when f does not change sign; NumericalFailureError where f is
    NaN, which scipy refuses too, or after maxiter iterations.
    """
    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise NumericalFailureError(f"Brent's method met a NaN value at x = {x!r}")
        return fx

    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre, 1
    if fcur == 0:
        return xcur, 1
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for i in range(1, maxiter + 1):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur, i
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:      # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:                 # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                # C divides by zero to inf or nan, which bisects below
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den else math.nan
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry       # good short step
            else:
                spre = scur = sbis            # bisect
        else:
            spre = scur = sbis                # bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise NumericalFailureError(
        f"Brent's method did not converge in {maxiter} iterations (last x = {xcur!r})")


def _root_in_log_kappa(f, k_lo, k_hi, f_lo, f_hi, tol):
    """Brent's root of f(kappa) = 0 on [k_lo, k_hi], searched in
    u = ln kappa to the relative kappa tolerance ``tol``, given f's values
    f_lo and f_hi at the two ends.

    Returns (kappa~, the number of Brent iterations).  f is never called at
    an end: Brent reads f_lo and f_hi there, and a root at an end maps back
    to that end's exact kappa float.
    """
    ends = {math.log(k_lo): (k_lo, f_lo), math.log(k_hi): (k_hi, f_hi)}
    kappa = lambda u: ends[u][0] if u in ends else math.exp(u)
    value = lambda u: ends[u][1] if u in ends else f(math.exp(u))
    eps = np.finfo(float).eps
    u, iterations = _brentq(value, math.log(k_lo), math.log(k_hi),
                            xtol=max(tol, 4 * eps), rtol=4 * eps)
    return kappa(u), iterations


def _solve_branch(ev, start, j, alpha, k_start, k0, z0, config) -> BoundState:
    """The root of branch j of the search-start record ``start``, followed
    in its own parity block; ``find_bound_states`` relabels it by energy.

    Safeguarded Newton in u = ln kappa (see the module docstring).  Each
    point after the start is one fresh solve of the branch's block with
    vectors, ``_BranchEvaluator.eigenpair``: its value gives f = lambda -
    alpha, its vector the slope g = kappa dlambda/dkappa, and -f/g is its
    own Newton correction.  A Newton point whose predicted error is below
    tol/10 is solved as the root, and is the root if its correction is at
    most tol; every other point is counted as an evaluation.
    """
    block, k = start.branch(j)
    k_max = BRACKET_MAX_FACTOR * k0
    u_max = math.log(k_max)
    tol = config.tol_kappa_rel
    # the largest point seen above alpha and the smallest below it (None
    # until there is one); every point after the start lies between them
    k_lo, k_hi = k_start, None
    kappa, f = k_start, float(start.values[j]) - alpha
    g = k_start * ev.cache.slope(k_start, start.vectors[block][:, k], block)
    # |g' / (2 g)| from the last two slopes, so that a Newton step d from
    # the last point is predicted to land curvature * d^2 from the root; 0
    # before there are two slopes, as on the free line, which is linear in u
    curvature = 0.0
    # where Newton gives no point and none lies below alpha, steps are the
    # free line's distance to alpha, growing by BRACKET_GROWTH
    grow = 2 * math.pi * f
    for iterations in range(1, NEWTON_MAXITER + 1):
        u = math.log(kappa)
        step = -f / g if g < 0 else math.nan
        k_next = math.exp(min(u + step, u_max))
        inside = k_lo < k_next < (k_max if k_hi is None else k_hi)
        candidate = inside and curvature * step ** 2 < tol / 10
        if not inside:
            if k_hi is None:
                u_next = min(math.log(k_lo) + grow, u_max)
                grow *= BRACKET_GROWTH
            else:
                u_next = 0.5 * (math.log(k_lo) + math.log(k_hi))
            k_next = k_max if u_next == u_max else math.exp(u_next)
        root, h = ev.eigenpair(k_next, block)
        f_next = float(root.values[k]) - alpha
        g_next = k_next * ev.cache.slope(k_next, root.vectors[0][:, k], block)
        curvature = (abs((g_next - g) / (math.log(k_next) - u) / (2 * g_next))
                     if g_next < 0 else math.inf)
        kappa, f, g = k_next, f_next, g_next
        if candidate and g < 0 and abs(f / g) <= tol:
            break
        ev.count(root)
        if f < 0:
            k_hi = kappa
        elif kappa < k_max:
            k_lo = kappa
        else:
            raise BracketFailureError(
                f"branch {j}: no sign change of lambda - alpha up to "
                f"kappa = {k_max:.3e}")
    else:
        raise NumericalFailureError(
            f"branch {j}: Newton's method did not converge in {NEWTON_MAXITER} "
            f"points (last kappa = {kappa!r})")
    if abs(f) > config.tol_lambda:
        raise NumericalFailureError(
            f"branch {j}: eigenvalue residual {abs(f):.3e} at the "
            f"root exceeds tol_lambda = {config.tol_lambda:.1e}; tighten "
            "tol_kappa_rel")
    energy = -kappa ** 2
    gap = z0 - energy
    return BoundState(
        kappa_tilde=float(kappa),
        energy=float(energy),
        branch=j,
        h=h[:, k].copy(),
        gap=float(gap),
        residual=abs(f),
        threshold_uncertain=bool(gap < THRESHOLD_GAP_FRAC * abs(z0)),
        diagnostics={"bracket": [float(k_lo), float(k_max if k_hi is None else k_hi)],
                     "iterations": iterations,
                     "correction": -f / g,
                     "evaluations": int(ev.evaluations),
                     "eigensolver": root.path,
                     "parity": root.parity[k]},
    )


def spectrum_scan(curve: Curve, config: SolveConfig, kappa_range, n_points: int):
    """Eigenvalue curves over a kappa range plus refined alpha-crossings.

    Returns (SpectralCurve, list[Crossing]); crossings are Brent-refined to
    the configured relative tolerance between bracketing samples.  The range
    must satisfy 0 < kappa_min < kappa_max <= BRACKET_MAX_FACTOR * kappa0,
    ``find_bound_states``' own search limit (GeometryError otherwise).

    Every values solve is a ``_BranchEvaluator.solve`` of the whole stack
    that takes a seed or keeps seed vectors (see ``top_eigen``), on one of
    two chains of seeds that the scan holds:

    - The samples.  The first is solved in full, keeping its seed vectors,
      and each later one takes a certified Rayleigh-Ritz step per block
      from the sample before it, so the samples do not depend on alpha.
      A block whose sample step fails has no vectors from then on: it is
      solved for values only at every later sample, as ``lambda_curve``
      solves it.
    - The Brent points of sample interval i, of every branch crossing
      there; Brent reads its two bracket ends' values from samples i and
      i + 1.  Their seed starts at sample i's vectors and takes the vectors
      of each point solved.  A block with no seed vectors, or whose step
      fails, is solved in full with vectors.

    Interval i is refined as soon as sample i + 1 is solved, so the walk
    keeps the vectors of two samples at a time.  The curve's
    ``diagnostics`` hold the evaluator's counts: ``evaluations``,
    ``dense_solves``, ``ritz_steps``, ``ritz_fallbacks``, ``ritz_blocks``
    and ``ritz_worst_bound``.
    """
    k_lo, k_hi = float(kappa_range[0]), float(kappa_range[1])
    if not (0 < k_lo < k_hi):
        raise GeometryError("kappa range must satisfy 0 < kappa_min < kappa_max")
    k_cap = BRACKET_MAX_FACTOR * kappa0(config.alpha)
    if k_hi > k_cap:
        raise GeometryError(f"kappa_max = {k_hi} is above {BRACKET_MAX_FACTOR:g} kappa0 = "
                            f"{k_cap:.6g}, the search limit of find_bound_states")
    if int(n_points) < 1:
        raise GeometryError(f"need at least one sample, got n_points = {n_points}")
    kappas = np.geomspace(k_lo, k_hi, int(n_points))
    crossings = []
    alpha = config.alpha
    rows = []
    with _BranchEvaluator(curve, config.grid, config.m_branches) as ev:

        def brent_value(kappa, j):
            nonlocal seed
            rec = ev.solve(kappa, seed=seed, vectors=True)
            seed = rec.vectors
            return rec.values[j] - alpha

        right = ev.solve(kappas[0], vectors=True)
        for i, kappa in enumerate(kappas):
            left = right
            rows.append(left.values)
            if i + 1 < len(kappas):
                right = ev.solve(kappas[i + 1], seed=left.vectors)
            seed = left.vectors
            for j in range(config.m_branches):
                f_left = left.values[j] - alpha
                if f_left == 0.0:
                    crossings.append(Crossing(branch=j, kappa=float(kappa)))
                elif i + 1 < len(kappas) and f_left * (right.values[j] - alpha) < 0:
                    kc, _ = _root_in_log_kappa(
                        lambda k: brent_value(k, j), kappas[i], kappas[i + 1],
                        f_left, right.values[j] - alpha, config.tol_kappa_rel)
                    crossings.append(Crossing(branch=j, kappa=float(kc)))
        diagnostics = {name: getattr(ev, name) for name in (
            "evaluations", "dense_solves", "ritz_steps", "ritz_fallbacks", "ritz_blocks",
            "ritz_worst_bound")}
    curve_data = SpectralCurve(kappas, np.array(rows), np.asarray(s_kappa(kappas)), diagnostics)
    # by branch, then kappa: a branch's crossings lie in distinct intervals
    crossings.sort(key=lambda c: (c.branch, c.kappa))
    return curve_data, crossings


def ground_state(curve: Curve, config: SolveConfig) -> Optional[BoundState]:
    """The lowest state clear of the threshold, from a ground_only search, or
    None if the search finds none."""
    for st in find_bound_states(curve, config, ground_only=True):
        if not st.threshold_uncertain:
            return st
    return None


def converge_study(curve: Curve, config: SolveConfig, levels: int = 3) -> ConvergenceReport:
    """Grid-refinement study of the ground-state energy.

    Runs an N-ladder N / 2^(levels-1), ..., N/2, N at fixed L (observed
    order from successive differences, Richardson extrapolation from the
    finest pair) plus one run with the box enlarged to 1.5 L at fixed
    resolution Delta, which isolates the truncation tail.  Acceptance
    requires every difference to shrink by at least 3x per N-doubling;
    non-monotone refinement only warns.
    """
    def energy(grid):
        st = ground_state(curve, replace(config, grid=grid))
        return None if st is None else st.energy

    base = config.grid
    warnings = []
    runs = []
    energies = []
    for n_k in refinement_ladder(base.N, levels):
        e_k = energy(GridSpec(base.L, n_k))
        runs.append(ConvergenceLevel(N=n_k, L=base.L, energy=e_k))
        energies.append(e_k)

    tail = tail_grid(base)
    e_tail = energy(tail)
    runs.append(ConvergenceLevel(N=tail.N, L=tail.L, energy=e_tail))

    if any(e is None for e in energies):
        vacuous = all(e is None for e in energies) and e_tail is None
        if not vacuous:
            warnings.append("bound state appears only on some refinement levels")
        return ConvergenceReport(levels=runs, diffs=[], observed_order=None,
                                 richardson_energy=None, tail_change=None,
                                 accepted=vacuous, warnings=warnings)

    diffs = [energies[i + 1] - energies[i] for i in range(len(energies) - 1)]
    observed_order = None
    accepted = True
    for i in range(1, len(diffs)):
        if abs(diffs[i - 1]) > 0:
            ratio = abs(diffs[i - 1]) / max(abs(diffs[i]), 1e-300)
            if ratio < 3.0:
                accepted = False
            if np.sign(diffs[i]) != np.sign(diffs[i - 1]):
                warnings.append("non-monotone refinement between levels "
                                f"{i - 1} and {i + 1}")
    if len(diffs) >= 2 and abs(diffs[-1]) > 0:
        observed_order = math.log2(abs(diffs[-2]) / abs(diffs[-1]))
    p = observed_order if observed_order and 0.5 <= observed_order <= 6 else 2.0
    richardson = energies[-1] + diffs[-1] / (2 ** p - 1.0)
    tail_change = abs(e_tail - energies[-1]) if e_tail is not None else None
    if e_tail is None:
        warnings.append("bound state lost when enlarging the box")
        accepted = False
    return ConvergenceReport(levels=runs, diffs=diffs,
                             observed_order=observed_order,
                             richardson_energy=richardson,
                             tail_change=tail_change,
                             accepted=accepted, warnings=warnings)


def tail_grid(grid: GridSpec) -> GridSpec:
    """The converge study's box-enlarged grid: 1.5 L and 1.5 N points."""
    return GridSpec(1.5 * grid.L, grid.N + grid.N // 2)


def refinement_ladder(n: int, levels: int) -> list:
    """Grid sizes N / 2^(levels-1), ..., N/2, N of the converge study;
    GeometryError unless levels >= 2 and every size is even and >= 8."""
    if levels < 2:
        raise GeometryError("need at least 2 refinement levels")
    sizes = [n // 2 ** (levels - 1 - k) for k in range(levels)]
    for k, n_k in enumerate(sizes):
        if n_k < 8 or n_k % 2:
            raise GeometryError(f"refinement level {k} gives invalid N = {n_k}")
    return sizes


# ---------------------------------------------------------------------------
# serialization


def states_to_dict(alpha: float, grid: GridSpec, states) -> dict:
    return {
        "alpha": float(alpha),
        "zeta0": zeta0(alpha),
        "grid": {"L": float(grid.L), "N": int(grid.N)},
        "states": [
            {
                "kappa": st.kappa_tilde,
                "energy": st.energy,
                "gap": st.gap,
                "branch": st.branch,
                "residual": st.residual,
                "threshold_uncertain": bool(st.threshold_uncertain),
            }
            for st in states
        ],
    }

