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
and one root solve, and no kappa is built twice.  A scan refines each of
its crossings by the same search, from the sample on its left to the
sample on its right, which is the given upper end (see ``spectrum_scan``).

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
        if not 1 <= self.m_branches <= self.grid.N:
            raise GeometryError(f"need 1 <= m <= N, got m={self.m_branches}, N={self.grid.N}")


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
                block, k = start.branch(j)
                f = float(lam_start) - alpha
                g = k_start * ev.cache.slope(k_start, start.vectors[block][:, k], block)
                states.append(_solve_branch(ev, block, k, alpha, (k_start, f, g), k0, z0,
                                            config)[0])
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


def _solve_branch(ev, block, k, alpha, start, k0, z0, config, k_hi=None,
                  seed=None):
    """The root of the k-th branch of parity block ``block``, searched from
    ``start = (kappa, f, g)``, a point where f = lambda - alpha > 0 and
    g = kappa dlambda/dkappa < 0, up to ``k_hi``, a kappa where the branch
    lies below alpha, or, with none, up to a bracket it grows.  Returns
    (BoundState, the root's record); the state's ``branch`` is k, which the
    caller relabels.

    Safeguarded Newton in u = ln kappa (see the module docstring).  Each
    point after the start is one solve of the branch's block with
    vectors, ``_BranchEvaluator.eigenpair``, a Ritz step from ``seed``
    where one is given: its value gives f, its vector the slope g, and
    -f/g is its own Newton correction.  A Newton point whose predicted
    error is below tol/10 is solved as the root, and is the root if its
    correction is at most tol; every other point is counted as an
    evaluation.
    """
    k_max = BRACKET_MAX_FACTOR * k0
    u_max = math.log(k_max)
    tol = config.tol_kappa_rel
    kappa, f, g = start
    # the largest point seen above alpha and the smallest below it (k_hi is
    # None until there is one); every point after the start lies between them
    k_lo = kappa
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
        root, h = ev.eigenpair(k_next, block, seed)
        f_next = float(root.values[k]) - alpha
        g_next = k_next * ev.cache.slope(k_next, root.vectors[0][:, k], block)
        curvature = (abs((g_next - g) / (math.log(k_next) - u) / (2 * g_next))
                     if g_next < 0 else math.inf)
        kappa, f, g = k_next, f_next, g_next
        if candidate and g < 0 and abs(f / g) <= tol:
            break
        ev.count(root, (seed,))
        if f < 0:
            k_hi = kappa
        elif kappa < k_max:
            k_lo = kappa
        else:
            raise BracketFailureError(
                f"branch {k} of block {block}: no sign change of lambda - alpha "
                f"up to kappa = {k_max:.3e}")
    else:
        raise NumericalFailureError(
            f"branch {k} of block {block}: Newton's method did not converge in "
            f"{NEWTON_MAXITER} points (last kappa = {kappa!r})")
    if abs(f) > config.tol_lambda:
        raise NumericalFailureError(
            f"branch {k} of block {block}: eigenvalue residual {abs(f):.3e} at "
            f"the root exceeds tol_lambda = {config.tol_lambda:.1e}; tighten "
            "tol_kappa_rel")
    energy = -kappa ** 2
    gap = z0 - energy
    return BoundState(
        kappa_tilde=float(kappa),
        energy=float(energy),
        branch=k,
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
    ), root


def spectrum_scan(curve: Curve, config: SolveConfig, kappa_range, n_points: int):
    """Eigenvalue curves over a kappa range plus refined alpha-crossings.

    Returns (SpectralCurve, list[Crossing]).  The range must satisfy
    0 < kappa_min < kappa_max <= BRACKET_MAX_FACTOR * kappa0,
    ``find_bound_states``' own search limit (GeometryError otherwise).

    The samples are values solves of the whole stack,
    ``_BranchEvaluator.solve``.  The first is solved in full, keeping its
    seed vectors, and each later one takes a certified Rayleigh-Ritz step
    per block from the sample before it (see ``top_eigen``), so the samples
    do not depend on alpha.  A block whose sample step fails has no vectors
    from then on: it is solved for values only at every later sample, as
    ``lambda_curve`` solves it.

    A crossing's label is its merged rank j: the j-th of the top m values
    crosses alpha there.  A value equal to alpha at a sample is a crossing
    at that sample.  Between samples i and i + 1, every branch k < min(m, n)
    of a block whose value is above alpha at sample i and below it at
    i + 1 crosses once, and is refined by ``find_bound_states``' Newton
    search in its own block, ``_solve_branch``, from sample i to sample
    i + 1.  Its start slope comes from sample i's vector of the branch, or,
    where its block has no vectors there, from the secant to sample i + 1;
    its Newton points step that block from sample i's vectors, or are full
    solves where it has none.  Branches fall with kappa, so with R values
    at or above alpha at sample i + 1 the interval's roots, from the
    largest kappa down, have ranks R, R + 1, ...; those of rank m or more
    are dropped.  A branch with block index k >= m, which is not refined,
    has rank m or more, and it only raises the ranks of the interval's
    crossings at smaller kappa, which are then m or more too.

    Interval i is refined as soon as sample i + 1 is solved, so the walk
    keeps the vectors of two samples at a time.  The curve's
    ``diagnostics`` hold the evaluator's counts over the samples and every
    Newton point, roots included: ``evaluations``, ``dense_solves``,
    ``ritz_steps``, ``ritz_fallbacks``, ``ritz_blocks`` and
    ``ritz_worst_bound``.
    """
    k_lo, k_hi = float(kappa_range[0]), float(kappa_range[1])
    if not (0 < k_lo < k_hi):
        raise GeometryError("kappa range must satisfy 0 < kappa_min < kappa_max")
    alpha, m = config.alpha, config.m_branches
    k0, z0 = kappa0(alpha), zeta0(alpha)
    k_cap = BRACKET_MAX_FACTOR * k0
    if k_hi > k_cap:
        raise GeometryError(f"kappa_max = {k_hi} is above {BRACKET_MAX_FACTOR:g} kappa0 = "
                            f"{k_cap:.6g}, the search limit of find_bound_states")
    if int(n_points) < 1:
        raise GeometryError(f"need at least one sample, got n_points = {n_points}")
    kappas = np.geomspace(k_lo, k_hi, int(n_points))
    crossings = []
    rows = []
    with _BranchEvaluator(curve, config.grid, m) as ev:
        right = ev.solve(kappas[0], vectors=True)
        for i, kappa in enumerate(kappas):
            left = right
            rows.append(left.values)
            crossings += [Crossing(int(j), float(kappa))
                          for j in np.flatnonzero(left.values == alpha)]
            if i + 1 == len(kappas):
                break
            k_right = kappas[i + 1]
            right = ev.solve(k_right, seed=left.vectors)
            ranked = int(np.count_nonzero(right.values >= alpha))
            if ranked >= m:
                continue
            roots = []
            for b, k in zip(*np.nonzero((left.block_values > alpha)
                                        & (right.block_values < alpha))):
                f = float(left.block_values[b, k]) - alpha
                seed = left.vectors[b]
                if seed is None:   # the block's sample chain has stopped
                    g = (right.block_values[b, k] - alpha - f) / math.log(k_right / kappa)
                else:
                    g = kappa * ev.cache.slope(kappa, seed[:, k], b)
                state, rec = _solve_branch(ev, b, k, alpha, (kappa, f, g), k0, z0, config,
                                           k_right, seed)
                ev.count(rec, (seed,))   # unlike solve's, a scan's root is counted
                roots.append(state.kappa_tilde)
            roots.sort(reverse=True)
            crossings += [Crossing(j, kc) for j, kc in enumerate(roots[:m - ranked], ranked)]
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
        # a ground-state search tracks one branch, so a coarse level takes any -m
        st = ground_state(curve, replace(config, grid=grid, m_branches=1))
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
    # the coarsest size first, so that a huge levels count fails before any
    # size is built
    coarsest = n >> (levels - 1)
    if coarsest < 8:
        raise GeometryError(f"refinement level 0 gives invalid N = {coarsest}")
    sizes = [n >> (levels - 1 - k) for k in range(levels)]
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

