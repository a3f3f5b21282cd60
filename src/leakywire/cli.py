"""Command-line interface.

Subcommands
-----------
solve      find bound states for a curve and coupling
scan       sample the eigenvalue curves over a kappa range, with crossings
check      run the geometric admissibility audits
bc-verify  test the boundary condition of the ground state on shifted curves
converge   grid-refinement study of the ground-state energy
verify     run the built-in oracle suite

Outputs are JSON (or CSV for scan) written atomically; timestamps live in a
sidecar ``<output>.meta.json`` so identical configurations yield
byte-identical payloads.  Exit codes: 0 success, 1 geometry/domain error,
2 numerical failure, 3 configuration or I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .curve import (
    CURVATURE_DECAY_THRESHOLD,
    MAX_BUILD_BYTES,
    Curve,
    StraightLine,
    check_a1,
    check_a2,
    check_curvature_decay,
    curve_from_dict,
)
from .eigenfield import bc_residual, trace_to_dict
from .errors import (
    BuildSizeError,
    ConfigError,
    CurveFormatError,
    GeometryError,
    LeakyWireError,
    NumericalError,
    NumericalFailureError,
)
from .operators import GridSpec, kappa0, zeta0
from .oracle import default_suite
from .solver import (
    BRACKET_MAX_FACTOR,
    SolveConfig,
    converge_study,
    find_bound_states,
    ground_state,
    refinement_ladder,
    spectrum_scan,
    states_to_dict,
    tail_grid,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_NUMERICAL = 2
EXIT_CONFIG = 3

#: peak bytes per entry of a run's n x n arrays (tracemalloc, growth of the
#: peak from n = 512 to 1024): 24.2 for a search on a one-block wire (4.1 on
#: a split one), about 9 for the audits of ``check`` (10.0 on a sampled curve)
_BYTES_PER_ENTRY = 26
#: peak bytes per (direction, grid node) of a bc-verify trace, which sums all
#: directions of one radius at once: 72.0 (tracemalloc, growth of the peak
#: from 64 to 256 directions at N = 256 .. 1024)
_BYTES_PER_TRACE = 80
#: peak bytes per shift radius of a bc-verify run after its search, mostly the
#: payload's JSON: 1725 and 1718 at 8 and 64 directions (tracemalloc, growth
#: of the peak from 1000 to 4000 radii at N = 32 for 8, 500 to 2000 for 64)
_BYTES_PER_RADIUS = 1800

#: inline family -> its planar profile (a key of curve.PROFILES) and defaults
_INLINE = {"bump": ("gaussian", {"a": 1.0, "w": 1.0}),
           "power": ("power_tail", {"a": 1.0, "beta": 2.0})}


def load_curve(source: str, domain_hint: float = 48.0) -> Curve:
    """Curve from a builtin name, an inline spec, or a JSON file path.

    Builtins: ``straight``; inline specs ``bump:a=1,w=1`` (Gaussian
    curvature profile) and ``power:a=1,beta=2`` (power-law tail); anything
    else is read as a curve-definition JSON file.
    """
    if source == "straight":
        return StraightLine()
    if ":" in source and not os.path.exists(source):
        name, _, argstr = source.partition(":")
        try:
            kv = dict(item.split("=", 1) for item in argstr.split(",") if item)
            args = {k: float(v) for k, v in kv.items()}
        except ValueError as exc:
            raise CurveFormatError(f"cannot parse inline curve spec {source!r}") from exc
        if name not in _INLINE:
            raise CurveFormatError(f"unknown inline curve family {name!r}")
        profile, defaults = _INLINE[name]
        spec = {"family": "planar_curvature",
                "params": {**defaults, **args, "profile": profile}}
    else:
        try:
            with open(source) as fh:
                spec = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read curve file {source!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise CurveFormatError(
                f"curve file {source!r} is not valid JSON "
                f"(line {exc.lineno}, column {exc.colno}: {exc.msg})") from exc
    if isinstance(spec, dict):
        spec.setdefault("domain_hint", domain_hint)
    return curve_from_dict(spec)


def _nonfinite_key(obj, key):
    """The key path of the first non-finite float in a JSON-able ``obj``, or None."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else key
    if isinstance(obj, dict):
        items = ((f"{key}.{k}", v) for k, v in obj.items())
    elif isinstance(obj, (list, tuple)):
        items = ((f"{key}[{i}]", v) for i, v in enumerate(obj))
    else:
        return None
    return next(filter(None, (_nonfinite_key(v, k) for k, v in items)), None)


def _json_text(obj, name: str, **kwargs) -> str:
    """``obj`` as strict JSON: a NaN or infinity is a numerical failure that
    names its key, raised before anything is written."""
    try:
        return json.dumps(obj, allow_nan=False, **kwargs)
    except ValueError:
        raise NumericalFailureError(
            f"{_nonfinite_key(obj, name) or name} is not finite and cannot be written as JSON"
        ) from None


def write_results(text: str, path, meta=None) -> None:
    """Atomic write (temp file + rename) of rendered text, with a sidecar
    ``<path>.meta.json`` holding a timestamp, the version and ``meta``; a
    sidecar that is not strict JSON stops the write before the payload."""
    meta = {"written_at_unix": time.time(), "tool_version": __import__("leakywire").__version__,
            **(meta or {})}
    meta_text = _json_text(meta, "sidecar", indent=2)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    with open(f"{path}.meta.json", "w") as fh:
        fh.write(meta_text)


def _emit(args, payload, fmt="json", meta=None):
    """The payload as JSON, or as the CSV text it already is, to -o or stdout;
    ``meta`` goes to the sidecar of -o."""
    if fmt == "csv":
        text = payload
    else:
        text = _json_text(payload, "payload", indent=2, sort_keys=True) + "\n"
    if args.output:
        write_results(text, args.output, meta)
    else:
        sys.stdout.write(text)


def _default_L(curve: Curve, alpha: float, reach: float) -> float:
    """max(16, 10 / (kappa0 c)), c audited over min(16, half-length), and at
    most the curve's half-length / reach, where reach L is the widest box
    the command solves on (1.5 L for converge's tail)."""
    window = min(16.0, curve.half_length)
    rep = check_a1(curve, (-window, window), 128)
    c = max(rep.c_estimate or 0.0, 1e-6)
    return min(max(16.0, 10.0 / (kappa0(alpha) * c)), curve.half_length / reach)


def _half_length(args, default=None):
    """-L, checked finite and positive; ``default`` when it was not given."""
    L = args.half_length
    if L is None:
        return default
    if not (math.isfinite(L) and L > 0):
        raise ConfigError(f"-L must be finite and positive, got {L}")
    return L


def _refuse_oversized(what: str, rows: int, cols: int,
                      per_entry: int = _BYTES_PER_ENTRY) -> None:
    """ConfigError, before any rows x cols array exists, above MAX_BUILD_BYTES."""
    gib = rows * cols * per_entry / 2 ** 30
    if gib > MAX_BUILD_BYTES / 2 ** 30:
        raise ConfigError(f"{what} needs {rows} x {cols} arrays of about {gib:.3g} GiB, "
                          f"above the {MAX_BUILD_BYTES / 2 ** 30:.3g} GiB limit")


def _check_alpha(alpha: float) -> None:
    """The solvers need a finite alpha with a finite continuum edge below 0."""
    try:
        edge = zeta0(alpha)
    except OverflowError:
        edge = -math.inf
    if not (math.isfinite(alpha) and math.isfinite(edge) and edge < 0):
        raise ConfigError(f"--alpha must be finite with a finite negative continuum "
                          f"edge zeta0(alpha), got {alpha}")


def _load_curve(args) -> Curve:
    """``--curve``, with the planar domain hint max(48, 1.5 L) set from -L.

    A hint from a curve file's own ``domain_hint`` wins over -L, so only a
    refused build at the -L hint is blamed on -L.
    """
    L = _half_length(args)
    hint = 48.0 if L is None else max(48.0, 1.5 * float(L))
    try:
        return load_curve(args.curve, hint)
    except BuildSizeError as exc:
        if exc.domain_hint != hint:
            raise
        raise BuildSizeError(f"{exc} (-L {L:g} sets it to 1.5 L)", hint) from exc


def _solver_inputs(args, reach: float = 1.0):
    """(curve, SolveConfig) of a solver command, checking -L, -N, alpha, then
    the default L (an audit; ``reach`` as in ``_default_L``), -m and tolerances."""
    curve = _load_curve(args)
    n = args.grid_n
    if n <= 0 or n % 2:
        raise ConfigError(f"-N must be a positive even integer, got {n}")
    _refuse_oversized(f"-N {n}", n, n)
    _check_alpha(args.alpha)
    L = _half_length(args)
    if L is None:
        L = _default_L(curve, args.alpha, reach)
    if not 1 <= args.branches <= n:
        raise ConfigError(f"-m must lie in 1 .. N = {n}, got {args.branches}")
    if not (0 < args.tol_kappa < math.inf and 0 < args.tol_lambda < math.inf):
        raise ConfigError("--tol-kappa and --tol-lambda must be finite and positive, got "
                          f"{args.tol_kappa} and {args.tol_lambda}")
    return curve, SolveConfig(alpha=args.alpha, grid=GridSpec(float(L), int(n)),
                              m_branches=args.branches, tol_kappa_rel=args.tol_kappa,
                              tol_lambda=args.tol_lambda)


def _cmd_solve(args) -> int:
    curve, config = _solver_inputs(args)
    states = find_bound_states(curve, config)
    _emit(args, states_to_dict(args.alpha, config.grid, states),
          meta={"states": [st.diagnostics for st in states]})
    return EXIT_OK


def _cmd_scan(args) -> int:
    curve, config = _solver_inputs(args)
    if args.points < 1:
        raise ConfigError(f"--points must be at least 1, got {args.points}")
    k0 = kappa0(args.alpha)
    k_min = args.kappa_min if args.kappa_min is not None else 0.5 * k0
    k_max = args.kappa_max if args.kappa_max is not None else 5.0 * k0
    if not 0 < k_min < k_max:
        raise ConfigError(f"need 0 < --kappa-min < --kappa-max, got {k_min} and {k_max}")
    # solve's own search limit; far above it kappa^2 overflows in the T multiplier
    if k_max > BRACKET_MAX_FACTOR * k0:
        raise ConfigError(f"--kappa-max must be at most {BRACKET_MAX_FACTOR:g} kappa0 = "
                          f"{BRACKET_MAX_FACTOR * k0:.6g}, got {k_max}")
    spectral, crossings = spectrum_scan(curve, config, (k_min, k_max), args.points)
    if args.format == "csv":
        _emit(args, spectral.csv_text(), fmt="csv", meta=spectral.diagnostics)
    else:
        payload = {
            "alpha": float(args.alpha),
            "zeta0": zeta0(args.alpha),
            "grid": {"L": config.grid.L, "N": config.grid.N},
            "kappas": [float(k) for k in spectral.kappas],
            "s_kappa": [float(v) for v in spectral.s_k_values],
            "lambdas": [[float(x) for x in row] for row in spectral.lambdas],
            "crossings": [{"branch": c.branch, "kappa": c.kappa} for c in crossings],
        }
        _emit(args, payload, meta=spectral.diagnostics)
    return EXIT_OK


def _cmd_check(args) -> int:
    curve = _load_curve(args)
    # a sampled curve shorter than the default window is audited over its whole range
    L = _half_length(args, min(24.0, curve.half_length))
    n = args.samples
    if n < 2:
        raise ConfigError(f"--samples must be at least 2, got {n}")
    if not (0 < args.omega < 1 and 0 < args.epsilon < math.inf and 0 <= args.mu < math.inf):
        raise ConfigError("need 0 < --omega < 1, 0 < --epsilon < inf and 0 <= --mu < inf, "
                          f"got {args.omega}, {args.epsilon} and {args.mu}")
    _refuse_oversized(f"--samples {n}", n, n)
    rep1 = check_a1(curve, (-L, L), n)
    rep2 = check_a2(curve, args.omega, args.epsilon, args.mu, (-L, L), n)
    beta = check_curvature_decay(curve, (-L, L), n)
    payload = {
        "curve": args.curve,
        "s_range": [-L, L],
        "n_samples": n,
        "c_estimate": rep1.c_estimate,
        "pass_a1": rep1.pass_a1,
        "a2": asdict(rep2.a2_certificate),
        "pass_a2": rep2.pass_a2,
        "decay_beta": None if math.isinf(beta) else beta,
        "decay_beta_superpolynomial": bool(math.isinf(beta)),
        "pass_decay": bool(beta > CURVATURE_DECAY_THRESHOLD),
    }
    _emit(args, payload)
    return EXIT_OK


def _cmd_bc_verify(args) -> int:
    curve, config = _solver_inputs(args)
    radii = _parse_radii(args.radii, curve.max_shift_radius())
    if args.angles < 4:
        raise ConfigError(f"--angles must be at least 4, got {args.angles}")
    _refuse_oversized(f"--angles {args.angles}", args.angles, config.grid.N, _BYTES_PER_TRACE)
    st = ground_state(curve, config)
    if st is None:
        _emit(args, {"alpha": args.alpha, "states": [],
                     "note": "no accepted bound state; nothing to verify"})
        return EXIT_DOMAIN
    residual, fits = bc_residual(curve, config.grid, st.kappa_tilde, st.h, args.alpha,
                                 np.linspace(-2.0, 2.0, 5), radii, args.angles)
    payload = {
        "alpha": float(args.alpha),
        "kappa": st.kappa_tilde,
        "energy": st.energy,
        "bc_residual": residual,
        "radii": [float(r) for r in radii],
        "traces": [trace_to_dict(tf) for tf in fits],
    }
    _emit(args, payload)
    return EXIT_OK


def _cmd_converge(args) -> int:
    # the box-enlarged tail run solves on 1.5 L with 1.5 N points
    curve, config = _solver_inputs(args, reach=1.5)
    grid = config.grid
    try:
        refinement_ladder(grid.N, args.levels)
    except GeometryError as exc:
        raise ConfigError(f"-N {grid.N} with --levels {args.levels}: {exc}") from exc
    tail = tail_grid(grid).N
    _refuse_oversized(f"converge -N {grid.N}", tail, tail)
    report = converge_study(curve, config, args.levels)
    payload = {
        "alpha": float(args.alpha),
        "grid": {"L": grid.L, "N": grid.N},
        "convergence": asdict(report),
    }
    _emit(args, payload)
    return EXIT_OK


def _cmd_verify(args) -> int:
    reports = default_suite()
    payload = [r.to_dict() for r in reports]
    _emit(args, payload)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_DOMAIN


def _parse_radii(spec: str, r0: float) -> np.ndarray:
    """The radii of a --radii spec, positive and below the shift radius r0;
    a min:max:count spec's count is checked before any array exists."""
    try:
        if ":" in spec:
            lo, hi, n = spec.split(":")
            lo, hi, n = float(lo), float(hi), int(n)
            _refuse_oversized(f"--radii count {n}", n, 1, _BYTES_PER_RADIUS)
            radii = np.geomspace(lo, hi, n)
        else:
            radii = np.asarray([float(x) for x in spec.split(",")])
    except ValueError as exc:
        raise ConfigError(f"cannot parse radii spec {spec!r}; "
                          "use 'min:max:count' or a comma list") from exc
    if radii.size < 2 or not np.all(np.isfinite(radii) & (radii > 0)):
        raise ConfigError(f"--radii needs at least two positive radii, got {spec!r}")
    if radii.max() >= r0:
        raise ConfigError(f"--radii must stay below the curve's safe shift radius "
                          f"r0 = {r0:.6g}, got {spec!r}")
    return radii


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leakywire",
        description="Bound states of a delta interaction supported on an "
                    "asymptotically straight wire in 3D",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def curve_options(p, l_help, formats=("json",)):
        p.add_argument("--curve", required=True,
                       help="builtin ('straight'), inline ('bump:a=1,w=1', "
                            "'power:a=1,beta=2'), or a JSON file path")
        p.add_argument("-L", "--half-length", type=float, default=None, help=l_help)
        p.add_argument("-o", "--output", default=None,
                       help="output path (stdout when omitted)")
        p.add_argument("--format", choices=formats, default="json", help="output format")

    def common(p, formats=("json",)):
        curve_options(p, "half-length of the truncated interval (default "
                         "max(16, 10/(kappa0 c)), at most a sampled curve's "
                         "half-length, its two-thirds for converge)", formats)
        p.add_argument("--alpha", type=float, default=0.0,
                       help="coupling strength (default 0)")
        p.add_argument("-N", "--grid-n", type=int, default=1024,
                       help="number of grid points (even; default 1024)")
        p.add_argument("-m", "--branches", type=int, default=8,
                       help="tracked eigenvalue branches (default 8); converge "
                            "and bc-verify track only the top branch, "
                            "whatever -m is")
        p.add_argument("--tol-kappa", type=float, default=1e-10,
                       help="relative root tolerance in kappa (default 1e-10)")
        p.add_argument("--tol-lambda", type=float, default=1e-9,
                       help="eigenvalue residual tolerance (default 1e-9)")

    p = sub.add_parser("solve", help="find bound states")
    common(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser(
        "scan", help="eigenvalue curves over a kappa range",
        epilog="CSV column order is fixed: kappa, s_kappa, lambda_1 .. lambda_m.")
    common(p, formats=("json", "csv"))
    p.add_argument("--kappa-min", type=float, default=None,
                   help="lower end of the kappa range (default 0.5 kappa0)")
    p.add_argument("--kappa-max", type=float, default=None,
                   help="upper end of the kappa range (default 5 kappa0)")
    p.add_argument("--points", type=int, default=20,
                   help="number of kappa samples (default 20)")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("check", help="geometric admissibility audits")
    curve_options(p, "half-width of the audit window (default 24, or the "
                     "half-length of a shorter sampled curve)")
    p.add_argument("--mu", type=float, default=1.0,
                   help="decay exponent in the straightness audit (default 1)")
    p.add_argument("--omega", type=float, default=0.5,
                   help="ratio parameter of the pair set (default 0.5)")
    p.add_argument("--epsilon", type=float, default=1.0,
                   help="width parameter of the pair set (default 1)")
    p.add_argument("--samples", type=int, default=600,
                   help="audit grid size (default 600)")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("bc-verify", help="boundary-condition residual of the ground state")
    common(p)
    p.add_argument("--radii", default="1e-3:1e-2:8",
                   help="shift radii, 'min:max:count' or comma list (default 1e-3:1e-2:8)")
    p.add_argument("--angles", type=int, default=8,
                   help="directions in the normal plane (default 8)")
    p.set_defaults(func=_cmd_bc_verify)

    p = sub.add_parser("converge", help="grid-refinement study")
    common(p)
    p.add_argument("--levels", type=int, default=3,
                   help="number of N-refinement levels (default 3)")
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("verify", help="run the oracle suite")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--format", choices=("json",), default="json")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"leakywire: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GeometryError as exc:
        print(f"leakywire: geometry error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except NumericalError as exc:
        print(f"leakywire: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except LeakyWireError as exc:
        print(f"leakywire: error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"leakywire: I/O error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # a run inside the size guards, in a smaller process
        print(f"leakywire: configuration error: out of memory ({exc}); "
              "lower -N or --samples", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
