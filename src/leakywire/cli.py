"""Command-line interface.

Subcommands
-----------
solve      find bound states for a curve and coupling
scan       sample the eigenvalue curves over a kappa range, with crossings
check      run the geometric admissibility audits
bc-verify  reconstruct the ground state and test its boundary condition
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
from pathlib import Path

import numpy as np

from .curve import (
    CURVATURE_DECAY_THRESHOLD,
    Curve,
    PlanarCurvatureProfile,
    StraightLine,
    check_a1,
    check_a2,
    check_curvature_decay,
    curve_from_dict,
)
from .eigenfield import bc_residual, fit_trace, trace_on_shifted, trace_to_dict
from .errors import ConfigError, CurveFormatError, GeometryError, LeakyWireError, NumericalError
from .operators import GridSpec, kappa0, zeta0
from .oracle import default_suite
from .solver import (
    SolveConfig,
    converge_study,
    convergence_to_dict,
    find_bound_states,
    spectrum_scan,
    states_to_dict,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_NUMERICAL = 2
EXIT_CONFIG = 3


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
        if name == "bump":
            return PlanarCurvatureProfile.gaussian_bump(
                args.get("a", 1.0), args.get("w", 1.0), domain_hint)
        if name == "power":
            return PlanarCurvatureProfile.power_tail(
                args.get("a", 1.0), args.get("beta", 2.0), domain_hint)
        raise CurveFormatError(f"unknown inline curve family {name!r}")
    try:
        with open(source) as fh:
            spec = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read curve file {source!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CurveFormatError(
            f"curve file {source!r} is not valid JSON "
            f"(line {exc.lineno}, column {exc.colno}: {exc.msg})") from exc
    spec.setdefault("domain_hint", domain_hint)
    return curve_from_dict(spec)


def write_results(payload, path, fmt: str = "json") -> None:
    """Atomic write (temp file + rename) with a timestamp sidecar."""
    path = Path(path)
    if fmt == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif fmt == "csv":
        text = payload  # already rendered
    else:
        raise ConfigError(f"unknown output format {fmt!r}")
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
    meta = {"written_at_unix": time.time(), "tool_version": __import__("leakywire").__version__}
    with open(f"{path}.meta.json", "w") as fh:
        json.dump(meta, fh, indent=2)


def _emit(args, payload, fmt="json"):
    if args.output:
        write_results(payload, args.output, fmt)
    else:
        if fmt == "json":
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            sys.stdout.write(payload)


def _default_L(curve: Curve, alpha: float) -> float:
    rep = check_a1(curve, (-16.0, 16.0), 128)
    c = max(rep.c_estimate or 0.0, 1e-6)
    return max(16.0, 10.0 / (kappa0(alpha) * c))


def _grid_from_args(args, curve: Curve) -> GridSpec:
    if args.grid_n <= 0 or args.grid_n % 2:
        raise ConfigError(f"-N must be a positive even integer, got {args.grid_n}")
    if args.half_length is not None and args.half_length <= 0:
        raise ConfigError(f"-L must be positive, got {args.half_length}")
    L = args.half_length if args.half_length is not None else _default_L(curve, args.alpha)
    return GridSpec(float(L), int(args.grid_n))


def _hint_from_args(args) -> float:
    if args.half_length is not None:
        return max(48.0, 1.5 * float(args.half_length))
    return 48.0


def _config_from_args(args, grid: GridSpec) -> SolveConfig:
    return SolveConfig(alpha=args.alpha, grid=grid, m_branches=args.branches,
                       tol_kappa_rel=args.tol_kappa, tol_lambda=args.tol_lambda,
                       refine_levels=getattr(args, "levels", 3))


def _cmd_solve(args) -> int:
    curve = load_curve(args.curve, _hint_from_args(args))
    grid = _grid_from_args(args, curve)
    config = _config_from_args(args, grid)
    states = find_bound_states(curve, config)
    _emit(args, states_to_dict(args.alpha, grid, states))
    return EXIT_OK


def _cmd_scan(args) -> int:
    curve = load_curve(args.curve, _hint_from_args(args))
    grid = _grid_from_args(args, curve)
    config = _config_from_args(args, grid)
    k0 = kappa0(args.alpha)
    k_min = args.kappa_min if args.kappa_min is not None else 0.5 * k0
    k_max = args.kappa_max if args.kappa_max is not None else 5.0 * k0
    spectral, crossings = spectrum_scan(curve, config, (k_min, k_max), args.points)
    if args.format == "csv":
        _emit(args, spectral.csv_text(), fmt="csv")
    else:
        payload = {
            "alpha": float(args.alpha),
            "zeta0": zeta0(args.alpha),
            "grid": {"L": grid.L, "N": grid.N},
            "kappas": [float(k) for k in spectral.kappas],
            "s_kappa": [float(v) for v in spectral.s_k_values],
            "lambdas": [[float(x) for x in row] for row in spectral.lambdas],
            "crossings": [{"branch": c.branch, "kappa": c.kappa} for c in crossings],
        }
        _emit(args, payload)
    return EXIT_OK


def _cmd_check(args) -> int:
    curve = load_curve(args.curve, _hint_from_args(args))
    L = args.half_length if args.half_length is not None else 24.0
    n = args.samples
    rep1 = check_a1(curve, (-L, L), n)
    rep2 = check_a2(curve, args.omega, args.epsilon, args.mu, (-L, L), n)
    beta = check_curvature_decay(curve, (-L, L), n)
    payload = {
        "curve": args.curve,
        "s_range": [-L, L],
        "n_samples": n,
        "c_estimate": rep1.c_estimate,
        "pass_a1": rep1.pass_a1,
        "a2": {
            "omega": rep2.a2_certificate.omega,
            "epsilon": rep2.a2_certificate.epsilon,
            "mu": rep2.a2_certificate.mu,
            "d": rep2.a2_certificate.d,
            "max_violation": rep2.a2_certificate.max_violation,
        },
        "pass_a2": rep2.pass_a2,
        "decay_beta": None if math.isinf(beta) else beta,
        "decay_beta_superpolynomial": bool(math.isinf(beta)),
        "pass_decay": bool(beta > CURVATURE_DECAY_THRESHOLD),
    }
    _emit(args, payload)
    return EXIT_OK


def _cmd_bc_verify(args) -> int:
    curve = load_curve(args.curve, _hint_from_args(args))
    grid = _grid_from_args(args, curve)
    config = _config_from_args(args, grid)
    states = [s for s in find_bound_states(curve, config, ground_only=True)
              if not s.threshold_uncertain]
    if not states:
        _emit(args, {"alpha": args.alpha, "states": [],
                     "note": "no accepted bound state; nothing to verify"})
        return EXIT_DOMAIN
    st = states[0]
    radii = _parse_radii(args.radii)
    s_vals = np.linspace(-2.0, 2.0, 5)
    traces = []
    for s in s_vals:
        tf = fit_trace(trace_on_shifted(curve, grid, st.kappa_tilde, st.h,
                                        float(s), radii, args.angles))
        traces.append(trace_to_dict(tf))
    resid = bc_residual(curve, grid, st.kappa_tilde, st.h, args.alpha,
                        s_vals, radii, args.angles)
    payload = {
        "alpha": float(args.alpha),
        "kappa": st.kappa_tilde,
        "energy": st.energy,
        "bc_residual": resid,
        "radii": [float(r) for r in radii],
        "traces": traces,
    }
    _emit(args, payload)
    return EXIT_OK


def _cmd_converge(args) -> int:
    curve = load_curve(args.curve, _hint_from_args(args))
    grid = _grid_from_args(args, curve)
    config = _config_from_args(args, grid)
    report = converge_study(curve, config)
    payload = {
        "alpha": float(args.alpha),
        "grid": {"L": grid.L, "N": grid.N},
        "convergence": convergence_to_dict(report),
    }
    _emit(args, payload)
    return EXIT_OK


def _cmd_verify(args) -> int:
    reports = default_suite()
    payload = [r.to_dict() for r in reports]
    _emit(args, payload)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_DOMAIN


def _parse_radii(spec: str) -> np.ndarray:
    try:
        if ":" in spec:
            lo, hi, n = spec.split(":")
            return np.geomspace(float(lo), float(hi), int(n))
        vals = [float(x) for x in spec.split(",")]
        return np.asarray(vals)
    except ValueError as exc:
        raise ConfigError(f"cannot parse radii spec {spec!r}; "
                          "use 'min:max:count' or a comma list") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leakywire",
        description="Bound states of a delta interaction supported on an "
                    "asymptotically straight wire in 3D",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scan=False):
        p.add_argument("--curve", required=True,
                       help="builtin ('straight'), inline ('bump:a=1,w=1', "
                            "'power:a=1,beta=2'), or a JSON file path")
        p.add_argument("--alpha", type=float, default=0.0,
                       help="coupling strength (default 0)")
        p.add_argument("-L", "--half-length", type=float, default=None,
                       help="half-length of the truncated interval "
                            "(default max(16, 10/(kappa0 c)))")
        p.add_argument("-N", "--grid-n", type=int, default=1024,
                       help="number of grid points (even; default 1024)")
        p.add_argument("-m", "--branches", type=int, default=8,
                       help="tracked eigenvalue branches (default 8)")
        p.add_argument("--tol-kappa", type=float, default=1e-10,
                       help="relative root tolerance in kappa (default 1e-10)")
        p.add_argument("--tol-lambda", type=float, default=1e-9,
                       help="eigenvalue residual tolerance (default 1e-9)")
        p.add_argument("-o", "--output", default=None,
                       help="output path (stdout when omitted)")
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="output format; csv applies to scan only")

    p = sub.add_parser("solve", help="find bound states")
    common(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser(
        "scan", help="eigenvalue curves over a kappa range",
        epilog="CSV column order is fixed: kappa, s_kappa, lambda_1 .. lambda_m.")
    common(p)
    p.add_argument("--kappa-min", type=float, default=None,
                   help="lower end of the kappa range (default 0.5 kappa0)")
    p.add_argument("--kappa-max", type=float, default=None,
                   help="upper end of the kappa range (default 5 kappa0)")
    p.add_argument("--points", type=int, default=20,
                   help="number of kappa samples (default 20)")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("check", help="geometric admissibility audits")
    common(p)
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
    except (ConfigError, CurveFormatError) as exc:
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


if __name__ == "__main__":
    sys.exit(main())
