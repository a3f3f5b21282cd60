"""Workloads of the leakywire benchmark: the fixed anchors, the seeded request
generators and the output checks.

The program only ever sees CLI arguments and curve files; every random choice
is drawn here from the benchmark seed.  Each workload run makes one warm-up
request (the anchor at half the grid), one anchor request whose parameters
never change, and then seeded requests until the time budget is spent.
"""

from __future__ import annotations

import ctypes
import gc
import hashlib
import json
import math
import os
import platform
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_FILE = BENCH_DIR / "reference.json"

ANCHOR_CURVE = "bump:a=1,w=1"
ANCHOR_ALPHA = 0.0
ANCHOR_L = 24.0

#: the CLI's default eigenvalue residual tolerance, which every state must meet
TOL_LAMBDA = 1e-9

#: anchor energies must lie within ENERGY_TOL_1024 * (1024 / N)^2 of E_ref:
#: about 4x the measured order-2 discretization error of the solve anchor
ENERGY_TOL_1024 = 1e-5


def import_cli():
    """``leakywire.cli`` from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import leakywire.cli

    if not Path(leakywire.cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"leakywire imported from {leakywire.cli.__file__}, not {SRC}")
    return leakywire.cli


def request(main, args, out: Path):
    """One CLI request writing its payload to ``out``.

    Returns (exit code, wall seconds, payload bytes); the bytes are empty when
    the request wrote nothing.  Garbage of earlier requests is collected first,
    so each request starts from the heap a fresh CLI process would have.
    """
    out.unlink(missing_ok=True)
    gc.collect()
    t0 = time.perf_counter()
    rc = main([*args, "-o", str(out)])
    seconds = time.perf_counter() - t0
    return rc, seconds, out.read_bytes() if out.exists() else b""


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def code_digest() -> str:
    """sha256 over the program's and the benchmark's Python files."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *BENCH_DIR.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _openblas_libraries():
    """Library name, build configuration and thread count of each loaded OpenBLAS."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        # numpy and scipy wheels bundle OpenBLAS with prefixed, suffixed symbols
        for prefix, suffix in (("scipy_", "64_"), ("scipy_", ""), ("", "64_"), ("", "")):
            config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
            threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            if config is not None and threads is not None:
                config.restype = ctypes.c_char_p
                threads.restype = ctypes.c_int
                found.append({"library": Path(path).name, "config": config().decode(),
                              "threads": int(threads())})
                break
    return found


def machine_record() -> dict:
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own OpenBLAS)

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas_libraries(),
        "LEAKYWIRE_THREADS": os.environ.get("LEAKYWIRE_THREADS"),
    }


# ---------------------------------------------------------------------------
# accuracy against the reference energy


def load_reference() -> float:
    return float(json.loads(REFERENCE_FILE.read_text())["E_ref"])


def energy_tol(n: int) -> float:
    return ENERGY_TOL_1024 * (1024.0 / n) ** 2


def richardson(coarse: float, fine: float, order: float = 2.0) -> float:
    """Extrapolate two energies on grids N and 2N to N -> infinity."""
    return fine + (fine - coarse) / (2.0 ** order - 1.0)


def ground_energy(payload: dict) -> float:
    """Lowest energy clear of the threshold in a solve payload."""
    return min(s["energy"] for s in payload["states"] if not s["threshold_uncertain"])


# ---------------------------------------------------------------------------
# output checks; each returns a list of problems, empty when the output holds


def check_solve(payload: dict) -> list:
    problems = []
    states = payload["states"]
    if not any(not s["threshold_uncertain"] for s in states):
        problems.append("no state clear of the threshold")
    for s in states:
        if not s["energy"] < payload["zeta0"]:
            problems.append(f"branch {s['branch']}: energy {s['energy']} not below zeta0")
        if not s["residual"] <= TOL_LAMBDA:
            problems.append(f"branch {s['branch']}: residual {s['residual']} above {TOL_LAMBDA}")
    energies = [s["energy"] for s in states]
    if energies != sorted(energies):
        problems.append("states not sorted by energy")
    return problems


def check_scan(payload: dict) -> list:
    problems = []
    for k, s_k, row in zip(payload["kappas"], payload["s_kappa"], payload["lambdas"]):
        if any(a < b for a, b in zip(row, row[1:])):
            problems.append(f"kappa={k}: lambda row not descending")
        if row[0] < s_k - 1e-12:
            problems.append(f"kappa={k}: lambda_1 {row[0]} below s_kappa {s_k}")
    if not payload["crossings"]:
        problems.append("no crossing")
    return problems


def check_converge(payload: dict) -> list:
    conv = payload["convergence"]
    problems = []
    if conv["accepted"] is not True:
        problems.append("convergence study not accepted")
    order = conv["observed_order"]
    if order is None or not 1.5 <= order <= 6.0:
        problems.append(f"observed order {order} outside [1.5, 6]")
    return problems


# ---------------------------------------------------------------------------
# curves written as files


def _write_sampled(path: Path, t, x, y, z) -> str:
    samples = np.column_stack([t, x, y, z])
    path.write_text(json.dumps({"family": "sampled", "samples": samples.tolist()}))
    return str(path)


def sampled_bump_file(path: Path) -> str:
    """The anchor bump k(s) = exp(-s^2) as samples every 0.1 of arc length.

    Built independently of the program: theta(s) = (sqrt(pi)/2) erf(s) and the
    position is its Simpson-integrated unit tangent on a 0.005 grid.
    """
    from scipy.integrate import cumulative_simpson
    from scipy.special import erf

    s = np.linspace(-26.0, 26.0, 10401)
    theta = 0.5 * math.sqrt(math.pi) * erf(s)
    x = cumulative_simpson(np.cos(theta), x=s, initial=0.0)
    y = cumulative_simpson(np.sin(theta), x=s, initial=0.0)
    keep = slice(None, None, 20)
    return _write_sampled(path, s[keep], x[keep] - x[5200], y[keep] - y[5200],
                          np.zeros(s[keep].size))


def sampled_wire_file(path: Path, u) -> str:
    """A non-planar wire from a point ``u`` of [0, 1)^4: a Gaussian bump in y
    and an odd bump in z, straight along x outside |t| ~ 5, sampled every 0.1
    on [-22, 22]."""
    a_y = 0.9 + 0.2 * u[0]
    w_y = 1.35 + 0.3 * u[1]
    a_z = 0.72 + 0.16 * u[2]
    w_z = 1.8 + 0.4 * u[3]
    t = np.linspace(-22.0, 22.0, 441)
    y = a_y * np.exp(-(t / w_y) ** 2)
    z = a_z * (t / w_z) * np.exp(-(t / w_z) ** 2)
    return _write_sampled(path, t, t, y, z)


def latin_hypercube(rng, dims: int, strata: int = 4):
    """Endless points of [0, 1)^dims drawn from ``rng``.  Each block of
    ``strata`` consecutive points puts one point in every stratum of every
    dimension, so each run covers the input box evenly."""
    while True:
        perms = [rng.permutation(strata) for _ in range(dims)]
        for i in range(strata):
            yield [float((p[i] + rng.random()) / strata) for p in perms]


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    L: float
    N: int
    extra: tuple = ()

    def args(self, curve: str, alpha: float, n: int, L: float) -> list:
        # "--alpha=<value>": argparse would read "--alpha -0.01" as two options
        return [self.command, "--curve", curve, f"--alpha={alpha!r}",
                "-L", repr(L), "-N", str(n), *self.extra]

    def check(self, payload: dict) -> list:
        return {"solve": check_solve, "scan": check_scan,
                "converge": check_converge}[self.command](payload)

    def anchor_curve(self, workdir: Path) -> str:
        if self.command == "scan":
            return sampled_bump_file(workdir / "anchor_curve.json")
        return ANCHOR_CURVE

    def anchor_energy(self, payload: dict) -> float:
        """Anchor ground-state energy on the request's own finest grid."""
        if self.command == "solve":
            return ground_energy(payload)
        if self.command == "scan":
            kappa = max(c["kappa"] for c in payload["crossings"] if c["branch"] == 0)
            return -kappa ** 2
        grid = payload["grid"]
        return next(lv["energy"] for lv in payload["convergence"]["levels"]
                    if lv["N"] == grid["N"] and lv["L"] == grid["L"])

    def anchor_richardson(self, warmup: dict, anchor: dict) -> float:
        """Extrapolated anchor energy: the converge request's own Richardson
        energy, else the order-2 extrapolation of warm-up (N/2) and anchor (N)."""
        if self.command == "converge":
            return anchor["convergence"]["richardson_energy"]
        return richardson(self.anchor_energy(warmup), self.anchor_energy(anchor))

    def draws(self, cli, rng, workdir: Path, n: int):
        """Endless CLI arguments of seeded requests on the grid N = n.

        Inputs are Latin-hypercube points of a small box, so the share of
        inputs whose roots take one more evaluation (about a fifth of the
        bump box) is nearly the same in every run.  Draws that fail the
        chord-arc audit are skipped, so the sequence depends only on the seed.
        """
        from leakywire.curve import check_a1

        hint = max(48.0, 1.5 * self.L)  # the domain hint the CLI derives from -L
        dims = 4 if self.command == "scan" else 3
        for i, u in enumerate(latin_hypercube(rng, dims)):
            if self.command == "scan":
                curve = sampled_wire_file(workdir / f"curve_{i}.json", u)
                alpha = 0.0
            else:
                curve = f"bump:a={0.95 + 0.1 * u[0]:.6f},w={0.95 + 0.1 * u[1]:.6f}"
                alpha = round(-0.025 + 0.05 * u[2], 6)
            if check_a1(cli.load_curve(curve, hint), (-self.L, self.L), 256).pass_a1:
                yield self.args(curve, alpha, n, self.L)


WORKLOADS = {
    w.name: w for w in (
        # the default user request: operator builds, dense eigvalsh and the
        # number of root evaluations carry the time; geometry is under 10%
        Workload("solve-n1024", "solve", 24.0, 1024),
        # sampled non-planar curves: arc-length reparametrization and the
        # base-class chords, plus value-only eigensolves at many kappa
        Workload("scan-sampled", "scan", 20.0, 1024, ("--points", "20")),
        # the only Lanczos path (tail grid 2304 > 2048) and the highest peak
        # memory; time to a stated accuracy
        Workload("converge-ladder", "converge", 24.0, 1536, ("--levels", "3")),
    )
}
