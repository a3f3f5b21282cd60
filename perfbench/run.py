"""The leakywire benchmark.

    python3 perfbench/run.py --workload solve-n1024 --seed 1 --seconds 30 --trace 0

One client drives the program the way users do, in-process through
``leakywire.cli.main``, in a closed loop: the next request starts when the
previous one has returned.  A run makes

1. three set-up samples: fresh interpreters (``probe.py``) that import the
   program and make the warm-up request (untraced runs only);
2. the warm-up request in this process: the anchor at half the grid;
3. the anchor request, whose parameters never change;
4. seeded requests until the requests have taken ``--seconds`` seconds.

Every payload is checked; a request that exits nonzero or fails a check
counts as failed.  With ``--trace 1`` the layers are wrapped (see
``tracing.py``), the anchor is repeated traced and must be byte-identical to
the untraced one, and the per-layer metrics are printed instead of the
end-to-end ones.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import workloads
from tracing import Tracer

SETUP_PROBES = 3
PROBE_TIMEOUT_S = 50
WORK_DIR = workloads.BENCH_DIR / ".work"
DIGESTS_FILE = WORK_DIR / "anchor_digests.json"


class Ledger:
    """Requests attempted and the problems of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.problems = {}

    def record(self, label, rc, data, check):
        self.attempted += 1
        if rc != 0:
            self.fail(label, f"exit code {rc}")
            return None
        try:
            payload = json.loads(data)
        except ValueError as exc:
            self.fail(label, f"payload is not JSON: {exc}")
            return None
        for problem in check(payload):
            self.fail(label, problem)
        return payload

    def fail(self, label, problem):
        self.problems.setdefault(label, []).append(problem)

    @property
    def failed(self):
        return len(self.problems)


def _setup_samples(ledger, warm_args, workdir):
    """Set-up seconds of fresh interpreters, and their warm-up payload digests."""
    seconds, digests = [], []
    for i in range(SETUP_PROBES):
        launched_at = time.time()
        proc = subprocess.run(
            [sys.executable, str(workloads.BENCH_DIR / "probe.py"), repr(launched_at),
             str(workdir / f"probe_{i}.json"), json.dumps(warm_args)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        ledger.attempted += 1
        if proc.returncode != 0:
            ledger.fail(f"setup {i}", f"probe exit code {proc.returncode}: {proc.stderr[-400:]}")
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        if result["rc"] != 0:
            ledger.fail(f"setup {i}", f"warm-up exit code {result['rc']}")
            continue
        seconds.append(result["setup_s"])
        digests.append(result["sha256"])
    return seconds, digests


def _check_digests(ledger, workload, tiny, digests):
    """Anchor payloads must match every earlier run of the same code."""
    key = f"{workloads.code_digest()}:{workload.name}:{'tiny' if tiny else 'full'}"
    known = json.loads(DIGESTS_FILE.read_text()) if DIGESTS_FILE.exists() else {}
    for label, digest in digests.items():
        expected = known.setdefault(key, {}).setdefault(label, digest)
        if digest != expected:
            ledger.fail(label, "payload differs from an earlier run of the same code")
    tmp = DIGESTS_FILE.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, DIGESTS_FILE)


def _tail(times):
    """Highest percentile with at least 10 requests beyond it (the slowest
    request when the run holds fewer than 20), with its label."""
    ordered = sorted(times)
    n = len(ordered)
    if n >= 20:
        return ordered[n - 11], f"p{100.0 * (n - 10) / n:.0f}"
    return ordered[-1], "max"


def run(args, cli, workdir) -> dict:
    workload = workloads.WORKLOADS[args.workload]
    e_ref = workloads.load_reference() + args.e_ref_shift
    n_anchor = workload.N // 2 if args.tiny else workload.N
    n_warm = n_anchor // 2
    ledger = Ledger()
    out = workdir / "out.json"

    anchor_curve = workload.anchor_curve(workdir)
    warm_args = workload.args(anchor_curve, workloads.ANCHOR_ALPHA, n_warm, workloads.ANCHOR_L)
    anchor_args = workload.args(anchor_curve, workloads.ANCHOR_ALPHA, n_anchor, workloads.ANCHOR_L)

    setups, probe_digests = ([], []) if args.trace else _setup_samples(ledger, warm_args, workdir)

    rc, _, warm_data = workloads.request(cli.main, warm_args, out)
    warm = ledger.record("warm-up", rc, warm_data, workload.check)
    rc, anchor_s, anchor_data = workloads.request(cli.main, anchor_args, out)
    anchor = ledger.record("anchor", rc, anchor_data, workload.check)

    warm_digest = workloads.sha256(warm_data)
    for i, digest in enumerate(probe_digests):
        if digest != warm_digest:
            ledger.fail(f"setup {i}", "warm-up payload differs from this process's")
    _check_digests(ledger, workload, args.tiny,
                   {"warm-up": warm_digest, "anchor": workloads.sha256(anchor_data)})

    energy_err = richardson_err = float("nan")
    if warm is not None and anchor is not None:
        energy_err = abs(workload.anchor_energy(anchor) - e_ref)
        richardson_err = abs(workload.anchor_richardson(warm, anchor) - e_ref)
        warm_err = abs(workload.anchor_energy(warm) - e_ref)
        for name, err, n in (("energy", energy_err, n_anchor), ("Richardson", richardson_err, n_anchor),
                             ("warm-up energy", warm_err, n_warm)):
            if not err <= workloads.energy_tol(n):
                ledger.fail("anchor", f"{name} error {err:.3e} above {workloads.energy_tol(n):.3e}")

    tracer = None
    times = [anchor_s]
    call = cli.main
    if args.trace:
        tracer = Tracer()
        tracer.install()
        index = itertools.count()
        call = lambda argv: tracer.run_request(next(index), cli.main, argv)  # noqa: E731
        rc, traced_s, traced_data = workloads.request(call, anchor_args, out)
        ledger.record("traced anchor", rc, traced_data, workload.check)
        if traced_data != anchor_data:
            ledger.fail("traced anchor", "traced payload differs from the untraced one")
        times = [traced_s]

    draws = workload.draws(cli, np.random.default_rng(args.seed), workdir, n_anchor)
    busy = times[0]
    # stop when the next request would more likely end past the budget than
    # before it, so a run measures about --seconds of requests
    while busy + 0.5 * statistics.median(times) < args.seconds:
        rc, seconds, data = workloads.request(call, next(draws), out)
        ledger.record(f"request {len(times)}", rc, data, workload.check)
        times.append(seconds)
        busy += seconds

    if tracer is not None:
        tracer.uninstall()
        tracer.write(WORK_DIR / f"spans-{workload.name}-seed{args.seed}.json")
        for req, problem in tracer.evaluation_mismatches().items():
            ledger.fail("traced anchor" if req == 0 else f"request {req}", problem)
        metrics = tracer.layer_metrics(times)
    else:
        tail, tail_label = _tail(times)
        metrics = {
            "setup_s": (statistics.median(setups) if setups else float("nan"), "s"),
            "request_s_p50": (statistics.median(times), "s"),
            "request_s_tail": (tail, "s"),
            "energy_err": (energy_err, "1"),
            "richardson_err": (richardson_err, "1"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
            "ok_frac": (1.0 - ledger.failed / ledger.attempted, "ratio"),
        }
        # a metric the failed requests left unmeasured is null, not NaN
        metrics = {k: {"value": v if math.isfinite(v) else None, "unit": u}
                   for k, (v, u) in metrics.items()}
        print(f"# {workload.name} seed={args.seed}: {len(times)} timed requests "
              f"(anchor + {len(times) - 1} seeded), tail = {tail_label}, "
              f"{len(setups)} set-up samples")
    for label, problems in ledger.problems.items():
        print(f"# FAILED {label}: {'; '.join(problems)}", file=sys.stderr)
    return {"correct": ledger.failed == 0, "attempted": ledger.attempted,
            "failed": ledger.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="request time to measure after the warm-up")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="halve every grid (smoke test)")
    parser.add_argument("--e-ref-shift", type=float, default=0.0,
                        help="add this to the reference energy (smoke test of the anchor check)")
    args = parser.parse_args(argv)

    os.environ.pop("LEAKYWIRE_THREADS", None)
    try:
        cli = workloads.import_cli()
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {workloads.SRC}: {exc}", file=sys.stderr)
        return 2
    print("# machine " + json.dumps(workloads.machine_record(), sort_keys=True))
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        result = run(args, cli, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
