"""Smoke test of the benchmark itself, at half-size grids.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json untraced and traced for one second of
requests and checks that each run passes its own output checks and emits
exactly the end-to-end (untraced) or per-layer (traced) metrics that
BENCHMARK.json names, as finite numbers.  Then it shifts the reference energy
by 1e-3 and checks that the anchor counts as failed.  Takes under a minute
on 2 cores; exits 0 when every check holds.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys

import workloads


def bench(*args):
    proc = subprocess.run([sys.executable, str(workloads.BENCH_DIR / "run.py"), *args],
                          capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"run.py {' '.join(args)} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1]), proc.stderr


def main() -> int:
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    names = [w["name"] for w in spec["workloads"]]
    if set(names) != set(workloads.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} != {sorted(workloads.WORKLOADS)}")
    for name in names:
        for trace in (0, 1):
            label = f"{name} --trace {trace}"
            result, stderr = bench("--workload", name, "--seed", "1", "--seconds", "1",
                                   "--trace", str(trace), "--tiny")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: run failed its checks: {stderr.strip()}")
            got = set(result["metrics"])
            if got != expected[trace]:
                problems.append(f"{label}: missing {sorted(expected[trace] - got)}, "
                                f"unexpected {sorted(got - expected[trace])}")
            for metric, entry in result["metrics"].items():
                if not (isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])):
                    problems.append(f"{label}: {metric} = {entry['value']!r} is not a finite number")
            print(f"{label}: {result['attempted']} requests, {len(got)} metrics", flush=True)

    result, stderr = bench("--workload", "solve-n1024", "--seed", "1", "--seconds", "1",
                           "--trace", "0", "--tiny", "--e-ref-shift", "1e-3")
    if result["correct"] or "# FAILED anchor:" not in stderr:
        problems.append("a reference energy shifted by 1e-3 did not fail the anchor")
    else:
        print("shifted reference energy: anchor counted as failed", flush=True)

    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
