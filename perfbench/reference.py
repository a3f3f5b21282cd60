"""Compute the reference ground-state energy E_ref of the benchmark anchor.

The anchor is the Gaussian bump ``bump:a=1,w=1`` at alpha = 0 in the box
L = 24.  E_ref is the order-2 Richardson extrapolation of the CLI's ground
state over N = 2048 and N = 4096; its uncertainty is the gap to the same
extrapolation over N = 1024 and N = 2048.  E_ref is the limit N -> infinity
at fixed L, so it leaves out the box-truncation error.

Run once from the repository root (about 40 s on 2 cores):

    python3 perfbench/reference.py

It rewrites ``perfbench/reference.json``.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import workloads

GRIDS = (1024, 2048, 4096)


def main() -> int:
    cli = workloads.import_cli()
    energies = {}
    with tempfile.TemporaryDirectory(dir=workloads.BENCH_DIR) as tmp:
        out = Path(tmp) / "ref.json"
        solve = workloads.WORKLOADS["solve-n1024"]
        for n in GRIDS:
            args = solve.args(workloads.ANCHOR_CURVE, workloads.ANCHOR_ALPHA, n, workloads.ANCHOR_L)
            if cli.main([*args, "-o", str(out)]) != 0:
                print(f"reference solve at N={n} failed", file=sys.stderr)
                return 1
            energies[n] = workloads.ground_energy(json.loads(out.read_text()))
    e1, e2, e4 = (energies[n] for n in GRIDS)
    e_ref = workloads.richardson(e2, e4)
    e_coarse = workloads.richardson(e1, e2)
    record = {
        "anchor": {"curve": workloads.ANCHOR_CURVE, "alpha": workloads.ANCHOR_ALPHA,
                   "L": workloads.ANCHOR_L},
        "E_ref": e_ref,
        "uncertainty": abs(e_ref - e_coarse),
        "method": "order-2 Richardson extrapolation of the leakywire solve ground "
                  "state over N=2048 and N=4096; uncertainty is the gap to the "
                  "(1024, 2048) extrapolation",
        "energies": {str(n): energies[n] for n in GRIDS},
        "difference_ratio": (e2 - e1) / (e4 - e2),
        "excludes": "box truncation: E_ref is the N -> infinity limit at L=24; the "
                    "converge tail grid at L=36 differs by about 1.2e-4",
        "command": "python3 perfbench/reference.py",
        "machine": workloads.machine_record(),
    }
    workloads.REFERENCE_FILE.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(record, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
