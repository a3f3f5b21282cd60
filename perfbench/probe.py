"""One set-up sample: a fresh interpreter imports the program and makes the
workload's warm-up request.

    python3 perfbench/probe.py <launched_at> <output path> <CLI arguments as JSON>

``launched_at`` is the parent's ``time.time()`` just before it started this
interpreter.  Prints one JSON line with the seconds from launch to the end of
the warm-up request, the exit code and the sha256 of the payload.
"""

import json
import sys
import time
from pathlib import Path

import workloads


def main() -> int:
    launched_at, out, args = float(sys.argv[1]), Path(sys.argv[2]), json.loads(sys.argv[3])
    cli = workloads.import_cli()
    rc, _, data = workloads.request(cli.main, args, out)
    seconds = time.time() - launched_at
    print(json.dumps({"setup_s": seconds, "rc": rc, "sha256": workloads.sha256(data)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
