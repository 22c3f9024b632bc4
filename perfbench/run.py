#!/usr/bin/env python3
"""Run one benchmark workload in a fresh, single-threaded process.

Usage, from the repository root::

    python3 perfbench/run.py --workload offline-fresh --seed 1 --seconds 10 --trace 0

Workloads: ``offline-fresh``, ``serve-ladder``, ``serve-flash``,
``twin-whatif`` (see ``perfbench/README.md``).  ``--trace 1`` runs the
traced variant and prints per-layer metrics instead of end-to-end ones;
it also writes a Chrome trace-event file under ``.perfbench/``.

The launcher pins BLAS/OpenMP to one thread, puts ``src`` on the
import path and runs ``perfbench.worker`` as a child process, waiting
for it (and killing it past the time limit).  The child's last line of
output is the JSON result; its exit code is passed through.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIME_LIMIT_S = 170
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def main() -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["PYTHONHASHSEED"] = "0"
    command = [sys.executable, "-m", "perfbench.worker", *sys.argv[1:]]
    with subprocess.Popen(command, cwd=ROOT, env=env) as child:
        try:
            return child.wait(timeout=TIME_LIMIT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            print(f"perfbench: worker exceeded {TIME_LIMIT_S} s", file=sys.stderr)
            return 3


if __name__ == "__main__":
    sys.exit(main())
