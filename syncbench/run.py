"""Benchmark entry point; run it from the repository root.

    python3 syncbench/run.py --workload fig19_cold|decode_d7|decode_d3 \
        --seed N --seconds S --trace 0|1

Inherited ``REPRO_*`` variables are dropped and numeric libraries are held
to one thread before anything is imported, so the numbers describe the
program, not the caller's environment or the host's scheduler.
"""

import time

_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _prepare_environment() -> None:
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    root = Path(__file__).resolve().parents[1]
    sys.path[:0] = [str(root / "src"), str(root)]


if __name__ == "__main__":
    _prepare_environment()
    from syncbench.harness import main

    raise SystemExit(main(t0=_START))
