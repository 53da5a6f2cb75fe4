"""Back-compat shim over :mod:`repro.figures.bench`.

The harness helpers (env knobs, ``record``/``record_merge``, ``run_once``)
were promoted into the public package so the CLI and the benchmarks share
one implementation and the knob catalogue is lint-checkable
(``contract-env-docs``; see docs/FIGURES.md).  This shim keeps the
historical import path working for the non-figure benchmarks and resolves
the results directory once: ``REPRO_BENCH_RESULTS`` when set (``conftest.py``
sets it to a session temp dir unless the caller chose one), else the repo's
``benchmarks/results`` regardless of the pytest working directory.

Scaling knobs (environment variables): ``REPRO_BENCH_SHOTS``,
``REPRO_BENCH_DISTANCES``, ``REPRO_BENCH_SEED`` — documented with defaults
in docs/FIGURES.md.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.figures.bench import (  # noqa: F401  (re-exported for the harness)
    bench_distances,
    bench_seed,
    bench_shots,
    run_once,
)
from repro.figures import bench as _bench

RESULTS_DIR = Path(
    os.environ.get("REPRO_BENCH_RESULTS") or Path(__file__).parent / "results"
).resolve()


def record(name: str, data) -> None:
    """Persist benchmark output under ``RESULTS_DIR`` (shim)."""
    _bench.record(name, data, results_dir=RESULTS_DIR)


def record_merge(name: str, sections: dict) -> None:
    """Merge per-section rows into one results JSON (shim)."""
    _bench.record_merge(name, sections, results_dir=RESULTS_DIR)
