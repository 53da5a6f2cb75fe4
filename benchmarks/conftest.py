"""Benchmark-harness session setup: recorded results go to a temp dir.

Every benchmark records its output through ``_helpers.RESULTS_DIR``, which
honours ``REPRO_BENCH_RESULTS``.  When that variable is unset, this points
it at a per-session temporary directory, so an ordinary test run never
rewrites the committed ``benchmarks/results/*.json``.  To refresh the
committed results, set ``REPRO_BENCH_RESULTS=benchmarks/results`` (the CI
slow lane does).
"""

import os
import shutil
import tempfile

_TMP_KEY = "_repro_bench_results_tmp"


def pytest_configure(config):
    if not os.environ.get("REPRO_BENCH_RESULTS"):
        tmp = tempfile.mkdtemp(prefix="repro-bench-results-")
        setattr(config, _TMP_KEY, tmp)
        os.environ["REPRO_BENCH_RESULTS"] = tmp


def pytest_unconfigure(config):
    tmp = getattr(config, _TMP_KEY, None)
    if tmp is not None:
        os.environ.pop("REPRO_BENCH_RESULTS", None)
        shutil.rmtree(tmp, ignore_errors=True)
