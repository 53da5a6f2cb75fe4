"""Golden rows: cheap figures rebuilt storeless match the committed results.

These figures are deterministic at their default params and build in well
under a second together, so tier-1 compares them exactly against the
documents committed under ``benchmarks/results/`` (written by the
benchmark harness with ``REPRO_BENCH_RESULTS=benchmarks/results``).  A
changed value fails here; re-record the result file and say why it moved.
"""

import json
from pathlib import Path

import pytest

from repro.figures import build_figure

RESULTS = Path(__file__).resolve().parents[1] / "benchmarks" / "results"

GOLDEN = ("fig3c", "fig4b", "fig6", "fig10", "fig11", "table5", "fig1c", "fig4a")


@pytest.mark.parametrize("name", GOLDEN)
def test_storeless_rows_match_committed_results(name):
    committed = json.loads((RESULTS / f"{name}.json").read_text())
    assert build_figure(name, store=False).rows == committed["rows"]
