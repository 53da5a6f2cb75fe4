"""Declarative figure/analysis registry (docs/FIGURES.md).

One :class:`~repro.figures.registry.FigureSpec` per paper figure/table,
registered in :data:`~repro.figures.registry.FIGURE_BUILDERS` by
:mod:`repro.experiments.figures`, next to the builder that computes its
rows — the same name -> builder registry shape as ``DECODER_BUILDERS`` and
the kernel/lint registries.  :func:`~repro.figures.build.build_figure`
resolves a spec through the active result store (decode on miss, zero
decoding on a warm store) and the export layer
(:mod:`repro.figures.export`) derives the JSON / CSV / Vega-Lite artifacts
from one uniform result document.  The pytest harness in ``benchmarks/``
and the ``repro figures`` CLI are both thin clients of this package; the
benchmark env knobs live in :mod:`repro.figures.bench`.
"""

from ..experiments import figures as _figures  # noqa: F401  (registers all specs)
from .build import CACHE_SCHEMA, FigureResult, build_figure, figure_cache_key
from .export import (
    RESULT_SCHEMA,
    format_table,
    result_document,
    rows_to_csv,
    vega_document,
    write_outputs,
)
from .registry import (
    ALIASES,
    FIGURE_BUILDERS,
    FigureSpec,
    canonical_name,
    categories,
    get,
    names,
    register,
)

__all__ = [
    "ALIASES",
    "CACHE_SCHEMA",
    "FIGURE_BUILDERS",
    "FigureResult",
    "FigureSpec",
    "RESULT_SCHEMA",
    "build_figure",
    "canonical_name",
    "categories",
    "figure_cache_key",
    "format_table",
    "get",
    "names",
    "register",
    "result_document",
    "rows_to_csv",
    "vega_document",
    "write_outputs",
]
