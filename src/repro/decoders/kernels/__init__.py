"""Pluggable decode-kernel backends with capability discovery.

The decoder layer's hot path — decoding the distinct-syndrome matrix of a
batch — is pluggable: a *backend* (:class:`KernelBackend`) may bind a
decoder to a vectorized whole-matrix kernel, and every backend is
**bit-identical** to the scalar reference pass, so swapping backends can
never change experiment results, only their wall time.

Built-in backends (see :mod:`.backends`):

========  ==============================================================
name      strategy
========  ==============================================================
python    the scalar per-syndrome pass, always available (the fallback)
numpy     vectorized whole-batch kernels (:mod:`.batched_unionfind` for
          stock union-find; :mod:`.batched_wrappers` for the predecoded,
          hierarchical and MWPM paths)
========  ==============================================================

Backends advertise *capability flags* (``KernelBackend.capabilities``: the
decoder families they can bind — ``unionfind``, ``predecoded``,
``hierarchical``, ``mwpm``); :func:`capabilities` reports the resolved
backend's flags so orchestration layers (e.g. sharded LER runs) can record
which fast paths were live.

Selection precedence, resolved by :func:`resolve`:

1. an explicit backend name (``repro sweep run --decode-backend``, or the
   ``backend=`` argument threaded through ``decode_batch`` /
   ``run_surgery_ler`` / ``SweepSpec``; the experiments layer defaults it
   from ``repro.experiments.ler.DECODE_DEFAULTS``),
2. the ``REPRO_DECODE_BACKEND`` environment variable,
3. ``auto`` — the fastest available backend (``numpy`` > ``python``).

An unavailable backend degrades along its ``fallback`` chain (``numpy`` ->
``python``), so naming a backend whose dependency is missing still decodes
correctly; the degradation is announced by a single ``RuntimeWarning`` per
process naming the backend that actually resolved (so CI logs show which
kernel ran the parity matrix).  Third-party backends (a C extension, a GPU
kernel, ...) plug in through :func:`register` without touching the engine.  Full catalogue and knobs: ``docs/DECODERS.md``.
"""

from __future__ import annotations

import os
import warnings

from .backends import NumpyBackend, PythonBackend
from .base import KernelBackend
from .batched_unionfind import BatchedUnionFind
from .batched_wrappers import BatchedHierarchical, BatchedMWPM, BatchedPredecode

__all__ = [
    "KernelBackend",
    "PythonBackend",
    "NumpyBackend",
    "BatchedUnionFind",
    "BatchedPredecode",
    "BatchedHierarchical",
    "BatchedMWPM",
    "register",
    "names",
    "available",
    "get",
    "resolve",
    "bind",
    "capabilities",
    "AUTO_ORDER",
]

#: preference order of the ``auto`` backend (first available wins)
AUTO_ORDER = ("numpy", "python")

_REGISTRY: dict[str, KernelBackend] = {}

#: (requested, resolved) pairs already warned about — fallback degradation
#: is announced once per process so CI logs show which backend actually ran
#: without drowning a sweep's worth of resolve() calls in repeats
_FALLBACK_WARNED: set[tuple[str, str]] = set()


def register(backend: KernelBackend, *, replace: bool = False) -> KernelBackend:
    """Register a backend under its ``name``; returns it for chaining."""
    if not backend.name:
        raise ValueError("backend needs a non-empty name")
    if backend.name in _REGISTRY and not replace:
        raise ValueError(
            f"backend {backend.name!r} is already registered (pass replace=True)"
        )
    _REGISTRY[backend.name] = backend
    return backend


def names() -> list[str]:
    """All registered backend names (sorted)."""
    return sorted(_REGISTRY)


def available() -> list[str]:
    """Names of the backends whose dependencies are importable right now."""
    return [n for n in sorted(_REGISTRY) if _REGISTRY[n].available()]


def get(name: str) -> KernelBackend:
    """The registered backend of that exact name (no fallback resolution)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown decode backend {name!r}; registered: {', '.join(names())}"
        ) from None


def resolve(name: str | None = None) -> KernelBackend:
    """Resolve a backend name to a usable backend.

    ``None`` consults ``REPRO_DECODE_BACKEND`` and then ``auto``; ``auto``
    picks the first available of :data:`AUTO_ORDER`; an explicit but
    unavailable backend walks its ``fallback`` chain, announcing the
    degradation with one ``RuntimeWarning`` per process that names the
    backend actually used (results are bit-identical regardless).
    """
    if name is None:
        name = os.environ.get("REPRO_DECODE_BACKEND") or "auto"
    if name == "auto":
        for candidate in AUTO_ORDER:
            backend = _REGISTRY.get(candidate)
            if backend is not None and backend.available():
                return backend
        return get("python")
    backend = get(name)
    seen = {backend.name}
    while not backend.available() and backend.fallback:
        backend = get(backend.fallback)
        if backend.name in seen:  # pragma: no cover - defensive
            break
        seen.add(backend.name)
    if backend.name != name and (name, backend.name) not in _FALLBACK_WARNED:
        # results are bit-identical either way, so this is informational —
        # but CI logs must show which backend actually ran the suite
        _FALLBACK_WARNED.add((name, backend.name))
        warnings.warn(
            f"decode backend {name!r} is unavailable (missing dependency); "
            f"falling back to {backend.name!r} — results are bit-identical, "
            "only throughput differs",
            RuntimeWarning,
            stacklevel=2,
        )
    return backend


def bind(decoder, name: str | None = None):
    """Bind ``decoder`` under the resolved backend; None means scalar pass."""
    return resolve(name).bind(decoder)


def capabilities(name: str | None = None) -> frozenset:
    """Capability flags of the *resolved* backend.

    Resolution (env defaults, fallback chains) happens first, so asking for
    an unavailable backend reports the flags of the backend actually used —
    which is what orchestration layers stamp into their run records.
    """
    return frozenset(resolve(name).capabilities)


register(PythonBackend())
register(NumpyBackend())
