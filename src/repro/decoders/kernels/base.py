"""Backend interface of the pluggable decode-kernel subsystem."""

from __future__ import annotations

__all__ = ["KernelBackend"]


class KernelBackend:
    """One decode-kernel backend: a named strategy for whole-matrix decoding.

    A backend *binds* decoders to kernels: :meth:`bind` returns a callable
    ``kernel(rows, counts) -> masks`` that decodes the entire distinct-
    syndrome matrix at once (the same contract as the ``_decode_rows`` hook
    on :class:`~repro.decoders.batch.Decoder`), or ``None`` when this
    backend has no accelerated kernel for that decoder — the dedup engine
    then falls back to the decoder's own scalar pass, so *every* decoder
    works under *every* backend.

    Bound kernels must be **bit-identical** to the decoder's scalar pass;
    backends trade only speed, never predictions (enforced by the parity
    matrix in ``tests/test_kernels.py``).
    """

    #: registry name (``python``, ``numpy``, ...)
    name: str = ""
    #: backend to degrade to when this one is unavailable (soft dependency)
    fallback: str | None = None
    #: capability flags: the decoder families this backend can bind a
    #: whole-matrix kernel for (``unionfind``, ``predecoded``,
    #: ``hierarchical``, ``mwpm``).  Purely informational — dispatch happens
    #: in :meth:`bind` — but orchestration layers surface the resolved
    #: backend's flags (e.g. in ``LerResult.decode_stats``) so sharded runs
    #: can verify every worker decoded through the same capabilities.  The
    #: scalar reference backend advertises none.
    capabilities: frozenset = frozenset()

    def available(self) -> bool:
        """Whether this backend's dependencies are importable right now."""
        return True

    def bind(self, decoder):
        """A whole-matrix kernel for ``decoder``, or None for the scalar pass."""
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "available" if self.available() else "unavailable"
        return f"<{type(self).__name__} {self.name!r} ({state})>"
