"""The built-in decode-kernel backends: ``python`` and ``numpy``.

* ``python`` — the always-available fallback.  It binds nothing, which
  makes the dedup engine run today's scalar per-syndrome pass unchanged.
* ``numpy`` — binds vectorized whole-matrix kernels to every stock decoder
  family (capability flags ``unionfind``, ``predecoded``, ``hierarchical``,
  ``mwpm``):

  - :class:`~repro.decoders.unionfind.UnionFindDecoder` →
    :class:`~repro.decoders.kernels.batched_unionfind.BatchedUnionFind`
    (bit-identical, ~3-4x on the d=7 hot path);
  - :class:`~repro.decoders.predecoder.PredecodedDecoder` →
    :class:`~repro.decoders.kernels.batched_wrappers.BatchedPredecode`,
    composing the vectorized local pass with the *inner* decoder's bound
    kernel so residual rows never leave matrix form;
  - :class:`~repro.decoders.hierarchical.HierarchicalDecoder` →
    :class:`~repro.decoders.kernels.batched_wrappers.BatchedHierarchical`
    (bulk LUT row-split, batched slow path);
  - :class:`~repro.decoders.mwpm.MWPMDecoder` →
    :class:`~repro.decoders.kernels.batched_wrappers.BatchedMWPM`
    (shared per-node Dijkstra rows, exact per-row blossom).

  Decoders it has no kernel for — and any subclass that overrides a
  decode-path method — fall back to their scalar pass.

Kernels are cached *on the decoder instance* (one slot per backend name),
so binding is cheap after the first call and a cached kernel never outlives
its decoder.
"""

from __future__ import annotations

from .base import KernelBackend
from .batched_unionfind import BatchedUnionFind
from .batched_wrappers import BatchedHierarchical, BatchedMWPM, BatchedPredecode

__all__ = ["PythonBackend", "NumpyBackend"]


def _is_stock(decoder, base, attrs: tuple[str, ...]) -> bool:
    """True when ``decoder`` is a ``base`` whose decode path is unmodified.

    A subclass that overrides any decode-path method (e.g. to count calls
    or keep statistics) keeps its scalar pass — a bound kernel would
    silently bypass the override.
    """
    if not isinstance(decoder, base):
        return False
    cls = type(decoder)
    return all(getattr(cls, attr) is getattr(base, attr) for attr in attrs)


class PythonBackend(KernelBackend):
    """The scalar reference pass, wrapped as the always-available backend."""

    name = "python"

    def bind(self, decoder):
        """Bind nothing: every decoder keeps its scalar per-syndrome pass."""
        return None


class NumpyBackend(KernelBackend):
    """Vectorized whole-batch kernels for every stock decoder family."""

    name = "numpy"
    fallback = "python"
    capabilities = frozenset({"unionfind", "predecoded", "hierarchical", "mwpm"})

    def available(self) -> bool:
        """True when numpy imports (a hard dependency in practice)."""
        try:
            import numpy  # noqa: F401
        except ImportError:  # pragma: no cover - numpy is a hard dependency
            return False
        return True

    def bind(self, decoder):
        """A cached whole-matrix kernel for ``decoder``, or None (scalar)."""
        cache = getattr(decoder, "_bound_kernels", None)
        if cache is None:
            cache = {}
            try:
                decoder._bound_kernels = cache
            except AttributeError:  # pragma: no cover - slotted decoder
                pass
        kernel = cache.get(self.name)
        if kernel is None:
            kernel = self._make(decoder)
            if kernel is not None:
                cache[self.name] = kernel
        return kernel

    def _make(self, decoder):
        from ..hierarchical import HierarchicalDecoder
        from ..mwpm import MWPMDecoder
        from ..predecoder import PredecodedDecoder
        from ..unionfind import UnionFindDecoder

        if _is_stock(
            decoder,
            UnionFindDecoder,
            ("decode", "_decode_one_defects", "_decode_defects", "_peel"),
        ):
            return BatchedUnionFind(decoder)
        if _is_stock(
            decoder, PredecodedDecoder, ("decode", "_decode_one", "_decode_rows")
        ):
            # compose predecode-kernel -> inner-decoder kernel: residual rows
            # flow to the wrapped decoder's own bound kernel (or its scalar
            # decode when that decoder has none)
            return BatchedPredecode(decoder, inner=self.bind(decoder.slow))
        if _is_stock(decoder, HierarchicalDecoder, ("decode",)):
            return BatchedHierarchical(decoder, inner=self.bind(decoder.slow))
        if _is_stock(
            decoder,
            MWPMDecoder,
            ("decode", "_decode_one_defects", "_decode_defects", "_match_defects"),
        ):
            return BatchedMWPM(decoder)
        return None
