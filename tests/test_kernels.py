"""Decode-kernel backend tests: registry, selection, and the parity matrix.

The backend contract is *bit-identity*: every registered backend must
produce exactly the predictions — and exactly the dedup-engine statistics —
of the ``python`` reference pass, for every decoder, across the full
``(d, p)`` grid.  Since the wrapped and hybrid paths gained kernels, the
matrix also asserts the predecoder's offload statistics
(:class:`PredecodeStats`) match the scalar pass bit for bit.  The batched
union-find kernel is additionally fuzzed on random syndrome matrices (where
cluster growth and peeling interact far more than at physical error rates)
and exercised across block boundaries; backend *degradation* (a backend
whose dependency is missing) is tested by monkeypatching availability away.
"""

import numpy as np
import pytest

from factories import build_dense_syndromes
from repro.codes.repetition import repetition_experiment
from repro.decoders import (
    BatchDecodingEngine,
    HierarchicalDecoder,
    LookupTableDecoder,
    MWPMDecoder,
    PredecodedDecoder,
    SyndromeCache,
    UnionFindDecoder,
    build_matching_graph,
    kernels,
)
from repro.decoders.kernels import (
    AUTO_ORDER,
    BatchedHierarchical,
    BatchedMWPM,
    BatchedPredecode,
    BatchedUnionFind,
    KernelBackend,
    NumpyBackend,
    PythonBackend,
)
from repro.noise import GOOGLE, NoiseModel
from repro.stab import DemSampler, circuit_to_dem


# ---------------------------------------------------------------------------
# registry and selection
# ---------------------------------------------------------------------------


def test_builtin_backends_registered():
    assert {"python", "numpy"} <= set(kernels.names())
    assert "python" in kernels.available()
    assert "numpy" in kernels.available()  # numpy is a hard dependency


def test_get_unknown_backend_is_a_clear_error():
    with pytest.raises(KeyError, match="no-such-backend"):
        kernels.get("no-such-backend")


def test_resolve_explicit_and_auto():
    assert kernels.resolve("python").name == "python"
    assert kernels.resolve("numpy").name == "numpy"
    auto = kernels.resolve("auto")
    assert auto.name in AUTO_ORDER
    assert auto.available()


def test_resolve_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_DECODE_BACKEND", "python")
    assert kernels.resolve(None).name == "python"
    monkeypatch.setenv("REPRO_DECODE_BACKEND", "")
    assert kernels.resolve(None).available()


def test_capability_flags():
    assert kernels.capabilities("python") == frozenset()
    assert kernels.capabilities("numpy") == {
        "unionfind",
        "predecoded",
        "hierarchical",
        "mwpm",
    }
    # resolution first: the flags reported for auto are those of the
    # backend actually used
    assert kernels.capabilities("auto") == kernels.capabilities(
        kernels.resolve("auto").name
    )


def test_register_custom_backend_and_replace_guard():
    class _Null(KernelBackend):
        name = "test-null"

    kernels.register(_Null())
    try:
        assert "test-null" in kernels.names()
        assert kernels.resolve("test-null").name == "test-null"
        with pytest.raises(ValueError):
            kernels.register(_Null())
        kernels.register(_Null(), replace=True)
        with pytest.raises(ValueError):
            kernels.register(KernelBackend())  # empty name
    finally:
        kernels._REGISTRY.pop("test-null", None)


def test_python_backend_binds_nothing(parity_grid):
    graph, _ = parity_grid[(3, 2e-3)]
    assert PythonBackend().bind(UnionFindDecoder(graph)) is None


def test_numpy_backend_binds_every_stock_decoder_family(parity_grid):
    graph, _ = parity_grid[(3, 2e-3)]
    backend = NumpyBackend()
    dec = UnionFindDecoder(graph)
    kernel = backend.bind(dec)
    assert isinstance(kernel, BatchedUnionFind)
    assert backend.bind(dec) is kernel  # cached per decoder instance

    wrapped = PredecodedDecoder(graph, UnionFindDecoder(graph))
    pk = backend.bind(wrapped)
    assert isinstance(pk, BatchedPredecode)
    # predecode-kernel -> inner-decoder kernel composition
    assert isinstance(pk.inner, BatchedUnionFind)
    assert pk.inner is backend.bind(wrapped.slow)

    hier = HierarchicalDecoder(graph, lut_size_bytes=4096)
    hk = backend.bind(hier)
    assert isinstance(hk, BatchedHierarchical)
    assert isinstance(hk.inner, BatchedUnionFind)

    assert isinstance(backend.bind(MWPMDecoder(graph)), BatchedMWPM)
    # a predecoder over MWPM composes with the MWPM kernel
    over_mwpm = PredecodedDecoder(graph, MWPMDecoder(graph))
    assert isinstance(backend.bind(over_mwpm).inner, BatchedMWPM)
    # the LUT decoder stays scalar under every backend
    assert backend.bind(LookupTableDecoder(graph, max_errors=1)) is None


def test_numpy_backend_skips_overridden_decode_paths(parity_grid):
    graph, _ = parity_grid[(3, 2e-3)]
    backend = NumpyBackend()

    class _CountingUF(UnionFindDecoder):
        def decode(self, detectors):
            return super().decode(detectors)

    class _CountingPre(PredecodedDecoder):
        def _decode_rows(self, rows, counts):
            return super()._decode_rows(rows, counts)

    class _CountingMWPM(MWPMDecoder):
        def _decode_defects(self, defects):
            return super()._decode_defects(defects)

    assert backend.bind(_CountingUF(graph)) is None
    assert backend.bind(_CountingPre(graph, UnionFindDecoder(graph))) is None
    assert backend.bind(_CountingMWPM(graph)) is None
    # ... but a stock wrapper around an overridden inner decoder still gets
    # the predecode kernel, with the inner rows falling back to scalar
    wrapped = PredecodedDecoder(graph, _CountingUF(graph))
    kernel = backend.bind(wrapped)
    assert isinstance(kernel, BatchedPredecode)
    assert kernel.inner is None


# ---------------------------------------------------------------------------
# backend degradation: missing soft dependencies
# ---------------------------------------------------------------------------


def test_fallback_chain_walks_numpy_python(monkeypatch):
    monkeypatch.setattr(NumpyBackend, "available", lambda self: False)
    assert kernels.available() == ["python"]
    # the numpy -> python hop, reported honestly
    assert kernels.resolve("numpy").name == "python"
    assert kernels.resolve("auto").name == "python"
    assert kernels.capabilities("numpy") == frozenset()


def test_degradation_warns_once_per_process_naming_the_fallback(monkeypatch):
    """CI logs must show which backend actually ran the parity matrix."""
    import warnings

    class _Missing(KernelBackend):
        name = "test-missing"
        fallback = "numpy"

        def available(self):
            return False

    monkeypatch.setitem(kernels._REGISTRY, "test-missing", _Missing())
    monkeypatch.setattr(kernels, "_FALLBACK_WARNED", set())
    with pytest.warns(RuntimeWarning, match="'test-missing'.*falling back to 'numpy'"):
        assert kernels.resolve("test-missing").name == "numpy"
    # second resolution of the same degradation is quiet (once per process)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kernels.resolve("test-missing").name == "numpy"
        # available backends and `auto` never warn
        assert kernels.resolve("auto").name == "numpy"
        assert kernels.resolve("numpy").name == "numpy"
    # a *different* degradation pair warns again
    monkeypatch.setattr(NumpyBackend, "available", lambda self: False)
    with pytest.warns(RuntimeWarning, match="'numpy'.*falling back to 'python'"):
        assert kernels.resolve("numpy").name == "python"


def test_degraded_backend_still_decodes_identically(parity_grid, monkeypatch):
    graph, det = parity_grid[(3, 2e-3)]
    reference = BatchDecodingEngine(
        UnionFindDecoder(graph), backend="python"
    ).decode_batch(det)
    monkeypatch.setattr(NumpyBackend, "available", lambda self: False)
    degraded = BatchDecodingEngine(
        UnionFindDecoder(graph), backend="numpy"
    ).decode_batch(det)
    assert np.array_equal(degraded, reference)


# ---------------------------------------------------------------------------
# the parity matrix: backend x decoder x (d, p)
# ---------------------------------------------------------------------------


def _build(factory, graph):
    if factory == "unionfind":
        return UnionFindDecoder(graph)
    if factory == "mwpm":
        return MWPMDecoder(graph)
    if factory == "predecoded":
        return PredecodedDecoder(graph, UnionFindDecoder(graph))
    return HierarchicalDecoder(graph, lut_size_bytes=4096)


def _stat_counters(engine):
    counters = vars(engine.stats).copy()
    counters.pop("decode_seconds")  # wall time: the only non-deterministic stat
    return counters


@pytest.mark.parametrize("point", [(3, 2e-3), (3, 5e-3), (5, 1e-3)])
@pytest.mark.parametrize("factory", ["unionfind", "mwpm", "predecoded", "hierarchical"])
def test_backend_parity_matrix(parity_grid, backend_names, point, factory):
    graph, det = parity_grid[point]
    if factory != "unionfind":
        det = det[:400]  # slow decoders decode a thinner slice of each point
    reference = ref_counters = ref_predecode = None
    for name in backend_names:
        decoder = _build(factory, graph)
        engine = BatchDecodingEngine(decoder, backend=name)
        predictions = engine.decode_batch(det)
        counters = _stat_counters(engine)
        predecode = vars(decoder.stats).copy() if factory == "predecoded" else None
        if reference is None:  # the python reference pass comes first
            reference, ref_counters, ref_predecode = predictions, counters, predecode
        else:
            assert np.array_equal(predictions, reference), (
                f"backend {name!r} diverged from python for {factory} at {point}"
            )
            assert counters == ref_counters, (
                f"backend {name!r} stats diverged from python for {factory} at {point}"
            )
            assert predecode == ref_predecode, (
                f"backend {name!r} PredecodeStats diverged for {factory} at {point}"
            )


def test_backend_parity_lut_decoder(backend_names):
    noise = NoiseModel(hardware=GOOGLE, p=1e-2)
    art = repetition_experiment(3, 2, noise)
    graph = build_matching_graph(circuit_to_dem(art.circuit), basis="Z")
    det, _ = DemSampler(circuit_to_dem(art.circuit)).sample(500, rng=17)
    reference = None
    for name in backend_names:
        engine = BatchDecodingEngine(LookupTableDecoder(graph, max_errors=4), backend=name)
        predictions = engine.decode_batch(det)
        if reference is None:
            reference = predictions
        else:
            assert np.array_equal(predictions, reference)


@pytest.mark.parametrize("factory", ["unionfind", "mwpm", "hierarchical"])
def test_backend_parity_with_memo_cache(parity_grid, factory):
    """Kernel + cache partitions hits/misses exactly like the scalar pass."""
    graph, det = parity_grid[(3, 5e-3)]
    batches = [det[:300], det[150:450], det[:300]]
    engines = {
        name: BatchDecodingEngine(
            _build(factory, graph), cache_size=1 << 14, backend=name
        )
        for name in ("python", "numpy")
    }
    for batch in batches:
        out = {n: e.decode_batch(batch) for n, e in engines.items()}
        assert np.array_equal(out["python"], out["numpy"])
    assert _stat_counters(engines["python"]) == _stat_counters(engines["numpy"])
    assert engines["numpy"].stats.cache_hits > 0


def test_injected_shared_cache_serves_kernel_path(parity_grid):
    graph, det = parity_grid[(3, 2e-3)]
    shared = SyndromeCache(1 << 14)
    first = BatchDecodingEngine(UnionFindDecoder(graph), cache=shared, backend="numpy")
    first.decode_batch(det[:400])
    second = BatchDecodingEngine(UnionFindDecoder(graph), cache=shared, backend="numpy")
    out = second.decode_batch(det[:400])
    assert second.stats.cache_misses == 0
    assert second.stats.decode_calls == 0
    assert np.array_equal(out, first.decode_batch(det[:400]))


# ---------------------------------------------------------------------------
# the batched union-find kernel itself
# ---------------------------------------------------------------------------


def test_kernel_fuzz_on_random_syndromes(parity_grid):
    """Random dense syndromes: growth collisions, give-ups, big clusters."""
    graph, _ = parity_grid[(3, 2e-3)]
    dec = UnionFindDecoder(graph)
    kernel = BatchedUnionFind(dec, block_rows=37)  # force odd block splits
    for density in (0.01, 0.05, 0.2, 0.5):
        det = build_dense_syndromes(graph, 300, density, seed=int(density * 1000) + 99)
        reference = np.array(
            [dec.decode(det[i]) for i in range(det.shape[0])], dtype=np.uint64
        )
        assert np.array_equal(kernel.decode_rows(det), reference), density


def test_kernel_handles_empty_and_all_zero_input(parity_grid):
    graph, _ = parity_grid[(3, 2e-3)]
    kernel = BatchedUnionFind(UnionFindDecoder(graph))
    empty = kernel.decode_rows(np.zeros((0, graph.num_detectors), dtype=bool))
    assert empty.shape == (0,)
    zeros = kernel.decode_rows(np.zeros((5, graph.num_detectors), dtype=bool))
    assert not zeros.any()


@pytest.mark.parametrize(
    "make_kernel",
    [
        lambda g: BatchedUnionFind(UnionFindDecoder(g)),
        lambda g: BatchedMWPM(MWPMDecoder(g)),
        lambda g: BatchedPredecode(PredecodedDecoder(g, UnionFindDecoder(g))),
        lambda g: BatchedHierarchical(HierarchicalDecoder(g, lut_size_bytes=4096)),
    ],
)
def test_kernels_reject_bad_shapes(parity_grid, make_kernel):
    graph, _ = parity_grid[(3, 2e-3)]
    kernel = make_kernel(graph)
    with pytest.raises(ValueError):
        kernel.decode_rows(np.zeros(graph.num_detectors, dtype=bool))
    with pytest.raises(ValueError):
        kernel.decode_rows(np.zeros((3, graph.num_detectors + 1), dtype=bool))


def test_kernel_block_boundaries_do_not_change_results(parity_grid):
    graph, det = parity_grid[(3, 5e-3)]
    dec = UnionFindDecoder(graph)
    whole = BatchedUnionFind(dec, block_rows=1 << 20).decode_rows(det[:500])
    for block in (1, 7, 64, 499, 500):
        split = BatchedUnionFind(dec, block_rows=block).decode_rows(det[:500])
        assert np.array_equal(split, whole), block


def test_mwpm_kernel_dijkstra_cache_is_stable_across_batches(parity_grid):
    """Rows served from the cached Dijkstra tables equal fresh decodes."""
    graph, det = parity_grid[(3, 5e-3)]
    dec = MWPMDecoder(graph)
    kernel = BatchedMWPM(dec)
    first = kernel.decode_rows(det[:200])
    again = kernel.decode_rows(det[:200])  # now fully from the node cache
    assert np.array_equal(first, again)
    fresh = BatchedMWPM(MWPMDecoder(graph)).decode_rows(det[:200])
    assert np.array_equal(first, fresh)


# ---------------------------------------------------------------------------
# the scalar decoder's reentrancy guard
# ---------------------------------------------------------------------------


def test_unionfind_reentrant_use_raises(parity_grid):
    graph, det = parity_grid[(3, 2e-3)]

    class _Reentrant(UnionFindDecoder):
        def _peel(self, defects, solid):
            # simulate a concurrent/recursive decode on the same instance
            self.decode(np.ones(self.graph.num_detectors, dtype=bool))
            return super()._peel(defects, solid)

    dec = _Reentrant(graph)
    syndrome = det[det.any(axis=1)][0]
    with pytest.raises(RuntimeError, match="not reentrant"):
        dec.decode(syndrome)
    # the guard must reset: a clean decode afterwards works
    assert UnionFindDecoder(graph).decode(syndrome) == _clean_decode(graph, syndrome)
    assert dec.decode(np.zeros(graph.num_detectors, dtype=bool)) == 0


def _clean_decode(graph, syndrome):
    return UnionFindDecoder(graph).decode(syndrome)
