"""The work each workload does: set-up, one timed step, one output check.

The seed only picks the sampled syndromes; it never changes how much work a
step does.  :data:`FULL` is the benchmark; :data:`TINY` shrinks the same code
paths for the self-tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("fig19_cold", "decode_d7", "decode_d3")

#: decode_d3 fills its cache in about 32 batches; this bounds a cache that
#: never fills (a syndrome distribution far narrower than expected)
MAX_WARMUP_BATCHES = 1000


@dataclass(frozen=True)
class Sizes:
    #: fig19 overrides for ``repro.figures.build_figure`` (seed added per run)
    fig19: dict = field(default_factory=dict)
    #: code distance of each decode workload
    decode_distance: dict = field(default_factory=dict)
    #: shots per decode step (the SweepSpec.batch_shots default)
    batch_shots: int = 5000
    #: fresh-interpreter set-ups per run; setup_s is their median
    setups: int = 3
    #: decode steps re-decoded by the scalar backend after timing
    check_batches: int = 2
    #: entries of the shared decode_d3 cache (None: the engine default)
    cache_entries: int | None = None


FULL = Sizes(
    fig19={"distance": 3, "shots": 2000},
    decode_distance={"decode_d7": 7, "decode_d3": 3},
)

TINY = Sizes(
    fig19={"distance": 3, "shots": 200, "taus_ns": [1000.0],
           "eps_values_ns": [100.0], "t_pp_values_ns": [1150.0]},
    decode_distance={"decode_d7": 3, "decode_d3": 3},
    batch_shots=500,
    setups=1,
    check_batches=1,
    cache_entries=256,
)


def fig19_params(sizes: Sizes, seed: int) -> dict:
    return dict(sizes.fig19, seed=int(seed))


def setup(workload: str, seed: int, sizes: Sizes):
    """Everything a workload does before its first timed step.

    ``fig19_cold`` resolves the figure's parameters, which imports the
    figure layer; its steps are fresh interpreters, so nothing else carries
    over.  The decode workloads build their pipeline and warm up.
    """
    if workload == "fig19_cold":
        from repro.figures.registry import get

        return get("fig19").resolve_params(fig19_params(sizes, seed))
    return decode_setup(workload, seed, sizes)


# -- decode workloads ----------------------------------------------------------


@dataclass
class DecodeState:
    """One analysed pipeline (a fig19 point) and its decode stream."""

    seed: int
    shots: int
    config: object
    policy: object
    pipeline: object
    #: the shared cross-batch cache (``decode_d3`` only)
    cache: object = None
    warmup_batches: int = 0


def decode_setup(workload: str, seed: int, sizes: Sizes) -> DecodeState:
    """Build the pipeline (and, for ``decode_d3``, fill the shared cache)."""
    from repro import GOOGLE, SurgeryLerConfig, make_policy
    from repro.decoders.batch import SyndromeCache
    from repro.experiments import ler

    config = SurgeryLerConfig(
        distance=sizes.decode_distance[workload],
        hardware=GOOGLE.with_cycle_time(1000.0),
        policy_name="passive",
        tau_ns=1000.0,
        t_pp_ns=1150.0,
        p=1e-3,
    )
    policy = make_policy("passive")
    state = DecodeState(
        seed=int(seed),
        shots=sizes.batch_shots,
        config=config,
        policy=policy,
        pipeline=ler.prepared_pipeline(config, policy),
    )
    if workload == "decode_d3":
        # the sweep executor's family cache, filled so every timed batch
        # sees the steady state: hits, misses and evictions together
        state.cache = SyndromeCache(sizes.cache_entries or ler.DECODE_DEFAULTS["cache_size"])
        while len(state.cache) < state.cache.max_entries:
            if state.warmup_batches == MAX_WARMUP_BATCHES:
                raise RuntimeError("the syndrome cache did not fill during warm-up")
            decode_step(state, state.warmup_batches, warmup=True)
            state.warmup_batches += 1
    else:
        decode_step(state, 0, warmup=True)
        state.warmup_batches = 1
    return state


def _batch_rng(state: DecodeState, index: int, warmup: bool) -> np.random.Generator:
    return np.random.default_rng([state.seed, 1 if warmup else 0, index])


def decode_step(state: DecodeState, index: int, *, warmup: bool = False) -> dict:
    """Sample and decode one batch; returns what the checks compare."""
    from repro.experiments import ler

    result = ler.run_surgery_ler(
        state.config,
        state.policy,
        state.shots,
        rng=_batch_rng(state, index, warmup),
        pipeline=state.pipeline,
        batch_size=state.shots,
        decode_workers=1,
        syndrome_cache=state.cache,
    )
    stats = result.decode_stats
    return {
        "shots": result.shots,
        "failures": [e.successes for e in result.estimates],
        "batches": stats["batches"],
        "distinct": stats["distinct_syndromes"],
        "cache_hits": stats["cache_hits"],
        "cache_misses": stats["cache_misses"],
        "decode_calls": stats["decode_calls"],
    }


def step_invariants(state: DecodeState, out: dict) -> bool:
    """Counter identities every decoded batch must satisfy."""
    nobs = state.pipeline.dem.num_observables
    ok = (
        out["shots"] == state.shots
        and out["batches"] == 1
        and len(out["failures"]) == nobs
        and all(0 <= f <= state.shots for f in out["failures"])
        and 0 < out["distinct"] <= state.shots
        and out["decode_calls"] <= out["distinct"]
    )
    if state.cache is not None:
        ok = ok and out["cache_hits"] + out["cache_misses"] == out["distinct"]
        ok = ok and out["decode_calls"] == out["cache_misses"]
    return ok


def redecode_matches(state: DecodeState, index: int, out: dict, backend: str) -> bool:
    """Re-decode step ``index`` by the scalar ``python`` backend and compare.

    The batch is sampled again from its seed; the ``backend`` kernel and the
    scalar pass must predict the same observables for every shot, and the
    scalar predictions must give the failure counts the timed step reported.
    Neither decode touches the shared cache.
    """
    from repro.decoders.batch import decode_batch_dedup

    pipe = state.pipeline
    det, obs_flips = next(
        pipe.sampler.sample_batches(
            state.shots, _batch_rng(state, index, False), batch_size=state.shots
        )
    )
    det = pipe.mask_detectors(det)
    decoder = pipe.decoder("unionfind")
    scalar = decode_batch_dedup(decoder, det, backend="python")
    fast = decode_batch_dedup(decoder, det, backend=backend)
    if not np.array_equal(scalar, fast):
        return False
    nobs = obs_flips.shape[1]
    padded = np.zeros((scalar.shape[0], nobs), dtype=bool)
    k = min(nobs, scalar.shape[1])
    padded[:, :k] = scalar[:, :k]
    failures = (padded ^ obs_flips).sum(axis=0).tolist()
    return failures == out["failures"]
