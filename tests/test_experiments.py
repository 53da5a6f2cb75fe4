"""End-to-end experiment pipeline and statistics tests."""

import math

import numpy as np
import pytest

from repro.core import make_policy
from repro.experiments import (
    RateEstimate,
    SurgeryLerConfig,
    prepared_pipeline,
    ratio_of_rates,
    run_surgery_ler,
    wilson_interval,
)
from repro.noise import GOOGLE


def test_wilson_interval_properties():
    lo, hi = wilson_interval(5, 100)
    assert 0 <= lo < 0.05 < hi <= 1
    assert wilson_interval(0, 0) == (0.0, 1.0)
    lo0, hi0 = wilson_interval(0, 100)
    assert lo0 == 0.0 and hi0 > 0


def test_rate_estimate():
    e = RateEstimate(10, 1000)
    assert e.rate == 0.01
    lo, hi = e.interval
    assert lo < 0.01 < hi
    assert RateEstimate(0, 0).rate == 0.0


def test_ratio_of_rates():
    a = RateEstimate(20, 1000)
    b = RateEstimate(10, 1000)
    assert ratio_of_rates(a, b) == pytest.approx(2.0)
    assert ratio_of_rates(a, RateEstimate(0, 1000)) == math.inf
    assert ratio_of_rates(RateEstimate(0, 1000), RateEstimate(0, 1000)) == 1.0


def _config(policy="passive", **kw):
    return SurgeryLerConfig(
        distance=3, hardware=GOOGLE, policy_name=policy, tau_ns=1000.0, **kw
    )


def test_run_surgery_ler_returns_three_observables():
    res = run_surgery_ler(_config(), make_policy("passive"), 2000, rng=0)
    assert len(res.estimates) == 3
    assert res.shots == 2000
    assert all(0 <= e.rate <= 1 for e in res.estimates)
    assert res.plan_summary["policy"] == "passive"
    assert res.plan_summary["idle_ns"] == 1000.0


def test_decode_stats_name_the_resolved_backend():
    from repro.decoders import kernels

    res = run_surgery_ler(_config(), make_policy("passive"), 200, rng=0, backend="auto")
    assert res.decode_stats["backend"] == kernels.resolve("auto").name
    assert res.decode_stats["backend_capabilities"] == sorted(
        kernels.capabilities("auto")
    )


def test_pipeline_cache_reused():
    cfg = _config("active")
    pol = make_policy("active")
    a = prepared_pipeline(cfg, pol)
    b = prepared_pipeline(cfg, pol)
    assert a is b


def test_seeded_runs_reproducible():
    cfg = _config("active")
    pol = make_policy("active")
    r1 = run_surgery_ler(cfg, pol, 3000, rng=42)
    r2 = run_surgery_ler(cfg, pol, 3000, rng=42)
    assert [e.successes for e in r1.estimates] == [e.successes for e in r2.estimates]


def test_extra_rounds_plan_propagates_to_summary():
    cfg = _config("hybrid", t_pp_ns=GOOGLE.cycle_time_ns + 210.0)
    pol = make_policy("hybrid", eps_ns=400.0, max_rounds=100)
    res = run_surgery_ler(cfg, pol, 1000, rng=1)
    assert res.plan_summary["extra_rounds_p"] >= 1
    assert res.plan_summary["rounds_p"] > 4


def test_mwpm_decoder_option():
    res = run_surgery_ler(_config("ideal"), make_policy("ideal"), 500, rng=3, decoder="mwpm")
    assert len(res.estimates) == 3


def test_unknown_decoder_rejected():
    cfg = _config("ideal")
    with pytest.raises(ValueError):
        run_surgery_ler(cfg, make_policy("ideal"), 100, rng=0, decoder="telepathy")
