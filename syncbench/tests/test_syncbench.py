"""Self-tests of the benchmark: tail rule, tracer arithmetic, tracer hygiene, smoke."""

from __future__ import annotations

import itertools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from syncbench import stats, tracer, workloads

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- tail rule -----------------------------------------------------------------


@pytest.mark.parametrize(
    "n, level",
    [(1, 0.75), (5, 0.75), (39, 0.75), (40, 0.75), (99, 0.75), (100, 0.90),
     (199, 0.90), (200, 0.95), (999, 0.95), (1000, 0.99), (5000, 0.99)],
)
def test_tail_level_leaves_ten_samples_beyond_when_it_can(n, level):
    assert stats.tail_level(n) == level
    beyond = n - math.ceil(level * n)
    assert beyond >= stats.TAIL_MIN_BEYOND or level == stats.TAIL_LEVELS[-1]


def test_tail_is_a_nearest_rank_sample_above_the_median():
    assert stats.percentile(range(1, 101), 0.9) == 90
    assert stats.tail([5, 1, 4, 2, 3]) == (0.75, 4)
    assert stats.tail(list(range(1000))) == (0.99, 989)
    for n in range(2, 60):
        values = list(range(n))
        assert stats.tail(values)[1] > stats.median(values)


# -- tracer arithmetic ------------------------------------------------------------


def _fake_clock():
    ticks = itertools.count(0, 7)
    return lambda: next(ticks)


def test_self_times_plus_unattributed_sum_to_root_wall():
    tr = tracer.Tracer(clock=_fake_clock())
    for _ in range(3):
        with tr.root():
            with tr.span("a"):
                with tr.span("b"):
                    with tr.span("b"):  # recursion into the same layer
                        pass
                with tr.span("c"):
                    pass
            with tr.span("c"):
                pass
    assert tr.roots == 3
    assert sum(tr.self_ns.values()) == tr.root_ns
    assert all(ns > 0 for ns in tr.self_ns.values())
    assert tracer.attribution_error(tr) == 0.0

    parent = tracer.Tracer()
    snap = tr.snapshot()
    parent.absorb(snap, wall_ns=tr.root_ns + 1000)
    assert sum(parent.self_ns.values()) == parent.root_ns == tr.root_ns + 1000
    assert parent.self_ns[tracer.ROOT] == tr.self_ns[tracer.ROOT] + 1000


def test_root_cannot_nest():
    tr = tracer.Tracer()
    with tr.span("a"), pytest.raises(RuntimeError):
        with tr.root():
            pass


@pytest.fixture(scope="module")
def d3_state():
    return workloads.decode_setup("decode_d3", 5, workloads.TINY)


def test_traced_decode_step_attributes_all_of_its_wall_time(d3_state):
    tr = tracer.Tracer()
    untraced = workloads.decode_step(d3_state, 0)
    with tracer.installed(tr):
        with tr.root():
            traced = workloads.decode_step(d3_state, 0)
    assert traced["failures"] == untraced["failures"]
    assert tr.missing == []
    assert sum(tr.self_ns.values()) == tr.root_ns
    metrics = tracer.layer_metrics(tr, import_s=0.0)
    assert metrics["stab.sampler.shots"][0] == d3_state.shots
    assert metrics["decoders.batch.rows"][0] == d3_state.shots
    assert metrics["decoders.batch.distinct"][0] == traced["distinct"]
    assert metrics["decoders.batch.cache_hits"][0] == traced["cache_hits"]
    for layer in ("decoders.batch", "stab.sampler", "experiments.ler"):
        assert metrics[f"{layer}.s"][0] > 0


# -- tracer hygiene -------------------------------------------------------------


def _repro_bindings() -> dict:
    import repro.experiments.parallel  # noqa: F401
    import repro.experiments.sweeps  # noqa: F401
    import repro.figures  # noqa: F401
    from repro.stab.sampler import DemSampler
    from repro.store import ResultStore

    out = {}
    for mod in tracer._repro_modules():
        for name, value in vars(mod).items():
            out[(mod.__name__, name)] = value
    for cls in (DemSampler, ResultStore):
        for name, value in vars(cls).items():
            out[(cls.__qualname__, name)] = value
    return out


def test_uninstall_restores_every_wrapped_attribute_and_alias():
    import repro
    from repro.experiments import figures as exp_figures
    from repro.experiments import ler

    before = _repro_bindings()
    original = ler.run_surgery_ler
    tr = tracer.Tracer()
    patch = tracer.install(tr)
    try:
        assert tr.missing == []
        # the defining module and the aliases other modules copied
        for holder in (ler, exp_figures, repro):
            assert holder.run_surgery_ler is not original
            assert holder.run_surgery_ler.__wrapped__ is original
        # a module that copies a wrapper while the tracer is live
        exp_figures._late_alias = ler.run_surgery_ler
    finally:
        tracer.uninstall(patch)
    try:
        assert exp_figures._late_alias is original
    finally:
        del exp_figures._late_alias
    after = _repro_bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_missing_target_is_reported_not_patched():
    tr = tracer.Tracer()
    targets = (tracer.Target("ghost", "repro.experiments.ler", "no_such_function"),
               tracer.Target("ghost", "repro.no_such_module", "f"))
    patch = tracer.install(tr, targets)
    assert patch.saved == []
    assert tr.missing == ["repro.experiments.ler.no_such_function", "repro.no_such_module.f"]


# -- smoke --------------------------------------------------------------------


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "syncbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_workload_passes_its_checks(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.2",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert not (ROOT / ".syncbench-tmp").exists()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "syncbench", tmp_path / "syncbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "decode_d3", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
