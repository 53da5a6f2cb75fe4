"""Run one workload: set up, time steps for the budget, check the outputs.

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced steps and reports the per-layer metrics
(see README.md).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from . import stats, workloads
from .tracer import Tracer, attribution_error, install, layer_metrics, uninstall

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CHILD = BENCH_DIR / "child.py"
#: every store, ledger and temp file of a run lives below this directory
TMP_PARENT = ROOT / ".syncbench-tmp"
CHILD_TIMEOUT_S = 150
#: fewest timed steps per run, whatever the time budget
MIN_STEPS = 2
#: largest share by which self times plus unattributed may miss the wall time
ATTRIBUTION_TOLERANCE = 0.01


class ChildError(RuntimeError):
    pass


class Checks:
    """Output checks of one run; ``failed / attempted`` is ``failed_frac``."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(what)


class Context:
    def __init__(self, tmp: Path, seed: int, seconds: float, trace: bool, sizes):
        self.tmp = tmp
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.sizes = sizes
        self.checks = Checks()
        self.info: dict = {}

    def env(self, **extra) -> dict:
        """The scrubbed environment of a child interpreter."""
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env.update(
            PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)]),
            TMPDIR=str(self.tmp),
            REPRO_RUN_LEDGER="0",
        )
        env.update(extra)
        return env

    def child(self, *args: str, env: dict | None = None) -> tuple[float, dict]:
        """Run ``child.py`` to completion; ``(wall seconds, its JSON report)``."""
        argv = [sys.executable, str(CHILD), *args, "--seed", str(self.seed)]
        if self.sizes is workloads.TINY:
            argv.append("--tiny")
        start = time.perf_counter()
        proc = subprocess.run(
            argv, cwd=ROOT, env=env or self.env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise ChildError(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        return wall, json.loads(proc.stdout.strip().splitlines()[-1])

    def setup_probes(self, workload: str) -> list[float]:
        """Set-up times of ``sizes.setups - 1`` fresh interpreters."""
        return [
            self.child("setup", "--workload", workload)[1]["setup_s"]
            for _ in range(self.sizes.setups - 1)
        ]

    def keep_stepping(self, steps: int, start: float) -> bool:
        return steps < MIN_STEPS or time.perf_counter() - start < self.seconds


def _timing_metrics(walls_s: list[float], ctx: Context) -> dict:
    walls_ms = [w * 1000.0 for w in walls_s]
    level, tail = stats.tail(walls_ms)
    ctx.info.update(steps=len(walls_ms), tail_level=f"p{level * 100:g}")
    return {
        "step_ms.p50": (stats.median(walls_ms), "ms"),
        "step_ms.tail": (tail, "ms"),
    }


def _trace_metrics(ctx: Context, tracer: Tracer, steps: list, import_s: float) -> dict:
    ctx.checks.check(
        attribution_error(tracer) <= ATTRIBUTION_TOLERANCE,
        "self times plus unattributed.s match the traced wall time",
    )
    untraced = [wall for wall, _, traced in steps if not traced]
    traced = [wall for wall, _, is_traced in steps if is_traced]
    metrics = layer_metrics(tracer, import_s=import_s)
    metrics["trace_overhead_frac"] = (stats.median(traced) / stats.median(untraced) - 1.0, "ratio")
    if tracer.missing:
        ctx.info["untraced_targets"] = tracer.missing
    return metrics


# -- fig19_cold ------------------------------------------------------------------


def _import_repro() -> float:
    """Import the program from this checkout; returns the seconds it took."""
    start = time.perf_counter()
    import repro
    import repro.figures  # noqa: F401

    import_s = time.perf_counter() - start
    if SRC not in Path(repro.__file__).resolve().parents:
        raise RuntimeError(f"imported repro from {repro.__file__}, not from {SRC}")
    return import_s


def run_fig19(ctx: Context, t0: float) -> dict:
    _import_repro()
    params = workloads.setup("fig19_cold", ctx.seed, ctx.sizes)
    setups = [time.perf_counter() - t0]
    if not ctx.trace:
        setups += ctx.setup_probes("fig19_cold")
    points = len(params["taus_ns"]) * len(params["t_pp_values_ns"]) * (
        3 + len(params["eps_values_ns"])
    )

    tracer = Tracer()
    steps = []
    start = time.perf_counter()
    while ctx.keep_stepping(len(steps), start):
        traced = ctx.trace and len(steps) % 2 == 1
        store = ctx.tmp / f"store{len(steps)}"
        wall, out = ctx.child("build", "--store", str(store), *(["--trace"] if traced else []))
        if traced:
            tracer.absorb(out["trace"], round(wall * 1e9))
        if steps:
            shutil.rmtree(ctx.tmp / f"store{len(steps) - 1}", ignore_errors=True)
        steps.append((wall, out, traced))

    rows = steps[0][1]["rows"]
    for i, (_, out, traced) in enumerate(steps):
        ctx.checks.check(
            out["rows"] == rows and out["points"] == points and not out["served_from_store"],
            f"{'traced ' if traced else ''}build {i} rows equal build 0 over {points} points",
        )
    _, scalar = ctx.child(
        "build", "--store", str(ctx.tmp / "scalar"), env=ctx.env(REPRO_DECODE_BACKEND="python")
    )
    ctx.checks.check(
        scalar["backend"] == "python" and scalar["rows"] == rows,
        "a build by the scalar python backend gives the same rows",
    )
    _, warm = ctx.child("build", "--store", str(ctx.tmp / f"store{len(steps) - 1}"))
    ctx.checks.check(
        warm["served_from_store"] and warm["rows"] == rows,
        "a warm rebuild is served from the store with the same rows",
    )

    if ctx.trace:
        import_s = tracer.self_ns.get("import", 0) / 1e9 / max(1, tracer.roots)
        return _trace_metrics(ctx, tracer, steps, import_s)
    outs = [out for _, out, _ in steps]
    ctx.info["points_per_s"] = stats.median([o["points"] / o["build_s"] for o in outs])
    metrics = {"setup_s": (stats.median(setups), "s")}
    metrics.update(_timing_metrics([wall for wall, _, _ in steps], ctx))
    metrics["shots_per_s"] = (
        stats.median([o["points"] * params["shots"] / o["build_s"] for o in outs]),
        "1/s",
    )
    metrics["peak_rss_mb"] = (stats.median([o["peak_rss_mb"] for o in outs]), "MB")
    return metrics


# -- decode_d7 / decode_d3 ---------------------------------------------------------


def run_decode(ctx: Context, workload: str, t0: float) -> dict:
    import_s = _import_repro()
    from repro.decoders import kernels

    state = workloads.setup(workload, ctx.seed, ctx.sizes)
    setups = [time.perf_counter() - t0]
    if not ctx.trace:
        setups += ctx.setup_probes(workload)
    backend = kernels.resolve(None).name
    ctx.info["warmup_batches"] = state.warmup_batches

    tracer = Tracer()
    steps = []
    start = time.perf_counter()
    while ctx.keep_stepping(len(steps), start):
        index = len(steps)
        traced = ctx.trace and index % 2 == 1
        patch = install(tracer) if traced else None
        try:
            begin = time.perf_counter()
            with tracer.root() if traced else nullcontext():
                out = workloads.decode_step(state, index)
            wall = time.perf_counter() - begin
        finally:
            if patch is not None:
                uninstall(patch)
        steps.append((wall, out, traced))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for i, (_, out, _) in enumerate(steps):
        ctx.checks.check(workloads.step_invariants(state, out), f"step {i} counters")
    # in a traced run the re-decoded steps are traced ones, so this also
    # shows that traced outputs equal untraced ones
    pool = [i for i, (_, _, traced) in enumerate(steps) if traced == ctx.trace]
    rng = np.random.default_rng(ctx.seed)
    picks = rng.choice(len(pool), size=min(ctx.sizes.check_batches, len(pool)), replace=False)
    for j in sorted(picks.tolist()):
        i = pool[j]
        ctx.checks.check(
            workloads.redecode_matches(state, i, steps[i][1], backend),
            f"step {i} re-decoded by the scalar backend",
        )

    if ctx.trace:
        return _trace_metrics(ctx, tracer, steps, import_s)
    walls = [wall for wall, _, _ in steps]
    metrics = {"setup_s": (stats.median(setups), "s")}
    metrics.update(_timing_metrics(walls, ctx))
    metrics["shots_per_s"] = (state.shots / stats.median(walls), "1/s")
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    return metrics


# -- entry point -------------------------------------------------------------------


def provenance() -> dict:
    """What ran: resolved backend, interpreter, numpy, cores and commit."""
    from repro.decoders import kernels

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = proc.stdout.strip() or None
    return {
        "backend": kernels.resolve("auto").name,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "commit": commit,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, sizes, t0: float):
    """Run one workload in a temp dir that is removed afterwards."""
    TMP_PARENT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=TMP_PARENT))
    tempfile.tempdir = str(tmp)
    try:
        ctx = Context(tmp, seed, seconds, trace, sizes)
        if workload == "fig19_cold":
            metrics = run_fig19(ctx, t0)
        else:
            metrics = run_decode(ctx, workload, t0)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_PARENT.rmdir()
        except OSError:
            pass
    return ctx, metrics


def main(argv=None, t0: float | None = None) -> int:
    t0 = time.perf_counter() if t0 is None else t0
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrunken sizes for self-tests")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sizes = workloads.TINY if args.tiny else workloads.FULL
    ctx, metrics = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), sizes, t0)

    checks = ctx.checks
    print("provenance " + json.dumps(provenance(), sort_keys=True))
    print("info " + json.dumps(ctx.info, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_frac = {len(checks.failed) / checks.attempted:.6g} "
          f"({len(checks.failed)} of {checks.attempted} checks)")
    for what in checks.failed:
        print(f"FAILED: {what}")
    print(json.dumps({
        "correct": not checks.failed,
        "attempted": checks.attempted,
        "failed": len(checks.failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0
