"""Per-layer spans recorded from outside the program.

The program is never edited for the benchmark: :func:`installed` swaps the
public entry point of each pipeline layer (:data:`TARGETS`) for a timing
wrapper, in the defining module *and* in every ``repro`` module that holds
an alias of it (``from .x import f`` copies), and puts every original back
on exit.  Untraced runs never install anything.

A layer's *self time* is its span's duration minus the time of the spans
nested inside it, so the self times of all layers plus the root span's own
self time (reported as ``unattributed``) add up to the root's wall time.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

#: layer name of the root span; its self time is the unattributed remainder
ROOT = "unattributed"


class Tracer:
    """A stack of open spans plus per-layer self time and counters."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        #: summed wall time of closed root spans, and how many there were
        self.root_ns = 0
        self.roots = 0
        #: targets that could not be found at install time
        self.missing: list[str] = []
        self._stack: list[list] = []

    def enter(self, layer: str) -> None:
        self._stack.append([layer, self.clock(), 0])

    def exit(self) -> int:
        """Close the innermost span; returns its duration in ns."""
        layer, start, child_ns = self._stack.pop()
        duration = self.clock() - start
        self.self_ns[layer] += duration - child_ns
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.root_ns += duration
            self.roots += 1
        return duration

    @contextmanager
    def span(self, layer: str):
        self.enter(layer)
        try:
            yield
        finally:
            self.exit()

    def root(self):
        """The span around one whole step; nothing may be open yet."""
        if self._stack:
            raise RuntimeError("a root span cannot nest inside another span")
        return self.span(ROOT)

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    def snapshot(self) -> dict:
        """JSON-plain totals (a child interpreter's report to its parent)."""
        return {
            "self_ns": dict(self.self_ns),
            "counts": dict(self.counts),
            "root_ns": self.root_ns,
            "roots": self.roots,
            "missing": list(self.missing),
        }

    def absorb(self, snap: dict, wall_ns: int) -> None:
        """Fold a child's snapshot in as one root span of ``wall_ns``.

        The child's layer self times are kept; everything else the parent
        saw of that step (interpreter start and exit, the child's own root
        self time) becomes unattributed, so the totals still add up.
        """
        attributed = 0
        for layer, ns in snap["self_ns"].items():
            if layer != ROOT:
                self.self_ns[layer] += ns
                attributed += ns
        self.self_ns[ROOT] += wall_ns - attributed
        for name, value in snap["counts"].items():
            self.counts[name] += value
        self.root_ns += wall_ns
        self.roots += 1
        self.missing = sorted(set(self.missing) | set(snap.get("missing", ())))


# -- wrappers ----------------------------------------------------------------


def _timed(tracer: Tracer, layer: str, fn, after=None):
    """Time every call of ``fn`` as one ``layer`` span and count it."""

    def wrapper(*args, **kwargs):
        tracer.enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        tracer.count(layer + ".calls")
        if after is not None:
            after(tracer, result, args, kwargs)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _count_dem_errors(tracer, dem, args, kwargs):
    tracer.count("stab.dem.errors", len(dem.errors))


def _count_points(tracer, report, args, kwargs):
    tracer.count("experiments.sweeps.points", len(report.outcomes))


def _count_write(tracer, result, args, kwargs):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.count("store.writes")
    tracer.count("store.bytes_written", path.stat().st_size)


def _count_read(tracer, result, args, kwargs):
    tracer.count("store.reads")


def _wrap_plain(after=None):
    return lambda tracer, layer, fn: _timed(tracer, layer, fn, after)


def _wrap_binder(tracer: Tracer, layer: str, bind):
    """``kernels.bind`` returns the kernel; the kernel's calls are the span."""

    def bind_wrapper(*args, **kwargs):
        kernel = bind(*args, **kwargs)
        if kernel is None:
            return None

        def kernel_wrapper(rows, counts):
            tracer.enter(layer)
            try:
                return kernel(rows, counts)
            finally:
                tracer.exit()
                tracer.count(layer + ".calls")
                tracer.count(layer + ".rows", len(rows))

        return kernel_wrapper

    bind_wrapper.__wrapped__ = bind
    return bind_wrapper


def _wrap_batch(tracer: Tracer, layer: str, fn):
    """The dedup layer; distinct rows and cache hits come from its stats."""

    def wrapper(decoder, detectors, **kwargs):
        stats = kwargs.get("stats")
        before = (
            (stats.distinct_syndromes, stats.cache_hits, stats.decode_calls)
            if stats is not None
            else None
        )
        tracer.enter(layer)
        try:
            result = fn(decoder, detectors, **kwargs)
        finally:
            tracer.exit()
        tracer.count(layer + ".calls")
        tracer.count(layer + ".rows", len(detectors))
        if before is not None:
            tracer.count(layer + ".distinct", stats.distinct_syndromes - before[0])
            tracer.count(layer + ".cache_hits", stats.cache_hits - before[1])
            tracer.count(layer + ".decode_calls", stats.decode_calls - before[2])
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _wrap_generator(tracer: Tracer, layer: str, fn):
    """A lazy sampler: each ``next()`` is one span; the yield is outside it."""

    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        while True:
            tracer.enter(layer)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                tracer.exit()
            tracer.count(layer + ".shots", len(item[0]))
            yield item

    wrapper.__wrapped__ = fn
    return wrapper


@dataclass(frozen=True)
class Target:
    """One public entry point: ``module`` + ``attr`` (``Class.method`` allowed)."""

    layer: str
    module: str
    attr: str
    make: Callable = field(default_factory=_wrap_plain)


#: every layer the benchmark attributes time to, outermost last
TARGETS = (
    Target("codes.surgery", "repro.codes.surgery", "surgery_experiment"),
    Target("stab.dem", "repro.stab.dem", "circuit_to_dem", _wrap_plain(_count_dem_errors)),
    Target("decoders.graph", "repro.decoders.graph", "build_matching_graph"),
    Target("decoders.kernels", "repro.decoders.kernels", "bind", _wrap_binder),
    Target("decoders.batch", "repro.decoders.batch", "decode_batch_dedup", _wrap_batch),
    Target("stab.sampler", "repro.stab.sampler", "DemSampler.sample_batches", _wrap_generator),
    Target("experiments.ler", "repro.experiments.ler", "run_surgery_ler"),
    Target("experiments.sweeps", "repro.experiments.sweeps", "run_sweep",
           _wrap_plain(_count_points)),
    # the store's single durable-write funnel (every put and put_batch)
    Target("store", "repro.store.backend", "ResultStore._write_json",
           _wrap_plain(_count_write)),
    Target("store", "repro.store.backend", "ResultStore.get", _wrap_plain(_count_read)),
    Target("figures", "repro.figures.build", "build_figure"),
)

#: layer names in report order (``import`` is timed by the workloads)
LAYERS = ("import",) + tuple(dict.fromkeys(t.layer for t in TARGETS))


def _repro_modules():
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "repro" or name.startswith("repro."))
    ]


@dataclass
class Patch:
    """What :func:`install` replaced, so :func:`uninstall` can put it back."""

    saved: list = field(default_factory=list)
    #: id(wrapper) -> original
    originals: dict = field(default_factory=dict)


def install(tracer: Tracer, targets=TARGETS) -> Patch:
    """Wrap every target found; record the rest in ``tracer.missing``."""
    patch = Patch()
    modules = _repro_modules()
    for target in targets:
        try:
            module = importlib.import_module(target.module)
        except ImportError:
            tracer.missing.append(f"{target.module}.{target.attr}")
            continue
        owner_name, _, name = target.attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = vars(owner).get(name) if owner is not None else None
        if not callable(original):
            tracer.missing.append(f"{target.module}.{target.attr}")
            continue
        wrapper = target.make(tracer, target.layer, original)
        patch.originals[id(wrapper)] = original
        if owner_name:
            setattr(owner, name, wrapper)
            patch.saved.append((owner, name, original))
            continue
        for mod in modules:
            for alias, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, alias, wrapper)
                    patch.saved.append((mod, alias, original))
    return patch


def uninstall(patch: Patch) -> None:
    """Restore every wrapped attribute and module alias."""
    for owner, name, original in reversed(patch.saved):
        setattr(owner, name, original)
    # a module imported while the tracer was live may have copied a wrapper
    for mod in _repro_modules():
        for alias, value in list(vars(mod).items()):
            original = patch.originals.get(id(value))
            if original is not None:
                setattr(mod, alias, original)
    patch.saved.clear()


@contextmanager
def installed(tracer: Tracer):
    patch = install(tracer)
    try:
        yield patch
    finally:
        uninstall(patch)


def layer_metrics(tracer: Tracer, *, import_s: float) -> dict:
    """Per-layer metrics, each a mean per traced step, as ``name -> (value, unit)``.

    ``import_s`` is reported as given: the decode workloads import once per
    process, while every cold ``fig19`` step imports afresh.
    """
    steps = max(1, tracer.roots)
    out = {"import.s": (import_s, "s")}
    for layer in LAYERS[1:]:
        out[f"{layer}.s"] = (tracer.self_ns.get(layer, 0) / 1e9 / steps, "s")
    for name in (
        "codes.surgery.calls", "stab.dem.calls", "stab.dem.errors",
        "decoders.graph.calls", "decoders.kernels.calls", "decoders.kernels.rows",
        "decoders.batch.rows", "decoders.batch.distinct", "decoders.batch.cache_hits",
        "stab.sampler.shots", "experiments.sweeps.points",
        "store.writes", "store.reads", "store.bytes_written",
    ):
        out[name] = (tracer.counts.get(name, 0) / steps, "count")
    kernel_s = tracer.self_ns.get("decoders.kernels", 0) / 1e9
    out["decoders.kernels.rows_per_s"] = (
        tracer.counts.get("decoders.kernels.rows", 0) / kernel_s if kernel_s else 0.0,
        "1/s",
    )
    rows = tracer.counts.get("decoders.batch.rows", 0)
    out["decoders.batch.dedup_hit_rate"] = (
        1.0 - tracer.counts.get("decoders.batch.decode_calls", 0) / rows if rows else 0.0,
        "ratio",
    )
    out[f"{ROOT}.s"] = (tracer.self_ns.get(ROOT, 0) / 1e9 / steps, "s")
    out["traced_step.s"] = (tracer.root_ns / 1e9 / steps, "s")
    return out


def attribution_error(tracer: Tracer) -> float:
    """|sum of self times - root wall| as a share of the root wall."""
    if tracer.root_ns <= 0:
        return 1.0
    return abs(sum(tracer.self_ns.values()) - tracer.root_ns) / tracer.root_ns
