"""One fresh interpreter of the benchmark: a cold fig19 build or a set-up probe.

``python3 syncbench/child.py build --store DIR --seed N [--trace] [--tiny]``
builds ``fig19`` into an empty result store, the way ``repro figures build``
does, and prints one JSON line: the rows, the in-process build time, the
sweep points it completed and its peak RSS.  ``setup --workload NAME`` runs
only a workload's set-up and prints how long it took from interpreter start.
The parent passes ``PYTHONPATH`` and a scrubbed environment.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from contextlib import nullcontext  # noqa: E402


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def build(args) -> dict:
    from syncbench.tracer import Tracer, installed

    tracer = Tracer() if args.trace else None
    with tracer.root() if tracer else nullcontext():
        with tracer.span("import") if tracer else nullcontext():
            from syncbench import workloads
            from repro.decoders import kernels
            from repro import figures
            from repro.store import ResultStore
        sizes = workloads.TINY if args.tiny else workloads.FULL
        store = ResultStore(args.store)
        with installed(tracer) if tracer else nullcontext():
            start = time.perf_counter()
            # looked up on the module, so the traced run sees the wrapper
            result = figures.build_figure(
                "fig19", workloads.fig19_params(sizes, args.seed), store=store
            )
            build_s = time.perf_counter() - start
    points = sum(1 for rec in store.records() if rec.get("schema") != figures.CACHE_SCHEMA)
    return {
        "rows": result.rows,
        "served_from_store": result.served_from_store,
        "build_s": build_s,
        "points": points,
        "peak_rss_mb": _peak_rss_mb(),
        "backend": kernels.resolve(None).name,
        "trace": tracer.snapshot() if tracer else None,
    }


def setup(args) -> dict:
    from syncbench import workloads

    sizes = workloads.TINY if args.tiny else workloads.FULL
    workloads.setup(args.workload, args.seed, sizes)
    return {"setup_s": time.perf_counter() - _START}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=("build", "setup"))
    parser.add_argument("--workload", default="fig19_cold")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--store")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    out = build(args) if args.command == "build" else setup(args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
