"""Cross-check the traced run's layer split against cProfile.

    python3 cerbench/profile_check.py [--workload multi-k256] [--tuples 1500]

Feeds the same tuples twice to fresh engines built as the traced run builds
them: once under the benchmark's wrappers (``tracing.py``, with the
untraced twin the wrappers' cost is fitted to) and once under ``cProfile``
with no wrappers.  cProfile's time of a layer is the
cumulative time of the functions the tracer wraps for it (for the layers
that call no other wrapped layer); the fire loop gets the rest of
``process_many``.  Prints both splits and exits non-zero when the two
disagree on the largest engine layer.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import sys
from itertools import islice

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    sys.path.insert(0, path)

import inproc  # noqa: E402
from common import Digest  # noqa: E402
from tracing import Tracer, check_ledger, fit_scale, settle  # noqa: E402

#: Engine layers that call no other wrapped layer (their cumulative time in
#: cProfile is their self time in the tracer).
LEAF_LAYERS = ("dispatch", "unary", "joinkey", "ds.extend", "ds.union", "enumerate", "runtime.sweep")


def _shares(times: dict) -> dict:
    total = sum(times.values())
    return {name: value / total for name, value in times.items()}


def traced_split(spec, tuples) -> dict:
    """Self times as the traced run settles them (scale fitted to a twin)."""
    twin = spec.build(collect_stats=True)
    tracer = Tracer()
    tracer.calibrate()
    tracer.install_engine_layers()
    try:
        engine = spec.build(collect_stats=True)
        digests = {"traced": Digest(), "untraced": Digest()}
        base = inproc.feed_pair(spec, engine, twin, tracer, [tuples[: spec.chunk]], 0, digests, [], [])
        chunks = [tuples[start : start + spec.chunk] for start in range(base, len(tuples), spec.chunk)]
        traced_latencies, twin_latencies = [], []
        tracer.reset()
        inproc.feed_pair(spec, engine, twin, tracer, chunks, base, digests, traced_latencies, twin_latencies)
        ledger = tracer.ledger()
        settle(ledger, fit_scale(ledger, sum(traced_latencies), sum(twin_latencies)))
        inproc._close(engine)
        inproc._close(twin)
        code_layers = {}
        for (_, layer), wrapper in tracer._wrapped.items():
            code = getattr(wrapper.__wrapped__, "__code__", None)
            if code is not None:
                code_layers[(code.co_filename, code.co_firstlineno, code.co_name)] = layer
    finally:
        tracer.uninstall()
    check_ledger(ledger)
    selfs = {name: ledger["self_s"].get(name, 0.0) for name in LEAF_LAYERS + ("engine.loop",)}
    return selfs, code_layers


def profiled_split(spec, tuples, code_layers) -> dict:
    engine = spec.build(collect_stats=True)
    feed(spec, engine, tuples[: spec.chunk])
    profiler = cProfile.Profile()
    profiler.enable()
    feed(spec, engine, tuples[spec.chunk :])
    profiler.disable()
    inproc._close(engine)
    stats = pstats.Stats(profiler).stats
    times = {name: 0.0 for name in LEAF_LAYERS}
    loop_total = 0.0
    for key, (_, _, _, cumulative, _) in stats.items():
        layer = code_layers.get(key)
        if layer in times:
            times[layer] += cumulative
        elif layer == "engine.loop":
            loop_total = max(loop_total, cumulative)
    times["engine.loop"] = max(0.0, loop_total - sum(times.values()))
    return times


def feed(spec, engine, tuples) -> None:
    for start in range(0, len(tuples), spec.batch):
        engine.process_many(tuples[start : start + spec.batch])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="multi-k256", choices=("multi-k256", "union-k1"))
    parser.add_argument("--tuples", type=int, default=1500)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    spec = inproc.SPECS[args.workload]
    tuples = list(islice(spec.tuples(args.seed), spec.chunk + args.tuples))
    traced, code_layers = traced_split(spec, tuples)
    profiled = profiled_split(spec, tuples, code_layers)
    traced_shares, profiled_shares = _shares(traced), _shares(profiled)
    print(f"{'layer':<16s} {'traced':>8s} {'cProfile':>9s}")
    for name in sorted(traced_shares, key=lambda n: -traced_shares[n]):
        print(f"{name:<16s} {traced_shares[name] * 100:7.1f}% {profiled_shares[name] * 100:8.1f}%")
    top_traced = max(traced_shares, key=traced_shares.get)
    top_profiled = max(profiled_shares, key=profiled_shares.get)
    print(f"largest engine layer: traced {top_traced}, cProfile {top_profiled}")
    return 0 if top_traced == top_profiled else 1


if __name__ == "__main__":
    sys.exit(main())
