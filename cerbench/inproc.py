"""multi-k256, union-k1 and sharded-k256: closed-loop batches from this process.

The load loop sends fixed-size ``process_many`` batches and waits for each.
One call's wall time is the latency sample: it is the longest any match of
that batch waits.  Throughput is the median, over windows of
``WINDOW_BATCHES`` consecutive batches, of tuples over summed call time: the
benchmark's own work between calls (stream generation, digesting) is not
counted, and a window in which the shared host stalled does not move it.
The host's slower phases of minutes are taken out by scaling to a nominal
host speed (``SCALED_METRICS``, ``common.SpeedProbe``).
"""

from __future__ import annotations

import gc
import resource
import statistics
from itertools import islice
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional

import workloads
from common import Digest, SpeedProbe, peak_rss_mb, quantile, tail_quantile
from report import arena_counters, layer_metrics
from tracing import Tracer, check_ledger, fit_scale, settle

#: Each of the two set-up blocks builds until both limits are reached; the
#: median over both blocks is reported.
SETUP_MIN_REPEATS = 4
SETUP_MIN_SECONDS = 1.5
#: p99 needs at least 10 samples beyond it.
MIN_BATCHES = 1100
#: Share of ``--seconds`` of traced calls in the traced run; its untraced
#: twin takes about as long again.
TRACE_SHARE = 0.3
WINDOW_BATCHES = 64
PROBES_PER_CHUNK = 3
#: Metrics of work done at interpreter speed, scaled to the nominal host
#: speed (common.SpeedProbe): +1 for a rate, -1 for a time.  p99 is left as
#: measured: on the shared host it is set by collector and scheduling
#: pauses, which the host's speed phases did not move.
SCALED_METRICS = {"throughput_tps": 1, "latency_p50_ms": -1, "setup_s": -1}


def _build_multi(collect_stats: bool = False, **options) -> object:
    from repro.multi import MultiQueryEngine

    engine = MultiQueryEngine(collect_stats=collect_stats, **options)
    for spec in workloads.star_query_specs():
        engine.register(workloads.materialise(spec), window=workloads.STAR_WINDOW)
    return engine


def _build_union(collect_stats: bool = False, **options) -> object:
    from repro.core.evaluation import StreamingEvaluator

    return StreamingEvaluator(
        workloads.union_automaton(),
        window=workloads.UNION_WINDOW,
        collect_stats=collect_stats,
        **options,
    )


def _build_sharded(collect_stats: bool = False, start_method: str = "fork") -> object:
    from repro.shard import ShardedEngine

    engine = ShardedEngine(workers=2, start_method=start_method, collect_stats=collect_stats)
    try:
        engine.register_many(
            (workloads.materialise(spec), workloads.STAR_WINDOW)
            for spec in workloads.star_query_specs()
        )
    except Exception:
        engine.close()
        raise
    return engine


class Spec:
    """How one in-process workload builds, feeds and checks its engine."""

    def __init__(
        self,
        name: str,
        batch: int,
        tuples: Callable,
        build: Callable,
        oracle: Callable,
        single: bool = False,
    ) -> None:
        self.name = name
        self.batch = batch
        self.tuples = tuples
        self.build = build
        self.oracle = oracle
        self.single = single
        # Chunks keep the benchmark's own work (generation, digests) between
        # timed calls short and its memory bounded.
        self.chunk = batch * WINDOW_BATCHES

    def digest(self, digest: Digest, base: int, outputs: List) -> None:
        if self.single:
            digest.add_single(base, outputs)
        else:
            digest.add_multi(base, outputs)


SPECS: Dict[str, Spec] = {
    "multi-k256": Spec(
        "multi-k256",
        batch=4,
        tuples=workloads.star_tuples,
        build=_build_multi,
        # The object-graph DS_w and static dispatch: an independent path.
        oracle=lambda: _build_multi(arena=False, adaptive=False),
    ),
    "union-k1": Spec(
        "union-k1",
        # At 32 tuples a batch, about 4% of batches include a generation-1
        # collection and 0.4% a full one: p99 sits inside the first group,
        # not on the edge between the two.
        batch=32,
        tuples=workloads.union_tuples,
        build=_build_union,
        oracle=lambda: _build_union(arena=False, adaptive=False),
        single=True,
    ),
    "sharded-k256": Spec(
        "sharded-k256",
        # Long enough that a few milliseconds of descheduling of one of the
        # three processes does not set the p99 batch time by itself.
        batch=16,
        tuples=workloads.star_tuples,
        build=_build_sharded,
        # A plain single-process engine.
        oracle=_build_multi,
    ),
}


def _close(engine) -> None:
    close = getattr(engine, "close", None)
    if close is not None:
        close()


def measure_setup(spec: Spec, times: List[float], keep: bool, probe: SpeedProbe) -> Optional[object]:
    """Build engines from query text until ``SETUP_MIN_REPEATS`` builds and
    ``SETUP_MIN_SECONDS`` of building; appends each build's seconds to
    ``times``.  Returns the last engine when ``keep``, else closes it."""
    engine = None
    count = 0
    spent = 0.0
    while count < SETUP_MIN_REPEATS or spent < SETUP_MIN_SECONDS:
        if engine is not None:
            _close(engine)
            engine = None
        probe.sample(PROBES_PER_CHUNK)
        gc.collect()
        started = perf_counter()
        engine = spec.build()
        elapsed = perf_counter() - started
        times.append(elapsed)
        count += 1
        spent += elapsed
    if keep:
        return engine
    _close(engine)
    return None


def _feed(spec: Spec, engine, chunk: List, digest: Optional[Digest], base: int, latencies: List[float]):
    """Send ``chunk`` in batches; returns the outputs (None when digested)."""
    outputs: List = []
    process_many = engine.process_many
    batch = spec.batch
    for start in range(0, len(chunk), batch):
        part = chunk[start : start + batch]
        began = perf_counter()
        result = process_many(part)
        latencies.append(perf_counter() - began)
        outputs.extend(result)
    if digest is not None:
        spec.digest(digest, base, outputs)
        return None
    return outputs


def _drive(
    spec: Spec,
    engine,
    seed: int,
    seconds: float,
    min_batches: int,
    digest: Digest,
    probe: SpeedProbe,
):
    """Warm up, then send batches until ``seconds`` of calls and ``min_batches``."""
    stream = spec.tuples(seed)
    position = 0
    warm = list(islice(stream, spec.chunk))
    _feed(spec, engine, warm, digest, position, [])
    position += len(warm)
    latencies: List[float] = []
    while sum(latencies) < seconds or len(latencies) < min_batches:
        chunk = list(islice(stream, spec.chunk))
        _feed(spec, engine, chunk, digest, position, latencies)
        position += len(chunk)
        probe.sample(PROBES_PER_CHUNK)
    return position, position - len(warm), latencies


def _window_throughput(latencies: List[float], batch: int) -> float:
    rates = [
        batch * WINDOW_BATCHES / sum(latencies[start : start + WINDOW_BATCHES])
        for start in range(0, len(latencies) - WINDOW_BATCHES + 1, WINDOW_BATCHES)
    ]
    return statistics.median(rates)


def oracle_digest(spec: Spec, seed: int, count: int) -> str:
    engine = spec.oracle()
    digest = Digest()
    stream = spec.tuples(seed)
    position = 0
    while position < count:
        chunk = list(islice(stream, min(4096, count - position)))
        spec.digest(digest, position, engine.process_many(chunk))
        position += len(chunk)
    _close(engine)
    return digest.hexdigest()


def run_e2e(name: str, seed: int, seconds: float, scale: float) -> Dict[str, object]:
    spec = SPECS[name]
    # Set-up is timed in two blocks, before and after the timed phase, so
    # that its median spans the host's speed over the whole run, as the
    # windowed throughput does.
    setup_times: List[float] = []
    probe = SpeedProbe(every_core=name == "sharded-k256")
    engine = measure_setup(spec, setup_times, keep=True, probe=probe)
    digest = Digest()
    gc.collect()
    try:
        consumed, timed, latencies = _drive(
            spec, engine, seed, seconds, max(1, int(MIN_BATCHES * scale)), digest, probe
        )
    finally:
        _close(engine)
    rss = peak_rss_mb()
    if name == "sharded-k256":
        # Coordinator plus the largest (already reaped) worker.
        rss += peak_rss_mb(resource.RUSAGE_CHILDREN)
    if scale >= 1:
        measure_setup(spec, setup_times, keep=False, probe=probe)
    expected = oracle_digest(spec, seed, consumed)
    correct = digest.hexdigest() == expected
    metrics = {
        "throughput_tps": _window_throughput(latencies, spec.batch),
        "latency_p50_ms": quantile(latencies, 0.5) * 1e3,
        "latency_p99_ms": (tail_quantile if scale >= 1 else quantile)(latencies, 0.99) * 1e3,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": rss,
    }
    notes = {
        "tuples": consumed,
        "timed_tuples": timed,
        "batches": len(latencies),
        "batch_size": spec.batch,
        "outputs": digest.outputs,
        "setups": len(setup_times),
    }
    speed = probe.factor() ** SpeedProbe.ELASTICITY
    notes["speed_factor"] = speed
    for metric, sign in SCALED_METRICS.items():
        notes[f"{metric} as measured"] = metrics[metric]
        metrics[metric] *= speed**sign
    return {
        "correct": correct,
        "attempted": len(latencies),
        "failed": 0 if correct else len(latencies),
        "metrics": metrics,
        "notes": notes,
    }


def _observe_shards(engine) -> Dict[str, float]:
    shard = engine.observe()["shard"]
    return {
        "busy": [entry["busy_seconds"] for entry in shard["per_shard"]],
        "bytes": shard["bytes_sent"] + shard["bytes_received"],
    }


def _replay(spec: Spec, engine, seed: int, count: int, digest: Digest) -> tuple:
    """Feed exactly ``count`` tuples: one untimed warm-up chunk, the rest timed."""
    stream = spec.tuples(seed)
    warm = list(islice(stream, spec.chunk))
    _feed(spec, engine, warm, digest, 0, [])
    latencies: List[float] = []
    position = len(warm)
    while position < count:
        chunk = list(islice(stream, min(spec.chunk, count - position)))
        _feed(spec, engine, chunk, digest, position, latencies)
        position += len(chunk)
    return count - len(warm), latencies


def _shard_metrics(spec: Spec, seed: int, count: int) -> tuple:
    """An untraced fork run: shard busy times and bytes from ``observe()``."""
    engine = spec.build()
    digest = Digest()
    try:
        before = _observe_shards(engine)
        timed, latencies = _replay(spec, engine, seed, count, digest)
        after = _observe_shards(engine)
    finally:
        _close(engine)
    busy = [b - a for a, b in zip(before["busy"], after["busy"])]
    wall = sum(latencies)
    busy_max = max(busy)
    mean = sum(busy) / len(busy)
    metrics = {
        "shard.busy_s_max": busy_max,
        "shard.busy_skew": busy_max / mean if mean > 0 else 0.0,
        "shard.bytes_per_tuple": (after["bytes"] - before["bytes"]) / max(1, timed),
        "shard.critical_path_share": busy_max / wall if wall > 0 else 0.0,
    }
    return metrics, digest.hexdigest()


def feed_pair(
    spec: Spec,
    engine,
    twin,
    tracer: Tracer,
    chunks: Iterable[List],
    base: int,
    digests: Dict[str, Digest],
    traced_latencies: List[float],
    twin_latencies: List[float],
) -> int:
    """Feed each chunk to the traced ``engine`` with the wrappers in, then to
    the untraced ``twin`` with them out; returns the next stream position.

    The wrappers allocate, so the collector would run more often in the
    traced chunks, over a heap that holds both engines: it is paused while
    either engine runs and run between chunks.
    """
    gc.disable()
    try:
        for chunk in chunks:
            tracer.resume()
            outputs = _feed(spec, engine, chunk, None, base, traced_latencies)
            tracer.suspend()
            spec.digest(digests["traced"], base, outputs)
            _feed(spec, twin, chunk, digests["untraced"], base, twin_latencies)
            base += len(chunk)
            gc.collect()
    finally:
        gc.enable()
    return base


def run_traced(name: str, seed: int, seconds: float, scale: float) -> Dict[str, object]:
    """Per-layer costs: a traced engine and an untraced twin of it, fed the
    same tuples in alternating chunks.

    The twin is built before any wrapper is installed, and the wrappers are
    taken out while it runs, so it shows what the traced calls would have
    cost without tracing, at the same moments of the host's speed.
    """
    spec = SPECS[name]
    full = scale >= 1
    extra: Dict[str, float] = {}
    traced_spec = spec
    if name == "sharded-k256":
        # Per-layer self times need the workers in this process; the shard
        # numbers come from a forked run's observe() (below).
        traced_spec = Spec(
            name,
            spec.batch,
            spec.tuples,
            lambda collect_stats=False: _build_sharded(collect_stats, start_method="inline"),
            spec.oracle,
        )
    digests = {"traced": Digest(), "untraced": Digest()}
    traced_latencies: List[float] = []
    twin_latencies: List[float] = []
    twin = traced_spec.build(collect_stats=True)
    tracer = Tracer()
    try:
        tracer.calibrate()
        tracer.install_engine_layers()
        tracer.install_codec_layers()
        tracer.install_shard_layers()
        tracer.wrap(workloads, "materialise", "compile.parse")
        tracer.wrap(workloads, "union_automaton", "compile.build")
        gc.collect()
        tracer.reset()
        engine = traced_spec.build(collect_stats=True)
        setup_ledger = tracer.ledger()
        try:
            stream = traced_spec.tuples(seed)
            warm = list(islice(stream, traced_spec.chunk))
            consumed = feed_pair(traced_spec, engine, twin, tracer, [warm], 0, digests, [], [])

            def chunks():
                while sum(traced_latencies) < seconds * TRACE_SHARE:
                    yield list(islice(stream, traced_spec.chunk))

            tracer.reset()
            consumed = feed_pair(
                traced_spec, engine, twin, tracer, chunks(), consumed, digests, traced_latencies, twin_latencies
            )
            ledger = tracer.ledger()
            observed = engine.observe()
            hash_entries = engine.hash_table_size()
            arenas = arena_counters(list(tracer.arenas))
            tracer.resume()
            tracer.reset()
            for handle in list(getattr(engine, "handles", lambda: [])()):
                engine.unregister(handle)
            unregister_ledger = tracer.ledger()
        finally:
            _close(engine)
    finally:
        tracer.uninstall()
        _close(twin)
    hexdigests = {key: digest.hexdigest() for key, digest in digests.items()}
    if name == "sharded-k256":
        extra, hexdigests["fork"] = _shard_metrics(spec, seed, consumed)
    expected = oracle_digest(spec, seed, consumed)
    correct = all(value == expected for value in hexdigests.values())
    traced_s, twin_s = sum(traced_latencies), sum(twin_latencies)
    wrapper_scale = fit_scale(ledger, traced_s, twin_s, strict=full)
    for interval in (ledger, setup_ledger, unregister_ledger):
        settle(interval, wrapper_scale)
        if full:
            check_ledger(interval)

    metrics = layer_metrics(
        ledger=ledger,
        setup_ledger=setup_ledger,
        unregister_ledger=unregister_ledger,
        tuples=consumed - len(warm),
        stats=observed["stats"],
        evicted=observed["evicted"],
        hash_entries=hash_entries,
        arenas=arenas,
        transitions=_transitions(name),
        overhead_ratio=traced_s / twin_s,
        extra=extra,
    )
    attempted = len(traced_latencies) + len(twin_latencies)
    metrics["error_rate"] = 0.0 if correct else 1.0
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": 0 if correct else attempted,
        "metrics": metrics,
        "notes": {
            "tuples": consumed,
            "traced_tuples": consumed - len(warm),
            "untraced_twin_s": twin_s,
            "ledger_lowest": f"{ledger['lowest_bucket']} {ledger['lowest_share']:.4f}",
            "calibration_scale": wrapper_scale,
            "calibration_inner_ns": tracer.inner_s * 1e9,
            "calibration_outer_ns": tracer.outer_s * 1e9,
        },
        "ledger": ledger,
    }


def _transitions(name: str) -> int:
    if name == "union-k1":
        return len(workloads.union_automaton().transitions)
    from repro.multi import compile_query

    return sum(
        len(compile_query(workloads.materialise(spec)).transitions)
        for spec in workloads.star_query_specs()
    )
