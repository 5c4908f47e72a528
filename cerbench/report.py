"""Per-layer metrics from a traced run's ledger and the engine's counters."""

from __future__ import annotations

from typing import Dict, List, Optional

from catalog import PER_LAYER


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def arena_counters(arenas: List[object]) -> Dict[str, float]:
    """Union copies and resident bytes summed over the run's arenas."""
    calls = copies = resident = 0
    for ds in arenas:
        calls += ds.union_calls
        copies += ds.union_copies
        resident += ds.resident_bytes()
    return {"union_calls": calls, "union_copies": copies, "resident_bytes": resident}


def layer_metrics(
    *,
    ledger: Dict[str, object],
    setup_ledger: Dict[str, object],
    unregister_ledger: Optional[Dict[str, object]],
    tuples: int,
    stats: Dict[str, float],
    evicted: int,
    hash_entries: int,
    arenas: Dict[str, float],
    transitions: int,
    overhead_ratio: float,
    extra: Dict[str, float],
) -> Dict[str, float]:
    """Every per-layer metric of the catalog; 0 where a layer is not on the path.

    ``ledger`` covers the traced stream phase of ``tuples`` tuples; counts
    that come from the engine's statistics (``stats``, collected since the
    engine was built) are divided by the engine's own tuple count.
    """
    selfs = ledger["self_s"]
    calls = ledger["calls"]

    def us_per_tuple(*layers: str) -> float:
        return sum(selfs.get(layer, 0.0) for layer in layers) * 1e6 / tuples

    processed = stats.get("tuples_processed", 0)
    evaluations = stats.get("predicate_evaluations", 0)
    hits = stats.get("predicate_cache_hits", 0)
    outputs = ledger["true"].get("enumerate", 0)
    unregisters = unregister_ledger["calls"].get("registry.unregister", 0) if unregister_ledger else 0
    wall = ledger["wall_s"]
    metrics = {
        "compile.parse_ms": setup_ledger["self_s"].get("compile.parse", 0.0) * 1e3,
        "compile.build_ms": setup_ledger["self_s"].get("compile.build", 0.0) * 1e3,
        "compile.transitions": transitions,
        "registry.register_ms": setup_ledger["self_s"].get("registry.register", 0.0) * 1e3,
        "registry.unregister_ms": (
            _ratio(unregister_ledger["self_s"].get("registry.unregister", 0.0), unregisters) * 1e3
            if unregister_ledger
            else 0.0
        ),
        "dispatch.us_per_tuple": us_per_tuple("dispatch"),
        "dispatch.candidates_per_tuple": _ratio(stats.get("transitions_scanned", 0), processed),
        "unary.us_per_tuple": us_per_tuple("unary"),
        "unary.evals_per_tuple": _ratio(evaluations, processed),
        "unary.cache_hit_ratio": _ratio(hits, evaluations + hits),
        "unary.pass_ratio": _ratio(ledger["true"].get("unary", 0), ledger["top_calls"].get("unary", 0)),
        "joinkey.us_per_tuple": us_per_tuple("joinkey"),
        "joinkey.calls_per_tuple": _ratio(calls.get("joinkey", 0), tuples),
        "probe.lookups_per_fire": _ratio(stats.get("hash_lookups", 0), stats.get("transitions_fired", 0)),
        "ds.extend_us_per_tuple": us_per_tuple("ds.extend"),
        "ds.union_us_per_tuple": us_per_tuple("ds.union"),
        "ds.nodes_per_tuple": _ratio(stats.get("nodes_created", 0), processed),
        "ds.copies_per_union": _ratio(arenas["union_copies"], arenas["union_calls"]),
        "ds.resident_kb": arenas["resident_bytes"] / 1024.0,
        "runtime.sweep_us_per_tuple": us_per_tuple("runtime.sweep"),
        "runtime.evicted_per_tuple": _ratio(evicted, processed),
        "runtime.hash_entries": hash_entries,
        "enumerate.us_per_output": _ratio(selfs.get("enumerate", 0.0) * 1e6, outputs),
        "enumerate.outputs_per_tuple": _ratio(outputs, tuples),
        "engine.loop_us_per_tuple": us_per_tuple("engine.loop"),
        "frames.encode_us_per_tuple": us_per_tuple("frames.encode"),
        "frames.decode_us_per_tuple": us_per_tuple("frames.decode"),
        "frames.bytes_per_tuple": _ratio(ledger["bytes"].get("frames.decode", 0), tuples),
        "frames.match_bytes_per_output": _ratio(ledger["bytes"].get("frames.encode", 0), outputs),
        "shard.us_per_tuple": us_per_tuple("shard.coordinator", "shard.worker"),
        "shard.busy_s_max": 0.0,
        "shard.busy_skew": 0.0,
        "shard.bytes_per_tuple": 0.0,
        "shard.critical_path_share": 0.0,
        "net.server_us_per_tuple": us_per_tuple("net.server"),
        "net.service_ms_p50": 0.0,
        "net.non_service_ms_p50": 0.0,
        "net.coalesced_batch_mean": 0.0,
        "net.peak_queue_depth": 0.0,
        "loadgen.late_p99_ms": 0.0,
        "trace.overhead_ratio": overhead_ratio,
        "trace.unattributed_share": _ratio(ledger["unattributed_s"], wall),
        "trace.instrumentation_share": _ratio(ledger["instrumentation_s"], wall),
        "error_rate": 0.0,
    }
    metrics.update(extra)
    missing = {m["name"] for m in PER_LAYER} - set(metrics)
    if missing:
        raise KeyError(f"per-layer metrics not computed: {sorted(missing)}")
    return metrics


def breakdown(ledger: Dict[str, object], tuples: int) -> List[str]:
    """Human-readable self-time lines, largest first."""
    wall = ledger["wall_s"]
    rows = sorted(ledger["self_s"].items(), key=lambda item: -item[1])
    rows.append(("(instrumentation)", ledger["instrumentation_s"]))
    rows.append(("(unattributed)", ledger["unattributed_s"]))
    return [
        f"#   {name:<20s} {seconds * 1e6 / max(1, tuples):9.2f} us/tuple  {_ratio(seconds, wall) * 100:5.1f}%"
        for name, seconds in rows
    ]
