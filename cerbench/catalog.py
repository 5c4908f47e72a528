"""What the benchmark measures: workloads, metrics and the predicted links.

This module is the one list of names.  ``run.py`` reports exactly these
metrics, ``selftest.py`` checks that ``BENCHMARK.json`` at the repository
root agrees with it, and ``python3 cerbench/catalog.py`` prints the JSON
document that file holds.

Each per-layer metric names the end-to-end metric and workloads it should
move (``moves``), so a later change that targets one layer can state its
prediction by these names before it is measured.
"""

from __future__ import annotations

import json
from typing import Dict, List

#: The workloads ``BENCHMARK.json`` gates on.
WORKLOADS: List[Dict[str, object]] = [
    {
        "name": "multi-k256",
        "why": (
            "256 grouped-star queries (HCQ strings, filtered DSL) in one engine, no codec or socket. "
            "Heavy: dispatch, unary, joinkey. Light: codec, shard. union-k1 ungated: tps spread 24-32%"
        ),
    },
    {
        "name": "sharded-k256",
        "why": (
            "multi-k256 via 2 forked shards: adds pipe codec, broadcast, fan-in. Heavy: shard, "
            "frames, joinkey. Light: dispatch, unary. served-k16 ungated (latency spread 30-80%): net unmeasured"
        ),
    },
]

#: Runnable by hand (``run.py --workload <name>``), not gated: on the shared
#: 2-vCPU host they were built on, their end-to-end numbers moved too much
#: from run to run (IQR over median of five to ten seeds, after every
#: steadying step in ``run.py``, ``inproc.py`` and ``served.py``):
#:
#: * union-k1: throughput 0.24-0.32 and p50 0.27-0.31 (p99 0.09-0.14);
#: * served-k16: p50 0.3-0.5, p99 0.7-0.8 and throughput 0.2-0.25 -- wake-up
#:   latency across three processes and the generator's own match decoding
#:   dominate.
#:
#: They are the only workloads that load ``DS_w`` most (union-k1) and reach
#: ``net.*`` (served-k16); their traced runs give those per-layer numbers,
#: but the gate does not measure the server layer.
UNGATED: List[Dict[str, object]] = [
    {
        "name": "union-k1",
        "why": (
            "One raw automaton, 8 readings unioned per arm tuple: DS_w extend/union, sweep and "
            "enumeration dominate. Heavy: ds, enumerate, runtime. Light: dispatch, joinkey, codec"
        ),
    },
    {
        "name": "served-k16",
        "why": (
            "TCP server child, 16 guarded queries, subscription churn: codec, coalescing, match "
            "encode and socket dominate. Heavy: net, frames, registry churn. Light: joinkey, ds"
        ),
    },
]

END_TO_END: List[Dict[str, object]] = [
    {"name": "throughput_tps", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "latency_p99_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]

_STARS = "multi-k256, sharded-k256"

# (name, unit, better, moves)
_PER_LAYER = [
    ("compile.parse_ms", "ms", "lower", "setup_s on every workload"),
    ("compile.build_ms", "ms", "lower", "setup_s on every workload"),
    ("compile.transitions", "count", "lower", "setup_s on every workload"),
    ("registry.register_ms", "ms", "lower", "setup_s on every workload"),
    ("registry.unregister_ms", "ms", "lower", "latency_p99_ms on served-k16 (churn)"),
    ("dispatch.us_per_tuple", "us", "lower", f"throughput_tps on {_STARS}; none on union-k1"),
    ("dispatch.candidates_per_tuple", "count", "lower", f"throughput_tps on {_STARS}"),
    ("unary.us_per_tuple", "us", "lower", f"throughput_tps on {_STARS}"),
    ("unary.evals_per_tuple", "count", "lower", f"throughput_tps on {_STARS}"),
    ("unary.cache_hit_ratio", "ratio", "higher", f"throughput_tps on {_STARS}"),
    ("unary.pass_ratio", "ratio", "higher", f"throughput_tps on {_STARS}"),
    ("joinkey.us_per_tuple", "us", "lower", "throughput_tps on multi-k256; near zero on union-k1"),
    ("joinkey.calls_per_tuple", "count", "lower", "throughput_tps on multi-k256"),
    ("probe.lookups_per_fire", "count", "lower", "throughput_tps on multi-k256"),
    ("ds.extend_us_per_tuple", "us", "lower", "throughput_tps on union-k1"),
    ("ds.union_us_per_tuple", "us", "lower", "throughput_tps on union-k1"),
    ("ds.nodes_per_tuple", "count", "lower", "throughput_tps on union-k1"),
    ("ds.copies_per_union", "count", "lower", "throughput_tps on union-k1"),
    ("ds.resident_kb", "KiB", "lower", "peak_rss_mb on every workload"),
    ("runtime.sweep_us_per_tuple", "us", "lower", "throughput_tps and latency_p99_ms on union-k1"),
    ("runtime.evicted_per_tuple", "count", "lower", "peak_rss_mb on every workload"),
    ("runtime.hash_entries", "count", "lower", "peak_rss_mb on every workload"),
    ("enumerate.us_per_output", "us", "lower", "throughput_tps on union-k1"),
    ("enumerate.outputs_per_tuple", "count", "higher", "throughput_tps on union-k1 (workload property)"),
    ("engine.loop_us_per_tuple", "us", "lower", "throughput_tps on union-k1 and multi-k256"),
    ("frames.encode_us_per_tuple", "us", "lower", "throughput_tps on sharded-k256; latency_p50_ms on served-k16"),
    ("frames.decode_us_per_tuple", "us", "lower", "throughput_tps on sharded-k256; latency_p50_ms on served-k16"),
    ("frames.bytes_per_tuple", "bytes", "lower", "throughput_tps on sharded-k256; latency_p50_ms on served-k16"),
    ("frames.match_bytes_per_output", "bytes", "lower", "latency_p50_ms on served-k16"),
    ("shard.us_per_tuple", "us", "lower", "throughput_tps on sharded-k256"),
    ("shard.busy_s_max", "s", "lower", "throughput_tps on sharded-k256"),
    ("shard.busy_skew", "ratio", "lower", "throughput_tps on sharded-k256"),
    ("shard.bytes_per_tuple", "bytes", "lower", "throughput_tps on sharded-k256"),
    ("shard.critical_path_share", "ratio", "lower", "throughput_tps on sharded-k256"),
    ("net.server_us_per_tuple", "us", "lower", "latency_p50_ms and throughput_tps on served-k16"),
    ("net.service_ms_p50", "ms", "lower", "latency_p50_ms and latency_p99_ms on served-k16"),
    ("net.non_service_ms_p50", "ms", "lower", "latency_p50_ms and latency_p99_ms on served-k16"),
    ("net.coalesced_batch_mean", "count", "higher", "throughput_tps on served-k16"),
    ("net.peak_queue_depth", "count", "lower", "latency_p99_ms on served-k16"),
    ("loadgen.late_p99_ms", "ms", "lower", "validity of served-k16 latencies (none if small)"),
    ("trace.overhead_ratio", "ratio", "lower", "none (cost of the traced run)"),
    ("trace.unattributed_share", "ratio", "lower", "none (time outside every wrapped layer)"),
    ("trace.instrumentation_share", "ratio", "lower", "none (calibrated wrapper cost)"),
    ("error_rate", "ratio", "lower", "every end-to-end metric (failed over attempted operations)"),
]

PER_LAYER: List[Dict[str, object]] = [
    {"name": name, "unit": unit, "better": better} for name, unit, better, _ in _PER_LAYER
]
MOVES: Dict[str, str] = {name: moves for name, _, _, moves in _PER_LAYER}
UNITS: Dict[str, str] = {m["name"]: m["unit"] for m in END_TO_END + PER_LAYER}


def benchmark_json() -> Dict[str, object]:
    """The document ``BENCHMARK.json`` holds."""
    return {
        "command": ["python3", "cerbench/run.py"],
        "paths": ["cerbench"],
        "run_seconds": 20,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
