"""Helpers shared by every workload: digests, percentiles, memory, provenance."""

from __future__ import annotations

import gc
import hashlib
import math
import os
import platform
import resource
import subprocess
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Sequence

#: A percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10


class Digest:
    """``position|qid|sorted(vals)`` folded in stream order.

    Two runs agree iff they produced the same valuations for the same
    queries at the same positions.  ``qid`` is the handle id (0 for a
    single-query engine).
    """

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self.outputs = 0

    def add(self, position: int, qid: int, valuations: Sequence[object]) -> None:
        if valuations:
            self.outputs += len(valuations)
            self._hash.update(f"{position}|{qid}|{sorted(map(str, valuations))}".encode())

    def add_multi(self, base: int, per_tuple: Iterable[Dict[int, List[object]]]) -> None:
        for offset, outputs in enumerate(per_tuple):
            for qid in sorted(outputs):
                self.add(base + offset, qid, outputs[qid])

    def add_single(self, base: int, per_tuple: Iterable[List[object]]) -> None:
        for offset, valuations in enumerate(per_tuple):
            self.add(base + offset, 0, valuations)

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile (``q`` in (0, 1])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def tail_quantile(values: Sequence[float], q: float) -> float:
    """``quantile`` that refuses a tail with fewer than ``TAIL_SAMPLES`` beyond it."""
    if len(values) * (1.0 - q) < TAIL_SAMPLES:
        raise ValueError(
            f"p{q * 100:g} needs {math.ceil(TAIL_SAMPLES / (1.0 - q))} samples, have {len(values)}"
        )
    return quantile(values, q)


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """High-water resident set size in MB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def source_digest(src: str) -> str:
    """SHA-256 over the program's source files (the checkout may lack git)."""
    digest = hashlib.sha256()
    for root, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            if name.endswith((".py", ".c", ".h")):
                path = os.path.join(root, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_commit(root: str) -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def provenance(root: str, seed: int) -> Dict[str, object]:
    """What a result was measured on.  Results whose ``kernel`` or ``nproc``
    differ are never compared."""
    from repro.core.kernel import backend_info, resolve_kernel

    info = backend_info()
    return {
        "git_commit": git_commit(root),
        "src_sha256": source_digest(os.path.join(root, "src")),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "kernel": resolve_kernel(None),
        "native_available": info["native_available"],
        "nproc": len(os.sched_getaffinity(0)),
        "gc_enabled": gc.isenabled(),
        "seed": seed,
    }


def _reference_kernel(rounds: int = 6000) -> int:
    """Fixed interpreter work of the kind the engine does: tuple keys probed
    in and stored into a dict of a few thousand entries."""
    table: Dict[tuple, list] = {}
    total = 0
    state = 0
    for i in range(rounds):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        key = ("k", state & 4095, i & 7)
        entry = table.get(key)
        if entry is None:
            table[key] = [i, key]
        else:
            total += entry[0]
            entry[0] = i
    return total


class SpeedProbe:
    """Samples the host's interpreter speed while a run measures.

    The cores of a shared host slow down and speed up by tens of percent
    over seconds to minutes.  ``factor()`` is the median probe time over
    ``NOMINAL_S``: 1.0 on a host exactly as fast as the reference, 1.5 on
    one 50% slower.  The probe is the benchmark's own code, so a change to
    the program does not move it.
    """

    #: Median probe time on a quiet 2-core x86-64 VM with CPython 3.11.
    NOMINAL_S = 0.002
    #: How much the engine's time moves per unit of probe time, as the slope
    #: of log(engine time) on log(probe time) over alternating samples on
    #: that VM (0.67 to 0.8; 0.6 to 0.94 across ten-seed passes of the gated
    #: workloads): scale by ``factor() ** ELASTICITY``.
    ELASTICITY = 0.75

    def __init__(self, every_core: bool) -> None:
        # Each core of a shared host has neighbours of its own and changes
        # speed on its own.  A program that evaluates in one process is best
        # matched by sampling where that process runs; one whose processes
        # run on every core (the shard workers) by taking the cores in turn.
        self.cpus = sorted(os.sched_getaffinity(0))
        self.every_core = every_core
        self.samples: List[float] = []

    def sample(self, count: int = 1) -> None:
        cpus = self.cpus
        # The collector would scan the program's heap on the probe's
        # allocations; the probe measures the interpreter alone.
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(count):
                if self.every_core:
                    os.sched_setaffinity(0, {cpus[len(self.samples) % len(cpus)]})
                began = perf_counter()
                _reference_kernel()
                self.samples.append(perf_counter() - began)
        finally:
            if self.every_core:
                os.sched_setaffinity(0, cpus)
            if enabled:
                gc.enable()

    def factor(self) -> float:
        ordered = sorted(self.samples)
        return ordered[len(ordered) // 2] / self.NOMINAL_S
