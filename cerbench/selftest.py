"""Smoke test of the benchmark itself: every workload once, at tiny size.

    python3 cerbench/selftest.py

Runs each workload with ``--tiny`` in both modes (end-to-end and traced)
and checks the result line's schema: exactly the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a correct run with no failed
operation; exactly the catalog's metrics, each a finite number with the
catalog's unit.  It also checks that ``BENCHMARK.json`` matches
``catalog.py`` and that the benchmark exits non-zero, printing no result,
in a directory that holds only ``BENCHMARK.json`` and ``cerbench``.
Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from catalog import END_TO_END, PER_LAYER, UNGATED, UNITS, WORKLOADS, benchmark_json  # noqa: E402

RUN = [sys.executable, os.path.join("cerbench", "run.py")]


def _result(stdout: str) -> dict:
    lines = stdout.strip().splitlines()
    if not lines:
        raise AssertionError("no output")
    return json.loads(lines[-1])


def check_result(result: dict, trace: int) -> None:
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise AssertionError(f"result keys {sorted(result)}")
    if result["correct"] is not True:
        raise AssertionError("outputs did not match the oracle")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise AssertionError(f"attempted = {result['attempted']!r}")
    if result["failed"] != 0:
        raise AssertionError(f"failed = {result['failed']!r}")
    expected = sorted(m["name"] for m in (PER_LAYER if trace else END_TO_END))
    if sorted(result["metrics"]) != expected:
        raise AssertionError(f"metric names differ: {sorted(set(result['metrics']) ^ set(expected))}")
    for name, entry in result["metrics"].items():
        if sorted(entry) != ["unit", "value"] or entry["unit"] != UNITS[name]:
            raise AssertionError(f"{name}: {entry!r}")
        if not isinstance(entry["value"], (int, float)) or not math.isfinite(entry["value"]):
            raise AssertionError(f"{name}: value {entry['value']!r}")
        if not trace and entry["value"] <= 0:
            raise AssertionError(f"{name}: end-to-end metric is not positive")


def check_benchmark_json() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        on_disk = json.load(handle)
    if on_disk != benchmark_json():
        raise AssertionError("BENCHMARK.json differs from catalog.py (python3 cerbench/catalog.py)")


def check_refuses_without_program() -> None:
    bare = tempfile.mkdtemp(prefix=".cerbench-selftest-", dir=ROOT)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "cerbench"), ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run(
            RUN + ["--workload", "union-k1", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=180,
        )
        if out.returncode == 0 or out.stdout.strip():
            raise AssertionError("the benchmark ran without the program's sources")
    finally:
        shutil.rmtree(bare)


def main() -> int:
    check_benchmark_json()
    check_refuses_without_program()
    print("ok  BENCHMARK.json matches the catalog; refuses to run without the program")
    for workload in (w["name"] for w in WORKLOADS + UNGATED):
        for trace in (0, 1):
            out = subprocess.run(
                RUN
                + ["--workload", workload, "--seed", "7", "--seconds", "0.4", "--trace", str(trace), "--tiny"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=180,
            )
            if out.returncode != 0:
                print(out.stdout[-2000:], out.stderr[-4000:], sep="\n", file=sys.stderr)
                print(f"FAIL {workload} trace={trace}: exit {out.returncode}", file=sys.stderr)
                return 1
            try:
                check_result(_result(out.stdout), trace)
            except (AssertionError, ValueError) as exc:
                print(f"FAIL {workload} trace={trace}: {exc}", file=sys.stderr)
                return 1
            print(f"ok  {workload} trace={trace}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
