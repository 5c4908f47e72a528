"""End-to-end benchmark of the CER stack: one command, four workloads.

    python3 cerbench/run.py --workload multi-k256 --seed 1 --seconds 8 --trace 0

Run from the repository root; the program is imported from ``src``.

``--trace 0`` measures the end-to-end metrics with production defaults
(statistics off, adaptive dispatch on) and prints them by name with their
units.  ``--trace 1`` is a separate run that wraps the layers' public
functions (``tracing.py``) and prints the per-layer metrics.  Every run checks
its outputs against an oracle outside the timed section; a mismatch makes
``correct`` false and fails every attempted operation.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it,
starting with ``#``, carry the provenance (commit or source hash, Python,
kernel backend, core count, gc state, seed) and a readable breakdown.
Results whose kernel backend or core count differ are not comparable.

``--tiny`` shrinks every workload to a smoke-test size (``selftest.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOAD_NAMES = ("multi-k256", "union-k1", "served-k16", "sharded-k256")
HASH_SEED = "0"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    return parser.parse_args(argv)


def pin_hash_seed() -> None:
    """Re-execute under a fixed ``PYTHONHASHSEED``.

    String hashes are salted per process, so dict layouts, and with them
    the timings of dict-heavy code, change from one process to the next;
    a fixed seed makes every run (and every worker and server child, which
    inherit it) see the same layouts.
    """
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)] + sys.argv[1:], env)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"error: the program's sources are not at {src}", file=sys.stderr)
        return 2
    for path in (HERE, src):
        if path not in sys.path:
            sys.path.insert(0, path)

    from catalog import END_TO_END, MOVES, PER_LAYER, UNITS
    from common import provenance
    from report import breakdown

    scale = 0.05 if args.tiny else 1.0
    print("# provenance " + json.dumps(provenance(ROOT, args.seed), sort_keys=True))
    if args.workload == "served-k16":
        import served

        runner = served.run_traced if args.trace else served.run_e2e
    else:
        import inproc

        runner = inproc.run_traced if args.trace else inproc.run_e2e
    result = runner(args.workload, args.seed, args.seconds, scale)

    expected = [m["name"] for m in (PER_LAYER if args.trace else END_TO_END)]
    metrics = result["metrics"]
    if sorted(metrics) != sorted(expected):
        raise KeyError(f"metric set mismatch: {sorted(set(metrics) ^ set(expected))}")
    for key, value in sorted(result.get("notes", {}).items()):
        print(f"# note {key} = {value}")
    if "ledger" in result:
        print(f"# self time per layer over {result['notes']['traced_tuples']} traced tuples:")
        for line in breakdown(result["ledger"], result["notes"]["traced_tuples"]):
            print(line)
    for name in expected:
        moves = f"  (moves {MOVES[name]})" if name in MOVES else ""
        print(f"# {name} = {metrics[name]:.6g} {UNITS[name]}{moves}")
    if not result["correct"]:
        print("# OUTPUT MISMATCH against the oracle: this run is invalid", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": bool(result["correct"]),
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": {
                    name: {"value": float(metrics[name]), "unit": UNITS[name]} for name in expected
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    pin_hash_seed()
    sys.exit(main())
