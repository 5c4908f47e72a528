"""Seeded inputs for the four benchmark workloads.

Queries are fixed per workload: query texts, functions that build DSL
patterns, or a raw automaton.  Streams are endless generators of
:class:`repro.cq.schema.Tuple` seeded by the run's ``--seed``: the same seed
gives the same tuples, so a run consumes a prefix of the stream and its
oracle regenerates that prefix.
The program under test receives only these generated inputs.
"""

from __future__ import annotations

import random
from typing import Callable, Iterator, List

from repro.core.pcea import PCEA, PCEATransition
from repro.core.predicates import ProjectionEquality, RelationPredicate
from repro.cq.schema import Tuple
from repro.engine.dsl import atom, conjunction

PAYLOAD_DOMAIN = 1_000

# multi-k256 / sharded-k256: grouped stars, half HCQ strings, half DSL
# patterns with a private filter threshold on their first arm.
STAR_QUERIES = 256
STAR_GROUPS = 4
STAR_ARMS = 3
STAR_KEYS = 32
STAR_WINDOW = 128
STAR_SELECTIVITY = 0.2

# union-k1: one automaton, 8 labelled readings of each arm tuple unioned
# into one pending state per group.
UNION_GROUPS = 4
UNION_VARIANTS = 8
UNION_KEYS = 8
UNION_ARM_FRACTION = 0.75
UNION_WINDOW = 64

# served-k16: constant-guarded single-atom HCQ strings; every event matches
# exactly one query, so the engine does little and the server path shows.
SERVED_QUERIES = 16
SERVED_WINDOW = 16


def star_query_specs(num_queries: int = STAR_QUERIES) -> List[object]:
    """Query specs in registration order: even ids are HCQ strings, odd ids
    are zero-argument functions that build DSL patterns (building one is part
    of set-up, like parsing a string)."""
    base = int(PAYLOAD_DOMAIN * STAR_SELECTIVITY)
    specs: List[object] = []
    for q in range(num_queries):
        g = q % STAR_GROUPS
        if q % 2 == 0:
            arms = ", ".join(f"G{g}R{j}(x, y{j})" for j in range(1, STAR_ARMS + 1))
            head = ", ".join(["x"] + [f"y{j}" for j in range(1, STAR_ARMS + 1)])
            specs.append(f"S{q}({head}) <- {arms}")
        else:
            specs.append(_star_pattern(g, base + q, base))
    return specs


def _star_pattern(g: int, private: int, shared: int) -> Callable[[], object]:
    def build():
        parts = [atom(f"G{g}R1", "x", "y1", filters=[("y1", "<", private)])]
        parts.extend(
            atom(f"G{g}R{j}", "x", f"y{j}", filters=[(f"y{j}", "<", shared)])
            for j in range(2, STAR_ARMS + 1)
        )
        return conjunction(*parts)

    return build


def materialise(spec: object) -> object:
    """A query spec as the engine takes it: text as is, a pattern built."""
    return spec if isinstance(spec, str) else spec()


def star_tuples(seed: int) -> Iterator[Tuple]:
    """Uniform group, relation, join key and payload."""
    rng = random.Random(seed)
    relations = [f"G{g}R{j}" for g in range(STAR_GROUPS) for j in range(1, STAR_ARMS + 1)]
    while True:
        yield Tuple(rng.choice(relations), (rng.randrange(STAR_KEYS), rng.randrange(PAYLOAD_DOMAIN)))


def union_automaton() -> PCEA:
    """The ``union_storm`` shape: per group, ``UNION_VARIANTS`` arm
    transitions into one pending state and one closing transition joining it
    on attribute 0 (``ProjectionEquality``, the fast-path key)."""
    states = set()
    transitions = []
    final = set()
    for g in range(UNION_GROUPS):
        arm, closing = f"G{g}A", f"G{g}C"
        pending, accept = ("q", g), ("f", g)
        states.update((pending, accept))
        final.add(accept)
        for k in range(UNION_VARIANTS):
            transitions.append(
                PCEATransition(frozenset(), RelationPredicate(arm), {}, {f"g{g}v{k}"}, pending)
            )
        transitions.append(
            PCEATransition(
                frozenset({pending}),
                RelationPredicate(closing),
                {pending: ProjectionEquality({arm: (0,)}, {closing: (0,)})},
                {f"g{g}close"},
                accept,
            )
        )
    return PCEA(states=states, transitions=transitions, final=final)


def union_tuples(seed: int) -> Iterator[Tuple]:
    """Arm tuples with probability ``UNION_ARM_FRACTION``, else closing ones."""
    rng = random.Random(seed)
    while True:
        g = rng.randrange(UNION_GROUPS)
        relation = f"G{g}A" if rng.random() < UNION_ARM_FRACTION else f"G{g}C"
        yield Tuple(relation, (rng.randrange(UNION_KEYS), rng.randrange(PAYLOAD_DOMAIN)))


def served_queries() -> List[str]:
    return [f"E{i}(x, y) <- E({i}, x, y)" for i in range(SERVED_QUERIES)]


def served_tuples(seed: int) -> Iterator[Tuple]:
    """Each event carries one query's guard value, so it matches one query."""
    rng = random.Random(seed)
    while True:
        yield Tuple("E", (rng.randrange(SERVED_QUERIES), rng.randrange(64), rng.randrange(PAYLOAD_DOMAIN)))

