"""Per-layer self time, measured from outside the program.

:class:`Tracer` replaces public functions and methods of the program's
layers with wrappers that count calls and accumulate *self* time: a call's
elapsed time minus the part spent in wrapped calls below it.  Nothing in the
program is edited; the wrappers are installed with ``setattr`` on the owning
class or module and removed again by :meth:`Tracer.uninstall`.

Accounting.  Each wrapper reads the clock twice.  Work outside every wrapped
call (the benchmark's own loop) is *unattributed*.  The wrappers' own cost is
calibrated once per run (:meth:`Tracer.calibrate`) and moved out of the
layers into an *instrumentation* bucket, so that over a traced interval

    sum(layer self times) + instrumentation + unattributed == wall

The sum holds by construction; what can be wrong is the split, so two
checks test it against things measured independently:

* the calibration loop gives the wrappers' cost per call, but inside the
  program a call costs more (cold caches, real arguments).  An untraced
  *twin* engine, fed the same tuples in alternating chunks, shows how much
  time the wrappers really added; :func:`fit_scale` scales the calibrated
  costs to match and refuses a run whose scale lies outside
  ``SCALE_RANGE`` (the calibration then says nothing about the program).
  The fit corrects the total wrapper cost, not its split between a call's
  own window and its caller's;
* a calibration that charges more wrapper cost to a layer than the layer
  spent leaves that layer (or the unattributed rest) negative, so
  :func:`check_ledger` refuses a traced interval in which any bucket is
  below ``-LEDGER_TOLERANCE`` of the wall time.  Negative values within the
  tolerance are reported as they are.

Both kernel backends are covered: the native backend binds
``extend``/``union``/``enumerate`` per arena instance at construction, from
the ``_*_native`` class attributes, so those are wrapped too (before any
engine is built).  Codec functions are wrapped under every module name that
imports them directly (``from repro.runtime.frames import encode_frame``
copies the binding).
"""

from __future__ import annotations

import statistics
import weakref
from time import perf_counter
from typing import Callable, Dict, List, Tuple as Tup

#: Most negative accepted bucket of the ledger, as a share of traced wall time.
LEDGER_TOLERANCE = 0.02


#: Accepted range of the factor between the wrappers' cost inside the
#: program and their calibrated cost.
SCALE_RANGE = (0.5, 2.5)


def fit_scale(ledger: Dict[str, object], traced_s: float, untraced_s: float, strict: bool = True) -> float:
    """The factor that makes the calibrated instrumentation of ``ledger``
    equal the time the wrappers added: traced call time less the untraced
    twin's call time over the same tuples.  ``strict=False`` (smoke-test
    sizes, too short to fit) reports the factor without refusing."""
    scale = (traced_s - untraced_s) / ledger["calibrated_s"]
    low, high = SCALE_RANGE
    if strict and not low <= scale <= high:
        raise RuntimeError(
            f"traced run refused: the wrappers added {scale:.3f} x their calibrated cost "
            f"(accepted {low}-{high})"
        )
    return scale


def settle(ledger: Dict[str, object], scale: float) -> Dict[str, object]:
    """Fill in corrected self seconds per layer, instrumentation and the
    unattributed rest, with the calibrated wrapper cost times ``scale``."""
    inner = ledger["inner_s"] * scale
    outer = ledger["outer_s"] * scale
    corrected = {
        name: raw - ledger["calls"][name] * inner - ledger["child_calls"][name] * outer
        for name, raw in ledger["raw_self_s"].items()
    }
    wall = ledger["wall_s"]
    unattributed = wall - ledger["root_s"] - ledger["root_calls"] * outer
    buckets = dict(corrected, **{"(unattributed)": unattributed})
    lowest = min(buckets, key=buckets.get)
    ledger.update(
        scale=scale,
        self_s=corrected,
        instrumentation_s=ledger["calibrated_s"] * scale,
        unattributed_s=unattributed,
        lowest_bucket=lowest,
        lowest_share=buckets[lowest] / wall if wall > 0 else 0.0,
    )
    return ledger


def check_ledger(ledger: Dict[str, object]) -> None:
    """Refuse a ledger whose calibration took more out of a bucket than it held."""
    if ledger["lowest_share"] < -LEDGER_TOLERANCE:
        raise RuntimeError(
            f"traced ledger refused: {ledger['lowest_bucket']} is "
            f"{ledger['lowest_share']:.4f} of the wall time (tolerance {LEDGER_TOLERANCE})"
        )


class Layer:
    """Counters of one layer: calls, self seconds and a few outcomes."""

    __slots__ = ("name", "calls", "self_s", "child_calls", "top_calls", "true", "bytes")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.self_s = 0.0
        self.child_calls = 0  # wrapped calls made directly from this layer
        self.top_calls = 0  # calls not nested in a call of the same layer
        self.true = 0  # top-level calls that returned a truthy value
        self.bytes = 0  # bytes in or out (codec layers)


class Tracer:
    """Installs timing wrappers and keeps the per-layer ledger (one thread)."""

    def __init__(self) -> None:
        self.layers: Dict[str, Layer] = {}
        # One frame per active wrapped call: [child seconds, child calls, layer].
        self._stack: List[list] = [[0.0, 0, None]]
        # (owner, attribute, original or None when inherited, replacement)
        self._patches: List[Tup[object, str, object, object]] = []
        self._wrapped: Dict[Tup[int, str], Callable] = {}
        self.inner_s = 0.0  # calibrated wrapper cost inside a call's window
        self.outer_s = 0.0  # calibrated wrapper cost charged to the caller
        self.arenas: "weakref.WeakSet" = weakref.WeakSet()
        self._started = 0.0
        self._wall = 0.0  # traced seconds of the interval before the last resume
        self._active = True

    # -------------------------------------------------------------- wrapping
    def layer(self, name: str) -> Layer:
        layer = self.layers.get(name)
        if layer is None:
            layer = self.layers[name] = Layer(name)
        return layer

    def _make(self, fn: Callable, layer: Layer, mode: str) -> Callable:
        stack = self._stack

        def wrapper(*args, **kwargs):
            top = stack[-1][2] is not layer
            frame = [0.0, 0, layer]
            stack.append(frame)
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if mode == "consume":
                    result = list(result)
            finally:
                elapsed = perf_counter() - started
                stack.pop()
                parent = stack[-1]
                parent[0] += elapsed
                parent[1] += 1
                layer.calls += 1
                layer.self_s += elapsed - frame[0]
                layer.child_calls += frame[1]
            if top:
                layer.top_calls += 1
                if mode == "consume":
                    layer.true += len(result)
                elif mode == "bytes_in":
                    layer.bytes += len(args[0])
                elif mode == "bytes_out":
                    layer.bytes += len(result)
                elif result:
                    layer.true += 1
            if mode == "consume":
                return iter(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap(self, owner: object, attr: str, layer: str, mode: str = "") -> None:
        """Replace ``owner.attr`` (a class or module attribute) by a wrapper.

        ``mode``: ``"consume"`` drains a returned iterator inside the timed
        window (an enumeration is timed over its full iteration) and counts
        its items; ``"bytes_in"``/``"bytes_out"`` add the length of the first
        argument / of the result to the layer's byte count.
        """
        own = attr in vars(owner)
        # A class's own entry, not the bound lookup (keeps staticmethods and
        # plain functions as they are); an inherited one is shadowed.
        original = vars(owner)[attr] if own else getattr(owner, attr)
        key = (id(original), layer)
        wrapped = self._wrapped.get(key)
        if wrapped is None:
            wrapped = self._wrapped[key] = self._make(original, self.layer(layer), mode)
        self._patches.append((owner, attr, original if own else None, wrapped))
        setattr(owner, attr, wrapped)

    def wrap_subclasses(self, base: type, attrs: Tup[str, ...], layer: str) -> None:
        """Wrap every ``attrs`` method that ``base`` or a subclass defines itself."""
        seen = set()
        pending = [base]
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            pending.extend(cls.__subclasses__())
            for attr in attrs:
                if attr in cls.__dict__:
                    self.wrap(cls, attr, layer)

    def _restore(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def uninstall(self) -> None:
        if self._active:
            self._restore()
        self._patches.clear()

    def suspend(self) -> None:
        """Put the originals back and stop the interval's clock, so that an
        engine built before installing runs untraced in between."""
        self._wall += perf_counter() - self._started
        self._restore()
        self._active = False

    def resume(self) -> None:
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)
        self._active = True
        self._started = perf_counter()

    # ------------------------------------------------------------- intervals
    def reset(self) -> None:
        """Zero every counter and start a traced interval."""
        for layer in self.layers.values():
            layer.calls = layer.child_calls = layer.top_calls = layer.true = layer.bytes = 0
            layer.self_s = 0.0
        self._stack[:] = [[0.0, 0, None]]
        self._wall = 0.0
        self._started = perf_counter()

    def ledger(self, scale: float = 1.0) -> Dict[str, object]:
        """Close the interval: its counters, settled (:func:`settle`) with
        the calibrated wrapper cost times ``scale``."""
        root = self._stack[0]
        layers = self.layers.values()
        ledger = {
            "wall_s": self._wall + (perf_counter() - self._started if self._active else 0.0),
            "raw_self_s": {layer.name: layer.self_s for layer in layers},
            "calls": {layer.name: layer.calls for layer in layers},
            "child_calls": {layer.name: layer.child_calls for layer in layers},
            "top_calls": {layer.name: layer.top_calls for layer in layers},
            "true": {layer.name: layer.true for layer in layers},
            "bytes": {layer.name: layer.bytes for layer in layers},
            "root_s": root[0],
            "root_calls": root[1],
            "inner_s": self.inner_s,
            "outer_s": self.outer_s,
        }
        ledger["calibrated_s"] = (
            sum(ledger["calls"].values()) * self.inner_s
            + (sum(ledger["child_calls"].values()) + root[1]) * self.outer_s
        )
        return settle(ledger, scale)

    # ----------------------------------------------------------- calibration
    def calibrate(self, calls: int = 20_000, repeats: int = 5) -> None:
        """Measure the wrappers' own cost per call, inside and outside the
        timed window, with a wrapped one-argument no-op (most wrapped
        methods take a tuple) called from a wrapped loop."""
        inner: List[float] = []
        outer: List[float] = []
        child_layer, parent_layer = Layer("calib.child"), Layer("calib.parent")

        def noop(value):
            return value

        def bare_loop(fn, n):
            for i in range(n):
                fn(i)

        def empty_loop(n):
            for i in range(n):
                pass

        child = self._make(noop, child_layer, "")
        parent = self._make(bare_loop, parent_layer, "")
        saved = self._stack[:]
        for _ in range(repeats):
            self._stack[:] = [[0.0, 0, None]]
            child_layer.self_s = parent_layer.self_s = 0.0
            started = perf_counter()
            empty_loop(calls)
            empty = perf_counter() - started
            started = perf_counter()
            bare_loop(noop, calls)
            bare = perf_counter() - started
            parent(child, calls)
            body = max(0.0, bare - empty) / calls
            inner.append(max(0.0, child_layer.self_s / calls - body))
            outer.append(max(0.0, (parent_layer.self_s - empty) / calls - body))
        self._stack[:] = saved
        self.inner_s = statistics.median(inner)
        self.outer_s = statistics.median(outer)

    # -------------------------------------------------------------- program
    def install_engine_layers(self) -> None:
        """Wrap the evaluation stack: compile, registry, dispatch, unary
        predicates, join keys, ``DS_w``, runtime, enumeration and the fire
        loop.  Call before building any engine."""
        import repro.engine.compiler  # noqa: F401  (defines a UnaryPredicate subclass)
        from repro.core import arena as arena_mod
        from repro.core.adaptive import AdaptiveState
        from repro.core.dispatch import TransitionDispatchIndex
        from repro.core.evaluation import StreamingEvaluator
        from repro.core.predicates import EqualityPredicate, UnaryPredicate
        from repro.multi import registry as registry_mod
        from repro.multi.engine import MultiQueryEngine
        from repro.multi.merged_index import MergedDispatchIndex
        from repro.runtime.core import RuntimeBackedEngine, StreamRuntime

        self.wrap(registry_mod, "parse_query", "compile.parse")
        self.wrap(registry_mod, "hcq_to_pcea", "compile.build")
        self.wrap(registry_mod, "compile_pattern", "compile.build")
        self.wrap(MultiQueryEngine, "register", "registry.register")
        self.wrap(MultiQueryEngine, "unregister", "registry.unregister")

        self.wrap(MergedDispatchIndex, "candidates_for", "dispatch")
        self.wrap(TransitionDispatchIndex, "candidates_for", "dispatch")
        self.wrap(AdaptiveState, "plan_for", "dispatch")
        self.wrap(AdaptiveState, "flush", "dispatch")
        self.wrap_subclasses(UnaryPredicate, ("holds",), "unary")
        self.wrap_subclasses(EqualityPredicate, ("left_key", "right_key"), "joinkey")

        arena_cls = arena_mod.ArenaDataStructure
        for attr in ("extend", "_extend_native"):
            self.wrap(arena_cls, attr, "ds.extend")
        for attr in ("union", "_union_native"):
            self.wrap(arena_cls, attr, "ds.union")
        for attr in ("enumerate", "_enumerate_native"):
            self.wrap(arena_cls, attr, "enumerate", mode="consume")
        for attr in ("sweep", "sweep_upto", "release_lanes"):
            self.wrap(StreamRuntime, attr, "runtime.sweep")

        self.wrap(StreamingEvaluator, "process_many", "engine.loop")
        self.wrap(MultiQueryEngine, "process_many", "engine.loop")
        self.wrap(RuntimeBackedEngine, "ingest_batch", "engine.loop")

        # Remember every arena built while installed (resident bytes and
        # union-copy counters are read from them at the end of a run).
        original_init = arena_cls.__dict__["__init__"]
        arenas = self.arenas

        def init(ds, *args, **kwargs):
            original_init(ds, *args, **kwargs)
            arenas.add(ds)

        self._patches.append((arena_cls, "__init__", original_init, init))
        arena_cls.__init__ = init

    def install_codec_layers(self) -> None:
        """Wrap the frame codec under every name the program imports it by."""
        from repro.net import client as client_mod
        from repro.net import server as server_mod
        from repro.runtime import frames as frames_mod
        from repro.shard import coordinator as coordinator_mod
        from repro.shard import frames as shard_frames_mod
        from repro.shard import worker as worker_mod

        for module in (frames_mod, shard_frames_mod, coordinator_mod, worker_mod, server_mod, client_mod):
            if hasattr(module, "encode_frame"):
                self.wrap(module, "encode_frame", "frames.encode", mode="bytes_out")
            for name in ("decode_frame", "decode_body"):
                if hasattr(module, name):
                    self.wrap(module, name, "frames.decode", mode="bytes_in")

    def install_shard_layers(self) -> None:
        from repro.shard.coordinator import ShardedEngine
        from repro.shard.worker import ShardWorker

        self.wrap(ShardedEngine, "process_many", "shard.coordinator")
        self.wrap(ShardWorker, "handle", "shard.worker")

    def install_server_layers(self) -> None:
        """The server's synchronous steps and the event loop's idle wait."""
        import selectors

        from repro.net import protocol
        from repro.net import server as server_mod

        self.wrap(server_mod.IngestServer, "_fan_out", "net.server")
        self.wrap(server_mod.IngestServer, "_control", "net.server")
        self.wrap(protocol, "validate_client_message", "net.server")
        self.wrap(selectors.DefaultSelector, "select", "net.idle")
