"""served-k16: an ``IngestServer`` in a child process, driven over TCP.

The generator is this process, with two connections and two threads:

* the main thread ingests on one connection.  First an **open-loop** phase:
  frames of ``OPEN_FRAME`` tuples fall due at a fixed offered rate
  (``OPEN_RATE``, about 40% of the saturation measured on a 2-core box),
  whether or not earlier frames were acked.  Each frame's latency runs from
  its *due* time to its ack, so a stall also delays the frames queued
  behind it, and the generator's own lateness is reported
  (``loadgen.late_p99_ms``).  Then a **closed-loop** phase keeps
  ``CLOSED_WINDOW`` frames of ``CLOSED_FRAME`` tuples in flight and gives
  the throughput.
* a subscriber thread holds the 16 subscriptions on the other connection,
  reads every match frame and, every ``CHURN_EVERY`` ingested frames,
  unsubscribes one query and subscribes it again, so merged-index writes
  run beside ingest.

An ack is a match barrier for the connection that ingested, so it bounds
match delivery.  Outputs are checked after the run: the child logs the
stream position of every register and unregister, the acks give every
frame's positions, and a direct in-process ``MultiQueryEngine`` replays that
order; its digest must equal the digest of the matches the subscriber
received.
"""

from __future__ import annotations

import asyncio
import bisect
import gc
import multiprocessing
import select
import socket
import statistics
import sys
import threading
from collections import deque
from itertools import islice
from time import perf_counter
from typing import Dict, List, Optional, Tuple as Tup

import workloads
from common import Digest, peak_rss_mb, quantile, tail_quantile
from report import arena_counters, layer_metrics
from tracing import Tracer, check_ledger

OPEN_RATE = 8_000  # tuples per second offered in the open-loop phase
OPEN_FRAME = 10
CLOSED_FRAME = 64
CLOSED_WINDOW = 8
WINDOW_FRAMES = 32
SPIN_SECONDS = 0.001
CHURN_EVERY = 50  # ingest frames between two churn operations
OPEN_SHARE = 0.75  # share of --seconds spent in the open-loop phase
#: A run is invalid when the generator's mean lateness exceeds this share of
#: the open-loop frame period: it then fell behind for long enough that the
#: offered load was not the stated one.  Single late frames are not a
#: concern of validity, as latency runs from the due time and counts them.
MAX_LATE_SHARE = 0.25
SETUP_REPEATS = 3
#: Share of --seconds the traced run's untraced closed-loop reference takes.
TRACE_REFERENCE_SHARE = 0.25
CHILD_TIMEOUT = 60.0


class BenchmarkInvalid(RuntimeError):
    """The measurement itself failed its preconditions (not the program)."""


# ------------------------------------------------------------------ child
class _Recorder:
    """Instance-level wrappers on the served engine: batch service times and
    the stream position of every register/unregister."""

    def __init__(self, engine) -> None:
        self.batches: List[Tup[int, int, float]] = []  # (base, count, seconds)
        self.controls: List[Tup] = []  # (op, position, handle id, query, window)
        ingest_batch = engine.ingest_batch
        register = engine.register
        unregister = engine.unregister

        def timed_ingest(tuples):
            began = perf_counter()
            base, outputs = ingest_batch(tuples)
            self.batches.append((base, len(tuples), perf_counter() - began))
            return base, outputs

        def logged_register(query, window, name=None):
            handle = register(query, window, name=name)
            self.controls.append(("register", engine.position, handle.id, query, window))
            return handle

        def logged_unregister(handle):
            unregister(handle)
            self.controls.append(("unregister", engine.position, handle.id, None, None))

        engine.ingest_batch = timed_ingest
        engine.register = logged_register
        engine.unregister = logged_unregister


def child_main(conn, traced: bool) -> None:
    """Serve one engine until told to stop; send back what was recorded."""
    from repro.multi import MultiQueryEngine
    from repro.net import IngestServer

    tracer = None
    if traced:
        tracer = Tracer()
        tracer.calibrate()
        tracer.install_engine_layers()
        tracer.install_codec_layers()
        tracer.install_server_layers()
    engine = MultiQueryEngine(collect_stats=traced)
    recorder = _Recorder(engine)
    marks: Dict[str, object] = {}

    async def serve() -> Dict[str, object]:
        server = IngestServer(engine)
        await server.start()
        loop = asyncio.get_running_loop()
        stopped = asyncio.Event()

        def on_message() -> None:
            message = conn.recv()
            if message == "setup" and tracer is not None:
                marks["setup_ledger"] = tracer.ledger()
            elif message == "begin" and tracer is not None:
                marks["position"] = engine.position
                tracer.reset()
            elif message == "end" and tracer is not None:
                marks["ledger"] = tracer.ledger()
                marks["tuples"] = engine.position - marks["position"]
                marks["observed"] = engine.observe()
                marks["hash_entries"] = engine.hash_table_size()
                marks["arenas"] = arena_counters(list(tracer.arenas))
            elif message == "stop":
                stopped.set()

        loop.add_reader(conn.fileno(), on_message)
        conn.send(("ready", server.port))
        await stopped.wait()
        loop.remove_reader(conn.fileno())
        observed = server.observe()
        await server.stop()
        return observed

    observed = asyncio.run(serve())
    if tracer is not None:
        tracer.uninstall()
    conn.send(
        (
            "result",
            {
                "observe": observed,
                "batches": recorder.batches,
                "controls": recorder.controls,
                "peak_rss_mb": peak_rss_mb(),
                "marks": marks,
            },
        )
    )
    conn.close()


class Child:
    """The server child process and its control pipe."""

    def __init__(self, traced: bool = False) -> None:
        ctx = multiprocessing.get_context("spawn")
        self.conn, child_end = ctx.Pipe()
        self.process = ctx.Process(target=child_main, args=(child_end, traced), daemon=True)
        self.process.start()
        child_end.close()
        if not self.conn.poll(CHILD_TIMEOUT):
            self.kill()
            raise RuntimeError("server child did not start")
        kind, self.port = self.conn.recv()
        if kind != "ready":
            self.kill()
            raise RuntimeError(f"server child sent {kind!r} instead of its port")

    def send(self, message: str) -> None:
        self.conn.send(message)

    def stop(self) -> Dict[str, object]:
        self.conn.send("stop")
        if not self.conn.poll(CHILD_TIMEOUT):
            self.kill()
            raise RuntimeError("server child did not stop")
        kind, result = self.conn.recv()
        self.process.join(CHILD_TIMEOUT)
        self.conn.close()
        return result

    def kill(self) -> None:
        if self.process.is_alive():
            self.process.kill()
        self.process.join(CHILD_TIMEOUT)


# --------------------------------------------------------------- generator
class Conn:
    """One framed TCP connection to the server."""

    def __init__(self, port: int) -> None:
        from repro.runtime.frames import FrameAssembler, encode_frame

        self._encode = encode_frame
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=CHILD_TIMEOUT)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._assembler = FrameAssembler()

    def send(self, message: Tup) -> None:
        self.sock.sendall(self._encode(message))

    def poll(self, timeout: float) -> List[Tup]:
        """Messages that arrive within ``timeout`` seconds (maybe none)."""
        readable, _, _ = select.select([self.sock], [], [], max(0.0, timeout))
        if not readable:
            return []
        data = self.sock.recv(1 << 20)
        if not data:
            raise ConnectionError("server closed the connection")
        return list(self._assembler.feed(data))

    def request(self, message: Tup, *replies: str) -> Tup:
        """Send and wait for one of ``replies`` (before any other traffic)."""
        self.send(message)
        while True:
            for reply in self.poll(CHILD_TIMEOUT):
                if reply[0] in replies:
                    return reply
                raise RuntimeError(f"unexpected reply {reply!r:.80}")

    def close(self) -> None:
        self.sock.close()


class Subscriber(threading.Thread):
    """Reads matches for all 16 queries and churns one subscription at a time."""

    def __init__(self, conn: Conn, queries: List[str], handles: List[int], sender: "Sender") -> None:
        super().__init__(name="cerbench-subscriber", daemon=True)
        self.conn = conn
        self.queries = queries
        self.handles = handles
        self.sender = sender
        self.matches: List[Tup[int, list]] = []
        self.churns = 0
        self.controls = 0
        self.refused = 0
        self.error: Optional[BaseException] = None
        self.finish = threading.Event()
        self._pending: Optional[Tup] = None
        self._done = False

    def run(self) -> None:
        try:
            while not self._done:
                for message in self.conn.poll(0.02):
                    self._dispatch(message)
                if self._pending is None:
                    if self.finish.is_set():
                        self._pending = ("ping",)
                        self.conn.send(("ping", "final"))
                    elif self.sender.frames // CHURN_EVERY > self.churns:
                        index = self.churns % len(self.queries)
                        self.churns += 1
                        self._pending = ("unsubscribe", index)
                        self.controls += 1
                        self.conn.send(("unsubscribe", self.handles[index]))
        except BaseException as exc:  # surfaced by the main thread
            self.error = exc

    def _dispatch(self, message: Tup) -> None:
        kind = message[0]
        if kind == "matches":
            self.matches.append((message[1], message[2]))
        elif kind == "unsubscribed":
            index = self._pending[1]
            self._pending = ("subscribe", index)
            self.controls += 1
            self.conn.send(("subscribe", self.queries[index], workloads.SERVED_WINDOW, None))
        elif kind == "subscribed":
            self.handles[self._pending[1]] = message[1]
            self._pending = None
        elif kind == "refused":
            self.refused += 1
            self._pending = None
        elif kind == "pong":
            self._done = True
        elif kind == "error":
            raise RuntimeError(f"server error: {message[1]}")


class Sender:
    """The ingest connection: frames, acks and per-frame timings."""

    def __init__(self, conn: Conn, stream) -> None:
        self.conn = conn
        self.stream = stream
        self.frames = 0  # read by the subscriber thread
        self.sent: List[list] = []  # frame tuples by seq
        self.acks: Dict[int, Tup[int, int, float]] = {}  # seq -> (base, count, time)
        self.errors = 0

    def _send(self, tuples: list) -> int:
        seq = len(self.sent)
        self.sent.append(tuples)
        self.conn.send(("ingest", seq, tuples))
        self.frames += 1
        return seq

    def _take(self, timeout: float) -> int:
        got = 0
        for message in self.conn.poll(timeout):
            if message[0] == "ack":
                self.acks[message[1]] = (message[2], message[3], perf_counter())
                got += 1
            else:
                self.errors += 1
        return got

    def drain(self) -> None:
        while len(self.acks) < len(self.sent):
            if not self._take(CHILD_TIMEOUT):
                raise RuntimeError(f"{len(self.sent) - len(self.acks)} frames were never acked")

    def open_loop(self, seconds: float) -> Tup[List[float], List[float], List[int]]:
        """Frames due at ``OPEN_RATE``; latency from due time to ack."""
        period = OPEN_FRAME / OPEN_RATE
        frames = [list(islice(self.stream, OPEN_FRAME)) for _ in range(int(seconds / period))]
        due: Dict[int, float] = {}
        late: List[float] = []
        start = perf_counter() + 0.005
        for index, tuples in enumerate(frames):
            deadline = start + index * period
            while True:
                now = perf_counter()
                if now >= deadline:
                    break
                # Sleep until shortly before the due time, then poll: a
                # wake-up from sleep can itself be late by a millisecond.
                self._take(max(0.0, deadline - now - SPIN_SECONDS))
            late.append(now - deadline)
            due[self._send(tuples)] = deadline
        self.drain()
        seqs = sorted(due)
        latencies = [self.acks[seq][2] - due[seq] for seq in seqs]
        return latencies, late, seqs

    def closed_loop(self, seconds: float = 0.0, tuples: int = 0) -> Tup[int, float]:
        """``CLOSED_WINDOW`` frames in flight, for ``seconds`` or ``tuples``.

        Returns the tuples sent and the throughput: the median, over windows
        of ``WINDOW_FRAMES`` acks, of tuples acked per second.
        """
        first = len(self.sent)
        started = perf_counter()
        sent = 0
        while (seconds and perf_counter() - started < seconds) or (tuples and sent < tuples):
            while len(self.sent) - len(self.acks) < CLOSED_WINDOW and (not tuples or sent < tuples):
                frame = list(islice(self.stream, CLOSED_FRAME if not tuples else min(CLOSED_FRAME, tuples - sent)))
                self._send(frame)
                sent += len(frame)
            self._take(CHILD_TIMEOUT)
        self.drain()
        acked = sorted((self.acks[seq][2], self.acks[seq][1]) for seq in range(first, len(self.sent)))
        rates = [
            sum(size for _, size in acked[start + 1 : start + WINDOW_FRAMES + 1])
            / (acked[start + WINDOW_FRAMES][0] - acked[start][0])
            for start in range(0, len(acked) - WINDOW_FRAMES, WINDOW_FRAMES)
        ]
        return sent, statistics.median(rates) if rates else sent / (acked[-1][0] - started)


def _start(traced: bool = False):
    """Spawn the server and subscribe the 16 queries (the timed set-up)."""
    child = Child(traced)
    conn = Conn(child.port)
    handles = []
    for query in workloads.served_queries():
        reply = conn.request(("subscribe", query, workloads.SERVED_WINDOW, None), "subscribed", "refused")
        if reply[0] != "subscribed":
            raise RuntimeError(f"subscribe refused: {reply[1]}")
        handles.append(reply[1])
    return child, conn, handles


def _setup(repeats: int) -> Tup[float, tuple]:
    times = []
    started_child = None
    for round_ in range(repeats):
        gc.collect()
        began = perf_counter()
        started_child = _start()
        times.append(perf_counter() - began)
        if round_ < repeats - 1:
            child, conn, _ = started_child
            conn.close()
            child.stop()
    return statistics.median(times), started_child


def _serve_run(started, seed: int, phases) -> Dict[str, object]:
    """Drive one server child through ``phases`` and check its outputs.

    ``phases`` is a list of ``("open", seconds)``, ``("closed", seconds)``,
    ``("closed-n", tuples)`` and ``("mark", "setup"|"begin"|"end")`` steps;
    a mark tells a traced child where its ledger intervals start and end.
    """
    child, sub_conn, handles = started
    queries = workloads.served_queries()
    sender = None
    subscriber = None
    results: Dict[str, object] = {}
    previous = sys.getswitchinterval()
    # The generator must not stall its own schedule: its two threads share
    # one interpreter lock, so a short switch interval keeps the sender on
    # time while the subscriber decodes, and collector pauses over the
    # received matches are kept out of the run (the server child runs
    # with the interpreter's defaults).
    sys.setswitchinterval(0.0005)
    gc.disable()
    try:
        ingest_conn = Conn(child.port)
        sender = Sender(ingest_conn, workloads.served_tuples(seed))
        subscriber = Subscriber(sub_conn, queries, handles, sender)
        subscriber.start()
        for kind, amount in phases:
            if kind == "open":
                results["open"] = sender.open_loop(amount)
            elif kind == "closed":
                results["closed"] = sender.closed_loop(seconds=amount)
            elif kind == "closed-n":
                results["closed"] = sender.closed_loop(tuples=amount)
            elif kind == "mark":
                child.send(amount)
        subscriber.finish.set()
        subscriber.join(CHILD_TIMEOUT)
        if subscriber.is_alive():
            raise RuntimeError("subscriber did not finish")
        if subscriber.error is not None:
            raise subscriber.error
        ingest_conn.close()
        sub_conn.close()
        child_result = child.stop()
    except BaseException:
        child.kill()
        raise
    finally:
        gc.enable()
        sys.setswitchinterval(previous)

    # Rebuild the committed order from the acks and replay it directly.
    total = sum(len(frame) for frame in sender.sent)
    order: List[object] = [None] * total
    for seq, frame in enumerate(sender.sent):
        base, size, _ = sender.acks[seq]
        order[base : base + size] = frame
    holes = sum(1 for item in order if item is None)
    served = Digest()
    flat = []
    for handle, batch in subscriber.matches:
        for position, valuations in batch:
            flat.append((position, handle, valuations))
    flat.sort(key=lambda item: (item[0], item[1]))
    for position, handle, valuations in flat:
        served.add(position, handle, valuations)
    expected = _replay(order, child_result["controls"]) if not holes else None
    observed = child_result["observe"]
    failed = (
        holes
        + subscriber.refused
        + sender.errors
        + observed["shed"]
        + observed["protocol_errors"]
    )
    correct = expected == served.hexdigest() and failed == 0
    results.update(
        {
            "correct": correct,
            "attempted": len(sender.sent) + len(queries) + subscriber.controls,
            "failed": failed if correct else len(sender.sent) + len(queries) + subscriber.controls,
            "child": child_result,
            "sender": sender,
            "subscriber": subscriber,
            "outputs": served.outputs,
        }
    )
    return results


def _replay(order: List[object], controls: List[Tup]) -> str:
    """The oracle: the committed order with the logged registry changes."""
    from repro.multi import MultiQueryEngine

    engine = MultiQueryEngine()
    handles = {}
    digest = Digest()
    pending = deque(controls)
    position = 0
    while position < len(order) or pending:
        while pending and pending[0][1] == position - 1:
            op, _, handle_id, query, window = pending.popleft()
            if op == "register":
                handle = engine.register(query, window)
                if handle.id != handle_id:
                    return "handle ids diverged"
                handles[handle_id] = handle
            else:
                engine.unregister(handles.pop(handle_id))
        if position >= len(order):
            if pending:
                return "registry changes after the last tuple"
            break
        stop = min(len(order), position + 1024)
        if pending:
            stop = min(stop, pending[0][1] + 1)
        digest.add_multi(position, engine.process_many(order[position:stop]))
        position = stop
    return digest.hexdigest()


def _latency_metrics(open_result, scale: float) -> Tup[float, float, float]:
    latencies, late, _ = open_result
    tail = tail_quantile if scale >= 1 else quantile
    late_p99 = tail(late, 0.99)
    period = OPEN_FRAME / OPEN_RATE
    late_mean = sum(late) / len(late)
    # At smoke-test sizes the start-up of the generator's threads is most of
    # the open-loop phase, so validity is judged on full-size runs only.
    if scale >= 1 and late_mean > MAX_LATE_SHARE * period:
        raise BenchmarkInvalid(
            f"generator mean lateness {late_mean * 1e3:.3f} ms exceeds "
            f"{MAX_LATE_SHARE:g} x the {period * 1e3:.3f} ms frame period"
        )
    return quantile(latencies, 0.5), tail(latencies, 0.99), late_p99


def run_e2e(name: str, seed: int, seconds: float, scale: float) -> Dict[str, object]:
    setup_s, started = _setup(SETUP_REPEATS)
    run = _serve_run(
        started,
        seed,
        [("open", seconds * OPEN_SHARE), ("closed", seconds * (1 - OPEN_SHARE))],
    )
    p50, p99, late_p99 = _latency_metrics(run["open"], scale)
    closed_tuples, throughput = run["closed"]
    return {
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            "throughput_tps": throughput,
            "latency_p50_ms": p50 * 1e3,
            "latency_p99_ms": p99 * 1e3,
            "setup_s": setup_s,
            "peak_rss_mb": run["child"]["peak_rss_mb"],
        },
        "notes": {
            "open_frames": len(run["open"][0]),
            "offered_tps": OPEN_RATE,
            "late_p99_ms": late_p99 * 1e3,
            "closed_tuples": closed_tuples,
            "churns": run["subscriber"].churns,
            "outputs": run["outputs"],
            "batches": run["child"]["observe"]["batches"],
        },
    }


def _net_metrics(run) -> Dict[str, float]:
    """Service time per batch and the rest of each open-loop frame's latency."""
    batches = run["child"]["batches"]
    bases = [base for base, _, _ in batches]
    latencies, late, seqs = run["open"]
    non_service = []
    for latency, seq in zip(latencies, seqs):
        base, size, _ = run["sender"].acks[seq]
        last = base + size - 1
        index = bisect.bisect_right(bases, last) - 1
        non_service.append(latency - batches[index][2])
    open_positions = {run["sender"].acks[seq][0] for seq in seqs}
    lo = min(open_positions)
    hi = max(run["sender"].acks[seq][0] + run["sender"].acks[seq][1] for seq in seqs)
    service = [seconds for base, _, seconds in batches if lo <= base < hi]
    observed = run["child"]["observe"]
    return {
        "net.service_ms_p50": quantile(service, 0.5) * 1e3,
        "net.non_service_ms_p50": quantile(non_service, 0.5) * 1e3,
        "net.coalesced_batch_mean": observed["tuples_in"] / max(1, observed["batches"]),
        "net.peak_queue_depth": observed["peak_queue_depth"],
        "loadgen.late_p99_ms": quantile(late, 0.99) * 1e3,
    }


def run_traced(name: str, seed: int, seconds: float, scale: float) -> Dict[str, object]:
    """An untraced run (net split, reference wall), then a traced child
    over the same number of closed-loop tuples.

    The engine runs in the child, out of reach of an untraced twin, so the
    ledger keeps the calibrated wrapper cost unscaled (``tracing.fit_scale``
    is not applied): layer self times here include the wrappers' extra cost
    inside the program.
    """
    share = seconds * TRACE_REFERENCE_SHARE
    reference = _serve_run(_start(), seed, [("open", share), ("closed", share)])
    extra = _net_metrics(reference)
    closed_tuples, reference_tps = reference["closed"]

    traced = _serve_run(
        _start(traced=True),
        seed,
        [("mark", "setup"), ("mark", "begin"), ("closed-n", closed_tuples), ("mark", "end")],
    )
    marks = traced["child"]["marks"]
    ledger = marks["ledger"]
    check_ledger(ledger)
    check_ledger(marks["setup_ledger"])
    _, traced_tps = traced["closed"]
    metrics = layer_metrics(
        ledger=ledger,
        setup_ledger=marks["setup_ledger"],
        # The churn unregisters queries inside the traced interval.
        unregister_ledger=ledger,
        tuples=max(1, marks["tuples"]),
        stats=marks["observed"]["stats"],
        evicted=marks["observed"]["evicted"],
        hash_entries=marks["hash_entries"],
        arenas=marks["arenas"],
        transitions=_transitions(),
        # Time per tuple traced over time per tuple untraced.
        overhead_ratio=reference_tps / traced_tps,
        extra=extra,
    )
    correct = reference["correct"] and traced["correct"]
    metrics["error_rate"] = (reference["failed"] + traced["failed"]) / (
        reference["attempted"] + traced["attempted"]
    )
    return {
        "correct": correct,
        "attempted": reference["attempted"] + traced["attempted"],
        "failed": reference["failed"] + traced["failed"],
        "metrics": metrics,
        "notes": {
            "traced_tuples": marks["tuples"],
            "reference_closed_tuples": closed_tuples,
            "ledger_lowest": f"{ledger['lowest_bucket']} {ledger['lowest_share']:.4f}",
        },
        "ledger": ledger,
    }


def _transitions() -> int:
    from repro.multi import compile_query

    return sum(len(compile_query(query).transitions) for query in workloads.served_queries())
