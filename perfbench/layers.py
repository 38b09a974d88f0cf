"""Tracing from outside the program: pass-through wrappers and a recorder.

The traced run wraps the objects the benchmark itself hands to public
constructors (chunker, cipher profile, transports, services, the dedup
engine, the fingerprint cache) and records one span per call. Wrappers
never change arguments or results, so a traced run stores the same
bytes as an untraced one (the benchmark's tests pin this).

Span names follow the paper's step names where it has one (Tables 1/2:
chunking, key seeding, encryption, write, chunk fetch, recipe fetch,
decryption), so the wrapper totals reconcile with the client's own
``StageTimer`` rows of the same name.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

Measure = Callable[[tuple, object], Tuple[int, int]]


class Recorder:
    """Per-span busy time, call, item and byte counts, plus op coverage.

    Busy time is wall time inside the call, so when several threads of
    one process run (the backup pipeline's stages) it includes waiting
    for the interpreter lock.

    Every span is also appended to the operation that is open on the
    calling thread, or to the shared operation when the call comes from
    a thread the benchmark did not start (the upload/restore pipeline's
    workers), so :meth:`end_op` can compute how much of an op's wall
    time the wrapped calls cover. Coverage is an interval union, so a
    span nested in another (service inside transport) never counts
    twice.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.busy: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.items: Dict[str, int] = defaultdict(int)
        self.bytes: Dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._shared_op: Optional[List[Tuple[float, float]]] = None
        #: Set outside measured phases (set-up, warm-up, checks).
        self.paused = True

    def record(
        self, name: str, start: float, end: float, items: int, nbytes: int
    ) -> None:
        if self.paused:
            return
        spans = getattr(self._local, "op", None)
        with self._lock:
            self.busy[name] += end - start
            self.calls[name] += 1
            self.items[name] += items
            self.bytes[name] += nbytes
            if spans is None:
                spans = self._shared_op
            if spans is not None:
                spans.append((start, end))

    def begin_op(self, shared: bool) -> None:
        """Open an op on this thread (``shared``: also on foreign threads)."""
        spans: List[Tuple[float, float]] = []
        self._local.op = spans
        if shared:
            with self._lock:
                self._shared_op = spans

    def end_op(self, start: float, end: float) -> float:
        """Close this thread's op; returns the wall time its spans cover."""
        spans = self._local.op
        self._local.op = None
        with self._lock:
            if self._shared_op is spans:
                self._shared_op = None
            intervals = sorted(spans)
        covered = 0.0
        reach = start
        for lo, hi in intervals:
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return covered


def _timed(recorder: Recorder, name: str, fn, measure: Optional[Measure]):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        end = time.perf_counter()
        items, nbytes = measure(args, result) if measure else (0, 0)
        recorder.record(name, start, end, items, nbytes)
        return result

    return wrapper


class Traced:
    """Forward every attribute to ``target``; time the listed methods.

    ``methods`` maps a method name to ``(span name, measure)``, where
    ``measure(args, result)`` returns the call's ``(items, bytes)``.
    ``children`` maps attribute names to already-wrapped sub-objects.
    """

    def __init__(
        self,
        target,
        recorder: Recorder,
        methods: Dict[str, Tuple[str, Optional[Measure]]],
        children: Optional[Dict[str, object]] = None,
    ) -> None:
        wrapped = {
            attr: _timed(recorder, name, getattr(target, attr), measure)
            for attr, (name, measure) in methods.items()
            if hasattr(target, attr)
        }
        wrapped.update(children or {})
        self.__dict__["_target"] = target
        self.__dict__["_wrapped"] = wrapped

    def __getattr__(self, attr):
        wrapped = self.__dict__["_wrapped"]
        if attr in wrapped:
            return wrapped[attr]
        return getattr(self.__dict__["_target"], attr)


def trace_chunker(chunker, recorder: Recorder):
    """``chunk`` returns a generator, so each step is timed on its own."""

    def chunk(data):
        iterator = iter(chunker.chunk(data))
        while True:
            start = time.perf_counter()
            try:
                piece = next(iterator)
            except StopIteration:
                recorder.record("chunking", start, time.perf_counter(), 0, 0)
                return
            end = time.perf_counter()
            recorder.record("chunking", start, end, 1, len(piece))
            yield piece

    return Traced(chunker, recorder, {}, children={"chunk": chunk})


# -- measures: (args, result) -> (items, bytes) -------------------------------


def _crypto(args, result):
    return 1, len(args[1])


def _hashes(args, result):
    return len(args[0].hash_vectors), 0


def _put_chunks(args, result):
    chunks = args[0].chunks
    return len(chunks), sum(len(data) for _, data in chunks)


def _get_chunks(args, result):
    return len(args[0].fingerprints), sum(len(c) for c in result.chunks)


# -- wrapping the objects the benchmark builds --------------------------------


def trace_profile(profile, recorder: Recorder):
    return Traced(
        profile,
        recorder,
        {
            "encrypt": ("encryption", _crypto),
            "decrypt": ("decryption", _crypto),
        },
    )


def trace_km_transport(transport, recorder: Recorder):
    return Traced(
        transport,
        recorder,
        {
            "keygen": ("key seeding", _hashes),
            "keygen_batched": ("key seeding", _hashes),
        },
    )


def trace_km_service(service, recorder: Recorder):
    return Traced(
        service,
        recorder,
        {
            "handle_keygen": ("km.service", _hashes),
            "handle_keygen_batched": ("km.service", _hashes),
        },
    )


def trace_provider_transport(transport, recorder: Recorder):
    return Traced(
        transport,
        recorder,
        {
            "put_chunks": ("write.chunks", _put_chunks),
            "get_chunks": ("chunk fetch", _get_chunks),
            "put_recipes": ("write.recipes", None),
            "get_recipes": ("recipe fetch", None),
        },
    )


def trace_provider_service(service, recorder: Recorder):
    return Traced(
        service,
        recorder,
        {
            name: ("provider.service", None)
            for name in (
                "handle_put_chunks",
                "handle_get_chunks",
                "handle_put_recipes",
                "handle_get_recipes",
            )
        },
    )


def trace_engine(engine, recorder: Recorder):
    """A ``DedupEngine`` whose index and container store are wrapped too.

    The provider's concurrent facade stores through the engine's
    ``index``/``containers`` attributes, so the store path is timed
    there; restores and flushes are timed at the engine.
    """
    index = Traced(
        engine.index,
        recorder,
        {"get": ("storage.store", None), "put": ("storage.store", None)},
    )
    containers = Traced(
        engine.containers, recorder, {"append": ("storage.store", None)}
    )
    return Traced(
        engine,
        recorder,
        {
            "load_many": ("storage.load", None),
            "flush": ("storage.flush", None),
        },
        children={"index": index, "containers": containers},
    )


def trace_cache(cache, recorder: Recorder):
    return Traced(
        cache,
        recorder,
        {
            "lookup": ("pipeline.fp_cache", None),
            "insert": ("pipeline.fp_cache", None),
        },
    )


#: The paper's step names (Tables 1/2), which the client's StageTimer
#: uses too; spans named "<step>" or "<step>.<detail>" roll up into them.
PAPER_STEPS = (
    "chunking",
    "key seeding",
    "encryption",
    "write",
    "chunk fetch",
    "recipe fetch",
    "decryption",
)


def step_totals(recorder: Recorder) -> Dict[str, float]:
    """Wrapper busy time per paper step name."""
    totals = {step: 0.0 for step in PAPER_STEPS}
    for name, seconds in recorder.busy.items():
        step = name.split(".")[0]
        if step in totals:
            totals[step] += seconds
    return totals
