"""Per-layer CPU attribution from outside the program.

:class:`Tracer` wraps public entry points of each ``repro`` module for
the duration of a ``with`` block and records one span per call: name,
layer, wall start/end, thread CPU, parent span and the operation it
belongs to. A span's *self* CPU is its ``thread_time`` minus that of its
child spans on the same thread (the parent comes from a thread-local
stack). Spans are kept in memory and written once, at the end, as
Chrome trace-event JSON that Perfetto loads.

Reactor steps are wrapped where they enter the program: the tracer
wraps ``Reactor.register`` so every step callable is timed, and the
task name tells which layer the step belongs to (``txsched-*`` is the
radio scheduler, ``tagref-*`` a tag reference, ``gw-shard-*`` a gateway
shard drain). Tasks register while the workload is built, so the runner
installs the tracer before ``build()`` and switches recording on
(``active``) only once the build is done.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

WALL = time.perf_counter
CPU = time.thread_time

#: Spans kept for the Chrome trace; later spans are counted, not kept.
MAX_SPANS = 200_000

#: Reactor task-name prefix -> layer of the step.
STEP_LAYERS = (
    ("txsched-", "radio"),
    ("tagref-", "reference"),
    ("gw-shard-", "gateway.shard"),
    ("gw-report-", "gateway.reporter"),
)


def _uid_of(obj) -> Optional[str]:
    uid = getattr(obj, "uid_hex", None)
    if uid is None:
        reference = getattr(obj, "reference", None)
        uid = getattr(reference, "uid_hex", None)
    return uid


class LayerTotals:
    """Per-layer self CPU and per-name call counts and CPU."""

    def __init__(self) -> None:
        self.self_cpu: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.cpu_by_name: Dict[str, float] = {}


class _ThreadState:
    """One thread's open-span stack and running per-name totals (no
    locking on the hot path: only its own thread writes it)."""

    __slots__ = ("stack", "by_name", "ident")

    def __init__(self) -> None:
        self.stack: List[list] = []
        # name -> [layer, calls, cpu, self cpu, direct child spans]
        self.by_name: Dict[str, list] = {}
        self.ident = threading.get_ident()


class Tracer:
    """Span wrappers on public entry points: :meth:`install` before the
    workload is built, :meth:`uninstall` after it is torn down."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[_ThreadState] = []
        self._ids = itertools.count(1)
        self.spans: List[tuple] = []
        self.queue_waits: List[float] = []
        self._patches: List[Tuple[object, str, object]] = []
        self.origin = WALL()
        # Wrappers are installed before the workload is built (reactor
        # steps are wrapped when registered) but record nothing until
        # the traced half of the run switches this on.
        self.active = False
        # The wrapper's own CPU per span (see calibrate): ``inside`` lands
        # in the span's self time, ``outside`` in its parent's.
        self.inside = 0.0
        self.outside = 0.0

    # -- recording ------------------------------------------------------------

    def _thread_state(self) -> _ThreadState:
        state = self._local.state = _ThreadState()
        with self._lock:
            self._threads.append(state)
        return state

    @property
    def totals(self) -> LayerTotals:
        """Totals merged over every thread that recorded a span, with the
        calibrated span overhead taken back out of each figure."""
        merged = LayerTotals()
        with self._lock:
            threads = list(self._threads)
        inside, outside = self.inside, self.outside
        for state in threads:
            for name, (layer, calls, cpu, self_cpu, children) in list(state.by_name.items()):
                self_cpu = max(0.0, self_cpu - calls * inside - children * outside)
                cpu = max(0.0, cpu - calls * inside - children * (inside + outside))
                merged.self_cpu[layer] = merged.self_cpu.get(layer, 0.0) + self_cpu
                merged.calls[name] = merged.calls.get(name, 0) + calls
                merged.cpu_by_name[name] = merged.cpu_by_name.get(name, 0.0) + cpu
        return merged

    def calibrate(self, calls: int = 20_000, repeats: int = 3) -> None:
        """Measure the wrapper's own CPU per span on this host.

        A wrapped parent calls a wrapped no-op ``calls`` times; the
        no-op's self time (less a bare call) is the overhead inside a
        span's window, the parent's self time per call (less a bare
        loop) the overhead a span leaves in its parent's window.
        """
        noop = lambda: None  # noqa: E731
        leaf = self.span(noop, "calibration.leaf", "calibration")

        def bare() -> None:
            for _ in range(calls):
                noop()

        def loop() -> None:
            for _ in range(calls):
                leaf()

        root = self.span(loop, "calibration.root", "calibration")
        insides, outsides = [], []
        self.active = True
        try:
            for _ in range(repeats):
                started = CPU()
                bare()
                bare_cpu = CPU() - started
                root()
                by_name = self._local.state.by_name
                leaf_self = by_name.pop("calibration.leaf")[3]
                root_self = by_name.pop("calibration.root")[3]
                insides.append((leaf_self - bare_cpu) / calls)
                outsides.append((root_self - bare_cpu) / calls)
        finally:
            self.active = False
            del self.spans[:]
        self.inside = max(0.0, sorted(insides)[len(insides) // 2])
        self.outside = max(0.0, sorted(outsides)[len(outsides) // 2])

    @property
    def dropped_spans(self) -> int:
        return max(0, sum(self.totals.calls.values()) - len(self.spans))

    def span(self, fn: Callable, name: str, layer: str,
             op_of: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped so that every call records one span."""
        tracer = self
        ids = self._ids
        spans = self.spans
        local = self._local
        new_state = self._thread_state

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            try:
                state = local.state
            except AttributeError:
                state = new_state()
            stack = state.stack
            span_id = next(ids)
            frame = [span_id, 0.0, 0]
            stack.append(frame)
            start = WALL()
            cpu_start = CPU()
            try:
                return fn(*args, **kwargs)
            finally:
                cpu = CPU() - cpu_start
                end = WALL()
                stack.pop()
                if stack:
                    parent_frame = stack[-1]
                    parent_frame[1] += cpu
                    parent_frame[2] += 1
                self_cpu = cpu - frame[1]
                acc = state.by_name.get(name)
                if acc is None:
                    acc = state.by_name[name] = [layer, 0, 0.0, 0.0, 0]
                acc[1] += 1
                acc[2] += cpu
                acc[3] += self_cpu
                acc[4] += frame[2]
                if len(spans) < MAX_SPANS:
                    op = None
                    if op_of is not None:
                        try:
                            op = op_of(*args)
                        except Exception:  # noqa: BLE001 - labels are best effort
                            op = None
                    parent = stack[-1][0] if stack else None
                    spans.append((name, layer, start, end, cpu, self_cpu,
                                  state.ident, parent, span_id, op))

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing wrappers -------------------------------------------------------

    def patch(self, owner, attribute: str, layer: str,
              op_of: Optional[Callable] = None, static: bool = False) -> None:
        original = owner.__dict__[attribute]
        function = original.__func__ if static else original
        name = f"{owner.__name__}.{attribute}"
        wrapped = self.span(function, name, layer, op_of)
        setattr(owner, attribute, staticmethod(wrapped) if static else wrapped)
        self._patches.append((owner, attribute, original))

    def install(self) -> None:
        from repro.android.looper import Looper
        from repro.clock import ManualClock
        from repro.core.nfc_activity import NFCActivity
        from repro.core.reference import TagReference
        from repro.core.scheduler import Reactor
        from repro.gateway.gateway import FleetGateway
        from repro.gateway.reporter import GatewayReporter
        from repro.gateway.shard import IngestShard
        from repro.gson.gson import Gson
        from repro.leasing.manager import LeaseManager
        from repro.ndef.message import NdefMessage
        from repro.radio.port import NfcAdapterPort, TagSession
        from repro.tags.tag import SimulatedTag
        from repro.things import activity as thing_activity
        from repro.things.thing import Thing

        def tag_arg(_self, tag, *_rest):
            return tag.uid_hex

        def ref_self(ref, *_rest):
            return ref.uid_hex

        def ref_op(ref, operation=None, *_rest):
            op_id = getattr(operation, "op_id", None)
            return f"{ref.uid_hex}#{op_id}" if op_id is not None else ref.uid_hex

        def event_arg(reporter, kind, tag_uid, *_rest):
            return f"{reporter.station}/{tag_uid}"

        for attribute in ("open_session", "read_ndef", "write_ndef"):
            self.patch(NfcAdapterPort, attribute, "radio", tag_arg)
        for attribute in ("read_ndef", "write_ndef"):
            self.patch(TagSession, attribute, "radio", tag_arg)
            self.patch(SimulatedTag, attribute, "tags", lambda tag: tag.uid_hex)
        self.patch(NdefMessage, "to_bytes", "ndef")
        self.patch(NdefMessage, "from_bytes", "ndef", static=True)
        self.patch(Gson, "to_jsonable", "gson")
        self.patch(Gson, "from_jsonable", "gson")
        self.patch(Thing, "save_async", "things", _uid_of)
        self.patch(thing_activity._ThingReadConverter, "convert", "things")  # noqa: SLF001
        self.patch(thing_activity._ThingWriteConverter, "convert", "things")  # noqa: SLF001
        self.patch(NFCActivity, "on_new_intent", "discovery")
        for attribute in ("read", "write", "read_raw", "write_raw", "batch_poll"):
            self.patch(TagReference, attribute, "reference", ref_self)
        self.patch(TagReference, "batch_execute", "reference", ref_op)
        self.patch(ManualClock, "advance", "clock")
        for attribute in ("acquire", "renew", "release", "write_guarded"):
            self.patch(LeaseManager, attribute, "leasing",
                       lambda manager, *_: manager.reference.uid_hex)
        self.patch(GatewayReporter, "record", "gateway.reporter", event_arg)
        self.patch(GatewayReporter, "flush", "gateway.reporter",
                   lambda reporter: reporter.station)
        self.patch(FleetGateway, "submit_batch", "gateway.shard")
        self.patch(IngestShard, "submit_many", "gateway.shard")
        self.patch(IngestShard, "submit", "gateway.shard")
        # The views are applied per batch inside the drain step; this
        # private batch method is the only seam that is not per event.
        self.patch(IngestShard, "_apply_batch", "gateway.views")
        self.patch(FleetGateway, "snapshot", "gateway.views")
        self._patch_looper(Looper)
        self._patch_register(Reactor)
        self.calibrate()

    def _patch_looper(self, looper_class) -> None:
        original = looper_class.__dict__["post_delayed"]
        span = self.span
        waits = self.queue_waits

        tracer = self

        def post_delayed(looper, runnable, delay_seconds):
            if not tracer.active:
                return original(looper, runnable, delay_seconds)
            posted = WALL() + delay_seconds

            def timed():
                waits.append(max(0.0, WALL() - posted))
                return runnable()

            return original(looper, span(timed, "Looper.run", "looper"), delay_seconds)

        looper_class.post_delayed = post_delayed
        self._patches.append((looper_class, "post_delayed", original))

    def _patch_register(self, reactor_class) -> None:
        original = reactor_class.__dict__["register"]
        span = self.span

        def register(reactor, step, name="task"):
            layer = next(
                (layer for prefix, layer in STEP_LAYERS if name.startswith(prefix)),
                "reactor",
            )
            return original(reactor, span(step, f"step:{layer}", layer), name)

        reactor_class.register = register
        self._patches.append((reactor_class, "register", original))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    # -- reading ------------------------------------------------------------------

    def step_cpu(self) -> float:
        """CPU inside wrapped reactor steps, all layers."""
        return sum(cpu for name, cpu in self.totals.cpu_by_name.items()
                   if name.startswith("step:"))

    def write_chrome_trace(self, path: str) -> str:
        """Write the kept spans as Chrome trace events; returns the path."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        events = []
        for name, layer, start, end, cpu, self_cpu, tid, parent, span_id, op in self.spans:
            events.append({
                "name": name, "cat": layer, "ph": "X", "pid": 1, "tid": tid,
                "ts": (start - self.origin) * 1e6, "dur": (end - start) * 1e6,
                "args": {"id": span_id, "parent": parent, "op": op,
                         "cpu_us": cpu * 1e6, "self_cpu_us": self_cpu * 1e6},
            })
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": {"dropped_spans": self.dropped_spans}}, handle)
        return os.path.relpath(path, os.getcwd())


def thread_cpu_seconds() -> Dict[str, float]:
    """CPU seconds per live thread name, from ``/proc`` (Linux).

    Used for the reactor's own overhead: the CPU its threads spent
    outside the wrapped steps. Clock-tick resolution (10 ms) is fine for
    totals over a multi-second run. Returns ``{}`` where ``/proc`` is
    missing.
    """
    ticks = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100
    names = {thread.native_id: thread.name for thread in threading.enumerate()}
    out: Dict[str, float] = {}
    for native_id, name in names.items():
        try:
            with open(f"/proc/self/task/{native_id}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        out[name] = (int(fields[11]) + int(fields[12])) / ticks
    return out
