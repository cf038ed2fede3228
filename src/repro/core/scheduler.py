"""The reactor: runs many logical event loops as serial tasks.

The paper gives every tag reference "its own thread of control"
(section 3.2). That is a statement about *logical* concurrency — each
reference processes its queue independently, so a tag that is out of
range never head-of-line blocks a tag that is present. Following
RAFDA's separation of the logical object model from the physical
distribution policy (see PAPERS.md and DESIGN.md decision 7), every
loop is a :class:`ReactorTask` and a backend decides which threads run
it:

* a task's ``step`` runs one scheduling quantum and reports when it
  next wants to run;
* a task is **serial**: its step never runs twice at once (wakeups
  arriving mid-step set a rerun flag), so each reference keeps its
  per-tag FIFO guarantees without extra locking;
* a step never sleeps — a task waiting for a retry interval, a deadline
  or a tag *returns*, and runs again when its deadline passes or an
  external :meth:`ReactorTask.wake` arrives (field events, enqueues).

Time is event-driven: a real clock gets exact timed waits until the
earliest deadline, a :class:`~repro.clock.ManualClock` advance
notifications, so simulated time only needs to move for deadlines to
fire. One step-runner (:meth:`Reactor._claim_locked`,
:meth:`Reactor._run_step`, :meth:`Reactor._finish_locked`) serves three
backends, selected by ``Reactor(mode=...)``:

* ``"threaded"`` (default) — a lazily grown worker pool (default
  ``min(32, 4 × cores)``) plus a timer thread over a deadline heap;
* ``"asyncio"`` — :class:`AsyncioReactor`: steps are callbacks on one
  event loop with one ``call_later`` armed at the earliest deadline, so
  an idle task is a small object (100k idle references per process);
* ``"dedicated"`` — :class:`DedicatedReactor`: one OS thread per task,
  the paper-literal thread per reference and the substrate of every
  :class:`~repro.android.looper.Looper`.

Everything built on tasks — references, the per-port transaction
scheduler, beamers, lease keepers, gateway shards — runs unchanged on
any of them (DESIGN.md decision 14).
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import logging
import os
import threading
from collections import deque
from typing import Callable, Deque, Dict, Hashable, List, Optional, Set, Tuple

from repro.clock import Clock, SystemClock

_log = logging.getLogger(__name__)

# A task step runs one quantum and returns when it next wants to run:
# ``None`` for "idle until woken externally", or an absolute clock time
# ("now or earlier" means immediately).
StepFn = Callable[[], Optional[float]]

_IDLE = 0  # not scheduled; runs only when woken
_QUEUED = 1  # due: a worker, the loop or its own thread will run it
_RUNNING = 2  # its step is executing right now

_REACTOR_MODES = ("threaded", "asyncio", "dedicated")


def default_worker_count() -> int:
    """The default pool bound: ``min(32, 4 × cores)``, at least 1."""
    return max(1, min(32, 4 * (os.cpu_count() or 1)))


class ReactorTask:
    """One logical event loop registered with a :class:`Reactor`.

    The reactor guarantees the ``step`` callable is never executed
    concurrently with itself, and that a :meth:`wake` arriving while a
    step runs leads to another step afterwards (no lost wakeups).
    """

    __slots__ = ("name", "_reactor", "_step", "_state", "_rerun", "_cancelled")

    def __init__(self, reactor: "Reactor", step: StepFn, name: str) -> None:
        self.name = name
        self._reactor = reactor
        self._step = step
        self._state = _IDLE
        self._rerun = False
        self._cancelled = False

    def wake(self) -> None:
        """Schedule a step as soon as possible (coalescing)."""
        self._reactor._wake(self)

    def schedule_at(self, when: float) -> None:
        """Adopt ``when`` (absolute clock time) as a deadline for this task.

        The cheap alternative to :meth:`wake` when nothing needs to run
        *now* but the task's earliest deadline may have moved (e.g. a
        queued write was merged into and inherited a new timeout).
        Deadlines are never removed early: a stale earlier one just
        causes one spurious step that re-evaluates and re-schedules.
        """
        with self._reactor._cond:
            if self._cancelled or self._reactor._stopped:
                return
            self._reactor._schedule_at_locked(self, when)

    def cancel(self, join_timeout: float = 5.0) -> None:
        """Permanently deregister this task.

        Future wakes become no-ops and pending deadlines are ignored. A
        step already executing finishes (its own stop flag governs what
        it does), but no further step runs. Cancelling never starts a
        thread; on the dedicated backend it ends the task's thread and
        joins it (up to ``join_timeout`` seconds, unless called from it).
        """
        self._reactor._cancel(self, join_timeout)

    def __repr__(self) -> str:
        return f"ReactorTask({self.name!r})"


class Reactor:
    """Drives many serial tasks by deadline; the backend picks the threads.

    One reactor per simulated device (see ``AndroidDevice.reactor``);
    all of the device's tag references share it. ``mode`` selects the
    backend and the constructor dispatches: ``Reactor(mode="asyncio")``
    *is* an :class:`AsyncioReactor`, ``Reactor(mode="dedicated")`` a
    :class:`DedicatedReactor`. This class is the ``"threaded"`` worker
    pool, which starts no thread until the first task is woken.
    """

    def __new__(
        cls,
        clock: Optional[Clock] = None,
        max_workers: Optional[int] = None,
        name: str = "reactor",
        mode: str = "threaded",
    ) -> "Reactor":
        if mode not in _REACTOR_MODES:
            raise ValueError(
                f"unknown reactor mode {mode!r}; expected one of {_REACTOR_MODES}"
            )
        if cls is Reactor and mode == "asyncio":
            return super().__new__(AsyncioReactor)
        if cls is Reactor and mode == "dedicated":
            return super().__new__(DedicatedReactor)
        return super().__new__(cls)

    def __init__(
        self,
        clock: Optional[Clock] = None,
        max_workers: Optional[int] = None,
        name: str = "reactor",
        mode: str = "threaded",
    ) -> None:
        self.name = name
        self.mode = mode
        self._clock = clock if clock is not None else SystemClock()
        self._max_workers = max(
            1, max_workers if max_workers is not None else default_worker_count()
        )
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._ready: Deque[ReactorTask] = deque()
        self._timers: List[Tuple[float, int, ReactorTask]] = []  # deadline heap
        self._seq = itertools.count()
        self._workers: List[threading.Thread] = []
        self._idle_workers = 0
        self._timer_thread: Optional[threading.Thread] = None
        self._started = False
        self._stopped = False
        self._steps = 0
        self._crashed = 0
        # An advance-notifying clock wakes us when simulated time moves;
        # any other clock is real time and gets exact timed waits.
        self._clock_notifies = hasattr(self._clock, "add_listener")

    # -- introspection ---------------------------------------------------------

    @property
    def max_workers(self) -> int:
        return self._max_workers

    @property
    def thread_count(self) -> int:
        """Live reactor threads, for tests/benches."""
        with self._cond:
            return sum(1 for thread in self._threads_locked() if thread.is_alive())

    @property
    def steps_executed(self) -> int:
        with self._cond:
            return self._steps

    @property
    def crashed_steps(self) -> int:
        """Steps that raised instead of returning (each one is logged)."""
        with self._cond:
            return self._crashed

    @property
    def owns_current_thread(self) -> bool:
        """True when called from one of this reactor's threads -- the
        affinity-sanitizer's middleware test."""
        current = threading.current_thread()
        with self._cond:
            return any(current is thread for thread in self._threads_locked())

    @property
    def is_stopped(self) -> bool:
        with self._cond:
            return self._stopped

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, mode={self.mode!r})"

    def _threads_locked(self) -> List[threading.Thread]:
        threads = list(self._workers)
        if self._timer_thread is not None:
            threads.append(self._timer_thread)
        return threads

    # -- task registration and lifecycle ---------------------------------------

    def register(self, step: StepFn, name: str = "task") -> ReactorTask:
        """Create a serial task; it stays idle until its first wake."""
        # Backends override _new_task, never register: tracing tools wrap
        # Reactor.register itself to see every task of every backend.
        return self._new_task(step, name)

    def _new_task(self, step: StepFn, name: str) -> ReactorTask:
        return ReactorTask(self, step, name)

    def _cancel(self, task: ReactorTask, join_timeout: float) -> None:
        with self._cond:
            task._cancelled = True

    def stop(self, join_timeout: float = 2.0) -> None:
        """Stop every reactor thread; queued tasks are dropped."""
        with self._cond:
            if self._stopped:
                return
            self._stopped = True
            self._ready.clear()
            self._timers.clear()
            self._cond.notify_all()
            self._halt_locked()
            threads = self._threads_locked()
        if self._clock_notifies and self._started:
            self._clock.remove_listener(self._on_clock_advance)
        current = threading.current_thread()
        for thread in threads:
            if thread is not current:
                thread.join(join_timeout)

    def _halt_locked(self) -> None:
        """Backend hook: tell threads that sleep elsewhere to stop."""

    # -- the shared step-runner ----------------------------------------------------

    def _claim_locked(self, task: ReactorTask) -> bool:
        """Mark a due task as running; ``False`` if it was cancelled in
        the meantime (it then stays idle for good)."""
        if task._cancelled:
            task._state = _IDLE
            return False
        task._state = _RUNNING
        task._rerun = False
        self._steps += 1
        return True

    def _run_step(self, task: ReactorTask) -> Tuple[Optional[float], bool]:
        """Run one step of a claimed task (no lock held); returns
        ``(when, crashed)``. A step that raises is logged and returns
        "idle until woken", so the next wake runs the task again."""
        try:
            return task._step(), False
        except BaseException:  # noqa: BLE001 - a task must not kill its thread
            _log.exception("reactor %r: step of %r raised", self.name, task.name)
            return None, True

    def _finish_locked(
        self, task: ReactorTask, when: Optional[float], crashed: bool
    ) -> None:
        """Apply a step's outcome: a wake that arrived mid-step or a
        deadline already reached reruns the task, a later deadline is
        adopted, ``None`` leaves it idle; a cancel or stop that landed
        during the step wins. A crash is counted in :attr:`crashed_steps`."""
        if crashed:
            self._crashed += 1
        if self._stopped:
            return
        task._state = _IDLE
        if task._cancelled:
            return
        if task._rerun or (when is not None and when <= self._clock.now()):
            self._wake_locked(task)
        elif when is not None:
            self._schedule_at_locked(task, when)

    # -- internals: scheduling --------------------------------------------------

    def _wake(self, task: ReactorTask) -> None:
        with self._cond:
            if not self._stopped:
                self._wake_locked(task)

    def _wake_locked(self, task: ReactorTask) -> None:
        if task._cancelled:
            return
        if task._state == _IDLE:
            task._state = _QUEUED
            self._ensure_started_locked()
            self._dispatch_locked(task)
        elif task._state == _RUNNING:
            task._rerun = True
        # _QUEUED: already scheduled, the wake coalesces.

    def _ensure_started_locked(self) -> None:
        if self._started or self._stopped:
            return
        self._started = True
        if self._clock_notifies:
            self._clock.add_listener(self._on_clock_advance)
        self._start_locked()

    # -- internals: the pool -----------------------------------------------------

    def _start_locked(self) -> None:
        self._timer_thread = threading.Thread(
            target=self._timer_loop, name=f"{self.name}-timer", daemon=True
        )
        self._timer_thread.start()

    def _dispatch_locked(self, task: ReactorTask) -> None:
        """Hand a task that just became due to whatever runs steps."""
        self._ready.append(task)
        if self._idle_workers == 0 and len(self._workers) < self._max_workers:
            worker = threading.Thread(
                target=self._worker_loop,
                name=f"{self.name}-worker-{len(self._workers)}",
                daemon=True,
            )
            self._workers.append(worker)
            worker.start()
        self._cond.notify_all()

    def _schedule_at_locked(self, task: ReactorTask, when: float) -> None:
        heapq.heappush(self._timers, (when, next(self._seq), task))
        self._ensure_started_locked()
        self._cond.notify_all()  # the timer thread re-evaluates its wait

    def _on_clock_advance(self) -> None:
        with self._cond:
            self._cond.notify_all()

    def _worker_loop(self) -> None:
        task: Optional[ReactorTask] = None
        while True:
            with self._cond:
                if task is not None:
                    self._finish_locked(task, when, crashed)
                while not self._ready and not self._stopped:
                    self._idle_workers += 1
                    self._cond.wait()
                    self._idle_workers -= 1
                if self._stopped:
                    return
                task = self._ready.popleft()
                if not self._claim_locked(task):
                    task = None
                    continue
            when, crashed = self._run_step(task)

    def _timer_loop(self) -> None:
        while True:
            with self._cond:
                if self._stopped:
                    return
                now = self._clock.now()
                while self._timers and self._timers[0][0] <= now:
                    _due, _seq, task = heapq.heappop(self._timers)
                    self._wake_locked(task)
                if self._timers and not self._clock_notifies:
                    self._cond.wait(self._timers[0][0] - now)
                else:
                    # Nothing pending, or a ManualClock: an advance (or a
                    # new earlier deadline) notifies us.
                    self._cond.wait()


class AsyncioReactor(Reactor):
    """The coroutine backend: every task steps on one ``asyncio`` loop.

    Selected with ``Reactor(mode="asyncio")``; ``register`` hands out
    ordinary :class:`ReactorTask` objects. A wake posts a ``call_soon``
    that pops one ready task and runs its step inline (steps are short,
    non-blocking quanta by contract — the same contract the worker pool
    relies on). The deadline heap is serviced by **one**
    ``loop.call_later`` armed at the earliest deadline, or by
    ``ManualClock`` advance notifications. An idle task costs no
    handle, timer or stack — what lets one process hold 100k idle
    references (``benchmarks/test_bench_async.py``). The loop thread is
    the backend's only thread.
    """

    def __init__(
        self,
        clock: Optional[Clock] = None,
        max_workers: Optional[int] = None,
        name: str = "reactor",
        mode: str = "asyncio",
    ) -> None:
        super().__init__(clock, max_workers, name, mode="asyncio")
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._loop_thread: Optional[threading.Thread] = None
        # Loop-thread-only: the single armed call_later (real clocks).
        self._timer_handle: Optional[asyncio.TimerHandle] = None
        # Guarded by _cond: deadline the heap is currently serviced up
        # to; a schedule_at later than this needs no extra service pass.
        self._timer_deadline: Optional[float] = None

    def _threads_locked(self) -> List[threading.Thread]:
        return [] if self._loop_thread is None else [self._loop_thread]

    @property
    def loop(self) -> Optional[asyncio.AbstractEventLoop]:
        """The backing event loop (``None`` until the first wake)."""
        with self._cond:
            return self._loop

    def _halt_locked(self) -> None:
        if self._loop is not None:
            try:
                self._loop.call_soon_threadsafe(self._loop.stop)
            except RuntimeError:
                pass  # already closed

    # -- internals: scheduling ----------------------------------------------------

    def _start_locked(self) -> None:
        # Selector loop: the only kind the simulation needs, on any OS.
        self._loop = asyncio.SelectorEventLoop()
        self._loop_thread = threading.Thread(
            target=self._loop_runner, name=f"{self.name}-aioloop", daemon=True
        )
        self._loop_thread.start()

    def _loop_runner(self) -> None:
        try:
            self._loop.run_forever()
        finally:
            self._loop.close()

    def _call_on_loop(self, fn: Callable[[], None]) -> None:
        """Post ``fn`` to the loop thread (thread-safe, shutdown-tolerant)."""
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        if threading.current_thread() is self._loop_thread:
            loop.call_soon(fn)
            return
        try:
            loop.call_soon_threadsafe(fn)
        except RuntimeError:
            pass  # loop closed between the check and the call

    def _dispatch_locked(self, task: ReactorTask) -> None:
        self._ready.append(task)
        self._call_on_loop(self._run_one)

    def _schedule_at_locked(self, task: ReactorTask, when: float) -> None:
        heapq.heappush(self._timers, (when, next(self._seq), task))
        self._ensure_started_locked()
        if self._timer_deadline is None or when < self._timer_deadline:
            self._call_on_loop(self._service_timers)

    def _on_clock_advance(self) -> None:
        self._call_on_loop(self._service_timers)

    # -- internals: the loop -------------------------------------------------------

    def _run_one(self) -> None:
        """Pop one ready task and run its step (loop thread only).

        Exactly one ``_run_one`` callback is posted per append to
        ``_ready``, so one-task-per-callback drains the queue while
        letting loop timers and user coroutines interleave between
        steps.
        """
        with self._cond:
            if self._stopped or not self._ready:
                return
            task = self._ready.popleft()
            if not self._claim_locked(task):
                return
        when, crashed = self._run_step(task)
        with self._cond:
            self._finish_locked(task, when, crashed)

    def _service_timers(self) -> None:
        """Fire due deadlines, re-arm the single timer (loop thread only)."""
        with self._cond:
            if self._stopped:
                return
            now = self._clock.now()
            while self._timers and self._timers[0][0] <= now:
                _due, _seq, task = heapq.heappop(self._timers)
                self._wake_locked(task)
            deadline = self._timers[0][0] if self._timers else None
            self._timer_deadline = deadline
        if self._timer_handle is not None:
            self._timer_handle.cancel()
            self._timer_handle = None
        if deadline is None or self._clock_notifies:
            # An advance-notifying clock re-services on the next advance;
            # nothing to arm — simulated time never passes on its own.
            return
        self._timer_handle = self._loop.call_later(
            max(deadline - now, 0.0), self._service_timers
        )


class _DedicatedTask(ReactorTask):
    """A task of the dedicated backend: its own thread, its own wait
    condition (over the reactor's lock) and its own deadline heap."""

    __slots__ = ("thread", "_signal", "_deadlines")


class DedicatedReactor(Reactor):
    """The thread-per-task backend: ``Reactor(mode="dedicated")``.

    :meth:`register` starts one daemon thread per task, named after the
    task, which waits only for that task: a wake, or its earliest
    deadline — an exact timed wait on a real clock, an advance
    notification on a ``ManualClock``. No pool, no timer thread, no
    poll: a parked task costs a thread stack and no CPU. Cancelling a
    task ends and joins its thread. ``max_workers`` is ignored.
    """

    def __init__(
        self,
        clock: Optional[Clock] = None,
        max_workers: Optional[int] = None,
        name: str = "reactor",
        mode: str = "dedicated",
    ) -> None:
        super().__init__(clock, max_workers, name, mode="dedicated")
        self._tasks: Set[_DedicatedTask] = set()  # live (uncancelled) tasks

    def _threads_locked(self) -> List[threading.Thread]:
        return [task.thread for task in self._tasks]

    def _new_task(self, step: StepFn, name: str) -> ReactorTask:
        task = _DedicatedTask(self, step, name)
        task._signal = threading.Condition(self._lock)
        task._deadlines = []
        task.thread = threading.Thread(
            target=self._task_loop, args=(task,), name=name, daemon=True
        )
        with self._cond:
            if self._stopped:
                task._cancelled = True  # a stopped reactor runs nothing
                return task
            self._ensure_started_locked()
            self._tasks.add(task)
            # Started under the lock: stop() never meets an unjoinable thread.
            task.thread.start()
        return task

    def _cancel(self, task: ReactorTask, join_timeout: float) -> None:
        with self._cond:
            task._cancelled = True
            self._tasks.discard(task)
            task._signal.notify()
        thread = task.thread
        if thread.is_alive() and thread is not threading.current_thread():
            thread.join(join_timeout)

    def _halt_locked(self) -> None:
        for task in self._tasks:
            task._signal.notify()

    # -- internals: scheduling ----------------------------------------------------

    def _start_locked(self) -> None:
        pass  # every task brings its own thread

    def _dispatch_locked(self, task: ReactorTask) -> None:
        task._signal.notify()

    def _schedule_at_locked(self, task: ReactorTask, when: float) -> None:
        heapq.heappush(task._deadlines, when)
        if task._deadlines[0] == when:
            task._signal.notify()  # shorten the thread's timed wait

    def _due_locked(self, task: _DedicatedTask) -> bool:
        """Whether ``task`` should step now: it was woken, or its
        earliest deadline passed (every passed deadline is consumed)."""
        deadlines = task._deadlines
        if task._state == _IDLE and deadlines:
            now = self._clock.now()
            if deadlines[0] <= now:
                while deadlines and deadlines[0] <= now:
                    heapq.heappop(deadlines)
                task._state = _QUEUED
        return task._state == _QUEUED

    def _on_clock_advance(self) -> None:
        with self._cond:
            for task in self._tasks:
                if self._due_locked(task):
                    task._signal.notify()

    def _task_loop(self, task: _DedicatedTask) -> None:
        """A task's thread: wait until the task is due, run one step,
        repeat until the task is cancelled or the reactor stops."""
        ran = False
        while True:
            with self._cond:
                if ran:
                    self._finish_locked(task, when, crashed)
                while not self._due_locked(task):
                    if self._stopped or task._cancelled:
                        return
                    if task._deadlines and not self._clock_notifies:
                        task._signal.wait(task._deadlines[0] - self._clock.now())
                    else:
                        task._signal.wait()
                if self._stopped or not self._claim_locked(task):
                    return
            when, crashed = self._run_step(task)
            ran = True


class PortReadyQueue:
    """Per-port ready-queue of keys (tags) with runnable batched work.

    The per-port transaction scheduler (:mod:`repro.radio.txscheduler`)
    runs as **one** serial :class:`ReactorTask`; this queue is how many
    concurrent producers (references enqueueing work, field events) hand
    that single task the set of tags worth draining, so the reactor can
    give a whole per-port batch to one worker instead of one wakeup per
    operation.

    Marks coalesce (a tag is ready once, however many operations piled
    up) and are **generation-counted**: :meth:`snapshot` returns each
    key with the generation observed, and :meth:`clear` only removes the
    key if no :meth:`mark` landed in between. That closes the race where
    a drain finds a tag idle, a reference enqueues concurrently, and a
    plain clear would eat the fresh mark — the wake that follows the
    mark would then find an empty queue and the work would sleep until
    its timeout. Insertion order is preserved, so tags are drained in
    the order they became ready.

    For the fair cross-tag policies the queue additionally hands out
    **bounded per-tag quanta instead of whole-port batches**: a rotated
    :meth:`snapshot` starts each service round one key past the previous
    round's head, so no tag is structurally first every round, and
    :meth:`has_other` lets a drain loop ask mid-quantum whether any
    co-present tag is waiting (if none is, the quantum is renewed in
    place and the open session survives — fairness never taxes a tag
    that is alone in the field).
    """

    __slots__ = ("_lock", "_generations", "_cursor")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._generations: Dict[Hashable, int] = {}
        self._cursor: Optional[Hashable] = None  # next round starts here

    def mark(self, key: Hashable) -> None:
        """Flag ``key`` as having runnable work (coalescing)."""
        with self._lock:
            self._generations[key] = self._generations.get(key, 0) + 1

    def snapshot(self, rotate: bool = False) -> List[Tuple[Hashable, int]]:
        """The marked keys in ready order, each with its generation.

        With ``rotate=True`` the list starts at the rotation cursor
        (round-robin across calls): successive rotated snapshots begin
        one key later, so repeated service rounds do not always grant
        first service to the same key. A vanished cursor key simply
        falls back to insertion order.
        """
        with self._lock:
            items = list(self._generations.items())
            if rotate and items:
                if len(items) > 1 and self._cursor in self._generations:
                    keys = [key for key, _ in items]
                    start = keys.index(self._cursor)
                    items = items[start:] + items[:start]
                self._cursor = items[1][0] if len(items) > 1 else items[0][0]
            return items

    def has_other(self, key: Hashable) -> bool:
        """Whether any key besides ``key`` is currently marked."""
        with self._lock:
            for marked in self._generations:
                if marked != key:
                    return True
            return False

    def clear(self, key: Hashable, generation: int) -> bool:
        """Unmark ``key`` unless it was re-marked since the snapshot.

        Returns whether the key was removed; ``False`` means a producer
        marked it again and the caller should drain it once more.
        """
        with self._lock:
            if self._generations.get(key) == generation:
                del self._generations[key]
                return True
            return False

    def discard(self, key: Hashable) -> None:
        """Unconditionally unmark ``key`` (tag left the field)."""
        with self._lock:
            self._generations.pop(key, None)

    def __len__(self) -> int:
        with self._lock:
            return len(self._generations)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._generations
