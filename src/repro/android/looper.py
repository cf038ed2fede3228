"""Looper / Handler: the Android message-queue threading model.

Each simulated device runs one main looper on its own daemon thread; every
UI callback and every MORENA listener is posted here, which is what keeps
listener execution off the middleware's threads (paper section 3.2:
"listeners ... are always asynchronously scheduled for execution in the
activity's main thread").

The looper supports immediate and delayed posts, a ``sync`` barrier for
tests (post a no-op and wait until it drains), and clean shutdown. Time
for delayed posts flows through the injectable clock so manual-clock
simulations stay deterministic.

The pump is one :class:`~repro.core.scheduler.ReactorTask` on a private
``Reactor(mode="dedicated")``: the task's thread (``looper-<name>``) is
the looper thread, and the reactor does the waiting -- an exact timed
wait for the next delayed post on a real clock, an advance notification
on a :class:`~repro.clock.ManualClock`. A post that becomes the head of
the queue wakes the task (or moves its deadline); every other post is
picked up by the step already due before it.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import traceback
from typing import Callable, List, Optional, Tuple

from repro.clock import Clock, SystemClock
from repro.core.scheduler import Reactor
from repro.errors import LooperError

Runnable = Callable[[], None]


class Looper:
    """A message queue pumped by a single dedicated thread."""

    def __init__(self, name: str, clock: Optional[Clock] = None) -> None:
        self.name = name
        self._clock = clock if clock is not None else SystemClock()
        self._cond = threading.Condition()
        self._queue: List[Tuple[float, int, Runnable]] = []  # (due, seq, fn)
        self._seq = itertools.count()
        self._quit = False
        self._idle = True
        self._processed = 0
        self._errors: List[BaseException] = []
        self._reactor = Reactor(
            clock=self._clock, name=f"looper-{name}", mode="dedicated"
        )
        self._task = self._reactor.register(self._pump, name=f"looper-{name}")
        self._thread: threading.Thread = self._task.thread

    # -- posting -------------------------------------------------------------

    def post(self, runnable: Runnable) -> None:
        """Enqueue ``runnable`` for execution on the looper thread."""
        self.post_delayed(runnable, 0.0)

    def post_delayed(self, runnable: Runnable, delay_seconds: float) -> None:
        """Enqueue ``runnable`` to run no earlier than ``delay_seconds`` from now."""
        if delay_seconds < 0:
            raise LooperError("delay must be >= 0")
        with self._cond:
            if self._quit:
                raise LooperError(f"looper {self.name!r} has quit")
            due = self._clock.now() + delay_seconds
            entry = (due, next(self._seq), runnable)
            heapq.heappush(self._queue, entry)
            is_head = self._queue[0] is entry
        if not is_head:
            return  # the pump reaches it after the earlier head
        if delay_seconds > 0:
            self._task.schedule_at(due)
        else:
            self._task.wake()

    # -- introspection ---------------------------------------------------------

    @property
    def is_current_thread(self) -> bool:
        return threading.current_thread() is self._thread

    @property
    def processed_count(self) -> int:
        with self._cond:
            return self._processed

    @property
    def pending_count(self) -> int:
        with self._cond:
            return len(self._queue)

    def drain_errors(self) -> List[BaseException]:
        """Return and clear exceptions raised by posted runnables.

        Android would crash the app; the simulation records the error and
        keeps looping so that a test can assert on it.
        """
        with self._cond:
            errors = self._errors
            self._errors = []
            return errors

    # -- synchronization ---------------------------------------------------------

    def sync(self, timeout: float = 5.0) -> bool:
        """Block until everything posted before this call has run.

        Returns ``False`` on timeout. Calling from the looper thread itself
        would deadlock and raises instead.
        """
        if self.is_current_thread:
            raise LooperError("cannot sync a looper from its own thread")
        done = threading.Event()
        try:
            self.post(done.set)
        except LooperError:
            return True  # already quit: nothing more will run
        return done.wait(timeout)

    def wait_idle(self, timeout: float = 5.0) -> bool:
        """Block until the queue is empty and the looper is between messages."""
        with self._cond:
            return self._cond.wait_for(
                lambda: self._quit or (not self._queue and self._idle), timeout
            )

    # -- lifecycle ------------------------------------------------------------------

    def quit(self, timeout: float = 5.0) -> None:
        """Stop the looper; pending messages are dropped."""
        with self._cond:
            self._quit = True
            self._queue.clear()
            self._cond.notify_all()
        self._reactor.stop(join_timeout=timeout)

    @property
    def alive(self) -> bool:
        return self._thread.is_alive()

    # -- the pump ----------------------------------------------------------------------

    def _pump(self) -> Optional[float]:
        """The looper task's step: run every due message in order, then
        report when the next delayed one falls due (``None``: empty)."""
        ran = False
        while True:
            with self._cond:
                if ran:
                    self._processed += 1
                if self._quit:
                    return None
                queue = self._queue
                if not queue or queue[0][0] > self._clock.now():
                    self._idle = True
                    self._cond.notify_all()
                    return queue[0][0] if queue else None
                runnable = heapq.heappop(queue)[2]
                self._idle = False
            try:
                runnable()
            except BaseException as exc:  # noqa: BLE001 - recorded, not fatal
                with self._cond:
                    self._errors.append(exc)
                traceback.print_exc()
            ran = True


class Handler:
    """A thin posting facade bound to one looper, like ``android.os.Handler``."""

    def __init__(self, looper: Looper) -> None:
        self._looper = looper

    @property
    def looper(self) -> Looper:
        return self._looper

    def post(self, runnable: Runnable) -> None:
        self._looper.post(runnable)

    def post_delayed(self, runnable: Runnable, delay_seconds: float) -> None:
        self._looper.post_delayed(runnable, delay_seconds)
