"""Tests for the reactor scheduler and reactor-backed reference semantics.

The first half exercises :class:`repro.core.scheduler.Reactor` directly
(serial tasks, cross-task concurrency, deadline timers, crash counting,
cancellation, bounded lazy threads), each contract case on all three
backends: the worker pool, the asyncio loop and thread-per-task. The
second half checks the paper guarantees *through* the reactor: per-tag
FIFO ordering for pipelined operations and freedom from cross-tag
head-of-line blocking, even on a single-worker pool.
"""

import logging
import sys
import threading
import time

from repro.clock import ManualClock, SystemClock
from repro.concurrent import EventLog, wait_until
from repro.core.scheduler import PortReadyQueue, Reactor, default_worker_count

from tests.conftest import (
    make_reference,
    string_converters,
    text_tag,
)


def thread_bound(reactor, tasks: int) -> int:
    """The most threads ``reactor`` may own with ``tasks`` tasks woken:
    the pool plus its timer, the single loop thread, or one per task."""
    if reactor.mode == "threaded":
        return reactor.max_workers + 1
    if reactor.mode == "asyncio":
        return 1
    return tasks


class TestReactor:
    """The task contract on the default worker pool; the subclasses at the
    end of this section run every case again on the other backends."""

    mode = "threaded"

    def test_lazy_threads_and_bounded_pool(self):
        """The pool and the loop start no thread until the first wake, a
        dedicated task starts its own at registration; none exceeds its
        bound, and stop() retires them all."""
        reactor = Reactor(max_workers=2, name="lazy", mode=self.mode)
        try:
            assert reactor.thread_count == 0
            task = reactor.register(lambda: None, name="noop")
            assert reactor.thread_count == (1 if self.mode == "dedicated" else 0)
            task.wake()
            assert wait_until(lambda: reactor.steps_executed >= 1, timeout=5)
            assert reactor.thread_count <= thread_bound(reactor, 1)
        finally:
            reactor.stop()
        assert reactor.is_stopped
        assert wait_until(lambda: reactor.thread_count == 0, timeout=5)

    def test_default_worker_count_is_bounded(self):
        assert 1 <= default_worker_count() <= 32

    def test_task_is_serial_even_under_concurrent_wakes(self):
        """The same task never runs twice at once."""
        reactor = Reactor(max_workers=4, name="serial", mode=self.mode)
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # more interleavings per wake
        try:
            lock = threading.Lock()
            state = {"active": 0, "overlaps": 0, "runs": 0}

            def step():
                with lock:
                    state["active"] += 1
                    if state["active"] > 1:
                        state["overlaps"] += 1
                time.sleep(0.001)
                with lock:
                    state["active"] -= 1
                    state["runs"] += 1
                return None

            task = reactor.register(step, name="hammered")
            wakers = [
                threading.Thread(
                    target=lambda: [task.wake() for _ in range(50)]
                )
                for _ in range(4)
            ]
            for waker in wakers:
                waker.start()
            for waker in wakers:
                waker.join()
            assert wait_until(lambda: state["runs"] >= 1, timeout=5)
            task.wake()
            assert wait_until(lambda: state["active"] == 0, timeout=5)
            assert state["overlaps"] == 0
        finally:
            sys.setswitchinterval(switch_interval)
            reactor.stop()

    def test_distinct_tasks_run_concurrently(self):
        """Two tasks meet at a barrier: only possible on two threads."""
        reactor = Reactor(max_workers=4, name="parallel", mode=self.mode)
        try:
            barrier = threading.Barrier(2, timeout=5)
            met = EventLog()

            def make_step(label):
                def step():
                    barrier.wait()
                    met.append(label)
                    return None

                return step

            reactor.register(make_step("a"), name="a").wake()
            reactor.register(make_step("b"), name="b").wake()
            assert met.wait_for_count(2, timeout=5)
        finally:
            reactor.stop()

    def test_wake_during_step_causes_rerun(self):
        """A wake landing mid-step is never lost: another step follows."""
        reactor = Reactor(max_workers=2, name="rerun", mode=self.mode)
        try:
            started = threading.Event()
            release = threading.Event()
            runs = []

            def step():
                runs.append(1)
                started.set()
                release.wait(5)
                return None

            task = reactor.register(step, name="rerunner")
            task.wake()
            assert started.wait(5)
            task.wake()  # arrives while the first step is still running
            release.set()
            assert wait_until(lambda: len(runs) == 2, timeout=5)
        finally:
            reactor.stop()

    def test_manual_clock_timer_fires_on_advance_only(self):
        """A future deadline fires when simulated time reaches it."""
        clock = ManualClock()
        reactor = Reactor(clock=clock, max_workers=2, name="timed", mode=self.mode)
        try:
            fired = EventLog()
            state = {"scheduled": False}

            def step():
                if not state["scheduled"]:
                    state["scheduled"] = True
                    return clock.now() + 5.0
                fired.append(clock.now())
                return None

            reactor.register(step, name="alarm").wake()
            assert wait_until(lambda: state["scheduled"], timeout=5)
            clock.advance(4.0)
            time.sleep(0.05)  # give a wrong firing the chance to happen
            assert len(fired) == 0
            clock.advance(1.5)
            assert fired.wait_for_count(1, timeout=5)
            assert fired.snapshot() == [5.5]
        finally:
            reactor.stop()

    def test_schedule_at_fires_on_a_real_clock(self):
        """An external deadline runs the idle task once it passes, and a
        later one again (a step at the first does not drop the second)."""
        clock = SystemClock()
        reactor = Reactor(clock=clock, max_workers=2, name="deadline", mode=self.mode)
        try:
            runs = EventLog()
            task = reactor.register(
                lambda: runs.append(clock.now()) or None, name="sleeper"
            )
            start = clock.now()
            task.schedule_at(start + 0.05)
            task.schedule_at(start + 0.15)
            assert runs.wait_for_count(2, timeout=5)
            first, second = runs.snapshot()
            assert first >= start + 0.05
            assert second >= start + 0.15
        finally:
            reactor.stop()

    def test_immediate_requeue_when_returned_time_already_passed(self):
        """Returning a time at or before "now" means run again at once."""
        reactor = Reactor(max_workers=2, name="spin", mode=self.mode)
        try:
            runs = []

            def step():
                runs.append(1)
                if len(runs) < 10:
                    return 0.0  # long past: immediate requeue
                return None

            reactor.register(step, name="spinner").wake()
            assert wait_until(lambda: len(runs) == 10, timeout=5)
        finally:
            reactor.stop()

    def test_many_tasks_complete_on_tiny_pool(self):
        """The bound limits parallelism, never completion."""
        reactor = Reactor(max_workers=2, name="tiny", mode=self.mode)
        try:
            done = EventLog()
            for index in range(40):
                reactor.register(
                    lambda i=index: done.append(i) or None, name=f"t{index}"
                ).wake()
            assert done.wait_for_count(40, timeout=10)
            assert reactor.thread_count <= thread_bound(reactor, 40)
        finally:
            reactor.stop()

    def test_step_exception_does_not_kill_the_pool(self):
        reactor = Reactor(max_workers=2, name="faulty", mode=self.mode)
        try:
            done = EventLog()

            def bad_step():
                raise RuntimeError("boom")

            reactor.register(bad_step, name="bad").wake()
            reactor.register(lambda: done.append("ok") or None, name="good").wake()
            assert done.wait_for_count(1, timeout=5)
        finally:
            reactor.stop()

    def test_crashed_step_is_counted_logged_and_stays_wakeable(self, caplog):
        reactor = Reactor(max_workers=2, name="crashy", mode=self.mode)
        try:
            runs = []

            def step():
                runs.append(1)
                if len(runs) == 1:
                    raise RuntimeError("boom")
                return None

            task = reactor.register(step, name="crashing-task")
            with caplog.at_level(logging.ERROR, logger="repro.core.scheduler"):
                task.wake()
                assert wait_until(lambda: reactor.crashed_steps == 1, timeout=5)
            assert any(
                "crashing-task" in record.getMessage() and record.exc_info
                for record in caplog.records
            )
            task.wake()  # the crash did not deregister the task
            assert wait_until(lambda: len(runs) == 2, timeout=5)
            assert reactor.crashed_steps == 1
            assert reactor.steps_executed == 2
        finally:
            reactor.stop()

    def test_cancel_drops_later_wakes_and_deadlines(self):
        clock = SystemClock()
        reactor = Reactor(clock=clock, max_workers=2, name="cancelled", mode=self.mode)
        try:
            runs = []
            task = reactor.register(lambda: runs.append(1) or None, name="gone")
            task.wake()
            assert wait_until(lambda: len(runs) == 1, timeout=5)
            task.schedule_at(clock.now() + 0.02)
            task.cancel()
            task.wake()
            time.sleep(0.05)
            assert runs == [1]
            if self.mode == "dedicated":
                assert not task.thread.is_alive()  # ended and joined
                assert reactor.thread_count == 0
        finally:
            reactor.stop()

    def test_wake_after_stop_is_a_noop(self):
        reactor = Reactor(max_workers=2, name="stopped", mode=self.mode)
        runs = []
        task = reactor.register(lambda: runs.append(1) or None, name="late")
        reactor.stop()
        task.wake()
        time.sleep(0.02)
        assert runs == []


class TestAsyncioReactor(TestReactor):
    mode = "asyncio"
    # One loop thread runs every step by design, so two steps can never
    # meet at a barrier there.
    test_distinct_tasks_run_concurrently = None
    test_default_worker_count_is_bounded = None  # backend-independent


class TestDedicatedReactor(TestReactor):
    mode = "dedicated"
    test_default_worker_count_is_bounded = None  # backend-independent


class TestPortReadyQueue:
    """The ready set handed to the per-port drain: generations guard
    against lost wakeups, rotation spreads service starts across tags."""

    def test_clear_only_succeeds_on_matching_generation(self):
        queue = PortReadyQueue()
        queue.mark("a")
        (item,) = queue.snapshot()
        key, generation = item
        queue.mark("a")  # producer re-marked mid-drain
        assert not queue.clear(key, generation)
        (_, fresh) = queue.snapshot()[0]
        assert queue.clear(key, fresh)
        assert queue.snapshot() == []

    def test_plain_snapshot_keeps_insertion_order(self):
        queue = PortReadyQueue()
        for key in ("a", "b", "c"):
            queue.mark(key)
        assert [key for key, _ in queue.snapshot()] == ["a", "b", "c"]
        # Un-rotated snapshots never move the starting point.
        assert [key for key, _ in queue.snapshot()] == ["a", "b", "c"]

    def test_rotated_snapshots_cycle_the_starting_key(self):
        queue = PortReadyQueue()
        for key in ("a", "b", "c"):
            queue.mark(key)
        starts = [queue.snapshot(rotate=True)[0][0] for _ in range(6)]
        assert starts == ["a", "b", "c", "a", "b", "c"]
        # Every rotation is a full permutation, not a truncation.
        assert sorted(k for k, _ in queue.snapshot(rotate=True)) == ["a", "b", "c"]

    def test_rotation_survives_the_cursor_key_vanishing(self):
        queue = PortReadyQueue()
        for key in ("a", "b", "c"):
            queue.mark(key)
        queue.snapshot(rotate=True)  # cursor now at "b"
        queue.discard("b")
        assert [key for key, _ in queue.snapshot(rotate=True)] == ["a", "c"]

    def test_has_other(self):
        queue = PortReadyQueue()
        assert not queue.has_other("a")
        queue.mark("a")
        assert not queue.has_other("a")
        queue.mark("b")
        assert queue.has_other("a")
        queue.discard("b")
        assert not queue.has_other("a")


class TestReactorOrdering:
    """Paper guarantees observed through reactor-backed references."""

    def test_pipelined_format_write_read_on_blank_tag(
        self, scenario, phone, activity
    ):
        """format -> write -> read on a factory-blank tag, scheduled
        back-to-back, completes strictly in program order."""
        tag = scenario.add_tag(formatted=False)
        scenario.put(tag, phone)
        reference = make_reference(activity, tag, phone)
        log = EventLog()
        reference.format(on_formatted=lambda r: log.append("formatted"))
        reference.write("hello", on_written=lambda r: log.append("written"))
        reference.read(on_read=lambda r: log.append(("read", r.cached)))
        assert log.wait_for_count(3, timeout=10)
        assert log.snapshot() == ["formatted", "written", ("read", "hello")]

    def test_absent_tag_never_starves_present_tag(
        self, scenario, phone, activity
    ):
        """The ablation scenario on the shared pool: a reference retrying
        an out-of-range tag must not delay a present tag's operations."""
        absent = text_tag("absent")
        present = text_tag("present")
        scenario.put(present, phone)
        ref_absent = make_reference(activity, absent, phone)
        ref_present = make_reference(activity, present, phone)
        done = EventLog()
        ref_absent.write("never-lands", timeout=30.0)
        for index in range(20):
            ref_present.write(
                f"w{index}", on_written=lambda r, i=index: done.append(i)
            )
        assert done.wait_for_count(20, timeout=5)
        assert done.snapshot() == list(range(20))
        assert ref_absent.pending_count == 1  # still queued, still silent
        assert present.read_ndef()[0].payload == b"w19"

    def test_no_head_of_line_blocking_even_with_one_worker(
        self, scenario, phone, activity
    ):
        """The sharpest form: a single-worker reactor. If an absent tag's
        retry loop ever held the worker, the present tag could never
        proceed; because waiting tasks return to the deadline heap, it
        does."""
        from repro.android.nfc.tech import Tag
        from repro.core.reference import TagReference

        reactor = Reactor(max_workers=1, name="hol-test")
        try:
            absent = text_tag("a")
            present = text_tag("b")
            scenario.put(present, phone)
            read_conv, write_conv = string_converters()
            ref_absent = TagReference(
                Tag(absent, phone.port),
                activity,
                read_conv,
                write_conv,
                reactor=reactor,
            )
            ref_present = TagReference(
                Tag(present, phone.port),
                activity,
                read_conv,
                write_conv,
                reactor=reactor,
            )
            try:
                done = EventLog()
                ref_absent.write("blocked", timeout=30.0)
                ref_present.write("lands", on_written=lambda r: done.append("ok"))
                assert done.wait_for_count(1, timeout=5)
                assert present.read_ndef()[0].payload == b"lands"
                assert ref_absent.pending_count == 1
            finally:
                ref_absent.stop()
                ref_present.stop()
        finally:
            reactor.stop()

    def test_absent_tag_operation_still_times_out_under_reactor(
        self, scenario, phone, activity
    ):
        """Timeouts are driven by the deadline heap, not a polling loop."""
        tag = text_tag("away")
        reference = make_reference(activity, tag, phone)
        failed = EventLog()
        reference.write(
            "doomed", on_failed=lambda r: failed.append("timeout"), timeout=0.05
        )
        assert failed.wait_for_count(1, timeout=5)
        assert reference.pending_count == 0
        assert reference.timeouts == 1
