"""Property-based tests of the tag-reference queue semantics."""

import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.android.device import AndroidDevice
from repro.concurrent import EventLog
from repro.radio.environment import RfidEnvironment
from repro.radio.link import ScriptedLink

from tests.conftest import PlainNfcActivity, make_reference, text_tag

# Each step: (payload index written, whether the link tears on that attempt)
write_scripts = st.lists(
    st.tuples(st.booleans()), min_size=1, max_size=8
)


@given(
    payload_count=st.integers(min_value=1, max_value=8),
    tear_pattern=st.lists(st.booleans(), min_size=0, max_size=12),
)
@settings(max_examples=40, deadline=None)
def test_queue_order_and_last_write_wins(payload_count, tear_pattern):
    """Whatever tear pattern the link throws, successes arrive in schedule
    order and the tag ends holding the last scheduled write."""
    env = RfidEnvironment()
    phone = AndroidDevice("prop-phone", env)
    try:
        activity = phone.start_activity(PlainNfcActivity)
        # Tears from the pattern, then a clean link so everything finishes.
        phone.port.set_link(
            ScriptedLink([not tear for tear in tear_pattern], default=True)
        )
        tag = text_tag("seed")
        env.move_tag_into_field(tag, phone.port)
        reference = make_reference(activity, tag, phone)
        done = EventLog()
        for index in range(payload_count):
            reference.write(
                f"payload-{index}",
                on_written=lambda r, i=index: done.append(i),
                timeout=30.0,
            )
        assert done.wait_for_count(payload_count, timeout=10)
        assert done.snapshot() == list(range(payload_count))
        assert tag.read_ndef()[0].payload == f"payload-{payload_count - 1}".encode()
        assert reference.pending_count == 0
    finally:
        phone.shutdown()


@given(
    reads=st.integers(min_value=0, max_value=4),
    writes=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=30, deadline=None)
def test_interleaved_reads_observe_program_order(reads, writes):
    """A read scheduled after a write always observes that write (or later)."""
    env = RfidEnvironment()
    phone = AndroidDevice("order-phone", env)
    try:
        activity = phone.start_activity(PlainNfcActivity)
        tag = text_tag("initial")
        env.move_tag_into_field(tag, phone.port)
        reference = make_reference(activity, tag, phone)
        observations = EventLog()
        expected_count = 0
        for index in range(writes):
            reference.write(f"w{index}", timeout=30.0)
            for _ in range(reads):
                expected_count += 1
                reference.read(
                    on_read=lambda r, i=index: observations.append((i, r.cached)),
                    timeout=30.0,
                )
        assert observations.wait_for_count(expected_count, timeout=10)
        for written_index, observed in observations.snapshot():
            observed_index = int(observed[1:])
            assert observed_index >= written_index
    finally:
        phone.shutdown()


@given(st.integers(min_value=1, max_value=6))
@settings(max_examples=20, deadline=None)
def test_stop_leaves_no_thread_behind(operation_count):
    """stop() always retires the private event loop, queue drained or not.

    On the default reactor a reference owns no thread at all (its logical
    loop is a task on the device's shared pool); on a
    ``reactor_mode="dedicated"`` device stop() must join the reference's
    own thread.
    """
    env = RfidEnvironment()
    phone = AndroidDevice("stop-phone", env)
    dedicated_phone = AndroidDevice("stop-dedicated", env, reactor_mode="dedicated")
    try:
        activity = phone.start_activity(PlainNfcActivity)
        dedicated_activity = dedicated_phone.start_activity(PlainNfcActivity)
        tag = text_tag("x")  # never in the field: everything stays queued
        dedicated_tag = text_tag("y")
        reference = make_reference(activity, tag, phone)
        dedicated_ref = make_reference(
            dedicated_activity, dedicated_tag, dedicated_phone
        )
        dedicated_thread = dedicated_ref._task.thread
        assert dedicated_thread.is_alive()
        for index in range(operation_count):
            reference.write(f"w{index}")
            dedicated_ref.write(f"w{index}")
        reference.stop()
        dedicated_ref.stop()
        assert reference.is_stopped
        assert reference.pending_count == 0
        # Default reactor: no private thread.
        assert f"tagref-{reference.uid_hex}" not in {
            thread.name for thread in threading.enumerate()
        }
        assert dedicated_ref.is_stopped
        assert not dedicated_thread.is_alive()
    finally:
        dedicated_phone.shutdown()
        phone.shutdown()
