"""Unit tests for the activity lifecycle and device activity management."""

import threading

import pytest

from repro.android.activity import Activity, ActivityState
from repro.android.device import AndroidDevice
from repro.android.intents import ACTION_NDEF_DISCOVERED, Intent, IntentFilter
from repro.concurrent import EventLog
from repro.errors import LifecycleError
from repro.radio.environment import RfidEnvironment


class TracingActivity(Activity):
    def __init__(self, device):
        super().__init__(device)
        self.trace = EventLog()

    def on_create(self):
        self.trace.append(("create", threading.current_thread().name))

    def on_start(self):
        self.trace.append(("start", None))

    def on_resume(self):
        self.trace.append(("resume", None))

    def on_pause(self):
        self.trace.append(("pause", None))

    def on_stop(self):
        self.trace.append(("stop", None))

    def on_destroy(self):
        self.trace.append(("destroy", None))

    def on_new_intent(self, intent):
        self.trace.append(("intent", intent.action))

    def events(self):
        return [event for event, _ in self.trace.snapshot()]


@pytest.fixture
def device():
    env = RfidEnvironment()
    dev = AndroidDevice("test", env)
    yield dev
    dev.shutdown()


class TestLifecycle:
    def test_start_activity_reaches_resumed(self, device):
        activity = device.start_activity(TracingActivity)
        assert activity.state == ActivityState.RESUMED
        assert activity.events() == ["create", "start", "resume"]

    def test_lifecycle_callbacks_run_on_main_thread(self, device):
        activity = device.start_activity(TracingActivity)
        _, thread_name = activity.trace.snapshot()[0]
        assert thread_name == "looper-test-main"

    def test_second_activity_stops_first(self, device):
        first = device.start_activity(TracingActivity)
        second = device.start_activity(TracingActivity)
        assert first.state == ActivityState.STOPPED
        assert second.state == ActivityState.RESUMED
        assert device.foreground_activity is second

    def test_finish_reveals_previous(self, device):
        first = device.start_activity(TracingActivity)
        second = device.start_activity(TracingActivity)
        device.finish_activity(second)
        assert second.is_destroyed
        assert first.state == ActivityState.RESUMED
        assert device.foreground_activity is first

    def test_finish_background_activity(self, device):
        first = device.start_activity(TracingActivity)
        second = device.start_activity(TracingActivity)
        device.finish_activity(first)
        assert first.is_destroyed
        assert second.state == ActivityState.RESUMED

    def test_finish_unknown_activity_rejected(self, device):
        other_env = RfidEnvironment()
        other = AndroidDevice("other", other_env)
        try:
            stranger = other.start_activity(TracingActivity)
            with pytest.raises(LifecycleError):
                device.finish_activity(stranger)
        finally:
            other.shutdown()

    def test_illegal_transition_rejected(self, device):
        activity = device.start_activity(TracingActivity)
        with pytest.raises(LifecycleError):
            activity._transition(ActivityState.CREATED)

    def test_shutdown_destroys_everything(self):
        env = RfidEnvironment()
        dev = AndroidDevice("x", env)
        a = dev.start_activity(TracingActivity)
        b = dev.start_activity(TracingActivity)
        dev.shutdown()
        assert a.is_destroyed and b.is_destroyed
        assert not dev.main_looper.alive

    @pytest.mark.parametrize("reactor_mode", ("threaded", "asyncio", "dedicated"))
    def test_idle_device_adds_exactly_one_thread(self, reactor_mode):
        """An idle phone costs its main looper's thread and nothing else,
        whatever its reactor backend; shutdown takes that thread back."""
        from repro.core.nfc_activity import NFCActivity

        env = RfidEnvironment()
        before = set(threading.enumerate())
        dev = AndroidDevice("idle", env, reactor_mode=reactor_mode)
        try:
            dev.start_activity(NFCActivity)
            dev.sync()
            added = [t for t in threading.enumerate() if t not in before]
            assert [thread.name for thread in added] == ["looper-idle-main"]
        finally:
            dev.shutdown()
        assert not added[0].is_alive()


class TestIntentDelivery:
    def test_resumed_activity_receives_intents(self, device):
        activity = device.start_activity(TracingActivity)
        activity._deliver_intent(Intent(ACTION_NDEF_DISCOVERED))
        assert "intent" in activity.events()

    def test_paused_activity_ignores_intents(self, device):
        first = device.start_activity(TracingActivity)
        device.start_activity(TracingActivity)
        first._deliver_intent(Intent(ACTION_NDEF_DISCOVERED))
        assert "intent" not in first.events()


class TestForegroundDispatch:
    def test_filters_empty_until_enabled(self, device):
        activity = device.start_activity(TracingActivity)
        assert activity.nfc_filters() == []
        filters = [IntentFilter(ACTION_NDEF_DISCOVERED, "a/b")]
        activity.enable_foreground_dispatch(filters)
        assert activity.nfc_filters() == filters

    def test_disable_clears_filters(self, device):
        activity = device.start_activity(TracingActivity)
        activity.enable_foreground_dispatch([IntentFilter(ACTION_NDEF_DISCOVERED)])
        activity.disable_foreground_dispatch()
        assert activity.nfc_filters() == []


class TestUiHelpers:
    def test_run_on_ui_thread(self, device):
        activity = device.start_activity(TracingActivity)
        log = EventLog()
        activity.run_on_ui_thread(
            lambda: log.append(threading.current_thread().name)
        )
        assert device.sync()
        assert log.snapshot() == ["looper-test-main"]

    def test_toast_recorded_on_device(self, device):
        activity = device.start_activity(TracingActivity)
        activity.toast("hello")
        assert device.toasts.snapshot() == ["hello"]
