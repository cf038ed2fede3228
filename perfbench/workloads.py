"""The three seeded workloads, driven through the public API of ``repro``.

Each workload splits into three phases with different clocks on them:

* ``__init__(seed)`` generates every input from the seed (cohorts,
  rounds, event lists). It is not timed.
* ``build()`` constructs the program state the timed phase runs on:
  labelled tags, phones, references, gateway and reporters. The runner
  times it several times and reports the median as ``setup_s``.
* ``run(state, seconds)`` is the closed loop: one generator thread
  (the caller) issues the next operation only after the previous one
  completed, for ``seconds`` of wall time. It may be called again on
  the same state and continues the schedule where it stopped.

``check(state)`` then verifies the program's outputs against what the
generator knows it asked for, and returns the list of violations.

Why these three (see README.md for the metric tables):

* ``tap_sweep`` -- the paper's full tap path on the threaded reactor:
  radio, tx scheduler, tag memory, NDEF, Gson, things, discovery and
  the main looper, with the gateway only as a small side load.
* ``away_save`` -- the reference layer's queue instead of its execute
  path, on the asyncio reactor: coalescing, retries on a lossy link,
  the deadline heap, timeouts and leasing.
* ``fleet_ingest`` -- only the gateway: reporters, shards, views and
  latency merges, with no device stack at all.
"""

from __future__ import annotations

import json
import random
import threading
import time
from types import SimpleNamespace
from typing import Dict, List, Optional

from repro.android.nfc.tech import Tag
from repro.clock import ManualClock, SystemClock
from repro.core import NFCActivity
from repro.core.converters import IdentityConverters
from repro.core.operations import OperationKind, OperationOutcome
from repro.core.scheduler import Reactor
from repro.gateway import FleetGateway, GatewayReporter, simulate_fleet
from repro.harness import Scenario
from repro.harness.crowd import turnstile_rush
from repro.leasing import LeaseKeeper, LeaseManager
from repro.ndef.message import NdefMessage
from repro.ndef.mime import mime_record
from repro.radio.link import LossyLink
from repro.radio.timing import NOMINAL
from repro.tags.factory import make_tag
from repro.things import Thing, ThingActivity

from measure import Windows, percentile

WALL = time.perf_counter


def program_cpu() -> float:
    """CPU seconds of every thread but the calling generator thread.

    The generator plays the outside world (tags moving, stations
    reporting, users waiting), so its own thread time is not the
    program's cost; everything the program runs on its loopers,
    reactors and shard drains is.
    """
    return time.process_time() - time.thread_time()


#: Real seconds any single wait on the program may take before the run
#: is declared hung (a correctness failure, never a slow sample).
HANG_SECONDS = 30.0


class BenchmarkError(RuntimeError):
    """The program under test misbehaved; the run reports no metrics."""


class Asset(Thing):
    """One tracked crate; ``note`` gives each tag its own payload size."""

    name: str
    note: str
    inspections: int

    def __init__(self, activity, name: str, note: str) -> None:
        super().__init__(activity)
        self.name = name
        self.note = note
        self.inspections = 0


def tag_uid(index: int, family: int) -> bytes:
    """A stable 7-byte uid, so every build (and every run) reuses the
    same uids and therefore the same gateway shard assignment."""
    return bytes([0x04, family]) + index.to_bytes(5, "big")


def label(activity: ThingActivity, tag, asset: Asset) -> None:
    """Store ``asset`` on ``tag`` the way the thing layer encodes it."""
    text = json.dumps(activity.gson.to_jsonable(asset), sort_keys=True)
    tag.write_ndef(NdefMessage([mime_record(activity.mime_type, text.encode("utf-8"))]))


def read_asset(tag) -> dict:
    """Decode a tag's thing straight from tag memory, bypassing MORENA."""
    message = tag.read_ndef()
    return json.loads(message[0].payload.decode("utf-8"))


def note_for(rng: random.Random) -> str:
    return "n" * rng.randint(8, 120)


class Waiter:
    """Counts completions posted from program threads; the generator
    blocks on it without spinning."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._done = 0

    def add(self, count: int = 1) -> None:
        with self._cond:
            self._done += count
            self._cond.notify_all()

    def wait_for(self, target: int, what: str) -> None:
        with self._cond:
            if not self._cond.wait_for(lambda: self._done >= target, HANG_SECONDS):
                raise BenchmarkError(f"hung waiting for {what}: {self._done}/{target}")

    def wait_until(self, predicate, what: str) -> None:
        with self._cond:
            if not self._cond.wait_for(predicate, HANG_SECONDS):
                raise BenchmarkError(f"hung waiting for {what}")

    @property
    def done(self) -> int:
        with self._cond:
            return self._done


class Probes:
    """UI-lag probes: posted to a main looper, timed until they ran."""

    def __init__(self) -> None:
        self.lags: List[float] = []

    def post(self, looper) -> None:
        posted = WALL()
        lags = self.lags
        looper.post(lambda: lags.append(WALL() - posted))


def _settle_tap(clock, stamps: Dict[int, float], stamped: "Waiter"):
    """Telemetry tap: the virtual instant each write settled, by op id.

    Virtual time only moves while some thread sleeps on the radio, and
    the main looper never does, so the instant a write settled on the
    scheduler thread *is* the virtual instant its listener ran; reading
    the clock in the listener itself would race with the scheduler
    already serving the next tag.
    """

    def on_settled(_ref, operation, outcome) -> None:
        if (
            operation.kind is OperationKind.WRITE
            and outcome is OperationOutcome.SUCCEEDED
        ):
            stamps[operation.op_id] = clock.now()
            stamped.add()

    return on_settled


# ---------------------------------------------------------------------------
# tap_sweep
# ---------------------------------------------------------------------------


class TapSweep:
    """One clerk phone sweeping seeded cohorts of labelled tags."""

    name = "tap_sweep"
    backend = "threaded"
    TIMING = NOMINAL
    GATEWAY_CLOCK = "virtual"
    DETERMINISM_OPS = 3000
    TAGS = 2000
    COHORTS = 60000
    SIGHTING_BATCH = 200

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.notes = [note_for(rng) for _ in range(self.TAGS)]
        # Mostly single taps, some pallets of 20-40 tags.
        self.cohorts: List[List[int]] = []
        for _ in range(self.COHORTS):
            size = 1 if rng.random() < 0.8 else rng.randint(20, 40)
            self.cohorts.append(rng.sample(range(self.TAGS), size))

    def build(self):
        clock = ManualClock()
        scenario = Scenario(timing=NOMINAL, clock=clock)
        state = TapState(scenario, clock)
        phone = scenario.add_phone("clerk")
        state.phone = phone
        app = scenario.start(phone, ClerkActivity)
        app.bench = state
        state.app = app
        state.tags = [
            make_tag("NTAG216", uid=tag_uid(index, 1)) for index in range(self.TAGS)
        ]
        for index, tag in enumerate(state.tags):
            label(app, tag, Asset(app, f"crate-{index:05d}", self.notes[index]))
        # First sighting: every tag's reference is created before timing.
        for start in range(0, self.TAGS, self.SIGHTING_BATCH):
            batch = state.tags[start:start + self.SIGHTING_BATCH]
            target = state.sighted.done + len(batch)
            scenario.put_all(batch, phone)
            state.sighted.wait_for(target, "first sightings")
            scenario.take_all(batch, phone)
        state.gateway_reactor = Reactor(clock=clock, name="gw", max_workers=2)
        state.gateway = FleetGateway(state.gateway_reactor, clock=clock, shards=2)
        state.reporter = GatewayReporter(
            state.gateway, "clerk", reactor=phone.reactor, clock=clock
        )
        state.reporter.attach_discoverer(app._thing_discoverer)  # noqa: SLF001 - the only handle
        tap = _settle_tap(clock, state.settled_at, state.stamped)
        for reference in app.reference_factory.known_references():
            state.reporter.attach_reference(reference)
            reference.add_telemetry_listener(tap)
        if not phone.sync(HANG_SECONDS):
            raise BenchmarkError("main looper did not go idle after set-up")
        state.armed = True
        return state

    def teardown(self, state) -> None:
        state.close()

    def run(self, state, seconds: float, op_budget: Optional[int] = None) -> dict:
        scenario, phone, clock = state.scenario, state.phone, state.clock
        tags, cohorts = state.tags, self.cohorts
        windows = Windows(WALL, program_cpu, idle=lambda: self._idle(state))
        settles: List[float] = []
        probes = Probes()
        before = self.counters(state)
        generator_cpu = time.thread_time()
        detect_from = len(state.detect_lags)
        done = start = state.saved.done
        deadline = WALL() + seconds
        while WALL() < deadline and (op_budget is None or done - start < op_budget):
            if state.next_cohort >= len(cohorts):
                raise BenchmarkError("cohort schedule exhausted; raise COHORTS")
            cohort = [tags[i] for i in cohorts[state.next_cohort]]
            state.next_cohort += 1
            entered = clock.now()
            state.entry_wall = WALL()
            state.cohort_ops = []
            scenario.put_all(cohort, phone)
            probes.post(phone.main_looper)
            done += len(cohort)
            state.saved.wait_for(done, "cohort saves")
            state.stamped.wait_for(done, "cohort settle stamps")
            scenario.take_all(cohort, phone)
            for op in state.cohort_ops:
                settles.append(state.settled_at.pop(op.op_id) - entered)
                if state.listener_calls.pop(op.op_id, 0) != 1:
                    state.errors.append(f"save #{op.op_id}: listener did not fire once")
            for index in cohorts[state.next_cohort - 1]:
                state.taps[index] += 1
            windows.tick(done)
        phone.sync(HANG_SECONDS)
        return {"windows": windows, "settle": settles, "ui_lag": probes.lags,
                "ops": windows.ops, "attempted": done - start,
                "failed": len(state.errors),
                "detect": state.detect_lags[detect_from:],
                "generator_cpu": time.thread_time() - generator_cpu,
                "delta": _delta(before, self.counters(state))}

    @staticmethod
    def _idle(state) -> None:
        """Let the phone finish the last cohort's tag-lost handling and
        the gateway ingest what the reporter holds."""
        if not state.phone.sync(HANG_SECONDS):
            raise BenchmarkError("main looper did not go idle")
        state.reporter.flush()
        if not state.gateway.drain(HANG_SECONDS):
            raise BenchmarkError("gateway drain hung")

    def counters(self, state) -> Dict[str, float]:
        counters = _device_counters(
            [state.phone], state.app.reference_factory.known_references(), []
        )
        counters.update(_gateway_counters(state.gateway, [state.reporter]))
        return counters

    def check(self, state) -> List[str]:
        errors: List[str] = []
        state.reporter.flush()
        if not state.gateway.drain(HANG_SECONDS):
            errors.append("gateway did not drain")
        errors += state.errors
        for index, tag in enumerate(state.tags):
            taps = state.taps[index]
            stored = read_asset(tag)
            if stored["inspections"] != taps:
                errors.append(f"tag {index}: inspections {stored['inspections']} != taps {taps}")
            history = state.gateway.travel_history(tag.uid_hex)
            scans = history["scans"] if history else 0
            # One scan (the detection) plus one save per timed tap.
            if scans != 2 * taps:
                errors.append(f"tag {index}: travel count {scans} != 2 x {taps} taps")
            if len(errors) > 20:
                break
        if state.listener_calls:
            errors.append(f"{len(state.listener_calls)} save listeners fired again")
        return errors


class TapState:
    def __init__(self, scenario, clock) -> None:
        self.scenario = scenario
        self.clock = clock
        self.phone = None
        self.app = None
        self.tags: list = []
        self.taps: Dict[int, int] = {}
        self.armed = False
        self.sighted = Waiter()
        self.saved = Waiter()
        self.stamped = Waiter()
        self.cohort_ops: list = []
        self.settled_at: Dict[int, float] = {}
        self.listener_calls: Dict[int, int] = {}
        self.detect_lags: List[float] = []
        self.entry_wall = 0.0
        self.errors: List[str] = []
        self.next_cohort = 0
        self.gateway = None
        self.gateway_reactor = None
        self.reporter = None

    def close(self) -> None:
        if self.reporter is not None:
            self.reporter.close()
        if self.gateway is not None:
            self.gateway.close()
        if self.gateway_reactor is not None:
            self.gateway_reactor.stop()
        self.scenario.close()


class ClerkActivity(ThingActivity):
    """Bumps and saves every asset it discovers once the run is armed."""

    THING_CLASS = Asset

    def when_discovered(self, asset: Asset) -> None:
        state = self.bench
        if not state.armed:
            state.taps.setdefault(int(asset.name[6:]), 0)
            state.sighted.add()
            return
        state.detect_lags.append(WALL() - state.entry_wall)
        asset.inspections += 1
        looper = self.device.main_looper
        box = []

        def saved(_asset) -> None:
            if not looper.is_current_thread:
                state.errors.append("save listener ran off the main thread")
            op_id = box[0].op_id
            state.listener_calls[op_id] = state.listener_calls.get(op_id, 0) + 1
            state.saved.add()

        def failed() -> None:
            state.errors.append(f"save of {asset.name} failed")
            state.saved.add()

        box.append(asset.save_async(on_saved=saved, on_failed=failed))
        state.cohort_ops.append(box[0])


# ---------------------------------------------------------------------------
# fleet_ingest
# ---------------------------------------------------------------------------

class _StationTape:
    """Stands in for one station's reporter while
    :func:`~repro.gateway.sim.simulate_fleet` generates the traffic: it
    keeps what the station would report, in the current schedule tick,
    so the timed phase can replay it through the real reporters."""

    __slots__ = ("index", "station", "ticks")

    def __init__(self, index: int, ticks: List[list]) -> None:
        self.index = index
        self.station = f"st-{index:04d}"
        self.ticks = ticks

    def record(self, kind, tag_uid, detail=None) -> None:
        self.ticks[-1].append((self.index, kind, tag_uid, detail))

    def flush(self) -> None:
        pass


class FleetIngest:
    """Thousands of turnstile stations replaying a rush-hour event list."""

    name = "fleet_ingest"
    backend = "threaded"
    TIMING = None
    GATEWAY_CLOCK = "wall"
    DETERMINISM_OPS = 50000
    STATIONS = 2000
    TAGS = 4000
    # The repo's own fleet model: a turnstile rush (groups of 1-4 cards
    # at a uniform gate, Poisson arrivals, cards recycled round-robin)
    # replayed with simulate_fleet's default save and lease ratios, at
    # the arrival rate benchmarks/test_bench_gateway.py uses.
    ARRIVALS_PER_SECOND = 3000.0
    SCHEDULE_SECONDS = 20.0  # one schedule "day"; the replay wraps around it
    TICK_SECONDS = 0.05  # schedule time per tick: flush and drain once
    SNAPSHOT_TICKS = 20  # the dashboard reads once per schedule second
    # Travel views keep each card's last few stations. Small rings (and a
    # population the warm-up already spreads over every station) fill
    # during set-up, so memory does not grow with the events a run
    # manages to push, which would make peak RSS track host speed.
    HISTORY_DEPTH = 4
    WARMUP_TICKS = 60
    SHARDS = 4

    def __init__(self, seed: int) -> None:
        schedule = turnstile_rush(
            self.STATIONS, self.TAGS,
            duration_seconds=self.SCHEDULE_SECONDS,
            arrivals_per_second=self.ARRIVALS_PER_SECOND,
            seed=seed,
        )
        ticks: List[list] = [[]]
        tapes = [_StationTape(index, ticks) for index in range(self.STATIONS)]
        # simulate_fleet only reads the clock from its gateway; a manual
        # clock lets it step through schedule time without sleeping.
        simulate_fleet(
            SimpleNamespace(clock=ManualClock()), schedule, tapes, seed=seed,
            on_tick=lambda _now: ticks.append([]), tick_seconds=self.TICK_SECONDS,
        )
        self.ticks = [events for events in ticks if events]

    def build(self):
        state = FleetState()
        clock = SystemClock()
        state.reactor = Reactor(clock=clock, name="gw")
        state.gateway = FleetGateway(state.reactor, clock=clock, shards=self.SHARDS,
                                     history_depth=self.HISTORY_DEPTH)
        state.reporters = [
            GatewayReporter(state.gateway, f"st-{index:04d}", clock=clock,
                            flush_interval=None)
            for index in range(self.STATIONS)
        ]
        for _ in range(self.WARMUP_TICKS):
            self._replay_tick(state)
        return state

    def _replay_tick(self, state) -> int:
        events = self.ticks[state.next_tick % len(self.ticks)]
        state.next_tick += 1
        reporters = state.reporters
        touched = set()
        for station, kind, uid, detail in events:
            reporters[station].record(kind, uid, detail=detail)
            touched.add(station)
        for station in touched:
            reporters[station].flush()
        if not state.gateway.drain(HANG_SECONDS):
            raise BenchmarkError("gateway drain hung")
        return len(events)

    def teardown(self, state) -> None:
        state.close()

    def run(self, state, seconds: float, op_budget: Optional[int] = None) -> dict:
        gateway = state.gateway
        before = self.counters(state)
        generator_cpu = time.thread_time()
        windows = Windows(WALL, program_cpu)
        reads: List[float] = []
        p50s: List[float] = []
        p99s: List[float] = []
        samples = 0
        ops = 0
        deadline = WALL() + seconds
        while WALL() < deadline and (op_budget is None or ops < op_budget):
            ops += self._replay_tick(state)
            if state.next_tick % self.SNAPSHOT_TICKS:
                continue
            # Once per schedule second the dashboard reads a snapshot,
            # and only then may a window close, so every window holds
            # whole seconds of traffic with one snapshot each.
            started = WALL()
            snapshot = gateway.snapshot()
            reads.append(windows.to_reference(WALL() - started))
            latency = snapshot.ingest_latency
            p50s.append(windows.to_reference(latency.p50))
            p99s.append(windows.to_reference(latency.p99))
            samples += latency.count
            windows.tick(ops)
        delta = _delta(before, self.counters(state))
        dropped = int(delta["gateway.dropped_reporter"] + delta["gateway.dropped_queue"]
                      + delta["gateway.dropped_streams"])
        return {"windows": windows, "ops": windows.ops, "dashboard_read": reads,
                "ingest_p50": p50s, "ingest_p99": p99s, "ingest_samples": samples,
                "attempted": ops, "failed": dropped, "delta": delta,
                "generator_cpu": time.thread_time() - generator_cpu}

    def counters(self, state) -> Dict[str, float]:
        counters = _gateway_counters(state.gateway, state.reporters)
        counters["reactor.steps"] = state.reactor.steps_executed
        counters["reactor.threads"] = state.reactor.thread_count
        return counters

    def expected_travel(self, ticks: int) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for tick in range(ticks):
            for _station, kind, uid, _detail in self.ticks[tick % len(self.ticks)]:
                if kind in ("scan", "save"):
                    counts[uid] = counts.get(uid, 0) + 1
        return counts

    def check(self, state) -> List[str]:
        errors: List[str] = []
        gateway = state.gateway
        if not gateway.drain(HANG_SECONDS):
            return ["gateway did not drain"]
        telemetry = gateway.telemetry()
        recorded = sum(reporter.recorded for reporter in state.reporters)
        accounted = (
            telemetry["events_ingested"]
            + telemetry["events_dropped_queue"]
            + telemetry["events_dropped_reporter"]
            + telemetry["events_dropped_streams"]
        )
        if recorded != accounted:
            errors.append(f"recorded {recorded} != ingested + drops {accounted}")
        expected_events = sum(
            len(self.ticks[tick % len(self.ticks)]) for tick in range(state.next_tick)
        )
        if recorded != expected_events:
            errors.append(f"recorded {recorded} != generated {expected_events}")
        for uid, count in self.expected_travel(state.next_tick).items():
            history = gateway.travel_history(uid)
            scans = history["scans"] if history else 0
            if scans != count:
                errors.append(f"{uid}: travel count {scans} != generated {count}")
                if len(errors) > 20:
                    break
        return errors


class FleetState:
    def __init__(self) -> None:
        self.reactor = None
        self.gateway = None
        self.reporters: List[GatewayReporter] = []
        self.next_tick = 0

    def close(self) -> None:
        for reporter in self.reporters:
            reporter.close()
        if self.gateway is not None:
            self.gateway.close()
        if self.reactor is not None:
            self.reactor.stop()


# ---------------------------------------------------------------------------
# away_save
# ---------------------------------------------------------------------------


class AwayClerk(ThingActivity):
    """Binds the assets it sights; the round loop issues the saves."""

    THING_CLASS = Asset

    def when_discovered(self, asset: Asset) -> None:
        state = self.bench
        index = int(asset.name[6:])
        if index not in state.things:
            state.things[index] = asset
            state.sighted.add()


class Rival(NFCActivity):
    """The second phone: only ever tries to take leases."""


class AwayRound:
    """One pre-generated round of the away_save schedule."""

    __slots__ = ("saves", "returns", "rival", "sweep", "gap")

    def __init__(self, saves, returns, rival, sweep, gap) -> None:
        self.saves = saves  # [(thing index, number of saves)]
        self.returns = returns  # thing indices that come back, in order
        self.rival = rival  # lease-tag indices the rival phone tries
        self.sweep = sweep  # lease-tag indices passing the clerk's shelf
        self.gap = gap  # virtual seconds between rounds


class AwaySave:
    """Saves queued while tags are away, settled when they come back."""

    name = "away_save"
    backend = "asyncio"
    TIMING = NOMINAL
    GATEWAY_CLOCK = "none"
    DETERMINISM_OPS = 1500
    THINGS = 300
    LOST = 12  # tags the schedule never brings back
    LEASE_TAGS = 30
    ROUNDS = 20000
    LOSS = 0.15
    SAVE_TIMEOUT = 20.0  # virtual seconds
    LEASE_SECONDS = 30.0  # virtual; the keeper renews at half of it
    RETRY_STEP = 0.02  # virtual seconds, the reference retry interval

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = random.Random(seed)
        self.notes = [note_for(rng) for _ in range(self.THINGS)]
        self.lost = set(rng.sample(range(self.THINGS), self.LOST))
        self.rounds: List[AwayRound] = []
        for number in range(self.ROUNDS):
            chosen = rng.sample(range(self.THINGS), 6)
            saves = [(index, rng.randint(2, 4)) for index in chosen]
            returns = [index for index in chosen if index not in self.lost]
            rival = rng.sample(range(self.LEASE_TAGS), 2)
            start = (number * 5) % self.LEASE_TAGS
            sweep = list(range(start, start + 5))
            self.rounds.append(
                AwayRound(saves, returns, rival, sweep, rng.uniform(0.5, 1.5))
            )

    def build(self):
        clock = ManualClock()
        scenario = Scenario(timing=NOMINAL, clock=clock)
        state = AwayState(scenario, clock)
        clerk = scenario.add_phone("clerk", reactor_mode="asyncio")
        rival = scenario.add_phone("rival", reactor_mode="asyncio")
        state.clerk, state.rival = clerk, rival
        app = scenario.start(clerk, AwayClerk)
        app.bench = state
        rival_app = scenario.start(rival, Rival)
        state.thing_tags = [
            make_tag("NTAG216", uid=tag_uid(index, 2)) for index in range(self.THINGS)
        ]
        for index, tag in enumerate(state.thing_tags):
            label(app, tag, Asset(app, f"crate-{index:05d}", self.notes[index]))
        scenario.put_all(state.thing_tags, clerk)
        state.sighted.wait_for(self.THINGS, "first sightings")
        scenario.take_all(state.thing_tags, clerk)
        tap = _settle_tap(clock, state.settled_at, state.stamped)
        for index, asset in state.things.items():
            asset.reference.add_telemetry_listener(tap)
            state.stored[index] = 0
            state.expected[index] = 0
            state.pending[index] = []
        # Lease tags hold a foreign record the clerk's discoverer ignores.
        lock = NdefMessage([mime_record("application/x-crate-lock", b"shelf")])
        ident = IdentityConverters()
        acquired = Waiter()
        for index in range(self.LEASE_TAGS):
            tag = make_tag("NTAG216", uid=tag_uid(index, 3), content=lock)
            state.lease_tags.append(tag)
            # Renewals wait for the tag's next pass over the shelf, so
            # their deadline is the lease's guard, not the 5 s default.
            mine, _ = app.reference_factory.get_or_create(
                Tag(tag, clerk.port), ident, ident,
                default_timeout=self.LEASE_SECONDS,
            )
            theirs, _ = rival_app.reference_factory.get_or_create(
                Tag(tag, rival.port), ident, ident
            )
            manager = LeaseManager(mine, "clerk")
            keeper = LeaseKeeper(manager, self.LEASE_SECONDS,
                                 on_lost=lambda i=index: state.errors.append(
                                     f"clerk lost the lease on shelf tag {i}"))
            state.managers.append(manager)
            state.keepers.append(keeper)
            state.rival_managers.append(LeaseManager(theirs, "rival"))
            scenario.put(tag, clerk)
            clerk.main_looper.post(lambda k=keeper: k.start(on_acquired=lambda _l: acquired.add()))
            acquired.wait_for(index + 1, "initial leases")
            scenario.take(tag, clerk)
        clerk.sync(HANG_SECONDS)
        clerk.port.set_link(LossyLink(self.LOSS, seed=self.seed * 2 + 1))
        rival.port.set_link(LossyLink(self.LOSS, seed=self.seed * 2 + 2))
        return state

    def teardown(self, state) -> None:
        state.close()

    # -- driving virtual time ---------------------------------------------------

    def _drive(self, state, references, enter, done) -> None:
        """Bring tags in with ``enter()`` and let them work, advancing
        virtual time one retry step whenever every pending head is backing
        off, until ``done()``.

        Advancing only when the program is waiting on the clock keeps
        the schedule of radio attempts, and so every virtual time, the
        same on every run of one seed.
        """
        marks = [reference.attempts for reference in references]
        enter()
        hang = WALL() + HANG_SECONDS
        while not done():
            if WALL() > hang:
                raise BenchmarkError("away_save made no progress")
            if not self._backing_off(references, marks):
                time.sleep(0.0002)
                continue
            # pending_count takes each reference's lock, so an attempt
            # seen ending above has also armed its backoff by now.
            for reference in references:
                reference.pending_count
            marks = [reference.attempts for reference in references]
            state.clock.advance(self.RETRY_STEP)
            state.clerk.sync(HANG_SECONDS)
            state.rival.sync(HANG_SECONDS)

    @staticmethod
    def _backing_off(references, marks) -> bool:
        """Whether some reference has work and every one with work has
        made an attempt since the last advance and is not mid-attempt."""
        any_pending = False
        for reference, mark in zip(references, marks):
            pending = reference.pending_operations()
            if not pending:
                continue
            any_pending = True
            if reference.attempts == mark or any(op.in_flight for op in pending):
                return False
        return any_pending

    def _advance(self, state, seconds: float) -> None:
        state.clock.advance(seconds)
        state.clerk.sync(HANG_SECONDS)
        state.rival.sync(HANG_SECONDS)

    def _issue_saves(self, state, plan) -> int:
        issued = []

        def issue() -> None:
            for index, count in plan:
                asset = state.things[index]
                for _ in range(count):
                    asset.inspections += 1
                    state.expected[index] = asset.inspections
                    issued.append((index, self._save(state, index, asset)))

        state.clerk.main_looper.post(issue)
        state.clerk.sync(HANG_SECONDS)
        for index, op in issued:
            state.pending[index].append(op)
        return len(issued)

    def _save(self, state, index: int, asset: Asset):
        box = []

        def settled(outcome: str) -> None:
            op_id = box[0].op_id
            state.fires[op_id] = state.fires.get(op_id, 0) + 1
            state.outcomes[op_id] = outcome
            state.settled.add()

        box.append(asset.save_async(on_saved=lambda _asset: settled("saved"),
                                    on_failed=lambda: settled("failed"),
                                    timeout=self.SAVE_TIMEOUT))
        return box[0]

    def run(self, state, seconds: float, op_budget: Optional[int] = None) -> dict:
        scenario, clock = state.scenario, state.clock
        clerk, rival = state.clerk, state.rival
        windows = Windows(WALL, program_cpu)
        settles: List[float] = []
        probes = Probes()
        before = self.counters(state)
        generator_cpu = time.thread_time()
        ops = lost_saves = 0
        deadline = WALL() + seconds
        while WALL() < deadline and (op_budget is None or ops < op_budget):
            if state.next_round >= len(self.rounds):
                raise BenchmarkError("round schedule exhausted; raise ROUNDS")
            plan = self.rounds[state.next_round]
            state.next_round += 1
            ops += self._issue_saves(state, plan.saves)
            lost_saves += sum(n for index, n in plan.saves if index in self.lost)
            probes.post(clerk.main_looper)
            probes.post(rival.main_looper)
            for index in plan.rival:
                self._contend(state, index)
            sweep = [state.lease_tags[i] for i in plan.sweep]
            refs = [state.managers[i].reference for i in plan.sweep]
            self._drive(state, refs, lambda: scenario.put_all(sweep, clerk),
                        lambda: not any(r.pending_count for r in refs))
            scenario.take_all(sweep, clerk)
            for index in plan.returns:
                asset = state.things[index]
                tag = state.thing_tags[index]
                ops_back = state.pending[index]
                state.pending[index] = []
                outcomes = state.outcomes
                returned = clock.now()
                probes.post(clerk.main_looper)
                self._drive(state, [asset.reference],
                            lambda: scenario.put(tag, clerk),
                            lambda: all(op.op_id in outcomes for op in ops_back))
                stamps = state.settled_at
                state.stamped.wait_until(
                    lambda ops=ops_back: all(op.op_id in stamps for op in ops),
                    "settle stamps",
                )
                scenario.take(tag, clerk)
                for op in ops_back:
                    # Checked here and forgotten, so bookkeeping does not
                    # grow the run's memory: a second firing re-adds the
                    # op id, which check() reports.
                    if outcomes.pop(op.op_id) != "saved" or state.fires.pop(op.op_id) != 1:
                        state.errors.append(f"thing {index}: save did not succeed once")
                    settles.append(state.settled_at.pop(op.op_id) - returned)
                state.stored[index] = state.expected[index]
            self._check_exclusion(state)
            self._advance(state, plan.gap)
            windows.tick(ops)
        state.saves_issued += ops
        return {"windows": windows, "ops": windows.ops, "settle": settles,
                "ui_lag": probes.lags, "attempted": ops, "failed": 0,
                "lost_saves": lost_saves,
                "generator_cpu": time.thread_time() - generator_cpu,
                "delta": _delta(before, self.counters(state))}

    def _contend(self, state, index: int) -> None:
        tag = state.lease_tags[index]
        manager = state.rival_managers[index]
        outcome = []

        def acquired(_lease) -> None:
            if state.managers[index].holds_valid_lease:
                state.errors.append(f"two valid leases on shelf tag {index}")
            outcome.append("acquired")
            manager.release(on_released=lambda: outcome.append("released"))

        def enter() -> None:
            state.scenario.put(tag, state.rival)
            state.rival.main_looper.post(
                lambda: manager.acquire(5.0, on_acquired=acquired,
                                        on_denied=lambda: outcome.append("denied"))
            )

        state.rival_attempts += 1
        self._drive(state, [manager.reference], enter,
                    lambda: outcome[-1:] in (["denied"], ["released"]))
        state.rival_denials += outcome[0] == "denied"
        state.scenario.take(tag, state.rival)

    def _check_exclusion(self, state) -> None:
        for index, (mine, theirs) in enumerate(zip(state.managers, state.rival_managers)):
            if mine.holds_valid_lease and theirs.holds_valid_lease:
                state.errors.append(f"two valid leases on shelf tag {index} at "
                                    f"t={state.clock.now():.3f}")

    def check(self, state) -> List[str]:
        errors = list(state.errors)
        # Let every save on a never-returning tag reach its deadline.
        self._advance(state, self.SAVE_TIMEOUT + 1.0)
        expected_saves = state.saves_issued
        try:
            state.settled.wait_for(expected_saves, "late timeouts")
        except BenchmarkError as exc:
            errors.append(str(exc))
        for index, ops in state.pending.items():
            for op in ops:
                if index not in self.lost:
                    errors.append(f"thing {index}: save left pending on a returning tag")
                elif state.outcomes.get(op.op_id) != "failed":
                    errors.append(f"lost thing {index}: save did not time out")
        # Only the never-returning tags' saves are left unchecked by now.
        lost_ops = {op.op_id for ops in state.pending.values() for op in ops}
        if set(state.fires) != lost_ops or any(n != 1 for n in state.fires.values()):
            errors.append("a save listener did not fire exactly once")
        failures = [op_id for op_id, what in state.outcomes.items() if what == "failed"]
        if len(failures) != len(lost_ops):
            errors.append(f"{len(failures)} failed saves, expected "
                          f"{len(lost_ops)} on never-returning tags")
        for index, tag in enumerate(state.thing_tags):
            stored = read_asset(tag)["inspections"]
            if stored != state.stored[index]:
                errors.append(f"thing {index}: tag holds {stored}, "
                              f"expected {state.stored[index]}")
        return errors

    def counters(self, state) -> Dict[str, float]:
        return _device_counters(
            [state.clerk, state.rival],
            [asset.reference for asset in state.things.values()]
            + [m.reference for m in state.managers]
            + [m.reference for m in state.rival_managers],
            state.managers + state.rival_managers,
        )


class AwayState:
    def __init__(self, scenario, clock) -> None:
        self.scenario = scenario
        self.clock = clock
        self.clerk = None
        self.rival = None
        self.thing_tags: list = []
        self.lease_tags: list = []
        self.things: Dict[int, Asset] = {}
        self.sighted = Waiter()
        self.settled = Waiter()
        self.stamped = Waiter()
        self.settled_at: Dict[int, float] = {}
        self.outcomes: Dict[int, str] = {}
        self.fires: Dict[int, int] = {}
        self.pending: Dict[int, list] = {}
        self.expected: Dict[int, int] = {}
        self.stored: Dict[int, int] = {}
        self.managers: List[LeaseManager] = []
        self.rival_managers: List[LeaseManager] = []
        self.keepers: List[LeaseKeeper] = []
        self.errors: List[str] = []
        self.next_round = 0
        self.saves_issued = 0
        self.rival_attempts = 0
        self.rival_denials = 0

    def close(self) -> None:
        for keeper in self.keepers:
            keeper.stop(release=False)
        self.scenario.close()


# ---------------------------------------------------------------------------
# public counters, read from outside the program
# ---------------------------------------------------------------------------


def _device_counters(phones, references, managers) -> Dict[str, float]:
    from repro.ndef import ENCODE_STATS

    counters: Dict[str, float] = {
        "radio.connects": 0, "radio.attempts": 0, "radio.windows": 0,
        "radio.batched_ops": 0, "radio.bytes": 0, "reactor.steps": 0,
        "reactor.threads": 0, "looper.processed": 0,
    }
    ttfs: List[float] = []
    for phone in phones:
        port = phone.port
        counters["radio.connects"] += port.connects
        counters["radio.attempts"] += (
            port.read_attempts + port.write_attempts
            + port.format_attempts + port.lock_attempts
        )
        stats = phone.tx_scheduler.stats_snapshot()
        counters["radio.windows"] += stats["windows"]
        counters["radio.batched_ops"] += stats["batched_ops"]
        counters["radio.bytes"] += stats["retired"]["bytes_moved"] + sum(
            tag["bytes_moved"] for tag in stats["tags"].values()
        )
        ttfs.extend(
            tag["time_to_first_service"] for tag in stats["tags"].values()
            if tag["time_to_first_service"] is not None
        )
        counters["reactor.steps"] += phone.reactor.steps_executed
        counters["reactor.threads"] = max(
            counters["reactor.threads"], phone.reactor.thread_count
        )
        counters["looper.processed"] += phone.main_looper.processed_count
    counters["reference.attempts"] = sum(r.attempts for r in references)
    counters["reference.successes"] = sum(r.successes for r in references)
    counters["reference.timeouts"] = sum(r.timeouts for r in references)
    counters["reference.coalesced"] = sum(r.coalesced_writes for r in references)
    lease = [m.stats_snapshot() for m in managers]
    counters["leasing.acquisitions"] = sum(s[0] for s in lease)
    counters["leasing.denials"] = sum(s[1] for s in lease)
    counters["leasing.renewals"] = sum(s[2] for s in lease)
    counters["leasing.renewals_merged"] = sum(s[3] for s in lease)
    counters["radio.ttfs_p99_ms"] = percentile(ttfs, 99.0) * 1000.0 if ttfs else 0.0
    counters["radio.ttfs_tags"] = len(ttfs)
    hits, misses = ENCODE_STATS.snapshot()
    counters["ndef.encode_hits"] = hits
    counters["ndef.encode_misses"] = misses
    return counters


def _gateway_counters(gateway, reporters) -> Dict[str, float]:
    telemetry = gateway.telemetry()
    latency = gateway.ingest_latency()
    return {
        "gateway.ingest_p99_ms": (latency.p99 or 0.0) * 1000.0,
        "gateway.ingest_samples": latency.count,
        "gateway.recorded": sum(r.recorded for r in reporters),
        "gateway.coalesced": sum(r.coalesced for r in reporters),
        "gateway.submitted": telemetry["events_submitted"],
        "gateway.ingested": telemetry["events_ingested"],
        "gateway.batches": telemetry["batches"],
        "gateway.dropped_queue": telemetry["events_dropped_queue"],
        "gateway.dropped_reporter": telemetry["events_dropped_reporter"],
        "gateway.dropped_streams": telemetry["events_dropped_streams"],
        **{
            f"gateway.shard{index}.ingested": shard["ingested"]
            for index, shard in enumerate(telemetry["per_shard"])
        },
    }


#: Readings that are levels, not running totals: a run keeps their end value.
GAUGES = frozenset((
    "reactor.threads", "radio.ttfs_p99_ms", "radio.ttfs_tags",
    "gateway.ingest_p99_ms", "gateway.ingest_samples",
))


def _delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    """Counter growth over a run; gauges keep their end value."""
    return {
        key: value if key in GAUGES else value - before.get(key, 0)
        for key, value in after.items()
    }


WORKLOADS = {
    TapSweep.name: TapSweep,
    AwaySave.name: AwaySave,
    FleetIngest.name: FleetIngest,
}
