"""Pure helpers shared by the workloads, the tracer and the report modes.

Nothing here imports ``repro``: these are the benchmark's own rules for
turning samples into the numbers it prints, kept separate so the unit
tests in ``test_measure.py`` can pin them down.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Percentiles the report may quote for a latency sample, highest first.
PERCENTILE_LADDER: Tuple[float, ...] = (99.9, 99.0, 90.0, 50.0)

#: Samples that must lie beyond a quoted percentile for it to mean anything.
MIN_TAIL_SAMPLES = 10


def percentile(sample: Sequence[float], p: float) -> float:
    """Percentile ``p`` (0..100) with linear interpolation between ranks.

    Interpolated rather than nearest-rank so that a virtual-time sample
    built from a few discrete radio costs still yields a value that moves
    with the data instead of snapping to the same rank value every run.
    """
    if not sample:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    ordered = sorted(sample)
    position = (len(ordered) - 1) * p / 100.0
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return float(ordered[low])
    weight = position - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


def samples_beyond(count: int, p: float) -> float:
    """How many of ``count`` samples lie beyond percentile ``p`` (rounded
    so that 0.1 % of 10,000 is 10, not 9.999...)."""
    return round(count * (100.0 - p) / 100.0, 6)


def highest_supported_percentile(
    count: int, ladder: Sequence[float] = PERCENTILE_LADDER
) -> Optional[float]:
    """The highest percentile of ``ladder`` with at least
    :data:`MIN_TAIL_SAMPLES` samples beyond it, or ``None``."""
    for p in sorted(ladder, reverse=True):
        if samples_beyond(count, p) >= MIN_TAIL_SAMPLES:
            return p
    return None


def quartile_spread(values: Sequence[float]) -> Tuple[float, float, float, float]:
    """``(median, q1, q3, (q3 - q1) / median)`` as ``statistics.quantiles``
    gives them (the exclusive method), the rule the steadiness report
    applies."""
    if len(values) < 2:
        raise ValueError("need at least two values for quartiles")
    q1, median, q3 = statistics.quantiles(values, n=4)
    if median:
        spread = (q3 - q1) / median
    else:
        spread = 0.0 if q1 == q3 else math.inf  # all zero reads as steady
    return median, q1, q3, spread


def failed_share(
    attempted: int,
    failed_ops: int = 0,
    timed_out_ops: int = 0,
    dropped_events: Iterable[int] = (),
) -> float:
    """Ops settled by failure or timeout plus events dropped at any level,
    over ops attempted. A drop counts as one failed op per event."""
    if attempted <= 0:
        raise ValueError("failed_share needs at least one attempted op")
    lost = failed_ops + timed_out_ops + sum(dropped_events)
    return lost / attempted


def modelled_air_ms(
    connects: int,
    attempts: int,
    byte_count: int,
    connect_seconds: float,
    per_op_seconds: float,
    seconds_per_byte: float,
) -> float:
    """Radio air time implied by the port counters, in milliseconds.

    Every connect (a standalone operation or a batched session) pays the
    connect share, every transfer attempt pays the per-operation share,
    and every byte moved pays the per-byte cost. This is the
    ``TransferTiming`` arithmetic summed over counters: a standalone
    operation is one connect plus one attempt, so it costs
    ``operation_seconds(bytes)``; a session of n operations costs
    ``connect_seconds + sum(batched_operation_seconds(b_i))``.
    """
    seconds = (
        connects * connect_seconds
        + attempts * per_op_seconds
        + byte_count * seconds_per_byte
    )
    return seconds * 1000.0


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: str, value: int) -> None:
        self.key = key
        self.value = value


def calibration_kernel(rounds: int = 60) -> int:
    """A fixed slice of interpreter work: objects, dicts, calls, JSON.

    Timed between windows to read how fast the host runs Python right
    now. The mix resembles what the program spends its time on (small
    objects, attribute and dict traffic, JSON text), so a host that is
    slower for one is slower for the other.
    """
    total = 0
    table: Dict[str, int] = {}
    for index in range(rounds):
        cells = [_Cell(f"k{slot}", slot * index) for slot in range(20)]
        for cell in cells:
            table[cell.key] = cell.value
        total += sum(table.values()) % 7
        text = json.dumps(table, sort_keys=True)
        total += len(json.loads(text))
    return total


#: Kernel time on the reference host; normalized figures are "as if the
#: kernel took this long", i.e. in reference-host units.
REFERENCE_KERNEL_SECONDS = 0.001


def host_speed(wall, cpu, repeats: int = 5) -> Tuple[float, float]:
    """Median ``(wall, cpu)`` seconds of the calibration kernel."""
    walls, cpus = [], []
    for _ in range(repeats):
        wall_start, cpu_start = wall(), cpu()
        calibration_kernel()
        cpus.append(cpu() - cpu_start)
        walls.append(wall() - wall_start)
    return statistics.median(walls), statistics.median(cpus)


class Windows:
    """Closed-loop throughput and CPU cost, one value per time window.

    The generator calls :meth:`tick` after every completed unit of work
    with the cumulative op count; a window closes once ``width`` wall
    seconds have passed. Reporting the median over windows keeps a burst
    of host noise in one window from moving the run's figure.

    :func:`calibration_kernel` is timed on the calling thread before the
    first window and after every closed one (outside any window, while
    the closed loop is idle), and each window's figures are also kept
    scaled to reference-host speed by the mean of the timings on either
    side of it. ``idle``, if given, is called before each timing and
    returns once the program has finished its background work, so the
    kernel never shares the CPU with it; the time it takes belongs to
    the window it closes.
    """

    def __init__(self, wall, cpu, width: float = 0.2,
                 idle: Optional[Callable[[], None]] = None) -> None:
        self._wall = wall
        self._cpu = cpu
        self._width = width
        self._idle = idle
        self.rates: List[float] = []
        self.cpu_per_op: List[float] = []
        self.norm_rates: List[float] = []
        self.norm_cpu_per_op: List[float] = []
        self.kernel_walls: List[float] = []
        self.ops = 0
        self.wall_seconds = 0.0
        self.cpu_seconds = 0.0
        if idle is not None:
            idle()
        self._kernel = host_speed(time.perf_counter, time.thread_time)
        self._start_wall = wall()
        self._start_cpu = cpu()
        self._start_ops = 0

    def tick(self, ops: int) -> None:
        now = self._wall()
        elapsed = now - self._start_wall
        if elapsed < self._width:
            return
        if self._idle is not None:
            self._idle()
            now = self._wall()
            elapsed = now - self._start_wall
        cpu_now = self._cpu()
        done = ops - self._start_ops
        rate = cpu_per_op = None
        if done > 0:
            rate = done / elapsed
            cpu_per_op = (cpu_now - self._start_cpu) / done
            self.rates.append(rate)
            self.cpu_per_op.append(cpu_per_op)
        self.ops += done
        self.wall_seconds += elapsed
        self.cpu_seconds += cpu_now - self._start_cpu
        before = self._kernel
        after = self._kernel = host_speed(time.perf_counter, time.thread_time)
        self.kernel_walls.append(after[0])
        # The host's speed over the window: the mean of the kernel
        # timings taken just before and just after it.
        kernel_wall = (before[0] + after[0]) / 2
        kernel_cpu = (before[1] + after[1]) / 2
        if rate is not None:
            self.norm_rates.append(rate * kernel_wall / REFERENCE_KERNEL_SECONDS)
            self.norm_cpu_per_op.append(cpu_per_op * REFERENCE_KERNEL_SECONDS / kernel_cpu)
        # The next window starts after the kernel timing.
        now = self._wall()
        cpu_now = self._cpu()
        self._start_wall = now
        self._start_cpu = cpu_now
        self._start_ops = ops

    def to_reference(self, seconds: float) -> float:
        """``seconds`` of wall time measured just now, in reference-host
        units, by the latest kernel timing."""
        return seconds * REFERENCE_KERNEL_SECONDS / self._kernel[0]

    def ops_per_s(self, normalized: bool = False) -> float:
        return statistics.median(self.norm_rates if normalized else self.rates)

    def cpu_us_per_op(self, normalized: bool = False) -> float:
        return statistics.median(
            self.norm_cpu_per_op if normalized else self.cpu_per_op) * 1e6
