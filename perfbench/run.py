#!/usr/bin/env python3
"""MORENA end-to-end benchmark: one command, three seeded workloads.

Run one workload (the form the last line of output is meant for)::

    python3 perfbench/run.py --workload tap_sweep --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``. The lines above it are a human-readable report of
every metric the workload measures, with unit, sample count and the
clock behind it, plus a ``detail`` JSON line with provenance.

Report modes (each workload runs in its own fresh process):

    python3 perfbench/run.py --report [--seconds 10] [--seed 1]
    python3 perfbench/run.py --steadiness 5 [--workload tap_sweep]
    python3 perfbench/run.py --determinism [--seed 1]

A run whose correctness checks fail exits non-zero and prints no metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Builds timed per run; ``setup_s`` is their median. A short build is
#: repeated until the builds span ``SETUP_MIN_SECONDS``, so that the
#: median covers several of the host's speed swings.
SETUP_REPEATS = 9
SETUP_MIN_SECONDS = 5.0
#: Kernel runs per host-speed reading around a build: twice the windows'
#: count, since each build has only its own two readings to go by.
SETUP_KERNEL_REPEATS = 10

#: The loosest bound a guarded end-to-end metric may have.
MAX_BOUND = 0.25

#: Seed held out from tuning: re-check later claims on it.
HELD_OUT_SEED = 9173

WORKLOAD_NAMES = ("tap_sweep", "away_save", "fleet_ingest")


def load_benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def import_program():
    """Import the program from the checkout's ``src``; exit 2 without it."""
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import repro
        import workloads
    except ImportError as exc:
        print(f"cannot import the program under test from src/: {exc}", file=sys.stderr)
        sys.exit(2)
    if not os.path.abspath(repro.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"imported repro from {repro.__file__}, not from this checkout's src/",
              file=sys.stderr)
        sys.exit(2)
    return workloads


def pin_to_one_cpu() -> Optional[int]:
    """Run every thread of this process on one CPU.

    The program is pure Python: its threads take turns on the
    interpreter lock whatever the core count, but handing the lock
    between threads on two cores made throughput and CPU per op vary by
    a quarter from run to run on a 2-vCPU host. On one core they vary by
    a tenth. Returns the CPU, or ``None`` where affinity is unsupported.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def provenance(workload, seed: int, trace: bool, pinned_cpu: Optional[int]) -> dict:
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    # Checkouts without git history are identified by their sources.
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "nproc": os.cpu_count(),
        "pinned_cpu": pinned_cpu,
        "python": platform.python_version(),
        "workload": workload.name,
        "backend": workload.backend,
        "traced": trace,
    }


def measure(name: str, seed: int, seconds: float, trace: bool,
            pinned_cpu: Optional[int]) -> dict:
    """Build, run and check one workload in this process."""
    workloads = import_program()
    import tracing
    from measure import REFERENCE_KERNEL_SECONDS, host_speed
    from report import end_to_end_report, layer_report

    workload = workloads.WORKLOADS[name](seed)
    tracer = tracing.Tracer() if trace else None
    setups: List[Tuple[float, float]] = []  # (reference-host, raw) seconds
    errors: List[str] = []
    state = None
    try:
        if tracer is not None:
            # The overhead base: half the run on a build with no wrapper
            # installed at all. Then the same schedule again from a fresh
            # build with the tracer installed (reactor steps are wrapped
            # when they register, so it must be in place before build()).
            state = workload.build()
            plain = workload.run(state, seconds / 2)
            errors += workload.check(state)
            workload.teardown(state)
            state = None
            gc.collect()
            tracer.install()
            state = workload.build()
            before = tracing.thread_cpu_seconds()
            tracer.active = True
            result = workload.run(state, seconds / 2)
            tracer.active = False
            after = tracing.thread_cpu_seconds()
            reactor_cpu = sum(
                cpu - before.get(thread, 0.0) for thread, cpu in after.items()
                if thread.endswith(("-timer", "-aioloop")) or "-worker-" in thread
            )
        else:
            setup_started = time.perf_counter()
            while True:
                kernel_before, _ = host_speed(time.perf_counter, time.thread_time,
                                              SETUP_KERNEL_REPEATS)
                started = time.perf_counter()
                state = workload.build()
                elapsed = time.perf_counter() - started
                # The host's speed over the build: the kernel timings on
                # either side of it (the build leaves no work running).
                kernel_after, _ = host_speed(time.perf_counter, time.thread_time,
                                             SETUP_KERNEL_REPEATS)
                kernel_wall = (kernel_before + kernel_after) / 2
                setups.append((elapsed * REFERENCE_KERNEL_SECONDS / kernel_wall, elapsed))
                if (len(setups) >= SETUP_REPEATS
                        and time.perf_counter() - setup_started >= SETUP_MIN_SECONDS):
                    break
                workload.teardown(state)
                state = None
                gc.collect()  # the next build starts from a clean heap
            result = workload.run(state, seconds)
        errors += workload.check(state)
    finally:
        if state is not None:
            workload.teardown(state)
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {
        "errors": errors,
        "provenance": provenance(workload, seed, trace, pinned_cpu),
        "attempted": result["attempted"],
        "failed": result["failed"],
    }
    if trace:
        out["layers"] = layer_report(workload, result, plain, tracer, reactor_cpu)
        out["trace_file"] = tracer.write_chrome_trace(
            os.path.join(HERE, "out", f"trace-{name}-{seed}.json")
        )
    else:
        out["metrics"] = end_to_end_report(workload, result, setups, peak_rss_mb)
    return out


def print_table(title: str, metrics: Dict[str, dict]) -> None:
    print(f"== {title}")
    for key, entry in metrics.items():
        count = entry.get("count")
        clock = entry.get("clock", "")
        print(
            f"  {key:38s} {entry['value']:>14.4f} {entry['unit']:8s}"
            f" n={count if count is not None else '-':<8} {clock}"
        )


def single(args) -> int:
    spec = load_benchmark_spec()
    trace = bool(args.trace)
    outcome = measure(args.workload, args.seed, args.seconds, trace, pin_to_one_cpu())
    if outcome["errors"]:
        print(f"correctness check failed ({len(outcome['errors'])}):", file=sys.stderr)
        for error in outcome["errors"][:20]:
            print(f"  {error}", file=sys.stderr)
        return 1
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    table = outcome["layers" if trace else "metrics"]
    missing = [name for name in names if name not in table]
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 1
    print_table(f"{args.workload} seed={args.seed} ({'traced' if trace else 'untraced'})", table)
    if trace:
        print(f"chrome trace: {outcome['trace_file']}")
    print("detail " + json.dumps({"provenance": outcome["provenance"], "metrics": table}))
    result = {
        "correct": True,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": table[name]["value"], "unit": table[name]["unit"]}
            for name in names
        },
    }
    print(json.dumps(result))
    return 0


def child_detail(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in a fresh process and parse its detail line."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(
            f"{workload} seed={seed} failed (exit {proc.returncode}):\n{proc.stderr}"
        )
    for line in proc.stdout.splitlines():
        if line.startswith("detail "):
            return json.loads(line[len("detail "):])
    raise SystemExit(f"{workload} seed={seed}: no detail line")


def report_mode(args) -> int:
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    for name in names:
        detail = child_detail(name, args.seed, args.seconds, 0)
        print_table(f"{name} seed={args.seed} untraced", detail["metrics"])
        traced = child_detail(name, args.seed, args.seconds, 1)
        print_table(f"{name} seed={args.seed} traced (per layer)", traced["metrics"])
        print(f"  provenance: {json.dumps(detail['provenance'])}")
    return 0


def steadiness_mode(args) -> int:
    from measure import quartile_spread

    spec = load_benchmark_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    flagged = 0
    for name in names:
        runs = [
            child_detail(name, args.seed + index, args.seconds, 0)["metrics"]
            for index in range(args.steadiness)
        ]
        print(f"== {name}: {args.steadiness} fresh-process runs, seeds "
              f"{args.seed}..{args.seed + args.steadiness - 1}")
        # A p99.9 appears only in runs with enough samples to quote it.
        for metric in [m for m in runs[0] if all(m in run for run in runs)]:
            values = [run[metric]["value"] for run in runs]
            median, q1, q3, spread = quartile_spread(values)
            bound = bounds.get(metric)
            flag = ""
            if bound is None:
                if spread > MAX_BOUND:
                    flag = f"  <-- too noisy to guard (spread above {MAX_BOUND})"
            elif spread > bound:
                flag = "  <-- SPREAD EXCEEDS ITS BOUND"
                flagged += 1
            elif spread > bound / 3:
                flag = "  <-- spread above a third of its bound"
            print(f"  {metric:38s} median {median:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}"
                  f"  spread {spread:7.2%}  bound {bound if bound is not None else '-'}{flag}")
    return 1 if flagged else 0


#: Counts and virtual-time figures that must repeat exactly for one seed.
DETERMINISTIC = (
    "radio.connects_per_op",
    "radio.attempts_per_op",
    "reference.coalesced_share",
    "leasing.writes_per_renewal",
    "events_recorded",
    "settle_p50_ms",
    "settle_p99_ms",
)


def determinism_mode(args) -> int:
    """Two fresh processes, one seed, a fixed op budget: the counts and
    the virtual settle times must agree."""
    mismatches = 0
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    for name in names:
        runs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--counts", name,
                 "--seed", str(args.seed)],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            if proc.returncode != 0:
                raise SystemExit(f"{name}: counts run failed:\n{proc.stderr}")
            runs.append(json.loads(proc.stdout.splitlines()[-1]))
        for key in DETERMINISTIC:
            if key not in runs[0]:
                continue
            first, second = runs[0][key], runs[1][key]
            tolerance = 0.1 if key.endswith("_ms") else 0.0
            same = abs(first - second) <= tolerance
            mismatches += not same
            print(f"  {name:12s} {key:30s} {first!r:>22} {second!r:>22}"
                  f"  {'same' if same else 'DIFFERENT'}")
    print(f"held-out seed for re-checking claims: {HELD_OUT_SEED}")
    return 1 if mismatches else 0


def counts_mode(args) -> int:
    """One fixed-budget run, printing the determinism fingerprint."""
    workloads = import_program()
    from report import fingerprint

    workload = workloads.WORKLOADS[args.counts](args.seed)
    state = workload.build()
    try:
        result = workload.run(state, 600.0, workload.DETERMINISM_OPS)
        errors = workload.check(state)
    finally:
        workload.teardown(state)
    if errors:
        print("\n".join(errors[:20]), file=sys.stderr)
        return 1
    print(json.dumps(fingerprint(result)))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="every workload, untraced and traced, in fresh processes")
    parser.add_argument("--steadiness", type=int, metavar="RUNS",
                        help="median and quartiles over RUNS fresh-process runs")
    parser.add_argument("--determinism", action="store_true",
                        help="two same-seed runs must give identical counts")
    parser.add_argument("--counts", choices=WORKLOAD_NAMES, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.counts:
        return counts_mode(args)
    if args.report:
        return report_mode(args)
    if args.steadiness:
        return steadiness_mode(args)
    if args.determinism:
        return determinism_mode(args)
    if not args.workload:
        parser.error("--workload is required")
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
