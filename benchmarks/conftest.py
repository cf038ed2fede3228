"""Shared helpers for the benchmark/reproduction harness.

Every module in this directory regenerates one table or figure of the
paper (see DESIGN.md's experiment index) and prints the reproduced
rows/series via ``repro.harness.report``. Run with::

    pytest benchmarks/ --benchmark-only -s

Benches that feed CI dashboards additionally emit a machine-readable
``BENCH_<name>.json`` next to this file via :func:`emit_bench_json`.
"""

from __future__ import annotations

import json
import pathlib
import secrets
from typing import Any, Dict

import pytest

_BENCH_DIR = pathlib.Path(__file__).resolve().parent

# Fresh for every bench session. ``check_regression.py`` refuses a file
# whose nonce is missing or equal to the committed one: such a file was
# not rewritten by this run (its bench failed or did not run).
RUN_NONCE_KEY = "run_nonce"
_RUN_NONCE = secrets.token_hex(8)


def emit_bench_json(name: str, payload: Dict[str, Any]) -> pathlib.Path:
    """Write ``payload`` to ``benchmarks/BENCH_<name>.json`` and return the path.

    The JSON is stable (sorted keys, trailing newline) so CI can diff
    successive runs; payloads should stick to plain numbers/strings.
    Every file is stamped with this session's run nonce.
    """
    path = _BENCH_DIR / f"BENCH_{name}.json"
    stamped = dict(payload, **{RUN_NONCE_KEY: _RUN_NONCE})
    path.write_text(json.dumps(stamped, indent=2, sort_keys=True) + "\n")
    return path


@pytest.fixture
def bench_json():
    """Fixture form of :func:`emit_bench_json` for benches that prefer it."""
    return emit_bench_json


@pytest.fixture
def no_capture_note():
    """Reminder printed once per module when output capture is on."""
    return None
