"""The bench regression guard refuses files the bench run did not write."""

import json

from benchmarks import check_regression as guard
from benchmarks import conftest as bench_conftest


def test_emitted_files_carry_the_session_nonce(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_conftest, "_BENCH_DIR", tmp_path)
    payload = {"row": 1}
    first = json.loads(bench_conftest.emit_bench_json("probe", payload).read_text())
    again = json.loads(bench_conftest.emit_bench_json("other", payload).read_text())
    assert first["row"] == 1
    assert first[guard.RUN_NONCE_KEY] == again[guard.RUN_NONCE_KEY]
    assert guard.RUN_NONCE_KEY not in payload  # the caller's dict is untouched


def test_stale_and_missing_files_are_refused(tmp_path, monkeypatch):
    names = ("BENCH_fresh.json", "BENCH_same.json", "BENCH_bare.json")
    monkeypatch.setattr(guard, "BENCH_DIR", tmp_path)
    monkeypatch.setattr(
        guard, "GUARDED_ROWS", [guard.GuardedRow(name, "row") for name in names]
    )
    committed = {name: {"row": 1, guard.RUN_NONCE_KEY: "old"} for name in names}
    monkeypatch.setattr(guard, "committed_json", committed.get)
    fresh = {
        "BENCH_fresh.json": {"row": 1, guard.RUN_NONCE_KEY: "new"},
        "BENCH_same.json": {"row": 1, guard.RUN_NONCE_KEY: "old"},
        "BENCH_bare.json": {"row": 1},
    }
    for name, payload in fresh.items():
        (tmp_path / name).write_text(json.dumps(payload))
    assert guard.unrewritten_files() == ["BENCH_bare.json", "BENCH_same.json"]
    monkeypatch.setattr("sys.argv", ["check_regression.py"])
    assert guard.main() == 2
    for name in names:
        (tmp_path / name).write_text(json.dumps(fresh["BENCH_fresh.json"]))
    assert guard.unrewritten_files() == []
    assert guard.main() == 0
    (tmp_path / "BENCH_bare.json").unlink()
    assert guard.unrewritten_files() is None
    assert guard.main() == 2
