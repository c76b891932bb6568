"""Tests of the benchmark itself: run with ``python3 -m pytest -q perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

# Each workload's command at a small grid: same code paths, a second or less.
SMALL_N_MAX = {"theorem2-csv": "48", "menon-kernel": "300", "search-json-jobs2": "30"}


def small_argv(workload: str, output) -> list[str]:
    argv = list(run.WORKLOADS[workload])
    argv[argv.index("--n-max") + 1] = SMALL_N_MAX[workload]
    return argv + ["--output", str(output)]


def test_benchmark_json_matches_run_py():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _, _) in run.PER_LAYER.items()
    }
    assert set(json.loads((run.BENCH / "reference.json").read_text())["workloads"]) == set(run.WORKLOADS)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_every_expected_span_is_recorded(workload, tmp_path):
    """A wrapper that misses a binding (a `from .x import y` name, say)
    records nothing; every span the workload should reach must show up,
    and tracing must not change the report bytes."""
    plain = subprocess.run(
        [sys.executable, "-m", "menonsums", *small_argv(workload, tmp_path / "plain")],
        env=run.child_env(), check=False,
    )
    spans = tmp_path / "spans.npz"
    traced = subprocess.run(
        [sys.executable, str(run.BENCH / "trace_run.py"), str(spans), "--",
         *small_argv(workload, tmp_path / "traced")],
        env=run.child_env(), capture_output=True, text=True, check=False,
    )
    assert traced.returncode == plain.returncode == 0, traced.stderr
    assert "not traced" not in traced.stderr
    assert (tmp_path / "traced").read_bytes() == (tmp_path / "plain").read_bytes()
    metrics, calls = run.read_spans(spans)
    assert [s for s in run.EXPECTED_SPANS[workload] if not calls.get(s)] == []
    assert metrics["harness.rows"] == run.count_rows(
        (tmp_path / "plain").read_bytes(), "json" if "json" in workload else "csv"
    )


def test_layer_time_counts_outermost_spans_and_self_time_excludes_children(tmp_path):
    # harness.format [0, 10] holds label [1, 3] and label [4, 5], which holds
    # a nested label [4.2, 4.8].
    path = tmp_path / "spans.npz"
    np.savez(
        path,
        names=np.array(["harness.format", "characters.label"]),
        name=np.array([0, 1, 1, 1], dtype=np.int32),
        start=np.array([0.0, 1.0, 4.0, 4.2]),
        end=np.array([10.0, 3.0, 5.0, 4.8]),
        parent=np.array([-1, 0, 0, 2], dtype=np.int32),
        nested=np.array([0, 0, 0, 1], dtype=np.int8),
        counts=np.array(json.dumps({"harness.rows": 7})),
    )
    m, calls = run.read_spans(path)
    assert m["harness.format.s"] == pytest.approx(10.0)
    assert m["harness.format.self_s"] == pytest.approx(7.0)
    assert m["characters.label.s"] == pytest.approx(3.0)
    assert m["characters.label.calls"] == 3
    assert calls == {"harness.format": 1, "characters.label": 3}
    assert m["harness.rows"] == 7
    assert m["kernels.dlog.s"] == 0.0


def test_wait4_reads_each_child_not_a_running_maximum():
    big = run.run_child([sys.executable, "-c", "b = bytearray(120_000_000); b[::4096] = b'x' * len(b[::4096])"])
    small = run.run_child([sys.executable, "-c", "pass"])
    assert big[0] == small[0] == 0
    assert big[3] > 100 and small[3] < 60
    busy = run.run_child([sys.executable, "-c", "import time\nt = time.process_time()\nwhile time.process_time() - t < 0.3: pass"])
    assert busy[2] >= 0.25


def test_checking_a_large_report_does_not_inflate_the_next_childs_peak_rss(tmp_path):
    # A spawned child's ru_maxrss starts from the spawning process's RSS.
    script = f"""
import sys
sys.path.insert(0, {str(run.BENCH)!r})
from pathlib import Path
import run
report = Path({str(tmp_path / "report")!r})
with report.open("wb") as fh:
    for _ in range(100):
        fh.write(b"x" * 1_000_000)
run.report_digest(report)
print(run.run_child([sys.executable, "-c", "pass"])[3])
"""
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    assert float(done.stdout) < 60


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "menon-kernel", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
