"""Golden byte guard: sha256 of format_report output for every report kind,
of the same sweep reports streamed job by job by write_report, and of the
char-table dump.

The report digests in data/report_digests.json were recorded from the
row-at-a-time formatter that preceded per-modulus formatting, the char-table
digests from the character layer that preceded the per-prime-power rewrite
(n = 2520, five generators, from the dlog-indexed group that preceded the
forward build of the units), and the edge-values digests from the per-row
formatter that preceded the per-value string tables.
A change that alters a single byte of any identity, format, parallelism or
character table fails here.

Record the digests of newly added cases with

    PYTHONPATH=src python tests/test_report_digests.py

The script is add-only: it writes just the keys that are missing.  When a
recorded key's digest differs, it prints that key and exits 1 without
writing.  For an intended format change, delete the key first.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import pathlib
import sys

import numpy as np
import pytest

from menonsums import format_report, reproduce_remark, run_sweep, search_counterexamples
from menonsums import harness
from menonsums.cli import char_table_bytes
from menonsums.harness import FORMATS, IDENTITIES, STRICT_GEN, IdentityReport, SweepConfig, write_report

DIGESTS = pathlib.Path(__file__).parent / "data" / "report_digests.json"


def _edge_report() -> IdentityReport:
    """A report built directly from columns, one job each over moduli 7 and 9: residuals
    0.0, 1e-300, the subnormal 5e-324, 9.9995e-07 (rounds up at .3e) and
    0.49999, negative lhs and rhs, skipped rows, and repeated values."""
    config = SweepConfig(identity="theorem2", n_max=9, s_values=(1, 2))
    params = np.array([(7, 1, j) for j in range(6)] + [(9, 2, j) for j in range(6)], dtype=np.int32)
    lhs = np.array([6, -3, 0, 5, 5, -12, 18, 0, -1, -1, 2**40, -(2**40)], dtype=np.int64)
    rhs = np.array([6, -3, 0, 6, 5, -12, 18, 0, -1, 0, 2**40, -(2**40)], dtype=np.int64)
    residual = np.array([0.0, 1e-300, 0.0, 5e-324, 9.9995e-07, 0.49999, 0.0, 0.0, 1e-300, 2.5e-07, 9.9995e-07, 0.49999])
    status = np.array([0, 0, 2, 1, 0, 1, 0, 2, 0, 1, 0, 1], dtype=np.int8)
    jobs = [tuple(col[rows] for col in (params, lhs, residual, rhs, status)) for rows in (slice(0, 6), slice(6, 12))]
    return IdentityReport(config, jobs)


def _reports():
    """(case name, zero-argument report factory, formats, the case's sweep
    config or None when the report is no sweep's) for every guarded case."""
    for ident in IDENTITIES:
        cfg = SweepConfig(identity=ident, n_max=64, s_values=(1, 2))
        yield f"{ident}-n64-s12", (lambda cfg=cfg: run_sweep(cfg)), FORMATS, cfg
    empty = SweepConfig(identity="theorem2", n_max=3, s_values=(2,))
    yield "theorem2-empty", (lambda: run_sweep(empty)), FORMATS, empty
    yield "remark", reproduce_remark, FORMATS, None
    search = SweepConfig(STRICT_GEN, 36, (2,))
    yield "search-n36-s2", (lambda: search_counterexamples(36, (2,))), FORMATS, search
    yield "edge-values", _edge_report, FORMATS, None
    jobs2 = SweepConfig(identity="theorem2", n_max=64, s_values=(1, 2), parallelism=2)
    yield "theorem2-n64-s12-jobs2", (lambda: run_sweep(jobs2)), ("csv",), jobs2


# Each case's format_report bytes ("report"), and for a sweep's text, CSV and
# JSON the bytes write_report streams at parallelism 1 and 2.
CASES = [
    (name, make, fmt, path)
    for name, make, fmts, config in _reports()
    for fmt in fmts
    for path in ("report", *(("stream", "stream-jobs2") if config else ()))
]
CONFIGS = {name: config for name, _, _, config in _reports()}

CHAR_TABLE_CASES = [(n, fmt) for n in (1, 12, 16, 45, 64, 97, 360, 1024, 2520) for fmt in ("csv", "json")]


def _streamed(config: SweepConfig, fmt: str) -> bytes:
    out = io.BytesIO()
    write_report(config, fmt, lambda: contextlib.nullcontext(out.write))
    return out.getvalue()


def _digest(name, make, fmt, path="report") -> str:
    if path == "report":
        payload = format_report(make(), fmt)
    else:
        jobs = 2 if path == "stream-jobs2" else 1
        payload = _streamed(dataclasses.replace(CONFIGS[name], parallelism=jobs), fmt)
        # JSON echoes config.parallelism first, in its head; the serial digest is recorded.
        payload = payload.replace(b'"parallelism": %d' % jobs, b'"parallelism": %d' % CONFIGS[name].parallelism, 1)
    return hashlib.sha256(payload).hexdigest()


# Formatting decodes one job's rows, at most _RUN_ROWS of them, at a time; 7
# splits runs inside one modulus, so labels must carry across the split.  A
# _BATCH of 7 n splits the scalar reports into many jobs, so runs end at job ends.
# Pool workers are forked, so they format with the patched values too.
@pytest.mark.parametrize(
    "run_rows, batch",
    [(harness._RUN_ROWS, harness._BATCH), (7, harness._BATCH), (harness._RUN_ROWS, 7)],
    ids=[str(harness._RUN_ROWS), "7", f"{harness._RUN_ROWS}-batch7"],
)
@pytest.mark.parametrize(
    "name, make, fmt, path",
    CASES,
    ids=[f"{n}-{f}" if p == "report" else f"{n}-{f}-{p}" for n, _, f, p in CASES],
)
def test_report_bytes_match_golden_digest(name, make, fmt, path, run_rows, batch, monkeypatch):
    monkeypatch.setattr(harness, "_RUN_ROWS", run_rows)
    monkeypatch.setattr(harness, "_BATCH", batch)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # two workers even on a one-CPU host
    expected = json.loads(DIGESTS.read_text())
    assert _digest(name, make, fmt, path) == expected[f"{name}.{fmt}"]


@pytest.mark.parametrize("n, fmt", CHAR_TABLE_CASES, ids=[f"n{n}-{f}" for n, f in CHAR_TABLE_CASES])
def test_char_table_bytes_match_golden_digest(n, fmt):
    expected = json.loads(DIGESTS.read_text())
    assert hashlib.sha256(char_table_bytes(n, fmt)).hexdigest() == expected[f"char-table-n{n}.{fmt}"]


def test_parallel_csv_digest_equals_serial_digest():
    expected = json.loads(DIGESTS.read_text())
    assert expected["theorem2-n64-s12-jobs2.csv"] == expected["theorem2-n64-s12.csv"]


if __name__ == "__main__":
    recorded = json.loads(DIGESTS.read_text())
    digests = {f"{name}.{fmt}": _digest(name, make, fmt) for name, make, fmt, path in CASES if path == "report"}
    for n, fmt in CHAR_TABLE_CASES:
        digests[f"char-table-n{n}.{fmt}"] = hashlib.sha256(char_table_bytes(n, fmt)).hexdigest()
    changed = sorted(key for key in recorded.keys() & digests.keys() if recorded[key] != digests[key])
    if changed:
        print("digests differ from the recorded ones (delete a key to re-record it):", *changed, sep="\n  ")
        sys.exit(1)
    added = sorted(digests.keys() - recorded.keys())
    DIGESTS.write_text(json.dumps({**recorded, **digests}, indent=1, sort_keys=True) + "\n")
    print(f"added {len(added)} digests to {DIGESTS}:", *added, sep="\n  ")
