"""Sweep harness: grids, reports, serialization, CLI, exit codes."""

import concurrent.futures
import contextlib
import errno
import functools
import importlib.util
import json
import math
import multiprocessing
import os
import pathlib
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures import Future
from dataclasses import asdict

import numpy as np
import pytest

from menonsums import (
    DomainError,
    IntegrityError,
    ResourceError,
    conductor,
    divisor_tau,
    divisors,
    enumerate_characters,
    euler_phi,
    format_report,
    generalized_sum,
    klee_phi,
    principal_character,
    reproduce_remark,
    run_sweep,
    search_counterexamples,
    sury_sum,
    tau_s,
)
from menonsums import cli, harness
from menonsums.harness import IDENTITIES, STATUS_NAMES, STRICT_GEN, SweepConfig
from menonsums.characters import CharacterGroup, character_group, character_labels
from menonsums.cli import char_table_bytes, main

DATA = pathlib.Path(__file__).parent / "data"


class TestConfigValidation:
    def test_unknown_identity(self):
        with pytest.raises(DomainError):
            run_sweep(SweepConfig(identity="nope", n_max=10))

    def test_bad_bounds(self):
        with pytest.raises(DomainError):
            run_sweep(SweepConfig(identity="menon", n_max=0))
        with pytest.raises(ResourceError):
            run_sweep(SweepConfig(identity="menon", n_max=10**6))
        with pytest.raises(ResourceError):
            run_sweep(SweepConfig(identity="sury", n_max=10**4, s_values=(2,)))

    def test_bad_tolerance_s_parallelism(self):
        with pytest.raises(DomainError):
            run_sweep(SweepConfig(identity="menon", n_max=5, tolerance=0.5))
        with pytest.raises(DomainError):
            run_sweep(SweepConfig(identity="menon", n_max=5, s_values=()))
        with pytest.raises(DomainError):
            run_sweep(SweepConfig(identity="menon", n_max=5, s_values=(0,)))
        with pytest.raises(DomainError):
            run_sweep(SweepConfig(identity="menon", n_max=5, parallelism=0))
        with pytest.raises(DomainError):
            run_sweep(SweepConfig(identity="menon", n_max=5, output="xml"))

    def test_huge_sury_exponent_is_refused_at_once(self):
        start = time.perf_counter()
        with pytest.raises(ResourceError, match=r"sury sweep refused: 30\*\*4000000 tuples exceed 10000000"):
            run_sweep(SweepConfig(identity="sury", n_max=30, s_values=(4_000_000,)))
        with pytest.raises(ResourceError, match=r"tuple count 30\*\*4000000 exceeds 10000000"):
            sury_sum(30, 4_000_000)
        assert time.perf_counter() - start < 0.5

    def test_huge_s_allocates_no_power_of_two(self):
        # Any s >= n_max.bit_length() leaves only n = 1 in the grid; 2**s is never built.
        tracemalloc.start()
        try:
            report = run_sweep(SweepConfig(identity="theorem1", n_max=10, s_values=(10**8,)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [job[0].tolist() for job in report.jobs] == [[[1, 10**8, 0]]]
        assert peak < 2 * 2**20

    def test_oversized_grid_refused_before_any_job(self, monkeypatch, capsys):
        def no_job(job):
            raise AssertionError(f"job {job} ran for a refused grid")

        monkeypatch.setattr(harness, "_run_job", no_job)
        start = time.perf_counter()
        assert main(["verify", "lemma34", "--n-max", "100000", "--s", "1,2,3"]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error: lemma34 sweep refused: ")
        assert err.endswith(f" rows counted exceed the budget {harness.ROW_BUDGET}\n")
        with pytest.raises(ResourceError, match="strict_gen sweep refused"):
            search_counterexamples(10**5, (1,))

    @pytest.mark.parametrize("command", [["verify", identity] for identity in IDENTITIES] + [["search"]], ids=" ".join)
    def test_s_above_int32_refused_before_any_job(self, command, monkeypatch, capsys):
        def no_job(job):
            raise AssertionError(f"job {job} ran for a refused s")

        monkeypatch.setattr(harness, "_run_job", no_job)
        assert main([*command, "--n-max", "16", "--s", "2147483648"]) == 2
        assert capsys.readouterr().err == "error: s must be at most 2147483647, got 2147483648\n"

    def test_largest_int32_s_keeps_its_row(self):
        report = run_sweep(SweepConfig(identity="theorem1", n_max=16, s_values=(2**31 - 1,)))
        assert [job[0].tolist() for job in report.jobs] == [[[1, 2**31 - 1, 0]]]

    @pytest.mark.parametrize("identity, n_max", [("theorem2", 4096), ("lemma34", 10**4)])
    def test_row_budget_admits_the_largest_checked_grids(self, identity, n_max, monkeypatch):
        class Admitted(Exception):
            pass

        def admitted(job):
            raise Admitted(job)

        monkeypatch.setattr(harness, "_run_job", admitted)
        with pytest.raises(Admitted):
            run_sweep(SweepConfig(identity=identity, n_max=n_max, s_values=(1, 2, 3)))

    @pytest.mark.parametrize("identity", ["theorem2", "lemma33", "cohen_partition", "menon", "sury"])
    def test_row_count_is_exact_without_drop(self, identity, monkeypatch):
        config = SweepConfig(identity=identity, n_max=64, s_values=(1, 2))
        rows = len(run_sweep(config))
        monkeypatch.setattr(harness, "ROW_BUDGET", rows)
        assert len(run_sweep(config)) == rows
        monkeypatch.setattr(harness, "ROW_BUDGET", rows - 1)
        with pytest.raises(ResourceError, match=f"{identity} sweep refused: {rows} rows counted"):
            run_sweep(config)


class TestSweepContents:
    @pytest.mark.parametrize("identity", ["menon", "sury", "cohen_partition"])
    def test_scalar_row_fails_exactly_where_its_check_fails(self, identity, monkeypatch, capsys):
        # One wrong evaluation at n = 12; d = 4 = 2**2 is an s-th power divisor of 12 at s = 1 and 2.
        failing = {
            "menon": [{"n": 12, "s": 1}],  # menon's grid has s = 1 only
            "sury": [{"n": 12, "s": 1}, {"n": 12, "s": 2}],
            "cohen_partition": [{"n": 12, "s": 1, "d": 4}, {"n": 12, "s": 2, "d": 4}],
        }[identity]
        menon, sury, cohen = harness.menon_sum, harness.sury_sum, harness._SPECS["cohen_partition"]
        monkeypatch.setattr(harness, "menon_sum", lambda n: menon(n) + (n == 12))
        monkeypatch.setattr(harness, "sury_sum", lambda n, s: sury(n, s) + (n == 12))
        # cohen_partition names its check directly, so its spec row carries the wrong one.
        monkeypatch.setitem(
            harness._SPECS,
            "cohen_partition",
            cohen._replace(check=lambda n, s, d: (False, 0, 1) if (n, d) == (12, 4) else cohen.check(n, s, d)),
        )
        report = run_sweep(SweepConfig(identity=identity, n_max=20, s_values=(1, 2)))
        assert [r.params for r in report.records if r.status == "fail"] == failing
        assert report.summary["fail"] == len(failing) and report.summary["pass"] == len(report) - len(failing)
        assert main(["verify", identity, "--n-max", "20", "--s", "1,2", "--format", "csv"]) == 1
        capsys.readouterr()

    def test_menon_single_record(self):
        report = run_sweep(SweepConfig(identity="menon", n_max=1))
        assert len(report) == 1
        rec = report.records[0]
        assert rec.lhs == rec.rhs == 1 and rec.status == "pass"

    def test_zhao_cao_rhs_formula(self):
        report = run_sweep(SweepConfig(identity="zhao_cao", n_max=50))
        assert report.summary["fail"] == 0
        for rec in report.records:
            n = rec.params["n"]
            assert rec.rhs % euler_phi(n) == 0

    def test_theorem1_contains_n16_value_12(self):
        report = run_sweep(SweepConfig(identity="theorem1", n_max=256, s_values=(2,)))
        assert report.summary["fail"] == 0
        hits = [r for r in report.records if r.params["n"] == 16]
        assert len(hits) == 4  # the primitive characters mod 16
        assert all(r.lhs == 12 for r in hits)

    def test_theorem2_skip_census(self):
        report = run_sweep(SweepConfig(identity="theorem2", n_max=36, s_values=(2,)))
        # grid: squares 4..36; characters with non-power-shaped conductor are skipped
        assert report.summary["fail"] == 0
        assert report.summary["skipped"] > 0
        for rec in report.records:
            if rec.status == "skipped":
                assert rec.lhs is None and rec.rhs is None

    def test_shaped_matches_theorem2_hypothesis(self):
        # Brute force of the definition: n = m**(q*s) with m >= 2, q >= 1 covers the conductors m**(t*s), t <= q.
        n_max = 5000
        for s in range(1, 7):
            covered = [set() for _ in range(n_max + 1)]
            for m in range(2, n_max + 1):
                q = 1
                while m ** (q * s) <= n_max:
                    covered[m ** (q * s)].update(m ** (t * s) for t in range(1, q + 1))
                    q += 1
            for n in range(1, n_max + 1):
                for d in divisors(n):
                    assert harness._shaped(d, n, s) == (d in covered[n]), (n, d, s)

    @pytest.mark.parametrize("identity", ["zhao_cao", "theorem1", "theorem2", "lemma31", "lemma33", "lemma34", STRICT_GEN])
    def test_claims_decide_skipping(self, identity):
        # A row is skipped exactly when the spec makes no claim (None) at its
        # character's conductor, read here through the per-character API.
        spec = harness._SPECS[identity]
        n_max = 256 if identity.startswith("lemma") else 64
        if identity == STRICT_GEN:
            report = search_counterexamples(n_max, (1, 2))
        else:
            report = run_sweep(SweepConfig(identity=identity, n_max=n_max, s_values=(1, 2)))
        conductors = functools.cache(lambda n: [conductor(chi) for chi in enumerate_characters(n)])
        for rec in report.records:
            *head, j = rec.params.values()
            claim = spec.rhs(conductors(harness._modulus(spec.fields, head))[j], *head)
            assert (rec.status == "skipped") == (claim is None), rec
            assert claim is None or rec.rhs == claim, rec
        if spec.drop:  # a job keeps exactly its characters with a claim
            for head, job in zip(spec.grid(n_max, (1, 2)), report.jobs, strict=True):
                claims = [spec.rhs(d, *head) for d in conductors(harness._modulus(spec.fields, head))]
                assert job[-1].size == sum(c is not None for c in claims), head

    def test_sury_at_n1_accepts_more_than_64_variables(self, capsys):
        assert main(["verify", "sury", "--n-max", "1", "--s", "66", "--format", "csv"]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == ["sury,1,66,,1,0.000e+00,1,pass"]

    def test_lemma_sweeps_small(self):
        r31 = run_sweep(SweepConfig(identity="lemma31", n_max=256, s_values=(1, 2)))
        assert r31.summary["fail"] == 0 and r31.summary["pass"] > 0
        r33 = run_sweep(SweepConfig(identity="lemma33", n_max=256, s_values=(1, 2)))
        assert r33.summary["fail"] == 0 and r33.summary["skipped"] > 0
        r34 = run_sweep(SweepConfig(identity="lemma34", n_max=256, s_values=(1, 2)))
        assert r34.summary["fail"] == 0

    def test_summary_totals_records(self):
        for ident, nmax in (("zhao_cao", 24), ("theorem2", 64), ("cohen_partition", 30)):
            report = run_sweep(SweepConfig(identity=ident, n_max=nmax, s_values=(1, 2)))
            assert sum(report.summary.values()) == len(report)
            assert {r.status for r in report.records} <= set(STATUS_NAMES)

    def test_sweep_holds_its_rows_once(self):
        # The report keeps each job's columns as the job returned them; a
        # whole-report concatenation would hold every row twice (about 2.1x).
        config = SweepConfig(identity="theorem2", n_max=1024, s_values=(1, 2, 3))
        run_sweep(config)  # warm the character and factorization caches
        tracemalloc.start()
        try:
            report = run_sweep(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * sum(column.nbytes for job in report.jobs for column in job)


class SerialPool:
    """Stands in for ProcessPoolExecutor: records max_workers and each chunk
    of jobs submitted, runs each chunk at once, starts no process."""

    sizes: list[int] = []
    submitted: list[list] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, task, jobs):
        self.submitted.append(jobs)
        future = Future()
        future.set_result(fn(task, jobs))
        return future


def _sweep(identity, parallelism):
    if identity == STRICT_GEN:
        return search_counterexamples(64, (1, 2), parallelism=parallelism)
    return run_sweep(SweepConfig(identity=identity, n_max=64, s_values=(1, 2), parallelism=parallelism))


class TestDeterminismAndParallelism:
    @pytest.mark.parametrize("identity", [*IDENTITIES, STRICT_GEN])
    def test_parallel_output_identical(self, identity, monkeypatch):
        # Two workers even on a one-CPU host; batches of 7 n give the scalar identities several jobs.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(harness, "_BATCH", 7)
        serial, parallel = _sweep(identity, 1), _sweep(identity, 2)
        for fmt in ("text", "csv"):
            assert format_report(serial, fmt) == format_report(parallel, fmt)
        a, b = json.loads(format_report(serial, "json")), json.loads(format_report(parallel, "json"))
        assert a["records"] == b["records"] and a["summary"] == b["summary"]

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_search_is_the_strict_gen_sweep(self, parallelism, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        sweep = run_sweep(SweepConfig(STRICT_GEN, 36, (2,), parallelism=parallelism))
        search = search_counterexamples(36, (2,), parallelism=parallelism)
        assert sweep.records == search.records
        for fmt in ("csv", "text", "json"):
            assert format_report(sweep, fmt) == format_report(search, fmt)

    def test_worker_pool_is_capped(self, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        SerialPool.sizes.clear()
        capped = run_sweep(SweepConfig(identity="zhao_cao", n_max=30, parallelism=10**6))
        serial = run_sweep(SweepConfig(identity="zhao_cao", n_max=30))
        assert SerialPool.sizes == [4]
        assert format_report(capped, "csv") == format_report(serial, "csv")
        run_sweep(SweepConfig(identity="menon", n_max=30, parallelism=10**6))  # one job: no pool
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        run_sweep(SweepConfig(identity="zhao_cao", n_max=30, parallelism=10**6))  # unknown CPU count: serial
        assert SerialPool.sizes == [4]

    def test_pool_runs_a_few_chunks_ahead_of_the_reader(self, monkeypatch):
        # However slowly results are read, at most 2*workers chunks wait
        # beyond the one being read, each of len(jobs) // (32 * workers) jobs.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        SerialPool.submitted.clear()
        read = []
        for result in harness._pooled(str, list(range(1000)), 2):
            read.append(result)
            assert sum(map(len, SerialPool.submitted)) - len(read) <= (2 * 2 + 1) * 15
        assert read == [str(j) for j in range(1000)]
        assert {len(chunk) for chunk in SerialPool.submitted} == {15, 1000 % 15}

    def test_tolerance_travels_with_the_job_into_workers(self, monkeypatch):
        # Every zhao_cao sum rounds to its rhs, so at 1e-300 exactly the rows with float noise fail.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        serial, parallel = (
            run_sweep(SweepConfig(identity="zhao_cao", n_max=30, tolerance=1e-300, parallelism=jobs)) for jobs in (1, 2)
        )
        assert serial.summary["fail"] > 0
        assert all((r.status == "fail") == (r.residual >= 1e-300) for r in serial.records)
        assert serial.records == parallel.records

    def test_repeat_run_byte_identical(self):
        cfg = SweepConfig(identity="theorem1", n_max=81, s_values=(2,))
        assert format_report(run_sweep(cfg), "csv") == format_report(run_sweep(cfg), "csv")


class TestRemark:
    def test_expected_failure(self):
        report = reproduce_remark()
        assert report.summary == {"pass": 0, "fail": 1, "skipped": 0}
        rec = report.records[0]
        assert (rec.lhs, rec.rhs, rec.status) == (5, 6, "fail")
        assert rec.params == {"n": 4, "s": 2, "chi": 0}
        assert rec.chi == "4:2^2=[0]"
        assert report.worst_residual < 1e-9

    def test_matches_per_character_path(self):
        """The remark row comes from the all-characters sweep; the
        single-character evaluators must give the same lhs, residual and rhs."""
        chi = principal_character(4)
        res = generalized_sum(4, 2, chi)
        report = reproduce_remark()
        rec = report.records[0]
        assert rec.lhs == res.rounded
        assert abs(rec.residual - res.residual) < 1e-12
        assert rec.rhs == klee_phi(4, 2) * tau_s(4 // conductor(chi), 2)
        assert [job[0].tolist() for job in report.jobs] == [[[4, 2, character_group(4).flat_index(chi)]]]

    def test_csv_row_shape(self):
        line = format_report(reproduce_remark(), "csv").decode().splitlines()[1]
        cells = line.split(",")
        assert cells[0] == "strict_gen"
        assert cells[1:4] == ["4", "2", '"4:2^2=[0]"']
        assert cells[4] == "5" and cells[6] == "6" and cells[7] == "fail"


class TestSearch:
    def test_s1_has_no_failures(self):
        report = search_counterexamples(40, (1,))
        assert report.summary["fail"] == 0

    def test_contains_remark_failure(self):
        report = search_counterexamples(4, (2,))
        fails = [r for r in report.records if r.status == "fail"]
        assert any(r.params["n"] == 4 and r.chi == "4:2^2=[0]" for r in fails)

    def test_frozen_failure_fixture(self):
        fixture = json.loads((DATA / "strict_gen_failures_n36_s2.json").read_text())
        report = search_counterexamples(fixture["n_max"], (fixture["s"],))
        got = [
            {"n": r.params["n"], "chi": r.chi, "lhs": r.lhs, "rhs": r.rhs}
            for r in report.records
            if r.status == "fail"
        ]
        assert got == fixture["failures"]


_JSON_ORACLE_CASES = [
    *((f"{ident}-n64-s12", lambda ident=ident: run_sweep(SweepConfig(ident, 64, (1, 2)))) for ident in IDENTITIES),
    ("search-n36-s2", lambda: search_counterexamples(36, (2,))),
    ("remark", reproduce_remark),
    ("theorem2-empty", lambda: run_sweep(SweepConfig(identity="theorem2", n_max=3, s_values=(2,)))),
]


class TestFormats:
    def test_csv_header(self):
        report = run_sweep(SweepConfig(identity="menon", n_max=3))
        lines = format_report(report, "csv").decode().splitlines()
        assert lines[0] == "identity,n,s,chi,lhs,residual,rhs,status"
        assert len(lines) == 4

    def test_json_structure(self):
        report = run_sweep(SweepConfig(identity="cohen_partition", n_max=16, s_values=(2,)))
        doc = json.loads(format_report(report, "json"))
        assert set(doc) == {"config", "records", "summary", "worst_residual"}
        assert doc["config"]["identity"] == "cohen_partition"
        assert doc["summary"]["fail"] == 0
        assert all(set(r) == {"identity", "params", "chi", "lhs", "residual", "rhs", "status"} for r in doc["records"])
        d_values = [r["params"]["d"] for r in doc["records"] if r["params"]["n"] == 16]
        assert d_values == [1, 4, 16]

    def test_text_alignment(self):
        report = run_sweep(SweepConfig(identity="menon", n_max=12))
        text = format_report(report, "text").decode()
        lines = text.splitlines()
        assert lines[0].startswith("identity")
        assert lines[-1].startswith("summary: pass=12 fail=0")

    def test_lemma_rows_carry_m(self):
        report = run_sweep(SweepConfig(identity="lemma31", n_max=16, s_values=(1,)))
        rows = format_report(report, "csv").decode().splitlines()[1:]
        assert all(" m=" in row for row in rows)

    def test_empty_sweep_serializes(self):
        # squares >= 4 cannot fit under n_max=3, so the grid is empty
        report = run_sweep(SweepConfig(identity="theorem2", n_max=3, s_values=(2,)))
        assert len(report) == 0
        doc = json.loads(format_report(report, "json"))
        assert doc["records"] == []
        assert doc["summary"] == {"pass": 0, "fail": 0, "skipped": 0}
        assert format_report(report, "csv").decode().splitlines() == [
            "identity,n,s,chi,lhs,residual,rhs,status"
        ]

    @pytest.mark.parametrize(
        "identity, n_max, s",
        [("theorem2", 36, 2), ("lemma31", 16, 1), ("cohen_partition", 16, 2)],
        ids=["skipped-rows", "prime-power-fields", "no-chi"],
    )
    def test_records_agree_with_json(self, identity, n_max, s):
        report = run_sweep(SweepConfig(identity=identity, n_max=n_max, s_values=(s,)))
        assert isinstance(report.records, list)
        doc = json.loads(format_report(report, "json"))
        assert [r._asdict() for r in report.records] == doc["records"]

    @pytest.mark.parametrize("name, make", _JSON_ORACLE_CASES, ids=[name for name, _ in _JSON_ORACLE_CASES])
    def test_json_equals_record_dump(self, name, make):
        # The record dump through json.dumps is the independent oracle of the
        # string-table JSON formatter.
        report = make()
        doc = {
            "config": asdict(report.config),
            "records": [r._asdict() for r in report.records],
            "summary": report.summary,
            "worst_residual": report.worst_residual,
        }
        assert format_report(report, "json") == (json.dumps(doc, sort_keys=True) + "\n").encode()

    def test_json_peak_memory_stays_near_output_size(self):
        report = search_counterexamples(300, (1, 2))
        tracemalloc.start()
        try:
            payload = format_report(report, "json")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * len(payload)

    def test_text_peak_memory_stays_near_output_size(self):
        report = run_sweep(SweepConfig(identity="theorem2", n_max=256, s_values=(1, 2, 3)))
        tracemalloc.start()
        try:
            payload = format_report(report, "text")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * len(payload)

    def test_csv_peak_memory_stays_near_output_size_inside_long_jobs(self):
        # Every lemma31 job at 2**16 holds 16,384 rows, so runs must stay capped inside a job.
        report = run_sweep(SweepConfig(identity="lemma31", n_max=2**16, s_values=(4,)))
        tracemalloc.start()
        try:
            payload = format_report(report, "csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * len(payload)

    def test_streamed_csv_peak_memory_is_a_fraction_of_the_report(self, tmp_path):
        # The CLI writes each job's CSV as it arrives; holding the whole 19 MB
        # report, as format_report does, peaks at about twice its size.
        target = tmp_path / "t2.csv"
        argv = ["verify", "theorem2", "--n-max", "1024", "--s", "1,2,3", "--format", "csv", "--output", str(target)]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = target.stat().st_size
        assert size > 18 * 2**20
        assert peak < size / 4

    def test_streamed_text_peak_memory_is_a_fraction_of_the_report(self, tmp_path):
        # Text, the default format, is streamed too: a first run of the jobs
        # finds the column widths, a second writes each job's padded rows.
        target = tmp_path / "t2.txt"
        argv = ["verify", "theorem2", "--n-max", "1024", "--s", "1,2,3", "--output", str(target)]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = target.stat().st_size
        assert size > 27 * 2**20
        assert peak < size / 4

    def test_labels_built_once_per_run_of_jobs_sharing_a_modulus(self, monkeypatch):
        # The lemma jobs for m = s, 2s, ... share the modulus p**n_exp.
        report = run_sweep(SweepConfig(identity="lemma33", n_max=256, s_values=(1, 2)))
        built = []
        counted = functools.lru_cache(maxsize=1)(lambda n: built.append(n) or character_labels(n))
        monkeypatch.setattr(harness, "character_labels", counted)
        format_report(report, "csv")
        assert len(report.jobs) == 51
        assert len(built) == 20

    @pytest.mark.parametrize("fmt", harness.FORMATS)
    def test_streamed_labels_built_once_per_run_of_jobs_sharing_a_modulus(self, fmt, monkeypatch, tmp_path):
        # 26 moduli p**n_exp in 33 runs of consecutive jobs, as format_report counts them.
        built = []
        counted = functools.lru_cache(maxsize=1)(lambda n: built.append(n) or character_labels(n))
        monkeypatch.setattr(harness, "character_labels", counted)
        argv = ["verify", "lemma33", "--n-max", "1024", "--s", "1,2", "--format", fmt, "--jobs", "1"]
        assert main([*argv, "--output", str(tmp_path / "report")]) == 0
        assert (len(built), len(set(built))) == (33, 26)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("fmt", harness.FORMATS)
    def test_streamed_run_validates_and_admits_its_grid_once(self, fmt, jobs, monkeypatch):
        # Text runs its jobs twice, for the widths and then the rows, from one admitted job list.
        calls = []

        def counted(name, check):
            return lambda *args: calls.append(name) or check(*args)

        for name in ("_validate_config", "_admit"):
            monkeypatch.setattr(harness, name, counted(name, getattr(harness, name)))
        config = SweepConfig("theorem2", 64, (1, 2), output=fmt, parallelism=jobs)
        parts = []
        harness.write_report(config, fmt, lambda: contextlib.nullcontext(parts.append))
        assert calls == ["_validate_config", "_admit"]
        assert b"".join(parts) == format_report(run_sweep(config), fmt)

    def test_unknown_format(self):
        with pytest.raises(DomainError):
            format_report(reproduce_remark(), "xml")


def _job(rows, width):
    """A job's columns from rows (params..., lhs, residual, rhs, status), params width wide."""
    cols = list(zip(*rows)) or [()] * (width + 4)
    params = np.array(list(zip(*cols[:width])), dtype=np.int32).reshape(len(rows), width)
    dtypes = (np.int64, np.float64, np.int64, np.int8)
    return (params, *(np.array(col, dtype=dtype) for col, dtype in zip(cols[width:], dtypes)))


P, F, S = harness.STATUS_PASS, harness.STATUS_FAIL, harness.STATUS_SKIP
NAN, INF = math.nan, math.inf

# Every residual shape, skipped rows, dropped non-contiguous flat indices, the
# same (lhs, rhs) under pass and fail, lemma m= cells, cohen d= cells, menon
# rows with no chi, and an empty job.
_WRITER_JOBS = {
    "theorem2": [
        _job([
            (16, 1, 1, 3, 0.0, 3, P), (16, 1, 3, 3, 0.0, 3, F), (16, 1, 4, 3, 1e-300, 3, P),
            (16, 1, 6, 0, 0.0, 0, S), (16, 1, 7, 3, 5e-324, 3, P), (16, 1, 0, -2, 9.9995e-07, 5, F),
            (16, 1, 2, 3, NAN, 3, F), (16, 1, 5, 3, INF, 3, F), (16, 1, 1, 0, 0.0, 0, S),
        ], 3),
        _job([], 3),
        _job([(12, 1, 3, 1, 0.0, 1, P), (12, 1, 0, 12, 1e-300, 1, F), (12, 1, 2, 0, 0.0, 0, S)], 3),
    ],
    "lemma31": [
        _job([
            (2, 4, 1, 2, 5, -1, 0.0, -1, P), (2, 4, 1, 2, 1, -1, 9.9995e-07, -1, F), (2, 4, 1, 2, 6, 0, 0.0, 0, F),
        ], 5),
        _job([(3, 2, 1, 1, 4, 0, 0.0, 0, P), (3, 2, 1, 1, 1, 0, 0.0, 0, S)], 5),
    ],
    "cohen_partition": [
        _job([
            (1, 2, 1, 1, 0.0, 1, P), (4, 2, 1, 2, 0.0, 2, P), (4, 2, 4, 2, 0.0, 2, F), (16, 2, 16, 7, 0.0, 7, P),
        ], 3),
    ],
    "menon": [_job([(1, 1, 1, 0.0, 1, P), (2, 1, 3, 0.0, 4, F), (10, 1, 40, 0.0, 40, P)], 2)],
}


def _plain_rows(identity, job):
    """Per row of job: the text and CSV cells (identity, n, s, chi, lhs,
    residual, rhs, status) and the record dict, each built by hand."""
    fields = harness._SPECS[identity].fields
    for row, lhs, residual, rhs, code in zip(job[0].tolist(), *(col.tolist() for col in job[1:])):
        params = dict(zip(fields, row))
        n = params["p"] ** params["n_exp"] if "p" in params else params["n"]
        label = character_labels(n)[params["chi"]] if "chi" in params else None
        chi = " ".join(([label] if label else []) + [f"{f}={params[f]}" for f in ("m", "d") if f in params])
        live = ("", "", "") if code == S else ("%d" % lhs, "%.3e" % residual, "%d" % rhs)
        record = {"chi": label, "identity": identity, "params": params, "status": STATUS_NAMES[code]}
        record.update(zip(("lhs", "residual", "rhs"), (None, None, None) if code == S else (lhs, residual, rhs)))
        yield (identity, str(n), str(params["s"]), chi, *live, STATUS_NAMES[code]), record


class TestRowWriters:
    """The CSV, JSON and text writers against one % template per row and
    json.dumps per record, over hand-made jobs."""

    @pytest.mark.parametrize("run_rows", [harness._RUN_ROWS, 2])
    @pytest.mark.parametrize("identity", list(_WRITER_JOBS))
    def test_csv_and_json_jobs_equal_plain_rows(self, identity, run_rows, monkeypatch):
        monkeypatch.setattr(harness, "_RUN_ROWS", run_rows)
        q = '"' if {"chi", "m", "d"} & set(harness._SPECS[identity].fields) else ""
        write_csv, _ = harness._sink("csv", SweepConfig(identity, 64), None)
        for job in _WRITER_JOBS[identity]:
            labels = harness._labels(harness._SPECS[identity].fields, job)
            rows = list(_plain_rows(identity, job))
            csv = "".join("%s,%s,%s,%s,%s,%s,%s,%s\n" % (*c[:3], q + c[3] + q, *c[4:]) for c, _ in rows)
            assert write_csv(job, labels) == csv.encode()
            records = ", ".join(json.dumps(record, sort_keys=True) for _, record in rows)
            assert harness._json_job(identity, job, labels) == records.encode()

    @pytest.mark.parametrize("run_rows", [harness._RUN_ROWS, 2])
    @pytest.mark.parametrize("identity", list(_WRITER_JOBS))
    def test_text_equals_plain_rows(self, identity, run_rows, monkeypatch):
        monkeypatch.setattr(harness, "_RUN_ROWS", run_rows)
        jobs = _WRITER_JOBS[identity]
        rows = [cells for job in jobs for cells, _ in _plain_rows(identity, job)]
        header = ("identity", "n", "s", "chi", "lhs", "residual", "rhs")
        widths = [max(len(c) for c in column) for column in zip(header, *(r[:7] for r in rows))]
        lines = [
            "  ".join("%-*s" % (w, c) for w, c in zip(widths, r[:7])) + "  %s\n" % r[7]
            for r in [header + ("status",), *rows]
        ]
        status = np.concatenate([job[-1] for job in jobs])
        live = np.concatenate([job[2] for job in jobs])[status != S]
        counts = tuple(int((status == code).sum()) for code in (P, F, S))
        lines.append("summary: pass=%d fail=%d skipped=%d worst_residual=%.3e\n" % (*counts, np.max([*live, 0.0])))
        report = harness.IdentityReport(SweepConfig(identity, 64), jobs)
        assert format_report(report, "text") == "".join(lines).encode()


class TestCharTable:
    def test_csv_table(self):
        lines = char_table_bytes(4, "csv").decode().splitlines()
        assert lines[0] == "chi,conductor,primitive,order,k1,k2,k3,k4"
        assert lines[1] == '"4:2^2=[0]",1,false,1,0/1,0,0/1,0'
        assert lines[2] == '"4:2^2=[1]",4,true,2,0/1,0,1/2,0'

    def test_json_table(self):
        doc = json.loads(char_table_bytes(9, "json"))
        assert doc["modulus"] == 9 and doc["phi"] == 6
        assert len(doc["characters"]) == 6
        orders = sorted(c["order"] for c in doc["characters"])
        assert orders == [1, 2, 3, 3, 6, 6]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_streamed_table_peak_memory_is_a_fraction_of_the_table(self, fmt, tmp_path):
        # The CLI writes each row as it is made; holding the whole table, as
        # char_table_bytes does, peaks at about twice its size.
        target = tmp_path / f"t503.{fmt}"
        tracemalloc.start()
        try:
            assert main(["char-table", "503", "--format", fmt, "--output", str(target)]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = target.stat().st_size
        assert size > 2**20
        assert peak < size / 3
        assert target.read_bytes() == char_table_bytes(503, fmt)

    def test_refuses_oversized_table(self):
        with pytest.raises(ResourceError, match=r"phi\(n\)\*n = 100130042 cells exceed 10000000"):
            char_table_bytes(10007, "csv")
        with pytest.raises(DomainError):
            char_table_bytes(0, "csv")


class TestCli:
    def test_verify_ok_exit_zero(self, capsys):
        assert main(["verify", "menon", "--n-max", "25", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("identity,n,s,chi")

    def test_remark_exit_zero(self, capsys):
        assert main(["remark"]) == 0
        assert "fail" in capsys.readouterr().out

    def test_search_exit_zero(self, capsys):
        assert main(["search", "--n-max", "8", "--s", "2", "--format", "csv"]) == 0
        assert "strict_gen" in capsys.readouterr().out

    def test_unattainable_tolerance_exit_one(self, capsys):
        # residuals of genuinely complex characters exceed an absurdly tight tolerance
        assert main(["verify", "zhao_cao", "--n-max", "30", "--tolerance", "1e-300"]) == 1
        capsys.readouterr()

    def test_config_error_exit_two(self, capsys):
        assert main(["verify", "menon", "--n-max", "0"]) == 2
        assert "error" in capsys.readouterr().err

    @staticmethod
    def _config(argv, monkeypatch) -> SweepConfig:
        """The config main builds from argv, caught where it reaches write_report."""

        class Ran(Exception):
            pass

        def capture(config, fmt, open_out):
            raise Ran(config)

        monkeypatch.setattr(cli, "write_report", capture)
        with pytest.raises(Ran) as ran:
            main(argv)
        return ran.value.args[0]

    def test_search_defaults(self, monkeypatch):
        assert self._config(["search"], monkeypatch) == SweepConfig(STRICT_GEN, 36, (2,))

    @pytest.mark.parametrize(
        "argv, config",
        [
            # search echoes output "text" whatever its --format (a FOUND defect in CHANGES.md)
            (["search", "--format", "json"], SweepConfig("strict_gen", 36, (2,), 1e-6, "text", 1)),
            (["verify", "theorem2", "--format", "json", "--jobs", "2"], SweepConfig("theorem2", 512, (1,), 1e-6, "json", 2)),
        ],
        ids=["search", "verify"],
    )
    def test_configs_main_builds(self, argv, config, monkeypatch):
        assert self._config(argv, monkeypatch) == config

    @pytest.mark.parametrize("identity", IDENTITIES)
    def test_verify_default_n_max(self, identity, monkeypatch):
        pinned = {
            "menon": 1000,
            "sury": 30,
            "zhao_cao": 100,
            "theorem1": 256,
            "theorem2": 512,
            "lemma31": 1024,
            "lemma33": 1024,
            "lemma34": 1024,
            "cohen_partition": 200,
        }
        assert self._config(["verify", identity], monkeypatch).n_max == pinned[identity]

    @pytest.mark.parametrize(
        "identity, modulus, chi",
        [
            ("zhao_cao", 12, "12:2^2=[1];3^1=[1]"),
            # only primitive characters are kept: the one mod 12 has flat index 3
            ("theorem1", 12, "12:2^2=[1];3^1=[1]"),
            # shift weights on the modulus p**n_exp = 2**3
            ("lemma33", 8, "8:2^3=[1,1]"),
        ],
        ids=["zhao_cao", "theorem1", "lemma33"],
    )
    def test_integrity_error_names_its_location(self, identity, modulus, chi, monkeypatch, capsys):
        exact = CharacterGroup.all_sums

        def off_by_point_seven(self, weights):
            sums = exact(self, weights)
            if self.modulus == modulus:
                sums[3] += 0.7j
            return sums

        monkeypatch.setattr(CharacterGroup, "all_sums", off_by_point_seven)
        message = f"character sum at n={modulus}, s=1, chi={chi} is not within 0.5 of an integer (residual 7.000e-01)"
        with pytest.raises(IntegrityError) as err:
            run_sweep(SweepConfig(identity=identity, n_max=modulus))
        assert str(err.value) == message
        assert main(["verify", identity, "--n-max", str(modulus)]) == 1
        assert capsys.readouterr().err == f"integrity error: {message}\n"

    @pytest.mark.parametrize("fmt", ["csv", "text"])
    def test_failing_streamed_run_leaves_output_as_it_was(self, fmt, monkeypatch, tmp_path, capsys):
        # The sums at n = 12 are wrong only after the jobs n = 1..11 have been
        # formatted and written (text fails in its width run, before the file
        # is opened); the report goes to a temporary file that replaces the
        # target only once the run completes.
        exact = CharacterGroup.all_sums

        def off_by_point_seven(self, weights):
            sums = exact(self, weights)
            if self.modulus == 12:
                sums[3] += 0.7j
            return sums

        monkeypatch.setattr(CharacterGroup, "all_sums", off_by_point_seven)
        target = tmp_path / "report.csv"
        target.write_bytes(b"an earlier report\n")
        argv = ["verify", "zhao_cao", "--n-max", "12", "--format", fmt, "--output", str(target)]
        assert main(argv) == 1
        message = (
            "character sum at n=12, s=1, chi=12:2^2=[1];3^1=[1] is not within 0.5 of an integer (residual 7.000e-01)"
        )
        assert capsys.readouterr().err == f"integrity error: {message}\n"
        assert target.read_bytes() == b"an earlier report\n"
        assert os.listdir(tmp_path) == ["report.csv"]
        monkeypatch.setattr(CharacterGroup, "all_sums", exact)
        assert main(argv) == 0
        assert target.read_bytes() == format_report(run_sweep(SweepConfig("zhao_cao", 12, output=fmt)), fmt)
        assert os.listdir(tmp_path) == ["report.csv"]

    def test_oserror_of_the_sweep_is_not_blamed_on_output(self, monkeypatch, tmp_path):
        # Only opening, writing and replacing the output name it; an OSError
        # from the sweep itself (a pool that cannot fork, say) passes through.
        def cannot_fork(*task_args):
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(harness, "_ran", cannot_fork)
        target = tmp_path / "report.csv"
        target.write_bytes(b"an earlier report\n")
        with pytest.raises(BlockingIOError):
            main(["verify", "zhao_cao", "--n-max", "12", "--format", "csv", "--output", str(target)])
        assert target.read_bytes() == b"an earlier report\n"
        assert os.listdir(tmp_path) == ["report.csv"]

    def test_jobs_flag(self, capsys):
        assert main(["verify", "zhao_cao", "--n-max", "12", "--jobs", "2", "--format", "csv"]) == 0
        capsys.readouterr()

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "report.csv"
        assert main(["verify", "menon", "--n-max", "5", "--format", "csv", "--output", str(target)]) == 0
        assert target.read_text().startswith("identity,n,s,chi")
        capsys.readouterr()

    @pytest.mark.parametrize("command", [["verify", "menon", "--n-max", "10"], ["char-table", "12"]], ids=" ".join)
    def test_unwritable_output_exit_two(self, command, tmp_path):
        target = tmp_path / "missing" / "x.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "menonsums", *command, "--output", str(target)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: cannot write {target}: ")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "command",
        [
            ["verify", "zhao_cao", "--n-max", "200", "--format", "csv", "--jobs", "1"],
            ["verify", "zhao_cao", "--n-max", "200", "--format", "csv", "--jobs", "2"],
            ["char-table", "211"],
        ],
        ids=" ".join,
    )
    def test_closed_stdout_pipe_exit_two(self, command):
        # As under `| head -1`: the reader closes the pipe after the first line,
        # with hundreds of KB still to come.  That is stdout not written, not an
        # identity failure, and nothing more is reported at interpreter exit,
        # where a buffered stdout (so no PYTHONUNBUFFERED) is flushed once more.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        proc = subprocess.Popen(
            [sys.executable, "-m", "menonsums", *command], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
        )
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 2
        assert err == "error: cannot write <stdout>: Broken pipe\n"

    def test_char_table_cli(self, capsys):
        assert main(["char-table", "9", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["modulus"] == 9

    def test_char_table_refused_before_group_build(self, monkeypatch, capsys, tmp_path):
        def no_group(n):
            raise AssertionError(f"character group mod {n} built for a refused table")

        monkeypatch.setattr(cli, "character_group", no_group)
        target = tmp_path / "table.csv"
        target.write_bytes(b"an earlier table\n")
        start = time.perf_counter()
        assert main(["char-table", "10007"]) == 2
        assert main(["char-table", "10007", "--output", str(target)]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err.count("char-table refused") == 2
        assert target.read_bytes() == b"an earlier table\n"
        assert os.listdir(tmp_path) == ["table.csv"]

    def test_killed_pool_worker_exits_three(self, monkeypatch, tmp_path, capsys):
        # Pool workers are forked, so the patched _run_job kills them and only them.
        parent, run_job = os.getpid(), harness._run_job

        def dies_in_a_worker(job):
            if os.getpid() != parent:
                os._exit(1)
            return run_job(job)

        monkeypatch.setattr(harness, "_run_job", dies_in_a_worker)
        target = tmp_path / "report.csv"
        target.write_bytes(b"an earlier report\n")
        argv = ["verify", "zhao_cao", "--n-max", "200", "--jobs", "2", "--format", "csv", "--output", str(target)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: run cut short: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert target.read_bytes() == b"an earlier report\n"
        assert os.listdir(tmp_path) == ["report.csv"]
        assert multiprocessing.active_children() == []

    def test_memory_error_exits_three(self, monkeypatch, capsys):
        def out_of_memory(*task_args):
            raise MemoryError

        monkeypatch.setattr(harness, "_ran", out_of_memory)
        assert main(["verify", "zhao_cao", "--n-max", "12", "--format", "csv"]) == 3
        assert capsys.readouterr().err == "error: run cut short: MemoryError\n"

    def test_subprocess_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "menonsums", "remark", "--format", "csv"],
            capture_output=True,
        )
        assert proc.returncode == 0
        assert b"strict_gen,4,2" in proc.stdout

    def test_usage_error_exit_two(self):
        proc = subprocess.run(
            [sys.executable, "-m", "menonsums", "verify", "not-an-identity"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2


class TestTracerTargets:
    def test_every_traced_name_exists(self):
        """perfbench/trace_run.py wraps these names; a missing one drops a traced layer."""
        path = pathlib.Path(__file__).parents[1] / "perfbench" / "trace_run.py"
        spec = importlib.util.spec_from_file_location("trace_run_targets", path)
        trace_run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(trace_run)
        for _, module, attr, _ in trace_run.FUNCTIONS:
            assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"
        for _, cls, method, _ in trace_run.METHODS:
            owner = getattr(importlib.import_module("menonsums.characters"), cls)
            assert callable(vars(owner).get(method)), f"{cls}.{method}"


class TestBackendSelection:
    """numpy is the only kernel backend; the CLI must reproduce the remark with it."""

    def test_fallback_backend_reproduces_remark(self):
        proc = subprocess.run(
            [sys.executable, "-m", "menonsums", "remark", "--format", "csv"],
            capture_output=True,
        )
        assert proc.returncode == 0
        assert b"strict_gen,4,2" in proc.stdout
        assert proc.stdout == format_report(reproduce_remark(), "csv")


class TestSerialImports:
    def test_cli_import_loads_no_process_pool_code(self):
        # Only a pooled run reads concurrent.futures.ProcessPoolExecutor, which loads multiprocessing.
        code = "import sys, menonsums.cli; "
        code += "print(sorted({'multiprocessing', 'concurrent.futures.process'} & {*sys.modules}))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert proc.stdout == "[]\n"


class TestBlasThreads:
    """menonsums calls no BLAS routine, so importing it asks OpenBLAS for one
    thread, unless the variable is already set or numpy is already loaded."""

    @pytest.mark.parametrize(
        "preset, first, expected", [(None, "", "1"), ("2", "", "2"), (None, "import numpy; ", "None")]
    )
    def test_import_sets_openblas_threads_only_when_unset(self, preset, first, expected):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        code = f"{first}import os, menonsums; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert proc.stdout == f"{expected}\n"
