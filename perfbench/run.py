#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the menonsums command line.

Run from the repository root:

    python3 perfbench/run.py --workload theorem2-csv --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 60     # every workload, shuffled rounds

Each measured run is one child ``python -m menonsums ... --output FILE``
process.  Wall time, CPU time (child plus the pool workers it reaped) and
peak RSS come from ``os.wait4`` on that child; the exit code, sha256 and
row count of the report are checked against ``reference.json``, recorded
at the commit that introduced the benchmark.  Rounds repeat until
``--seconds`` is spent (at least MIN_ROUNDS); every metric is the median
over the rounds.  ``setup_s`` is the median time of SETUP_PROBES fresh
processes that import menonsums and build the CLI parser.

With ``--trace 1`` each round runs the workload once untraced and once
through ``trace_run.py``, which wraps each layer in process; the per-layer
metrics come from the spans it writes, and ``trace_overhead_ratio`` is the
traced wall time over the untraced one.  End-to-end metrics always come
from untraced runs.

The grids are fixed, so ``--seed`` only shuffles the order in which the
workloads of a round run; it is recorded with the provenance in the
result file under ``.perfbench_out/``.  The last line of standard output
is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = {
    "theorem2-csv": ["verify", "theorem2", "--n-max", "1024", "--s", "1,2,3", "--format", "csv"],
    "menon-kernel": ["verify", "menon", "--n-max", "8000", "--format", "csv"],
    "search-json-jobs2": ["search", "--n-max", "500", "--s", "1,2", "--jobs", "2", "--format", "json"],
}

# Spans each workload must record at least once in its traced run (parent
# process only; search-json-jobs2 computes its sums in pool workers).
EXPECTED_SPANS = {
    "theorem2-csv": (
        "cli.main", "cli.emit", "harness.sweep", "harness.format", "characters.group",
        "characters.group_build", "characters.label", "characters.all_sums",
        "characters.conductors", "characters.unit_group_structure", "kernels.dlog",
        "kernels.sgcd_weights", "identities.weights", "arith.factorize", "arith.totients",
        "arith.sgcd_table",
    ),
    "menon-kernel": (
        "cli.main", "cli.emit", "harness.sweep", "harness.format", "kernels.menon_gcd_sum",
        "identities.menon_sum", "arith.factorize", "arith.totients",
    ),
    "search-json-jobs2": (
        "cli.main", "cli.emit", "harness.sweep", "harness.format", "characters.group",
        "characters.group_build", "characters.label", "characters.unit_group_structure",
        "kernels.dlog", "arith.factorize",
    ),
}

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "rows_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# metric -> (unit, how it is read from the spans: kind and span or counter)
PER_LAYER = {
    "harness.format.s": ("s", "total", "harness.format"),
    "harness.format.self_s": ("s", "self", "harness.format"),
    "harness.sweep.s": ("s", "total", "harness.sweep"),
    "harness.sweep.self_s": ("s", "self", "harness.sweep"),
    "harness.rows": ("count", "counter", "harness.rows"),
    "characters.label.s": ("s", "total", "characters.label"),
    "characters.label.calls": ("count", "calls", "characters.label"),
    "characters.group.calls": ("count", "calls", "characters.group"),
    "characters.group.builds": ("count", "calls", "characters.group_build"),
    "characters.group.hit_ratio": ("ratio", "hit_ratio", "characters.group"),
    "characters.group_build.s": ("s", "total", "characters.group_build"),
    "characters.all_sums.s": ("s", "total", "characters.all_sums"),
    "characters.all_sums.points": ("count", "counter", "characters.all_sums.points"),
    "characters.conductors.s": ("s", "total", "characters.conductors"),
    "characters.unit_group_structure.s": ("s", "total", "characters.unit_group_structure"),
    "kernels.menon_gcd_sum.s": ("s", "total", "kernels.menon_gcd_sum"),
    "kernels.menon_gcd_sum.calls": ("count", "calls", "kernels.menon_gcd_sum"),
    "kernels.dlog.s": ("s", "total", "kernels.dlog"),
    "kernels.dlog.entries": ("count", "counter", "kernels.dlog.entries"),
    "kernels.sgcd_weights.s": ("s", "total", "kernels.sgcd_weights"),
    "identities.weights.s": ("s", "total", "identities.weights"),
    "identities.menon_sum.s": ("s", "total", "identities.menon_sum"),
    "arith.factorize.calls": ("count", "calls", "arith.factorize"),
    "arith.factorize.s": ("s", "total", "arith.factorize"),
    "arith.totients.s": ("s", "total", "arith.totients"),
    "arith.sgcd_table.s": ("s", "total", "arith.sgcd_table"),
    "cli.emit.s": ("s", "total", "cli.emit"),
    "cli.output_bytes": ("bytes", "counter", "cli.output_bytes"),
    "trace_overhead_ratio": ("ratio", "overhead", None),
}

MIN_ROUNDS = 3
MIN_TRACE_ROUNDS = 1
SETUP_PROBES = 5
SETUP_CODE = "import menonsums, menonsums.cli as c; c.build_parser(); print(menonsums.__file__)"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str]) -> tuple[int, float, float, float]:
    """Run argv to completion; return (exit code, wall s, cpu s, peak RSS MB)
    read from wait4 on this one child (its reaped workers included)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


def count_rows(data: bytes, fmt: str) -> int:
    if fmt == "json":
        return len(json.loads(data)["records"])
    return data.count(b"\n") - 1  # csv: one header line


def report_digest(path: Path) -> str:
    """sha256 of the report, read in blocks.  A child's peak RSS from wait4
    includes this process's RSS when it spawned the child, so the benchmark
    never holds a whole report in memory."""
    digest = hashlib.sha256()
    if path.exists():
        with path.open("rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
    return digest.hexdigest()


def measure(workload: str, reference: dict, spans: Path | None = None) -> dict:
    """One run of the workload; traced through trace_run.py when spans is given."""
    argv = WORKLOADS[workload]
    report = OUT / f"{workload}.report"
    report.unlink(missing_ok=True)
    cli = argv + ["--output", str(report)]
    if spans is None:
        cmd = [sys.executable, "-m", "menonsums", *cli]
    else:
        spans.unlink(missing_ok=True)
        cmd = [sys.executable, str(BENCH / "trace_run.py"), str(spans), "--", *cli]
    code, wall, cpu, rss = run_child(cmd)
    sha = report_digest(report)
    if sha == reference["sha256"]:
        rows = reference["rows"]  # the same bytes hold the same rows
    else:
        try:
            rows = count_rows(report.read_bytes(), argv[argv.index("--format") + 1])
        except (OSError, ValueError, KeyError):
            rows = 0
    ok = (code, sha, rows) == (reference["exit_code"], reference["sha256"], reference["rows"])
    return {"exit_code": code, "sha256": sha, "rows": rows, "ok": ok,
            "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss}


def probe_setup() -> float:
    """Wall time of a fresh process that imports menonsums and builds the parser."""
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, check=False)
    elapsed = time.perf_counter() - t0
    where = Path(done.stdout.strip() or "/").resolve()
    if done.returncode != 0 or SRC not in where.parents:
        raise SystemExit(f"menonsums does not import from {SRC}:\n{done.stderr}")
    return elapsed


def read_spans(path: Path) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer metrics and per-span call counts from one spans file
    written by trace_run.py.

    A layer's time counts only its outermost spans (a same-name span nested
    in another is inside it already); its self time is each span's duration
    minus the durations of its direct children, summed over its spans."""
    import numpy as np

    with np.load(path) as d:
        names = d["names"].tolist()
        nid, parent, nested = d["name"], d["parent"], d["nested"].astype(bool)
        dur = d["end"] - d["start"]
        counts = json.loads(str(d["counts"]))
    has_parent = parent >= 0
    self_time = dur - np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    by_kind = {
        "calls": np.bincount(nid, minlength=len(names)),
        "total": np.bincount(nid[~nested], weights=dur[~nested], minlength=len(names)),
        "self": np.bincount(nid, weights=self_time, minlength=len(names)),
    }
    index = {name: k for k, name in enumerate(names)}

    def read(kind: str, key: str) -> float:
        if kind == "counter":
            return float(counts.get(key, 0))
        if kind == "hit_ratio":
            n_calls = read("calls", "characters.group")
            return 1.0 - read("calls", "characters.group_build") / n_calls if n_calls else 0.0
        return float(by_kind[kind][index[key]]) if key in index else 0.0

    metrics = {m: read(kind, key) for m, (_, kind, key) in PER_LAYER.items() if kind != "overhead"}
    calls = {name: int(c) for name, c in zip(names, by_kind["calls"])}
    return metrics, calls


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def numba_imports() -> bool:
    done = subprocess.run([sys.executable, "-c", "import numba"], capture_output=True, check=False)
    return done.returncode == 0


def provenance(seed: int) -> dict:
    import numpy as np

    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "numba_imports": numba_imports(),
        "seed": seed,
    }


def run_rounds(names: list[str], seconds: float, min_rounds: int, rng: random.Random, one_round):
    """Call one_round(order) until seconds are spent, starting no round that
    the previous round's length says would overrun, but at least min_rounds."""
    start = time.perf_counter()
    rounds, last = 0, 0.0
    while rounds < min_rounds or time.perf_counter() - start + last <= seconds:
        order = list(names)
        rng.shuffle(order)
        t0 = time.perf_counter()
        one_round(order)
        last = time.perf_counter() - t0
        rounds += 1
    return rounds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "menonsums" / "__init__.py").is_file():
        print(f"error: no menonsums package under {SRC}", file=sys.stderr)
        return 2
    references = json.loads((BENCH / "reference.json").read_text())["workloads"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    OUT.mkdir(exist_ok=True)
    rng = random.Random(args.seed)

    runs: dict[str, list[dict]] = {name: [] for name in names}
    layers: dict[str, list[dict]] = {name: [] for name in names}
    missing_spans: dict[str, list[str]] = {}
    setup: list[float] = []

    if args.trace:
        def one_round(order):
            for name in order:
                plain = measure(name, references[name])
                spans = OUT / f"{name}.spans.npz"
                traced = measure(name, references[name], spans=spans)
                runs[name] += [plain, traced]
                found, recorded = read_spans(spans)
                found["trace_overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
                layers[name].append(found)
                missing_spans[name] = [s for s in EXPECTED_SPANS[name] if not recorded.get(s)]

        rounds = run_rounds(names, args.seconds, MIN_TRACE_ROUNDS, rng, one_round)
    else:
        setup = [probe_setup() for _ in range(SETUP_PROBES)]

        def one_round(order):
            for name in order:
                runs[name].append(measure(name, references[name]))

        rounds = run_rounds(names, args.seconds, MIN_ROUNDS, rng, one_round)

    metrics: dict[str, dict[str, dict]] = {}
    for name in names:
        if args.trace:
            values = {m: statistics.median(r[m] for r in layers[name]) for m in PER_LAYER}
            units = {m: spec[0] for m, spec in PER_LAYER.items()}
        else:
            plain = runs[name]
            values = {
                "wall_s": statistics.median(r["wall_s"] for r in plain),
                "cpu_s": statistics.median(r["cpu_s"] for r in plain),
                "rows_per_s": statistics.median(r["rows"] / r["wall_s"] for r in plain),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
                "setup_s": statistics.median(setup),
            }
            units = END_TO_END
        metrics[name] = {m: {"value": v, "unit": units[m]} for m, v in values.items()}

    attempted = sum(len(r) for r in runs.values())
    failed = sum(not r["ok"] for rs in runs.values() for r in rs)
    for name in names:
        bad = sum(not r["ok"] for r in runs[name])
        print(f"{name}: {len(runs[name])} runs in {rounds} rounds, error_rate {bad / len(runs[name]):.3f}")
        for metric, entry in metrics[name].items():
            print(f"  {metric:<36} {entry['value']:>16.6f} {entry['unit']}")
        if missing_spans.get(name):
            print(f"  warning: spans never recorded: {', '.join(missing_spans[name])}", file=sys.stderr)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics[names[0]] if len(names) == 1 else {
            f"{name}.{metric}": entry for name in names for metric, entry in metrics[name].items()
        },
    }
    record = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds, "rounds": rounds,
        "provenance": provenance(args.seed), "setup_s_samples": setup, "runs": runs,
        "layers": layers, "missing_spans": missing_spans, "result": result,
    }
    out_file = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
