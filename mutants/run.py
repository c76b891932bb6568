#!/usr/bin/env python3
"""Mutation check of the refusal rules and the sweep's checks: every mutant must fail its named tests.

Run from the repository root:

    python3 mutants/run.py

A mutant is one exact text replacement in a file of ``src/menonsums``, named
with the tests that must catch it.  Each row's old text must occur exactly
once in its file, or the run fails before any mutant runs, so the table
cannot go stale unnoticed.  The named tests must first pass against an
unchanged copy of ``src/``.  Then, for each mutant, ``src/`` is copied to a
temporary directory, the one replacement is made there, and only its named
tests run against that copy (first on PYTHONPATH); pytest must report a
failed test (exit 1).  Any other outcome, a pass or an error, is a mutant
that survives, and the run exits 1.

The table holds one mutant per bound that refuses the value at the bound (each
shared helper's comparison flipped, and each call site's bound off by one),
menon's s bound raised to 2, a character index equal to its order accepted,
and a partition check that no longer looks at the classes that are not
s-reduced; their tests are the edge table of ``tests/test_bounds.py`` and one
partition test.  Then come the sweep's checks: a scalar check that always
passes, a character row that passes without its tolerance test, the 0.5
rounding guard off, conductor 2 allowed at p = 2, Theorem 2's hypothesis
without s | g, Klee's totient with its case e = s moved, the F_s claim of 0
outside a hypothesis (theorem1's), and the merge of job tallies dropping a NaN
residual; each is caught by one harness or acceptance test.  Like
``perfbench/``, this lies outside tier-1.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parent.parent


def at(case: str) -> str:
    return f"tests/test_bounds.py::test_accepted_at_its_bound[{case}]"


def past(case: str) -> str:
    return f"tests/test_bounds.py::test_refused_just_past_its_bound[{case}]"


def sweep(test: str) -> str:
    return f"tests/test_harness.py::{test}"


class Mutant(NamedTuple):
    name: str
    file: str  # under src/menonsums
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = [
    # The three shared refusal helpers, each comparison flipped.
    Mutant("refuse_below", "errors.py", "if value < low:", "if value <= low:", (at("n_max_low"), at("group_low"))),
    Mutant(
        "refuse_above",
        "errors.py",
        '    if value > bound:\n        raise ResourceError(f"{what} bound is',
        '    if value >= bound:\n        raise ResourceError(f"{what} bound is',
        (at("factorize"), at("menon_sum"), at("partition_check")),
    ),
    Mutant(
        "refuse_exceeding",
        "errors.py",
        '    if value > bound:\n        raise ResourceError(f"{what} {value} exceeds',
        '    if value >= bound:\n        raise ResourceError(f"{what} {value} exceeds',
        (at("prime_power"), at("character_modulus"), at("character_group")),
    ),
    # Each call site's bound, one less.
    Mutant("factorize", "arith.py", "FACTOR_BOUND, ", "FACTOR_BOUND - 1, ", (at("factorize"),)),
    Mutant("brute_force", "arith.py", "BRUTE_BOUND, ", "BRUTE_BOUND - 1, ", (at("brute_force"),)),
    Mutant("prime_power", "characters.py", 'MODULUS_BOUND, "prime power"', 'MODULUS_BOUND - 1, "prime power"', (at("prime_power"),)),
    Mutant(
        "character_modulus",
        "characters.py",
        "refuse_exceeding(self.modulus, MODULUS_BOUND,",
        "refuse_exceeding(self.modulus, MODULUS_BOUND - 1,",
        (at("character_modulus"),),
    ),
    Mutant(
        "enumerate_characters",
        "characters.py",
        'refuse_exceeding(n, MODULUS_BOUND, "modulus")\n    comps = []',
        'refuse_exceeding(n, MODULUS_BOUND - 1, "modulus")\n    comps = []',
        (at("enumerate_characters"),),
    ),
    Mutant(
        "character_labels",
        "characters.py",
        'refuse_exceeding(n, MODULUS_BOUND, "modulus")\n    labels',
        'refuse_exceeding(n, MODULUS_BOUND - 1, "modulus")\n    labels',
        (at("character_labels"),),
    ),
    Mutant(
        "character_group",
        "characters.py",
        'refuse_exceeding(n, MODULUS_BOUND, "modulus")\n        self.modulus',
        'refuse_exceeding(n, MODULUS_BOUND - 1, "modulus")\n        self.modulus',
        (at("character_group"),),
    ),
    Mutant("char_table", "cli.py", "phi * n > TABLE_BOUND", "phi * n > TABLE_BOUND - 1", (at("char_table"),)),
    Mutant("round_exact", "identities.py", "count > TERM_BOUND", "count > TERM_BOUND - 1", (at("round_exact"),)),
    Mutant("menon_sum", "identities.py", 'SUM_BOUND, "menon_sum"', 'SUM_BOUND - 1, "menon_sum"', (at("menon_sum"),)),
    Mutant("zhao_cao_sum", "identities.py", 'SUM_BOUND, "zhao_cao_sum"', 'SUM_BOUND - 1, "zhao_cao_sum"', (at("zhao_cao_sum"),)),
    Mutant(
        "generalized_sum",
        "identities.py",
        'SUM_BOUND, "generalized_sum"',
        'SUM_BOUND - 1, "generalized_sum"',
        (at("generalized_sum"),),
    ),
    Mutant("partition_check", "identities.py", "PARTITION_BOUND, ", "PARTITION_BOUND - 1, ", (at("partition_check"),)),
    # I: the one sury tuple rule made >=, then each of its two callers off by one.
    Mutant(
        "sury_tuple_rule",
        "identities.py",
        "min(s_vars, 64) > TUPLE_BOUND",
        "min(s_vars, 64) >= TUPLE_BOUND",
        (at("sury_sum"), at("sury_config")),
    ),
    Mutant("sury_sum", "identities.py", "sury_tuples_exceed(n, s_vars):", "sury_tuples_exceed(n + 1, s_vars):", (at("sury_sum"),)),
    Mutant(
        "sury_config",
        "harness.py",
        "sury_tuples_exceed(config.n_max, s)",
        "sury_tuples_exceed(config.n_max + 1, s)",
        (at("sury_config"),),
    ),
    Mutant("n_max", "harness.py", "config.n_max > bound", "config.n_max > bound - 1", (at("n_max_menon"), at("n_max_lemma31"))),
    Mutant("row_budget", "harness.py", "total > ROW_BUDGET", "total > ROW_BUDGET - 1", (at("row_budget"),)),
    Mutant("int32_s", "harness.py", "max(config.s_values) > s_max", "max(config.s_values) > s_max - 1", (at("int32_s"),)),
    Mutant("s_max_menon", "harness.py", "_batch_grid, s_max=1,", "_batch_grid, s_max=2,", (past("s_max_menon"),)),
    Mutant("n_max_low", "harness.py", 'refuse_below(config.n_max, 1, "n_max")', 'refuse_below(config.n_max, 2, "n_max")', (at("n_max_low"),)),
    Mutant("group_low", "characters.py", 'refuse_below(n, 1, "modulus")\n        ', 'refuse_below(n, 2, "modulus")\n        ', (at("group_low"),)),
    # H: a character index equal to its order accepted; and index 0 refused.
    Mutant("index_high", "characters.py", "0 <= v < order", "0 <= v <= order", (past("index_high"),)),
    Mutant("index_low", "characters.py", "0 <= v < order", "0 < v < order", (at("index_low"),)),
    # A: the partition check without its clause on the classes that are not s-reduced mod d.
    Mutant(
        "partition_classes",
        "identities.py",
        "        and bool((counts[~valid] == 0).all())\n",
        "",
        ("tests/test_identities.py::TestCohenPartition::test_member_in_a_class_not_reduced_mod_d_fails",),
    ),
    # The sweep's checks: each verdict, guard and claim weakened.
    Mutant(
        "compared_true",
        "harness.py",
        "    return lhs == rhs, lhs, rhs",
        "    return True, lhs, rhs",
        (sweep("TestSweepContents::test_scalar_row_fails_exactly_where_its_check_fails[menon]"),),
    ),
    Mutant(
        "tolerance_dropped",
        "harness.py",
        "ok = (lhs == rhs) & (residual < tolerance)",
        "ok = lhs == rhs",
        (sweep("TestDeterminismAndParallelism::test_tolerance_travels_with_the_job_into_workers"),),
    ),
    Mutant(
        "half_guard_off",
        "harness.py",
        "if residual.size and not residual.max() < 0.5:",
        "if False:",
        (sweep("TestCli::test_integrity_error_names_its_location[zhao_cao]"),),
    ),
    Mutant(
        "conductor_two",
        "characters.py",
        "range(a - 1, 1 if p == 2 else 0, -1)",
        "range(a - 1, 0, -1)",
        ("tests/test_acceptance.py::test_03_theorem2_sweep",),
    ),
    Mutant(
        "shaped_any_s",
        "harness.py",
        "return g % s == 0 and d in [",
        "return d in [",
        (sweep("TestSweepContents::test_shaped_matches_theorem2_hypothesis"),),
    ),
    Mutant("klee_phi", "arith.py", "if e >= s else pe", "if e > s else pe", ("tests/test_acceptance.py::test_01_remark_reproduction",)),
    Mutant(
        "theorem1_claims_zero",
        "harness.py",
        "if holds(d, n, s) else None",
        "if holds(d, n, s) else 0",
        ("tests/test_acceptance.py::test_02_theorem1_sweep",),
    ),
    # The one merge of job tallies, by Python's max, which drops a NaN residual.
    Mutant(
        "merge_drops_nan",
        "harness.py",
        "np.maximum(worst, job_worst)",
        "max(worst, job_worst)",
        (sweep("TestRowWriters::test_text_equals_plain_rows[theorem2-1024]"),),
    ),
]


def _copy_src(into: pathlib.Path) -> pathlib.Path:
    shutil.copytree(ROOT / "src", into / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return into / "src"


def _pytest(src: pathlib.Path, tests) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)


def main(mutants=MUTANTS) -> int:
    counts = [(ROOT / "src/menonsums" / m.file).read_text().count(m.old) for m in mutants]
    stale = [f"{m.name}: its old text occurs {c} times in {m.file}" for m, c in zip(mutants, counts) if c != 1]
    if stale:
        print("stale mutants, nothing ran:", *stale, sep="\n  ")
        return 1
    start, survivors = time.perf_counter(), []
    with tempfile.TemporaryDirectory(prefix="menonsums-mutants-") as tmp:
        base = _pytest(_copy_src(pathlib.Path(tmp) / "base"), sorted({t for m in mutants for t in m.tests}))
        if base.returncode != 0:
            print(f"the named tests fail on unchanged source (pytest exit {base.returncode}):\n{base.stdout}")
            return 1
        for i, m in enumerate(mutants):
            src = _copy_src(pathlib.Path(tmp) / f"m{i}")
            path = src / "menonsums" / m.file
            path.write_text(path.read_text().replace(m.old, m.new))
            t0 = time.perf_counter()
            code = _pytest(src, m.tests).returncode
            caught = code == 1  # tests ran and failed; 0 is a pass, 2-5 an error or no test run
            print(f"{'caught  ' if caught else 'SURVIVED'} {m.name} (pytest exit {code}, {time.perf_counter() - t0:.1f} s)")
            if not caught:
                survivors.append(m.name)
    print(f"{len(mutants) - len(survivors)} of {len(mutants)} mutants caught in {time.perf_counter() - start:.0f} s")
    if survivors:
        print("survivors:", ", ".join(survivors))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
