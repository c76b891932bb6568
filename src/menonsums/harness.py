"""Verification sweeps over the identity grids, with serializable reports.

Every identity is one row of ``_SPECS``: its report fields, n_max bound
and default, and job grid, plus either a scalar check at each point(n, s) of
each n or the weights of a sum over all characters of one modulus with one
rhs(d, *head) per conductor d, None outside its hypothesis.  ``_run_job`` is
the one runner for both kinds, ``_jobs`` validates a config and admits its
grid once per run, and ``_results`` runs those jobs in grid order:
``run_sweep`` keeps their results as a report for every identity (the
counterexample search is its strict_gen sweep, and the remark is one row of
its last job at n = 4).  ``_write`` is the one report writer, over a report's
jobs in ``format_report``, or in ``write_report`` over ``_ran``, the one job
task, which formats each job where it ran so its bytes go out as they arrive.
Every sweep exhaustively enumerates its grid (all n, s and characters), emits
one record per instance, and aggregates a pass/fail/skipped summary.  Each
job returns its final rows as numpy columns, tolerance test included, so that
the large theorem-2 grid stays cheap; a grid over ``ROW_BUDGET`` rows is
refused before any job runs.  A report keeps each job's columns in grid
order, never concatenated, and formats them in runs of at most ``_RUN_ROWS``
rows of one job.  A CSV or text row is a head made once per job, a cell (a
character job's label at its flat index) and a tail, cached per job when the
residual is exactly 0.0; JSON builds each record so in one f-string.  Text
pads columns to the max of per-job widths, taken first (streamed, by a
first run of the jobs).  Grid order fixes the bytes of records, CSV and
text at any parallelism; JSON differs only in the echoed config.parallelism.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import json
import math
import os
from collections import deque
from dataclasses import asdict, dataclass
from functools import partial, reduce
from itertools import islice, repeat
from json.encoder import encode_basestring_ascii
from typing import Callable, ContextManager, Iterator, NamedTuple

import numpy as np

from .arith import divisor_tau, euler_phi, factorize, klee_phi, power_divisors, primes_upto, sigma, tau_s
from .characters import MODULUS_BOUND, DirichletCharacter, char_label, character_group, character_labels
from .characters import unit_group_structure
from .errors import DomainError, IntegrityError, ResourceError
from .identities import PARTITION_BOUND, SUM_BOUND, TUPLE_BOUND, char_shift_weights, cohen_partition_stats
from .identities import generalized_weights, menon_sum, sury_sum

#: Identity name used by the remark reproduction and the counterexample search.
STRICT_GEN = "strict_gen"

FORMATS = ("text", "csv", "json")

STATUS_PASS, STATUS_FAIL, STATUS_SKIP = 0, 1, 2
STATUS_NAMES = ("pass", "fail", "skipped")

#: The columns of a CSV or text report.
_HEADER = ("identity", "n", "s", "chi", "lhs", "residual", "rhs", "status")

_BATCH = 512

#: Most rows of one run: the slice of a job's rows a formatter decodes to plain lists at once.
_RUN_ROWS = 1024

#: Most rows a sweep may have; a larger grid is refused before any job runs.
ROW_BUDGET = 10**7


@dataclass(frozen=True)
class SweepConfig:
    """Parameters of one verification sweep."""

    identity: str
    n_max: int
    s_values: tuple[int, ...] = (1,)
    tolerance: float = 1e-6
    output: str = "text"
    parallelism: int = 1


class SweepRecord(NamedTuple):
    identity: str
    params: dict[str, int]
    chi: str | None
    lhs: int | None
    residual: float | None
    rhs: int | None
    status: str


class IdentityReport:
    """A sweep's config and, per job in grid order, the columns (params, lhs,
    residual, rhs, status) that _run_job returns; one row per grid instance."""

    def __init__(self, config, jobs):
        self.config, self.jobs = config, jobs

    def __len__(self) -> int:
        return sum(job[-1].size for job in self.jobs)

    @property
    def summary(self) -> dict[str, int]:
        return _summary(sum((np.bincount(job[-1], minlength=3) for job in self.jobs), np.zeros(3, np.int64)))

    @property
    def worst_residual(self) -> float:
        return float(reduce(np.maximum, map(_worst, self.jobs), 0.0))

    @property
    def records(self) -> list[SweepRecord]:
        identity = self.config.identity
        fields, records = _SPECS[identity].fields, []
        for job in self.jobs:
            labels = _labels(fields, job)
            for row, lhs, residual, rhs, code in zip(job[0].tolist(), *(col.tolist() for col in job[1:])):
                cells = (None, None, None) if code == STATUS_SKIP else (lhs, residual, rhs)
                params, chi = dict(zip(fields, row)), labels and labels[row[-1]]
                records.append(SweepRecord(identity, params, chi, *cells, STATUS_NAMES[code]))
        return records


def _summary(counts) -> dict[str, int]:
    """The report summary of status counts indexed by status code."""
    return {name: int(counts[code]) for code, name in enumerate(STATUS_NAMES)}


def _worst(job: tuple) -> float:
    """A job's worst live residual: 0.0 with none live, NaN when one is NaN."""
    return float(job[2][job[-1] != STATUS_SKIP].max(initial=0.0))


def _labels(fields: tuple[str, ...], job: tuple) -> list[str] | None:
    """The character labels of a character job's modulus, None for a job
    without a chi field or rows; character_labels keeps the last modulus's,
    so they are built once per run of consecutive jobs sharing a modulus."""
    return character_labels(_modulus(fields, job[0][0].tolist())) if "chi" in fields and len(job[0]) else None


# ---------------------------------------------------------------------------
# identity specs


def _iroot(n: int, k: int) -> int:
    if k >= n.bit_length():  # 2**k > n, so no r >= 2 has r**k <= n
        return 1
    r = round(n ** (1.0 / k))
    while r > 0 and r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def _shaped(d: int, n: int, s: int) -> bool:
    """Whether d = m**(t*s) with n = m**(q*s), m >= 2, 1 <= t <= q, the
    conductors Theorem 2 covers.  Every such m is a power of the root r with
    n = r**g, g the gcd of n's prime exponents, so they are the r**(t*s) with
    s | g and 1 <= t <= g/s."""
    factors = factorize(n).factors
    g = math.gcd(*(e for _, e in factors))  # 0 at n = 1
    r = math.prod(p ** (e // g) for p, e in factors)
    return g % s == 0 and d in [r ** (t * s) for t in range(1, g // s + 1)]


def _batch_grid(n_max: int, s_values) -> list[tuple]:
    """(s, lo, hi) batches of at most _BATCH consecutive n, for scalar rows."""
    return [(s, lo, min(lo + _BATCH - 1, n_max)) for s in s_values for lo in range(1, n_max + 1, _BATCH)]


def _powers_grid(start: int):
    """Grid of the s-th powers m**s <= n_max with m >= start."""
    return lambda n_max, s_values: [(m**s, s) for s in s_values for m in range(start, _iroot(n_max, s) + 1)]


def _prime_powers(n_max: int, s_values, first: int) -> list[tuple]:
    """(p, a, s) with p**a <= n_max and a = first*s, (first+1)*s, ..."""
    return [
        (p, a, s)
        for s in s_values
        for p in primes_upto(_iroot(n_max, first * s))
        for a in range(first * s, n_max.bit_length(), s)
        if p**a <= n_max
    ]


def _lemma_grid(n_max: int, s_values) -> list[tuple]:
    return [(p, a, s, m) for p, a, s in _prime_powers(n_max, s_values, 2) for m in range(s, a, s)]


def _compared(lhs: int, rhs: int) -> tuple[bool, int, int]:
    return lhs == rhs, lhs, rhs


def _lemma33_rhs(d: int, p: int, n_exp: int, s: int, m: int) -> int | None:
    if not _shaped(d, p**n_exp, s):
        return None
    l = round(math.log(d, p))
    if l <= m:
        return klee_phi(p ** (n_exp - m), s)
    return -(p ** (n_exp - l)) if m == l - s else 0


def _theorem2_rhs(d: int, n: int, s: int) -> int | None:
    return klee_phi(n, s) * tau_s(n // d, s) if _shaped(d, n, s) else None


class IdentitySpec(NamedTuple):
    """One swept identity.

    A scalar identity has one row at each point(n, s) of each n of a job
    (s, lo, hi), checked by check(n, s, *point) -> (ok, lhs, rhs).  A
    character identity sums weights(*head), by default the F_s weights
    (k-1, n)_s, against every character of the modulus n (or p**n_exp) and
    compares each sum with its one claim per conductor d, rhs(d, *head); a
    claim of None lies outside the identity's hypothesis, and its characters
    are reported skipped, or left out when drop is set.  The default weights
    and the menon and sury checks (each a sum against its rhs) are lambdas
    that look generalized_weights, menon_sum and sury_sum up when a job runs,
    so a wrapped module attribute (a tracer's span) is what runs; every other
    check and weights is named directly.
    """

    fields: tuple[str, ...]
    n_max: int
    default_n_max: int  # the n_max of a CLI run without --n-max
    grid: Callable  # (n_max, s_values) -> the leading params of each job, in report order
    check: Callable | None = None
    weights: Callable = lambda n, s: generalized_weights(n, s)
    rhs: Callable | None = None
    drop: bool = False
    points: Callable = lambda n, s: [()]  # the rows of a scalar identity at n


_SPECS: dict[str, IdentitySpec] = {
    "menon": IdentitySpec(
        ("n", "s"), SUM_BOUND, 1000,
        lambda n_max, s_values: _batch_grid(n_max, (1,)),
        check=lambda n, s: _compared(menon_sum(n), euler_phi(n) * divisor_tau(n)),
    ),
    "sury": IdentitySpec(
        ("n", "s"), TUPLE_BOUND, 30,
        _batch_grid,
        check=lambda n, s: _compared(sury_sum(n, s), euler_phi(n) * sigma(n, s - 1)),
    ),
    "zhao_cao": IdentitySpec(
        ("n", "s", "chi"), SUM_BOUND, 100,
        lambda n_max, s_values: [(n, 1) for n in range(1, n_max + 1)],
        rhs=lambda d, n, s: euler_phi(n) * divisor_tau(n // d),
    ),
    "theorem1": IdentitySpec(
        ("n", "s", "chi"), SUM_BOUND, 256,
        _powers_grid(1),
        rhs=lambda d, n, s: klee_phi(n, s) if d == n else None,
        drop=True,
    ),
    "theorem2": IdentitySpec(
        ("n", "s", "chi"), SUM_BOUND, 512,
        _powers_grid(2),
        rhs=_theorem2_rhs,
    ),
    "lemma31": IdentitySpec(
        ("p", "n_exp", "s", "m", "chi"), MODULUS_BOUND, 1024,
        _lemma_grid,
        weights=char_shift_weights,
        rhs=lambda d, p, n_exp, s, m: (-1 if m == n_exp - s else 0) if d == p**n_exp else None,
        drop=True,
    ),
    "lemma33": IdentitySpec(
        ("p", "n_exp", "s", "m", "chi"), MODULUS_BOUND, 1024,
        _lemma_grid,
        weights=char_shift_weights,
        rhs=_lemma33_rhs,
    ),
    # At n = p**a and conductor d = p**(r*s), tau_s(n/d) is Lemma 3.4's a/s - r + 1.
    "lemma34": IdentitySpec(
        ("n", "s", "chi"), SUM_BOUND, 1024,
        lambda n_max, s_values: [(p**a, s) for p, a, s in _prime_powers(n_max, s_values, 1)],
        rhs=_theorem2_rhs,
    ),
    "cohen_partition": IdentitySpec(
        ("n", "s", "d"), PARTITION_BOUND, 200,
        _batch_grid,
        check=cohen_partition_stats,
        points=lambda n, s: [(d,) for d in power_divisors(n, s)],
    ),
    STRICT_GEN: IdentitySpec(
        ("n", "s", "chi"), SUM_BOUND, 36,
        lambda n_max, s_values: [(n, s) for s in s_values for n in range(1, n_max + 1)],
        rhs=lambda d, n, s: klee_phi(n, s) * tau_s(n // d, s),  # Theorem 2 at every conductor
    ),
}

IDENTITIES = tuple(name for name in _SPECS if name != STRICT_GEN)


# ---------------------------------------------------------------------------
# job execution (each job returns final columns params, lhs, residual, rhs, status)


def _rounded_parts(sums: np.ndarray, group, s: int, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Round the sums, one per character of group in flat order, to (lhs,
    residual), both 0 outside keep; a kept residual >= 0.5 raises
    IntegrityError naming its place."""
    lhs = np.rint(sums.real).astype(np.int64)
    residual = np.where(keep, np.abs(sums - lhs), 0.0)
    if residual.size and not residual.max() < 0.5:
        j = int(np.argmax(residual))
        raise IntegrityError(
            f"character sum at n={group.modulus}, s={s}, chi={group.label(j)} is not within 0.5 "
            f"of an integer (residual {residual[j]:.3e})"
        )
    return np.where(keep, lhs, 0), residual


def _modulus(fields: tuple[str, ...], head):
    """The modulus n, or p**n_exp, of a character job's head."""
    return head[0] if fields[0] == "n" else head[0] ** head[1]


def _run_job(job: tuple) -> tuple[np.ndarray, ...]:
    """Final columns of one job (identity, head, tolerance): a character row
    passes when lhs == rhs and its residual is below the tolerance."""
    ident, head, tolerance = job
    spec = _SPECS[ident]
    if spec.check is not None:
        s, lo, hi = head
        params = [(n, s, *point) for n in range(lo, hi + 1) for point in spec.points(n, s)]
        ok, lhs, rhs = zip(*(spec.check(*row) for row in params))
        lhs = np.asarray(lhs, dtype=np.int64)
        status = np.where(ok, STATUS_PASS, STATUS_FAIL).astype(np.int8)
        return np.asarray(params, dtype=np.int32), lhs, np.zeros(lhs.size), np.asarray(rhs, dtype=np.int64), status
    group = character_group(_modulus(spec.fields, head))
    classes, of = np.unique(group.conductors(), return_inverse=True)
    claims = [spec.rhs(d, *head) for d in classes.tolist()]  # one per conductor, None: no claim
    keep = np.array([c is not None for c in claims])[of]
    sums = group.all_sums(spec.weights(*head)) if keep.any() else np.zeros(of.size)
    lhs, residual = _rounded_parts(sums, group, head[spec.fields.index("s")], keep)
    rhs = np.array([c or 0 for c in claims], dtype=np.int64)[of]
    ok = (lhs == rhs) & (residual < tolerance)  # a NaN residual fails
    status = np.where(keep, np.where(ok, STATUS_PASS, STATUS_FAIL), STATUS_SKIP).astype(np.int8)
    rows = np.flatnonzero(keep) if spec.drop else np.arange(of.size)
    params = np.empty((rows.size, len(head) + 1), dtype=np.int32)
    params[:, :-1] = head
    params[:, -1] = rows
    return params, lhs[rows], residual[rows], rhs[rows], status[rows]


def _validate_config(config: SweepConfig) -> None:
    if config.identity not in _SPECS:
        raise DomainError(f"unknown identity {config.identity!r}; choose from {tuple(_SPECS)}")
    if config.n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {config.n_max}")
    bound = _SPECS[config.identity].n_max
    if config.n_max > bound:
        raise ResourceError(f"n_max {config.n_max} exceeds the {config.identity} bound {bound}")
    if not config.s_values or any(s < 1 for s in config.s_values):
        raise DomainError(f"s_values must be a nonempty list of positive integers, got {config.s_values}")
    if max(config.s_values) > np.iinfo(np.int32).max:  # report params are int32
        raise DomainError(f"s must be at most {np.iinfo(np.int32).max}, got {max(config.s_values)}")
    if not 0 < config.tolerance < 0.5:
        raise DomainError(f"tolerance must lie in (0, 0.5), got {config.tolerance}")
    if config.parallelism < 1:
        raise DomainError(f"parallelism must be >= 1, got {config.parallelism}")
    if config.output not in FORMATS:
        raise DomainError(f"output must be one of {FORMATS}, got {config.output!r}")
    if config.identity == "sury":
        for s in config.s_values:
            # n_max**64 > TUPLE_BOUND for n_max >= 2, so the capped power decides exactly.
            if config.n_max ** min(s, 64) > TUPLE_BOUND:
                raise ResourceError(f"sury sweep refused: {config.n_max}**{s} tuples exceed {TUPLE_BOUND}")


def _admit(identity: str, spec: IdentitySpec, heads: list[tuple]) -> None:
    """Refuse a grid of more than ROW_BUDGET rows before any job runs, counting
    phi(modulus) per character job (dropped rows included) and the points of
    each n of a scalar job (s, lo, hi); counting stops once past the budget."""
    total = 0
    for head in heads:
        if spec.check is None:
            total += euler_phi(_modulus(spec.fields, head))
        else:
            total += sum(len(spec.points(n, head[0])) for n in range(head[1], head[2] + 1))
        if total > ROW_BUDGET:
            raise ResourceError(f"{identity} sweep refused: {total} rows counted exceed the budget {ROW_BUDGET}")


def _jobs(config: SweepConfig) -> list[tuple]:
    """The jobs (identity, head, tolerance) of the configured sweep, of any
    identity in _SPECS, in grid order; called once per run.

    The config is validated and the grid's rows counted here, before any job
    runs; a bound violation refuses the whole run rather than truncating it.
    """
    _validate_config(config)
    spec = _SPECS[config.identity]
    heads = spec.grid(config.n_max, tuple(dict.fromkeys(config.s_values)))
    _admit(config.identity, spec, heads)
    return [(config.identity, head, config.tolerance) for head in heads]


def _results(config: SweepConfig, jobs: list[tuple], task: Callable) -> Iterator:
    """task(job) for each of jobs in grid order: serially, or in a pool of
    config.parallelism workers.  The jobs run as the results are read."""
    # Under fork the pool starts every worker at its first submit, so cap them.
    workers = min(config.parallelism, len(jobs), os.cpu_count() or 1)
    return _pooled(task, jobs, workers) if workers > 1 else map(task, jobs)


def _pooled(task: Callable, jobs: list[tuple], workers: int) -> Iterator:
    """task over jobs in a pool of workers, results in grid order.  Jobs go
    out in chunks of len(jobs) // (32 * workers), at most 2*workers chunks
    ahead of the one being read, so the finished results waiting in
    this process stay a few chunks' worth however slowly they are read."""
    size = max(1, len(jobs) // (workers * 32))
    chunks = (jobs[a : a + size] for a in range(0, len(jobs), size))
    # Read here, not imported at the top: a serial run never loads multiprocessing.
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        pending = deque(pool.submit(_run_chunk, task, chunk) for chunk in islice(chunks, 2 * workers))
        try:
            while pending:
                results = pending.popleft().result()
                pending.extend(pool.submit(_run_chunk, task, chunk) for chunk in islice(chunks, 1))
                yield from results
        finally:
            for future in pending:
                future.cancel()


def _run_chunk(task: Callable, jobs: list[tuple]) -> list:
    return [task(job) for job in jobs]


def _ran(task: Callable, job: tuple):
    """task(_run_job(job)), a streamed report's one job task."""
    return task(_run_job(job))


def run_sweep(config: SweepConfig) -> IdentityReport:
    """Run the configured sweep, of any identity in _SPECS, and return its report.

    The config is validated and the grid's rows counted before any job runs;
    a bound violation refuses the whole run rather than truncating it.
    """
    return IdentityReport(config, list(_results(config, _jobs(config), _run_job)))


def write_report(
    config: SweepConfig, fmt: str, open_out: Callable[[], ContextManager[Callable[[bytes], object]]]
) -> dict[str, int]:
    """Run the configured sweep and write its report, the bytes of
    format_report(run_sweep(config), fmt), through the write function that
    open_out() gives, one job at a time; return the summary.

    Each job is formatted where it ran (in a pool worker at parallelism > 1),
    and its bytes are written as soon as they arrive in grid order, then
    dropped, so only a few jobs' rows, or at parallelism > 1 a few pool
    chunks' (see _pooled), are held at once.  Text runs every job twice (see
    _write), both times from one admitted job list.  open_out is called once
    the config is valid, the grid admitted and any widths known.  A job that
    fails (IntegrityError) ends the run with the jobs before it written.
    """
    jobs = _jobs(config)
    return _write(fmt, config, lambda task: _results(config, jobs, partial(_ran, task)), open_out)


def reproduce_remark() -> IdentityReport:
    """Evaluate the strict-generalization counterexample n=4, s=2, principal.

    The record is row 0 (the principal character) of the last job, n=4, of
    the strict_gen sweep at n_max=4, s=2, run alone.  It must come out LHS=5
    vs RHS=6 with status fail; that failure is the expected, documented
    outcome, so callers treat it as success.  Any other values raise IntegrityError.
    """
    config = SweepConfig(identity=STRICT_GEN, n_max=4, s_values=(2,))
    job = tuple(col[:1] for col in _run_job(_jobs(config)[-1]))
    lhs, rhs = job[1][0], job[3][0]
    if lhs != 5 or rhs != 6:
        raise IntegrityError(f"remark reproduction expected LHS=5, RHS=6; got LHS={lhs}, RHS={rhs}")
    return IdentityReport(config, [job])


def search_counterexamples(n_max: int, s_values, tolerance: float = 1e-6, parallelism: int = 1) -> IdentityReport:
    """Test the falsified identity sum = Phi_s(n) * tau_s(n/d) over every
    modulus n <= n_max and every character, with no shape restriction: the
    strict_gen sweep.

    Failing records are the findings; they are expected and do not signal
    an implementation problem.
    """
    return run_sweep(SweepConfig(STRICT_GEN, n_max, tuple(s_values), tolerance, parallelism=parallelism))


# ---------------------------------------------------------------------------
# serialization


class _Tails(dict):
    """One job's row tails, tail(lhs, residual, rhs, status code): a skipped
    row's is made once, and a row whose residual is exactly 0.0 (residuals
    are absolute values, never -0.0) takes it by (lhs, rhs, code), made at
    first use."""

    def __init__(self, tail: Callable):
        self.tail, self.skip = tail, tail(0, 0.0, 0, STATUS_SKIP)

    def __missing__(self, key):
        made = self[key] = self.tail(key[0], 0.0, *key[1:])
        return made

    def of(self, job: tuple, a: int) -> list:
        """The tail of each row of the run of job from row a."""
        skip, tail, rows = self.skip, self.tail, zip(*(col[a : a + _RUN_ROWS].tolist() for col in job[1:]))
        return [skip if c == STATUS_SKIP else self[l, h, c] if r == 0.0 else tail(l, r, h, c) for l, r, h, c in rows]


def _table_job(fields: tuple[str, ...], job: tuple, labels: list[str] | None, templates: tuple[str, ...]) -> bytes:
    """One job's CSV or text rows, each head + cell + tail, from the templates
    (lead, mid, cell, row, skip), _RUN_ROWS rows at a time.  A character job's
    head, lead + mid % (n, s), is made once, and its cell is its label at the
    flat character index params[:, -1] (or cell % (label + a lemma job's
    " m=...")); a scalar job's head is lead, its cell (mid + cell) % (n, s,
    "d=..." or "").  A tail, row % (lhs, residual, rhs, status) or skip,
    starts by closing the cell, so a run is head + head.join(cell + tail)."""
    lead, mid, cell, row, skip = templates
    tails = _Tails(lambda l, r, h, c: skip if c == STATUS_SKIP else row % (l, r, h, STATUS_NAMES[c]))
    params, parts = job[0], []
    if labels is not None and len(params):
        top = params[0].tolist()
        suffix = f" m={top[fields.index('m')]}" if "m" in fields else ""
        lead += mid % (_modulus(fields, top), top[fields.index("s")])
    for a in range(0, len(params), _RUN_ROWS):
        cells, index = labels, params[a : a + _RUN_ROWS, -1].tolist()
        if labels is None:
            n, s, *d = params[a : a + _RUN_ROWS].T.tolist()
            cells = [(mid + cell) % point for point in zip(n, s, [f"d={v}" for v in d[0]] if d else [""] * len(n))]
        elif cell != "%s" or suffix:  # a padded text cell, or a lemma cell
            cells = [cell % (labels[j] + suffix) for j in index]
        index = index if cells is labels else range(len(cells))
        parts.append(lead + lead.join([cells[j] + t for j, t in zip(index, tails.of(job, a))]))
    return "".join(parts).encode()


def _json_job(identity: str, job: tuple, labels: list[str] | None) -> bytes:
    """One job's JSON records, ", "-separated: each the json.dumps(...,
    sort_keys=True) of its record, one f-string in sorted-key order, _RUN_ROWS
    rows at a time.  A character job's params are its flat character index
    params[:, -1] (chi sorts first) between a head and a tail made once; a
    scalar job's are made per row.  The (lhs, rest after "residual": ) pairs
    come from the job's _Tails, the residual as its repr, which is its
    json.dumps when finite, or as json.dumps writes NaN and Infinity."""
    fields = _SPECS[identity].fields
    order = sorted(range(len(fields)), key=fields.__getitem__)
    keyed = "{{" + ", ".join(f"{json.dumps(fields[i])}: {{}}" for i in order) + "}}"
    ident, skip = json.dumps(identity), ("null", 'null, "rhs": null, "status": "skipped"}')
    tails = _Tails(lambda l, r, h, c: skip if c == STATUS_SKIP else (
        str(l), f'{repr(r) if math.isfinite(r) else json.dumps(r)}, "rhs": {h}, "status": "{STATUS_NAMES[c]}"}}'))
    params, parts, pre, rest = job[0], [], "", ""
    if labels is not None and len(params):
        pre, rest = '{"chi": ', keyed[len('{{"chi": {}') :].format(*params[0, order[1:]].tolist())
    for a in range(0, len(params), _RUN_ROWS):
        if labels is None:
            keys, chis = list(map(keyed.format, *params[a : a + _RUN_ROWS, order].T.tolist())), repeat("null")
        else:
            keys = params[a : a + _RUN_ROWS, -1].tolist()
            chis = map(encode_basestring_ascii, map(labels.__getitem__, keys))
        parts.append(", ".join([
            f'{{"chi": {c}, "identity": {ident}, "lhs": {l}, "params": {pre}{k}{rest}, "residual": {t}'
            for c, k, (l, t) in zip(chis, keys, tails.of(job, a))
        ]))
    return ", ".join(parts).encode()


def _job_widths(identity: str, job: tuple) -> tuple[int, ...]:
    """Lengths of one job's widest text cells, identity .. rhs, the last three
    live; a label is longest at the last flat index, where every index is largest."""
    fields, params, live = _SPECS[identity].fields, job[0], job[-1] != STATUS_SKIP
    if not len(params):
        return (0,) * 7
    top, (lhs, residual, rhs) = params.max(axis=0).tolist(), (col[live] for col in job[1:4])
    chi = [f"{f}={top[fields.index(f)]}" for f in ("m", "d") if f in fields]
    if "chi" in fields:
        n = _modulus(fields, top)
        last = _last_label(n) if top[-1] == euler_phi(n) - 1 else None
        chi.insert(0, last or max(map(character_labels(n).__getitem__, params[:, -1].tolist()), key=len))
    plain = (residual == 0) | ((1e-99 <= residual) & (residual < 1e99))  # each "%.3e" cell has 9 characters
    ends = [[col.min(), col.max()] if col.size else [] for col in (lhs, rhs)]
    cells = [[identity], [_modulus(fields, top)], [top[fields.index("s")]], [" ".join(chi)], ends[0], ends[1]]
    cells.insert(5, [f"{v:.3e}" for v in {*residual[~plain].tolist(), *residual[plain][:1].tolist()}])
    return tuple(max(map(len, map(str, c)), default=0) for c in cells)


def _last_label(n: int) -> str:
    """The label of the last character mod n in flat order, whose every index
    is its generator's order - 1, built without a CharacterGroup."""
    comps = []
    for p, e in factorize(n).factors:
        comps.append((p**e, tuple(order - 1 for _, order in unit_group_structure(p, e).generators)))
    return char_label(DirichletCharacter(n, tuple(comps)))


def _sink(fmt: str, config: SweepConfig, job_widths: Callable[[], Iterator]) -> tuple[Callable, bytes]:
    """The job writer (job, labels) -> bytes of config's fmt report, and its head.
    Text pads every cell but the status to its column's widest, the header included."""
    if fmt not in FORMATS:
        raise DomainError(f"unknown format {fmt!r}; choose from {FORMATS}")
    identity, fields = config.identity, _SPECS[config.identity].fields
    if fmt == "json":
        head = json.dumps({"config": asdict(config)}, sort_keys=True)[:-1] + ', "records": ['
        return partial(_json_job, identity), head.encode()
    if fmt == "csv":
        q = '"' if {"chi", "m", "d"} & set(fields) else ""
        templates = (f"{identity},", f"%d,%d,{q}", "%s", f"{q},%d,%.3e,%d,%s\n", f"{q},,,,skipped\n")
        head = ",".join(_HEADER)
    else:  # "%-{w}d" and "%-{w}.3e" equal str(v).ljust(w) and f"{v:.3e}".ljust(w)
        header = [len(h) for h in (max(_HEADER[0], identity, key=len), *_HEADER[1:7])]
        wi, wn, ws, wc, wl, wr, wh = widths = reduce(np.maximum, job_widths(), np.array(header)).tolist()
        lead, row = f"{identity.ljust(wi)}  ", f"  %-{wl}d  %-{wr}.3e  %-{wh}d  %s\n"
        templates = (lead, f"%-{wn}d  %-{ws}d  ", f"%-{wc}s", row, " " * (wl + wr + wh + 8) + "skipped\n")
        head = "  ".join([*(h.ljust(w) for h, w in zip(_HEADER, widths)), "status"])
    return partial(_table_job, fields, templates=templates), (head + "\n").encode()


def _formatted(writer: Callable, fields: tuple[str, ...], job: tuple) -> tuple[bytes, np.ndarray, float]:
    """A job's chunk from writer with its modulus's labels, its status counts and its worst live residual."""
    return writer(job, _labels(fields, job)), np.bincount(job[-1], minlength=3), _worst(job)


def _write(fmt: str, config: SweepConfig, run: Callable, open_out: Callable) -> dict[str, int]:
    """Write config's fmt report through the write function that open_out()
    gives, where run(task) yields task(result) for each job result in grid
    order: head, each job's _formatted chunk, with ", " between non-empty JSON
    chunks, then the tail (the text summary line, or the JSON summary) from
    the merged counts and worst residual.  Text calls run twice, the first
    time for the column widths.  Returns the summary."""
    writer, head = _sink(fmt, config, lambda: run(partial(_job_widths, config.identity)))
    results = run(partial(_formatted, writer, _SPECS[config.identity].fields))
    with open_out() as write:
        write(head)
        counts, worst, sep = np.zeros(3, np.int64), 0.0, b""
        for chunk, job_counts, job_worst in results:
            counts += job_counts
            worst = np.maximum(worst, job_worst)  # a NaN residual propagates, as in a max over every row
            if chunk:
                write(sep + chunk)
                sep = b", " if fmt == "json" else b""
        summary = _summary(counts)
        if fmt == "json":
            tail = json.dumps({"summary": summary, "worst_residual": float(worst)}, sort_keys=True)
            write(f"], {tail[1:]}\n".encode())
        elif fmt == "text":
            cells = " ".join(f"{name}={count}" for name, count in summary.items())
            write(f"summary: {cells} worst_residual={worst:.3e}\n".encode())
    return summary


def format_report(report: IdentityReport, fmt: str) -> bytes:
    """Serialize a report as text, csv, or json; byte-stable across runs."""
    parts: list[bytes] = []
    _write(fmt, report.config, lambda task: map(task, report.jobs), lambda: contextlib.nullcontext(parts.append))
    return b"".join(parts)
