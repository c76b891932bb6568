"""Verification sweeps over the identity grids, with serializable reports.

Every identity is one row of ``_SPECS``: its report fields, n_max bound
and default, and job grid, plus either scalar rows or the weights,
qualifier and conductor rhs of a sum over all characters of one modulus.
``_run_job`` is the one runner for both kinds.  Every sweep exhaustively enumerates its grid (all
qualifying n, s and characters), emits one record per instance, and
aggregates a pass/fail/skipped summary.  Records are stored columnar (numpy
arrays) so that the large theorem-2 grid stays cheap; ``report.records``
decodes them into a list of per-record objects.  Record order is fixed by the
grid, so output is byte-identical at any parallelism.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .arith import (
    divisor_tau,
    euler_phi,
    klee_phi,
    power_divisors,
    primes_upto,
    sigma,
    tau_s,
)
from .characters import MODULUS_BOUND, character_group, character_labels
from .errors import DomainError, IntegrityError, ResourceError
from .identities import (
    PARTITION_BOUND,
    SUM_BOUND,
    TUPLE_BOUND,
    char_shift_weights,
    cohen_partition_stats,
    generalized_weights,
    menon_sum,
    sury_sum,
    zhao_cao_weights,
)

#: Identity name used by the remark reproduction and the counterexample search.
STRICT_GEN = "strict_gen"

FORMATS = ("text", "csv", "json")

STATUS_PASS, STATUS_FAIL, STATUS_SKIP = 0, 1, 2
STATUS_NAMES = ("pass", "fail", "skipped")

_BATCH = 512

#: Most rows decoded to Python objects at once while formatting a report.
_RUN_ROWS = 1024


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
    """Columnar result of a sweep; one row per grid instance."""

    def __init__(self, config, param_fields, params, lhs, residual, rhs, status):
        self.config = config
        self.identity = config.identity
        self.param_fields = param_fields
        self.params = params
        self.lhs = lhs
        self.residual = residual
        self.rhs = rhs
        self.status = status

    def __len__(self) -> int:
        return self.status.size

    @property
    def summary(self) -> dict[str, int]:
        counts = np.bincount(self.status, minlength=3)
        return {name: int(counts[code]) for code, name in enumerate(STATUS_NAMES)}

    @property
    def worst_residual(self) -> float:
        live = self.status != STATUS_SKIP
        return float(self.residual[live].max()) if live.any() else 0.0

    def _runs(self) -> Iterator[tuple[list, ...]]:
        """Decode rows to Python lists in runs of at most _RUN_ROWS rows of one modulus.

        Yields (modulus, params, chi, lhs, residual, rhs, status) columns: chi
        is each row's label (None without a chi field), from labels built once
        per modulus; lhs, residual and rhs are None on skipped rows.
        """
        fields = self.param_fields
        params = self.params.reshape(-1, len(fields))
        if "n" in fields:
            moduli = params[:, fields.index("n")]
        else:
            moduli = params[:, fields.index("p")].astype(np.int64) ** params[:, fields.index("n_exp")]
        chi_at = fields.index("chi") if "chi" in fields else None
        breaks = set(range(_RUN_ROWS, moduli.size, _RUN_ROWS))
        if chi_at is not None:
            breaks.update((np.flatnonzero(np.diff(moduli)) + 1).tolist())
        edges = [0, *sorted(breaks), moduli.size] if moduli.size else []
        labelled = None
        for a, b in zip(edges, edges[1:]):
            run = params[a:b].tolist()
            if chi_at is not None:
                if moduli[a] != labelled:
                    labelled, labels = moduli[a], character_labels(int(moduli[a]))
                chi = [labels[row[chi_at]] for row in run]
            else:
                chi = [None] * (b - a)
            codes = self.status[a:b].tolist()
            cols = [col[a:b].tolist() for col in (self.lhs, self.residual, self.rhs)]
            if STATUS_SKIP in codes:
                cols = [[None if k == STATUS_SKIP else v for v, k in zip(col, codes)] for col in cols]
            yield (moduli[a:b].tolist(), run, chi, *cols, [STATUS_NAMES[k] for k in codes])

    def _record_dicts(self) -> Iterator[dict]:
        """One JSON-shaped dict per row, keyed by the SweepRecord fields."""
        fields = self.param_fields
        for _, params, *values in self._runs():
            for row, chi, lhs, residual, rhs, status in zip(params, *values):
                yield {
                    "identity": self.identity, "params": dict(zip(fields, row)), "chi": chi,
                    "lhs": lhs, "residual": residual, "rhs": rhs, "status": status,
                }

    @property
    def records(self) -> list[SweepRecord]:
        return [SweepRecord(**d) for d in self._record_dicts()]


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


def _shaped(conds: np.ndarray, n: int, s: int) -> np.ndarray:
    """Mask of the conductors m**(t*s) with n = m**(q*s), m >= 2, 1 <= t <= q,
    which Theorem 2 covers.  At n = p**a, s | a, they are the p**l, s | l, l >= s."""
    targets = set()
    q = 1
    while q * s < n.bit_length():  # 2**(q*s) <= n
        m = _iroot(n, q * s)
        if m >= 2 and m ** (q * s) == n:
            for t in range(1, q + 1):
                targets.add(m ** (t * s))
        q += 1
    return np.isin(conds, list(targets))


def _batch_grid(n_max: int, s_values) -> list[tuple]:
    """(s, lo, hi) batches of at most _BATCH consecutive n, for scalar rows."""
    return [(s, lo, min(lo + _BATCH - 1, n_max)) for s in s_values for lo in range(1, n_max + 1, _BATCH)]


def _powers_grid(start: int):
    """Grid of the s-th powers m**s <= n_max with m >= start."""
    return lambda n_max, s_values: [
        (m**s, s) for s in s_values for m in range(start, _iroot(n_max, s) + 1)
    ]


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


def _gcd_rows(lhs_of, rhs_of):
    """rows() of a classical gcd-sum identity with sides lhs_of(n, s), rhs_of(n, s)."""

    def rows(s: int, lo: int, hi: int):
        params = [(n, s) for n in range(lo, hi + 1)]
        lhs = [lhs_of(n, s) for n, s in params]
        rhs = [rhs_of(n, s) for n, s in params]
        return params, lhs, rhs, [a == b for a, b in zip(lhs, rhs)]

    return rows


def _cohen_rows(s: int, lo: int, hi: int):
    params = [(n, s, d) for n in range(lo, hi + 1) for d in power_divisors(n, s)]
    ok, measured, expected = zip(*(cohen_partition_stats(*row) for row in params))
    return params, measured, expected, ok


def _lemma33_rhs(d: int, p: int, n_exp: int, s: int, m: int) -> int:
    l = round(math.log(d, p))
    if l <= m:
        return klee_phi(p ** (n_exp - m), s)
    return -(p ** (n_exp - l)) if m == l - s else 0


def _theorem2_rhs(d: int, n: int, s: int) -> int:
    return klee_phi(n, s) * tau_s(n // d, s)


class IdentitySpec(NamedTuple):
    """One swept identity.

    A scalar identity gives rows(*head) -> (params, lhs, rhs, ok).  A
    character identity sums weights(*head), by default the F_s weights
    (k-1, n)_s, against every character of the modulus n (or p**n_exp) and
    compares each sum with rhs(d, *head), d the conductor; characters outside
    qualifies(conductors, *head) are reported skipped, or left out when drop
    is set.  Evaluators are looked up when a job runs, never bound here, so a
    wrapped module attribute is what runs.
    """

    fields: tuple[str, ...]
    n_max: int
    default_n_max: int  # the n_max of a CLI run without --n-max
    grid: Callable  # (n_max, s_values) -> the leading params of each job, in report order
    rows: Callable | None = None
    weights: Callable = lambda n, s: generalized_weights(n, s)
    qualifies: Callable | None = None  # None: every character qualifies
    rhs: Callable | None = None
    drop: bool = False


_SPECS: dict[str, IdentitySpec] = {
    "menon": IdentitySpec(
        ("n", "s"),
        SUM_BOUND,
        1000,
        lambda n_max, s_values: _batch_grid(n_max, (1,)),
        rows=_gcd_rows(lambda n, s: menon_sum(n), lambda n, s: euler_phi(n) * divisor_tau(n)),
    ),
    "sury": IdentitySpec(
        ("n", "s"),
        TUPLE_BOUND,
        30,
        _batch_grid,
        rows=_gcd_rows(lambda n, s: sury_sum(n, s), lambda n, s: euler_phi(n) * sigma(n, s - 1)),
    ),
    "zhao_cao": IdentitySpec(
        ("n", "s", "chi"),
        SUM_BOUND,
        100,
        lambda n_max, s_values: [(n, 1) for n in range(1, n_max + 1)],
        weights=lambda n, s: zhao_cao_weights(n),
        rhs=lambda d, n, s: euler_phi(n) * divisor_tau(n // d),
    ),
    "theorem1": IdentitySpec(
        ("n", "s", "chi"),
        SUM_BOUND,
        256,
        _powers_grid(1),
        qualifies=lambda conds, n, s: conds == n,
        rhs=lambda d, n, s: klee_phi(n, s),
        drop=True,
    ),
    "theorem2": IdentitySpec(
        ("n", "s", "chi"),
        SUM_BOUND,
        512,
        _powers_grid(2),
        qualifies=_shaped,
        rhs=_theorem2_rhs,
    ),
    "lemma31": IdentitySpec(
        ("p", "n_exp", "s", "m", "chi"),
        MODULUS_BOUND,
        1024,
        _lemma_grid,
        weights=lambda p, n_exp, s, m: char_shift_weights(p, n_exp, s, m),
        qualifies=lambda conds, p, n_exp, s, m: conds == p**n_exp,
        rhs=lambda d, p, n_exp, s, m: -1 if m == n_exp - s else 0,
        drop=True,
    ),
    "lemma33": IdentitySpec(
        ("p", "n_exp", "s", "m", "chi"),
        MODULUS_BOUND,
        1024,
        _lemma_grid,
        weights=lambda p, n_exp, s, m: char_shift_weights(p, n_exp, s, m),
        qualifies=lambda conds, p, n_exp, s, m: _shaped(conds, p**n_exp, s),
        rhs=_lemma33_rhs,
    ),
    # At n = p**a and conductor d = p**(r*s), tau_s(n/d) is Lemma 3.4's a/s - r + 1.
    "lemma34": IdentitySpec(
        ("n", "s", "chi"),
        SUM_BOUND,
        1024,
        lambda n_max, s_values: [(p**a, s) for p, a, s in _prime_powers(n_max, s_values, 1)],
        qualifies=_shaped,
        rhs=_theorem2_rhs,
    ),
    "cohen_partition": IdentitySpec(("n", "s", "d"), PARTITION_BOUND, 200, _batch_grid, rows=_cohen_rows),
    STRICT_GEN: IdentitySpec(
        ("n", "s", "chi"),
        SUM_BOUND,
        36,
        lambda n_max, s_values: [(n, s) for s in s_values for n in range(1, n_max + 1)],
        rhs=_theorem2_rhs,
    ),
}

IDENTITIES = tuple(name for name in _SPECS if name != STRICT_GEN)


# ---------------------------------------------------------------------------
# job execution (each job returns columns params, lhs, residual, rhs, status)


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


def _run_job(job: tuple) -> tuple[np.ndarray, ...]:
    """Columns of one job; its status is pass, fail or skipped before the tolerance test."""
    ident, head = job
    spec = _SPECS[ident]
    if spec.rows is not None:
        params, lhs, rhs, ok = spec.rows(*head)
        lhs = np.asarray(lhs, dtype=np.int64)
        status = np.where(ok, STATUS_PASS, STATUS_FAIL).astype(np.int8)
        return np.asarray(params, dtype=np.int32), lhs, np.zeros(lhs.size), np.asarray(rhs, dtype=np.int64), status
    group = character_group(head[0] if spec.fields[0] == "n" else head[0] ** head[1])
    conds = group.conductors()
    keep = np.ones(conds.size, dtype=bool) if spec.qualifies is None else spec.qualifies(conds, *head)
    sums = group.all_sums(spec.weights(*head)) if keep.any() else np.zeros(conds.size)
    lhs, residual = _rounded_parts(sums, group, head[spec.fields.index("s")], keep)
    rhs = np.zeros(conds.size, dtype=np.int64)
    for d in np.unique(conds[keep]):
        rhs[conds == d] = spec.rhs(int(d), *head)
    status = np.where(keep, np.where(lhs == rhs, STATUS_PASS, STATUS_FAIL), STATUS_SKIP).astype(np.int8)
    rows = np.flatnonzero(keep) if spec.drop else np.arange(conds.size)
    params = np.empty((rows.size, len(head) + 1), dtype=np.int32)
    params[:, :-1] = head
    params[:, -1] = rows
    return params, lhs[rows], residual[rows], rhs[rows], status[rows]


def _validate_config(config: SweepConfig, identity_set) -> None:
    if config.identity not in identity_set:
        raise DomainError(f"unknown identity {config.identity!r}; choose from {identity_set}")
    if config.n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {config.n_max}")
    bound = _SPECS[config.identity].n_max
    if config.n_max > bound:
        raise ResourceError(f"n_max {config.n_max} exceeds the {config.identity} bound {bound}")
    if not config.s_values or any(s < 1 for s in config.s_values):
        raise DomainError(f"s_values must be a nonempty list of positive integers, got {config.s_values}")
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


def _execute(config: SweepConfig) -> IdentityReport:
    spec = _SPECS[config.identity]
    jobs = [(config.identity, head) for head in spec.grid(config.n_max, tuple(dict.fromkeys(config.s_values)))]
    # Under fork the pool starts every worker at its first submit, so cap them.
    workers = min(config.parallelism, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_run_job, jobs, chunksize=max(1, len(jobs) // (workers * 8))))
    else:
        chunks = [_run_job(job) for job in jobs]
    empty = (np.zeros((0, len(spec.fields)), np.int32),) + tuple(
        np.zeros(0, dtype) for dtype in (np.int64, np.float64, np.int64, np.int8)
    )
    params, lhs, residual, rhs, status = (np.concatenate(column) for column in zip(empty, *chunks))
    status[(status == STATUS_PASS) & ~(residual < config.tolerance)] = STATUS_FAIL
    return IdentityReport(config, spec.fields, params, lhs, residual, rhs, status)


def run_sweep(config: SweepConfig) -> IdentityReport:
    """Run the configured sweep and return its full report.

    Grid bounds are validated before any computation starts; a bound
    violation refuses the whole run rather than truncating it.
    """
    _validate_config(config, IDENTITIES)
    return _execute(config)


def reproduce_remark() -> IdentityReport:
    """Evaluate the strict-generalization counterexample n=4, s=2, principal.

    The record is row 0 (the principal character) of the strict_gen job at
    n=4, s=2.  It must come out LHS=5 vs RHS=6 with status fail; that failure
    is the expected, documented outcome, so callers treat it as success.
    Any other values raise IntegrityError.
    """
    params, lhs, residual, rhs, status = (col[:1] for col in _run_job((STRICT_GEN, (4, 2))))
    if lhs[0] != 5 or rhs[0] != 6:
        raise IntegrityError(f"remark reproduction expected LHS=5, RHS=6; got LHS={lhs[0]}, RHS={rhs[0]}")
    config = SweepConfig(identity=STRICT_GEN, n_max=4, s_values=(2,))
    return IdentityReport(config, _SPECS[STRICT_GEN].fields, params, lhs, residual, rhs, status)


def search_counterexamples(
    n_max: int, s_values, tolerance: float = 1e-6, parallelism: int = 1
) -> IdentityReport:
    """Test the falsified identity sum = Phi_s(n) * tau_s(n/d) over every
    modulus n <= n_max and every character, with no shape restriction.

    Failing records are the findings; they are expected and do not signal
    an implementation problem.
    """
    config = SweepConfig(
        identity=STRICT_GEN,
        n_max=n_max,
        s_values=tuple(s_values),
        tolerance=tolerance,
        parallelism=parallelism,
    )
    _validate_config(config, (STRICT_GEN,))
    return _execute(config)


# ---------------------------------------------------------------------------
# serialization


def _display_runs(report: IdentityReport) -> Iterator[Iterator[tuple[str, ...]]]:
    """Per run of one modulus, the display cells (n, s, chi, lhs, residual,
    rhs, status) of its rows; the m or d parameter joins the chi cell."""
    fields = report.param_fields
    s_at = fields.index("s")
    extras = [(f, fields.index(f)) for f in fields if f in ("m", "d")]
    for moduli, params, chi, lhs, residual, rhs, status in report._runs():
        if extras:
            chi = [
                " ".join(filter(None, [c, *(f"{f}={row[j]}" for f, j in extras)]))
                for c, row in zip(chi, params)
            ]
        yield zip(
            map(str, moduli),
            [str(row[s_at]) for row in params],
            [c or "" for c in chi],
            ["" if v is None else str(v) for v in lhs],
            ["" if v is None else f"{v:.3e}" for v in residual],
            ["" if v is None else str(v) for v in rhs],
            status,
        )


def _format_csv(report: IdentityReport) -> bytes:
    parts = [b"identity,n,s,chi,lhs,residual,rhs,status\n"]
    for run in _display_runs(report):
        lines = []
        for n, s, chi, lhs, residual, rhs, status in run:
            chi_cell = f'"{chi}"' if chi else ""
            lines.append(f"{report.identity},{n},{s},{chi_cell},{lhs},{residual},{rhs},{status}\n")
        parts.append("".join(lines).encode())
    return b"".join(parts)


def _format_text(report: IdentityReport) -> bytes:
    header = ("identity", "n", "s", "chi", "lhs", "residual", "rhs", "status")
    rows = [(report.identity, *cells) for run in _display_runs(report) for cells in run]
    widths = [max([len(h)] + [len(row[j]) for row in rows]) for j, h in enumerate(header)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    summary = report.summary
    lines.append(
        f"summary: pass={summary['pass']} fail={summary['fail']} "
        f"skipped={summary['skipped']} worst_residual={report.worst_residual:.3e}"
    )
    return ("\n".join(lines) + "\n").encode()


def _format_json(report: IdentityReport) -> bytes:
    doc = {
        "config": asdict(report.config),
        "records": list(report._record_dicts()),
        "summary": report.summary,
        "worst_residual": report.worst_residual,
    }
    return (json.dumps(doc, sort_keys=True) + "\n").encode()


def format_report(report: IdentityReport, fmt: str) -> bytes:
    """Serialize a report as text, csv, or json; byte-stable across runs."""
    if fmt == "csv":
        return _format_csv(report)
    if fmt == "json":
        return _format_json(report)
    if fmt == "text":
        return _format_text(report)
    raise DomainError(f"unknown format {fmt!r}; choose from {FORMATS}")
