"""Verification sweeps over the identity grids, with serializable reports.

Every sweep exhaustively enumerates its parameter grid (all qualifying
n, s and characters), emits one record per instance, and aggregates a
pass/fail/skipped summary.  Records are stored columnar (numpy arrays) so
that the large theorem-2 grid stays cheap; ``report.records`` exposes them
as ordinary per-record objects.  Record order is fixed by the grid, so
output is byte-identical at any parallelism.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from typing import Iterator, NamedTuple

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
from .characters import MODULUS_BOUND, character_group, character_labels, conductor, principal_character
from .errors import DomainError, IntegrityError, ResourceError
from .identities import (
    PARTITION_BOUND,
    SUM_BOUND,
    TUPLE_BOUND,
    char_shift_args,
    cohen_partition_stats,
    generalized_sum,
    generalized_weights,
    menon_sum,
    sury_sum,
    zhao_cao_weights,
)

IDENTITIES = (
    "menon",
    "sury",
    "zhao_cao",
    "theorem1",
    "theorem2",
    "lemma31",
    "lemma33",
    "lemma34",
    "cohen_partition",
)

#: Identity name used by the remark reproduction and the counterexample search.
STRICT_GEN = "strict_gen"

FORMATS = ("text", "csv", "json")

STATUS_PASS, STATUS_FAIL, STATUS_SKIP = 0, 1, 2
STATUS_NAMES = ("pass", "fail", "skipped")

_PARAM_FIELDS = {
    "menon": ("n", "s"),
    "sury": ("n", "s"),
    "zhao_cao": ("n", "s", "chi"),
    "theorem1": ("n", "s", "chi"),
    "theorem2": ("n", "s", "chi"),
    "lemma31": ("p", "n_exp", "s", "m", "chi"),
    "lemma33": ("p", "n_exp", "s", "m", "chi"),
    "lemma34": ("n", "s", "chi"),
    "cohen_partition": ("n", "s", "d"),
    STRICT_GEN: ("n", "s", "chi"),
}

_N_MAX_BOUND = {
    "menon": SUM_BOUND,
    "sury": TUPLE_BOUND,
    "zhao_cao": SUM_BOUND,
    "theorem1": SUM_BOUND,
    "theorem2": SUM_BOUND,
    "lemma31": MODULUS_BOUND,
    "lemma33": MODULUS_BOUND,
    "lemma34": SUM_BOUND,
    "cohen_partition": PARTITION_BOUND,
    STRICT_GEN: SUM_BOUND,
}

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

    def _runs(self, rows: slice = slice(None)) -> Iterator[tuple[list, ...]]:
        """Decode rows to Python lists in runs of at most _RUN_ROWS rows of one modulus.

        Yields (modulus, params, chi, lhs, residual, rhs, status) columns: chi
        is each row's label (None without a chi field), from labels built once
        per modulus; lhs, residual and rhs are None on skipped rows.
        """
        fields = self.param_fields
        params = self.params[rows].reshape(-1, len(fields))
        if "n" in fields:
            moduli = params[:, fields.index("n")]
        else:
            moduli = params[:, fields.index("p")].astype(np.int64) ** params[:, fields.index("n_exp")]
        chi_at = fields.index("chi") if "chi" in fields else None
        breaks = set(range(_RUN_ROWS, moduli.size, _RUN_ROWS))
        if chi_at is not None:
            breaks.update((np.flatnonzero(np.diff(moduli)) + 1).tolist())
        edges = [0, *sorted(breaks), moduli.size] if moduli.size else []
        values = (self.lhs[rows], self.residual[rows], self.rhs[rows])
        status = self.status[rows]
        labelled = None
        for a, b in zip(edges, edges[1:]):
            run = params[a:b].tolist()
            if chi_at is not None:
                if moduli[a] != labelled:
                    labelled, labels = moduli[a], character_labels(int(moduli[a]))
                chi = [labels[row[chi_at]] for row in run]
            else:
                chi = [None] * (b - a)
            codes = status[a:b].tolist()
            cols = [col[a:b].tolist() for col in values]
            if STATUS_SKIP in codes:
                cols = [[None if k == STATUS_SKIP else v for v, k in zip(col, codes)] for col in cols]
            yield (moduli[a:b].tolist(), run, chi, *cols, [STATUS_NAMES[k] for k in codes])

    def _records(self, rows: slice = slice(None)) -> Iterator[SweepRecord]:
        fields = self.param_fields
        for _, params, *values in self._runs(rows):
            for row, chi, lhs, residual, rhs, status in zip(params, *values):
                yield SweepRecord(self.identity, dict(zip(fields, row)), chi, lhs, residual, rhs, status)

    def record(self, i: int) -> SweepRecord:
        i = range(len(self))[i]
        return next(self._records(slice(i, i + 1)))

    @property
    def records(self) -> "_RecordSeq":
        return _RecordSeq(self)


class _RecordSeq:
    """Sequence view materializing SweepRecord objects on demand."""

    def __init__(self, report: IdentityReport):
        self._report = report

    def __len__(self) -> int:
        return len(self._report)

    def __getitem__(self, i: int) -> SweepRecord:
        return self._report.record(i)

    def __iter__(self) -> Iterator[SweepRecord]:
        return self._report._records()


# ---------------------------------------------------------------------------
# grid enumeration


def _iroot(n: int, k: int) -> int:
    r = round(n ** (1.0 / k))
    while r > 0 and r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def _powers_upto(base_range, s: int, n_max: int, start: int = 1):
    """All m**s <= n_max with m in base_range (ascending)."""
    return [m**s for m in base_range if m**s <= n_max and m >= start]


def _theorem2_conductor_targets(n: int, s: int) -> list[int]:
    """All m**(t*s) with n = m**(q*s), m >= 2, 1 <= t <= q."""
    targets = set()
    q = 1
    while 2 ** (q * s) <= n:
        m = _iroot(n, q * s)
        if m >= 2 and m ** (q * s) == n:
            for t in range(1, q + 1):
                targets.add(m ** (t * s))
        q += 1
    return sorted(targets)


def _dedupe(values) -> tuple[int, ...]:
    seen, out = set(), []
    for v in values:
        if v not in seen:
            seen.add(v)
            out.append(v)
    return tuple(out)


def _build_jobs(config: SweepConfig) -> list[tuple]:
    ident = config.identity
    n_max = config.n_max
    s_values = _dedupe(config.s_values)
    jobs: list[tuple] = []
    if ident == "sury":
        for s in s_values:
            if n_max**s > TUPLE_BOUND:
                raise ResourceError(
                    f"sury sweep refused: {n_max}**{s} tuples exceed {TUPLE_BOUND}"
                )
    if ident in _GCD_SUMS:
        for s in (1,) if ident == "menon" else s_values:
            for lo in range(1, n_max + 1, _BATCH):
                jobs.append(("gcd_sum", ident, s, lo, min(lo + _BATCH - 1, n_max)))
    elif ident == "zhao_cao":
        jobs = [("zhao_cao", n) for n in range(1, n_max + 1)]
    elif ident == "theorem1":
        for s in s_values:
            base = range(1, n_max + 1) if s == 1 else range(1, _iroot(n_max, s) + 1)
            for n in _powers_upto(base, s, n_max):
                jobs.append(("theorem1", s, n))
    elif ident == "theorem2":
        for s in s_values:
            base = range(2, n_max + 1) if s == 1 else range(2, _iroot(n_max, s) + 1)
            for n in _powers_upto(base, s, n_max, start=2):
                jobs.append(("theorem2", s, n))
    elif ident in ("lemma31", "lemma33"):
        for s in s_values:
            for p in primes_upto(_iroot(n_max, 2 * s)):
                n_exp = 2 * s
                while p**n_exp <= n_max:
                    jobs.append((ident, p, n_exp, s))
                    n_exp += s
    elif ident == "lemma34":
        for s in s_values:
            for p in primes_upto(_iroot(n_max, s)):
                a = s
                while p**a <= n_max:
                    jobs.append(("lemma34", p, a, s))
                    a += s
    elif ident == "cohen_partition":
        for s in s_values:
            for n in range(1, n_max + 1):
                jobs.append(("cohen", n, s))
    elif ident == STRICT_GEN:
        for s in s_values:
            for n in range(1, n_max + 1):
                jobs.append(("strict", n, s))
    else:  # pragma: no cover - guarded by run_sweep validation
        raise DomainError(f"unknown identity {ident!r}")
    return jobs


# ---------------------------------------------------------------------------
# job execution (each job returns a columnar chunk)


def _chunk(params, lhs, residual, rhs, ok, skip):
    params = np.asarray(params, dtype=np.int32)
    if params.size == 0:
        params = params.reshape(0, 0)
    n = params.shape[0]
    return (
        params,
        np.asarray(lhs, dtype=np.int64).reshape(n),
        np.asarray(residual, dtype=np.float64).reshape(n),
        np.asarray(rhs, dtype=np.int64).reshape(n),
        np.asarray(ok, dtype=bool).reshape(n),
        np.asarray(skip, dtype=bool).reshape(n),
    )


def _rounded_parts(sums: np.ndarray, group, s: int, where=None, flat=None) -> tuple[np.ndarray, np.ndarray]:
    """Round sums[j], the sum of character flat[j] (default j) mod group.modulus;
    a residual >= 0.5 inside ``where`` raises IntegrityError naming its place."""
    lhs = np.rint(sums.real).astype(np.int64)
    residual = np.abs(sums - lhs)
    live = residual if where is None else np.where(where, residual, 0.0)
    if live.size and not live.max() < 0.5:
        j = int(np.argmax(live))
        chi = group.label(j if flat is None else int(flat[j]))
        raise IntegrityError(
            f"character sum at n={group.modulus}, s={s}, chi={chi} is not within 0.5 "
            f"of an integer (residual {live[j]:.3e})"
        )
    return lhs, residual


def _rhs_by_conductor(conds: np.ndarray, fn) -> np.ndarray:
    rhs = np.empty(conds.size, dtype=np.int64)
    for d in np.unique(conds):
        rhs[conds == d] = fn(int(d))
    return rhs


# (lhs, rhs) of the classical gcd-sum identities, as functions of (n, s).
# The lambdas look the evaluators up at call time, so a wrapped module
# attribute is what runs.
_GCD_SUMS = {
    "menon": (lambda n, s: menon_sum(n), lambda n, s: euler_phi(n) * divisor_tau(n)),
    "sury": (lambda n, s: sury_sum(n, s), lambda n, s: euler_phi(n) * sigma(n, s - 1)),
}


def _job_gcd_sum(ident: str, s: int, lo: int, hi: int):
    lhs_of, rhs_of = _GCD_SUMS[ident]
    ns = range(lo, hi + 1)
    lhs = [lhs_of(n, s) for n in ns]
    rhs = [rhs_of(n, s) for n in ns]
    params = [(n, s) for n in ns]
    z = np.zeros(len(lhs))
    eq = np.array([a == b for a, b in zip(lhs, rhs)])
    return _chunk(params, lhs, z, rhs, eq, np.zeros(len(lhs), dtype=bool))


def _job_zhao_cao(n: int):
    group = character_group(n)
    sums = group.all_sums(zhao_cao_weights(n))
    lhs, residual = _rounded_parts(sums, group, 1)
    conds = group.conductors()
    phi = euler_phi(n)
    rhs = _rhs_by_conductor(conds, lambda d: phi * divisor_tau(n // d))
    params = np.column_stack(
        [np.full(group.phi, n), np.ones(group.phi, dtype=np.int64), np.arange(group.phi)]
    )
    return _chunk(params, lhs, residual, rhs, lhs == rhs, np.zeros(group.phi, dtype=bool))


def _job_theorem1(s: int, n: int):
    group = character_group(n)
    prim = group.conductors() == n
    idx = np.nonzero(prim)[0]
    if idx.size == 0:
        return _chunk(np.zeros((0, 3)), [], [], [], [], [])
    sums = group.all_sums(generalized_weights(n, s))[idx]
    lhs, residual = _rounded_parts(sums, group, s, flat=idx)
    rhs = np.full(idx.size, klee_phi(n, s), dtype=np.int64)
    params = np.column_stack([np.full(idx.size, n), np.full(idx.size, s), idx])
    return _chunk(params, lhs, residual, rhs, lhs == rhs, np.zeros(idx.size, dtype=bool))


def _job_theorem2(s: int, n: int):
    group = character_group(n)
    sums = group.all_sums(generalized_weights(n, s))
    conds = group.conductors()
    qualified = np.isin(conds, _theorem2_conductor_targets(n, s))
    lhs, residual = _rounded_parts(sums, group, s, where=qualified)
    phi_s = klee_phi(n, s)
    rhs = _rhs_by_conductor(conds, lambda d: phi_s * tau_s(n // d, s))
    skip = ~qualified
    lhs = np.where(skip, 0, lhs)
    residual = np.where(skip, 0.0, residual)
    rhs = np.where(skip, 0, rhs)
    params = np.column_stack(
        [np.full(group.phi, n), np.full(group.phi, s), np.arange(group.phi)]
    )
    return _chunk(params, lhs, residual, rhs, lhs == rhs, skip)


def _conductor_exponents(p: int, n_exp: int, conds: np.ndarray) -> np.ndarray:
    powers = p ** np.arange(n_exp + 1, dtype=np.int64)
    return np.searchsorted(powers, conds)


def _shift_sums_by_m(group, p: int, n_exp: int, s: int, m: int) -> np.ndarray:
    q = p**n_exp
    weights = np.bincount(char_shift_args(p, n_exp, s, m), minlength=q)
    return group.all_sums(weights)


def _job_lemma31(p: int, n_exp: int, s: int):
    q = p**n_exp
    group = character_group(q)
    prim_idx = np.nonzero(group.conductors() == q)[0]
    chunks = []
    for m in range(s, n_exp, s):
        sums = _shift_sums_by_m(group, p, n_exp, s, m)[prim_idx]
        lhs, residual = _rounded_parts(sums, group, s, flat=prim_idx)
        rhs = np.full(prim_idx.size, -1 if m == n_exp - s else 0, dtype=np.int64)
        params = np.column_stack(
            [
                np.full(prim_idx.size, p),
                np.full(prim_idx.size, n_exp),
                np.full(prim_idx.size, s),
                np.full(prim_idx.size, m),
                prim_idx,
            ]
        )
        chunks.append(
            _chunk(params, lhs, residual, rhs, lhs == rhs, np.zeros(prim_idx.size, dtype=bool))
        )
    return _merge_chunks(chunks, 5)


def _job_lemma33(p: int, n_exp: int, s: int):
    q = p**n_exp
    group = character_group(q)
    conds = group.conductors()
    ls = _conductor_exponents(p, n_exp, conds)
    skip = (ls == 0) | (ls % s != 0)
    chunks = []
    for m in range(s, n_exp, s):
        sums = _shift_sums_by_m(group, p, n_exp, s, m)
        lhs, residual = _rounded_parts(sums, group, s, where=~skip)
        phi_block = klee_phi(p ** (n_exp - m), s)
        rhs = np.where(
            ls <= m,
            phi_block,
            np.where(m == ls - s, -(p ** (n_exp - ls)), 0),
        ).astype(np.int64)
        lhs = np.where(skip, 0, lhs)
        residual = np.where(skip, 0.0, residual)
        rhs = np.where(skip, 0, rhs)
        params = np.column_stack(
            [
                np.full(group.phi, p),
                np.full(group.phi, n_exp),
                np.full(group.phi, s),
                np.full(group.phi, m),
                np.arange(group.phi),
            ]
        )
        chunks.append(_chunk(params, lhs, residual, rhs, lhs == rhs, skip))
    return _merge_chunks(chunks, 5)


def _job_lemma34(p: int, a: int, s: int):
    q = p**a
    group = character_group(q)
    sums = group.all_sums(generalized_weights(q, s))
    conds = group.conductors()
    ls = _conductor_exponents(p, a, conds)
    skip = (ls == 0) | (ls % s != 0)
    lhs, residual = _rounded_parts(sums, group, s, where=~skip)
    r = ls // s
    rhs = (a // s - r + 1) * klee_phi(q, s)
    lhs = np.where(skip, 0, lhs)
    residual = np.where(skip, 0.0, residual)
    rhs = np.where(skip, 0, rhs).astype(np.int64)
    params = np.column_stack(
        [np.full(group.phi, q), np.full(group.phi, s), np.arange(group.phi)]
    )
    return _chunk(params, lhs, residual, rhs, lhs == rhs, skip)


def _job_cohen(n: int, s: int):
    rows = []
    for d in power_divisors(n, s):
        ok, measured, expected = cohen_partition_stats(n, s, d)
        rows.append(((n, s, d), measured, expected, ok))
    params = [r[0] for r in rows]
    lhs = [r[1] for r in rows]
    rhs = [r[2] for r in rows]
    ok = [r[3] for r in rows]
    z = np.zeros(len(rows))
    return _chunk(params, lhs, z, rhs, ok, np.zeros(len(rows), dtype=bool))


def _job_strict(n: int, s: int):
    group = character_group(n)
    sums = group.all_sums(generalized_weights(n, s))
    lhs, residual = _rounded_parts(sums, group, s)
    conds = group.conductors()
    phi_s = klee_phi(n, s)
    rhs = _rhs_by_conductor(conds, lambda d: phi_s * tau_s(n // d, s))
    params = np.column_stack(
        [np.full(group.phi, n), np.full(group.phi, s), np.arange(group.phi)]
    )
    return _chunk(params, lhs, residual, rhs, lhs == rhs, np.zeros(group.phi, dtype=bool))


_JOB_RUNNERS = {
    "gcd_sum": _job_gcd_sum,
    "zhao_cao": _job_zhao_cao,
    "theorem1": _job_theorem1,
    "theorem2": _job_theorem2,
    "lemma31": _job_lemma31,
    "lemma33": _job_lemma33,
    "lemma34": _job_lemma34,
    "cohen": _job_cohen,
    "strict": _job_strict,
}


def _run_job(job: tuple):
    kind, *args = job
    return _JOB_RUNNERS[kind](*args)


def _merge_chunks(chunks: list, n_fields: int):
    if not chunks:
        empty = np.zeros((0, n_fields), dtype=np.int32)
        return _chunk(empty, [], [], [], [], [])
    parts = list(zip(*chunks))
    params = np.concatenate([p.reshape(p.shape[0], n_fields) for p in parts[0]])
    return (
        params,
        np.concatenate(parts[1]),
        np.concatenate(parts[2]),
        np.concatenate(parts[3]),
        np.concatenate(parts[4]),
        np.concatenate(parts[5]),
    )


def _validate_config(config: SweepConfig, identity_set) -> None:
    if config.identity not in identity_set:
        raise DomainError(f"unknown identity {config.identity!r}; choose from {identity_set}")
    if config.n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {config.n_max}")
    bound = _N_MAX_BOUND[config.identity]
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


def _execute(config: SweepConfig) -> IdentityReport:
    fields = _PARAM_FIELDS[config.identity]
    jobs = _build_jobs(config)
    if config.parallelism > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=config.parallelism) as pool:
            chunks = list(pool.map(_run_job, jobs, chunksize=max(1, len(jobs) // (config.parallelism * 8))))
    else:
        chunks = [_run_job(job) for job in jobs]
    params, lhs, residual, rhs, ok, skip = _merge_chunks(chunks, len(fields))
    status = np.where(
        skip, STATUS_SKIP, np.where(ok & (residual < config.tolerance), STATUS_PASS, STATUS_FAIL)
    ).astype(np.int8)
    return IdentityReport(config, fields, params, lhs, residual, rhs, status)


def run_sweep(config: SweepConfig) -> IdentityReport:
    """Run the configured sweep and return its full report.

    Grid bounds are validated before any computation starts; a bound
    violation refuses the whole run rather than truncating it.
    """
    _validate_config(config, IDENTITIES)
    return _execute(config)


def reproduce_remark() -> IdentityReport:
    """Evaluate the strict-generalization counterexample n=4, s=2, principal.

    The record must come out LHS=5 vs RHS=6 with status fail; that failure
    is the expected, documented outcome, so callers treat it as success.
    Any other values raise IntegrityError.
    """
    chi = principal_character(4)
    res = generalized_sum(4, 2, chi)
    d = conductor(chi)
    rhs = klee_phi(4, 2) * tau_s(4 // d, 2)
    if res.rounded != 5 or rhs != 6:
        raise IntegrityError(
            f"remark reproduction expected LHS=5, RHS=6; got LHS={res.rounded}, RHS={rhs}"
        )
    config = SweepConfig(identity=STRICT_GEN, n_max=4, s_values=(2,))
    group = character_group(4)
    params = np.array([[4, 2, group.flat_index(chi)]], dtype=np.int32)
    return IdentityReport(
        config,
        _PARAM_FIELDS[STRICT_GEN],
        params,
        np.array([res.rounded], dtype=np.int64),
        np.array([res.residual]),
        np.array([rhs], dtype=np.int64),
        np.array([STATUS_FAIL], dtype=np.int8),
    )


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
        "records": [rec._asdict() for rec in report.records],
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
