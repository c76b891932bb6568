"""Evaluators for the gcd-character sums and their exact integer rounding.

Every sum here accumulates exact roots of unity (times integer weights) in
double-precision complex arithmetic and rounds to the nearest integer; at
desk scale (at most 10**6 unit-magnitude terms) the accumulated error is
orders of magnitude below the 0.5 rounding threshold, and a residual at or
above 0.5 is treated as an integrity failure rather than a value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .arith import is_prime, klee_phi, power_divisors, sgcd_table
from .characters import MODULUS_BOUND, CharValue, DirichletCharacter, character_group
from .errors import DomainError, IntegrityError, ResourceError

#: Largest modulus accepted by the character-sum evaluators.
SUM_BOUND = 10**5

#: Cap on n**s_vars, the tuple count of the multi-variable gcd sum.
TUPLE_BOUND = 10**7

#: Cap on the number of terms accepted by round_exact.
TERM_BOUND = 10**6

#: Largest n accepted by the residue-partition check.
PARTITION_BOUND = 10**4


@dataclass(frozen=True)
class SumResult:
    """A complex-accumulated sum with its nearest integer and residual."""

    complex_value: complex
    rounded: int
    residual: float


def _finish(z: complex) -> SumResult:
    rounded = round(z.real)
    residual = abs(z - rounded)
    if not residual < 0.5:
        raise IntegrityError(f"sum {z} is not within 0.5 of an integer")
    return SumResult(z, int(rounded), float(residual))


def round_exact(terms) -> SumResult:
    """Accumulate CharValue / complex terms and round to the nearest integer.

    Raises IntegrityError when the total is not within 0.5 of an integer,
    which signals either a genuinely non-integer sum or a bug upstream.
    """
    acc = 0j
    count = 0
    for term in terms:
        count += 1
        if count > TERM_BOUND:
            raise ResourceError(f"round_exact accepts at most {TERM_BOUND} terms")
        acc += complex(term)
    return _finish(acc)


def menon_sum(n: int) -> int:
    """sum of gcd(m-1, n) over 1 <= m <= n coprime to n (classical identity:
    equals phi(n) * tau(n))."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if n > SUM_BOUND:
        raise ResourceError(f"menon_sum bound is {SUM_BOUND}, got {n}")
    return int(kernels.menon_gcd_sum(n))


def sury_sum(n: int, s_vars: int) -> int:
    """sum of gcd(m1-1, m2, ..., ms, n) over tuples in [1, n]**s_vars with
    gcd(m1, n) = 1 (asserted equal to phi(n) * sigma_{s-1}(n)).

    Evaluated by enumerating the inner (s-1)-fold gcd grid once, flat, and
    reusing it for each admissible m1; the tuple count n**s_vars stays capped.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if s_vars < 1:
        raise DomainError(f"s_vars must be >= 1, got {s_vars}")
    if n ** min(s_vars, 64) > TUPLE_BOUND:  # exact: n**64 > TUPLE_BOUND for n >= 2
        raise ResourceError(f"tuple count {n}**{s_vars} exceeds {TUPLE_BOUND}")
    tail = np.arange(1, n + 1, dtype=np.int64)
    acc = np.zeros(1, dtype=np.int64)  # gcd(0, x) = x seeds the reduction
    # The check above leaves s_vars < 64 unless n = 1, where every step after the first keeps acc = [1].
    for _ in range(min(s_vars, 64) - 1):
        acc = np.gcd(acc[:, None], tail).ravel()
    inner_cache: dict[int, int] = {}
    total = 0
    for m1 in range(1, n + 1):
        if math.gcd(m1, n) != 1:
            continue
        g = math.gcd(m1 - 1, n)
        if g not in inner_cache:
            inner_cache[g] = int(np.gcd(acc, g).sum())
        total += inner_cache[g]
    return total


def _check_char_modulus(n: int, chi: DirichletCharacter, op: str) -> None:
    if chi.modulus != n:
        raise DomainError(f"{op}: character modulus {chi.modulus} != n = {n}")


def zhao_cao_weights(n: int) -> np.ndarray:
    """w[k] = gcd(k-1, n) for the residues k in [0, n)."""
    return np.gcd((np.arange(n, dtype=np.int64) - 1) % n, n)


def generalized_weights(n: int, s: int) -> np.ndarray:
    """w[k] = (k-1, n)_s for the residues k in [0, n)."""
    return sgcd_table(n, s)[(np.arange(n, dtype=np.int64) - 1) % n]


def zhao_cao_sum(n: int, chi: DirichletCharacter) -> SumResult:
    """sum over k in [1, n] of gcd(k-1, n) * chi(k).

    The asserted identity: the rounded value equals phi(n) * tau(n/d) with
    d the conductor of chi.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if n > SUM_BOUND:
        raise ResourceError(f"zhao_cao_sum bound is {SUM_BOUND}, got {n}")
    _check_char_modulus(n, chi, "zhao_cao_sum")
    group = character_group(n)
    return _finish(group.char_sum(chi, zhao_cao_weights(n)))


def generalized_sum(n: int, s: int, chi: DirichletCharacter) -> SumResult:
    """sum over k in [1, n] with (k, n)_s = 1 of (k-1, n)_s * chi(k).

    Terms with gcd(k, n) > 1 vanish through chi(k) = 0, so the sum runs
    over the unit residues in practice.  At s = 1 this coincides with
    zhao_cao_sum.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if s < 1:
        raise DomainError(f"s must be >= 1, got {s}")
    if n > SUM_BOUND:
        raise ResourceError(f"generalized_sum bound is {SUM_BOUND}, got {n}")
    _check_char_modulus(n, chi, "generalized_sum")
    group = character_group(n)
    return _finish(group.char_sum(chi, generalized_weights(n, s)))


def char_shift_weights(p: int, n_exp: int, s: int, m: int) -> np.ndarray:
    """w[r] = number of k with k*p**m + 1 = r (mod p**n_exp), over 1 <= k <=
    p**(n_exp - m) with (k, p**(n_exp - m))_s = 1, i.e. p**s not dividing k."""
    q = p**n_exp
    block = p ** (n_exp - m)
    ks = np.arange(1, block + 1, dtype=np.int64)
    ks = ks[ks % p**s != 0]
    return np.bincount((ks * p**m + 1) % q, minlength=q)


def char_shift_sum(p: int, n_exp: int, s: int, m: int, chi: DirichletCharacter) -> SumResult:
    """sum of chi(k * p**m + 1) over 1 <= k <= p**(n_exp-m), (k, p**(n_exp-m))_s = 1.

    Constraints: n_exp and m are multiples of s with s <= m < n_exp, and chi
    has modulus p**n_exp.  For primitive chi the value is -1 when
    m = n_exp - s and 0 otherwise; when the conductor is p**l with l = r*s,
    it is Phi_s(p**(n_exp-m)) for l <= m, -p**(n_exp-l) at m = l-s, and 0 below.
    """
    if s < 1:
        raise DomainError(f"s must be >= 1, got {s}")
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if n_exp % s != 0 or m % s != 0:
        raise DomainError(f"n_exp={n_exp} and m={m} must be multiples of s={s}")
    if not s <= m < n_exp:
        raise DomainError(f"need s <= m < n_exp, got s={s}, m={m}, n_exp={n_exp}")
    q = p**n_exp
    if q > MODULUS_BOUND:
        raise ResourceError(f"p**n_exp = {q} exceeds bound {MODULUS_BOUND}")
    _check_char_modulus(q, chi, "char_shift_sum")
    return _finish(character_group(q).char_sum(chi, char_shift_weights(p, n_exp, s, m)))


def cohen_partition_stats(n: int, s: int, d: int) -> tuple[bool, int, int]:
    """Partition diagnostics behind cohen_partition_check.

    Returns (ok, measured, expected) where expected = Phi_s(n) / Phi_s(d) is
    the number of disjoint s-reduced residue systems mod d that should tile
    A = {m <= n : (m, n)_s = 1}, and measured is the largest count any
    single residue class actually receives.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if s < 1:
        raise DomainError(f"s must be >= 1, got {s}")
    if n > PARTITION_BOUND:
        raise ResourceError(f"partition-check bound is {PARTITION_BOUND}, got {n}")
    if d not in power_divisors(n, s):
        raise DomainError(f"d={d} is not an s-th-power divisor of n={n} at s={s}")
    members = np.nonzero(sgcd_table(n, s) == 1)[0]  # residue 0 stands for m = n
    counts = np.bincount(members % d, minlength=d)
    valid = sgcd_table(d, s) == 1
    phi_n, phi_d = klee_phi(n, s), klee_phi(d, s)
    expected = phi_n // phi_d
    ok = (
        phi_n % phi_d == 0
        and bool((counts[valid] == expected).all())
        and bool((counts[~valid] == 0).all())
    )
    measured = int(counts[valid].max()) if valid.any() else 0
    return ok, measured, expected


def cohen_partition_check(n: int, s: int, d: int) -> bool:
    """True iff {m <= n : (m, n)_s = 1} splits into Phi_s(n)/Phi_s(d)
    disjoint complete s-reduced residue systems mod d."""
    ok, _, _ = cohen_partition_stats(n, s, d)
    return ok
