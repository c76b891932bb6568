"""Integer factorization and the multiplicative-function layer.

The generalized gcd (a, b)_s is the largest l**s (l a natural number)
dividing both a and b, i.e. the largest s-th-power divisor of gcd(a, b),
with the convention gcd(0, b) = b.  Klee's totient Phi_s(n) counts the
1 <= m <= n with (m, n)_s = 1, and tau_s(n) counts the s-th powers
dividing n.  At s = 1 these reduce to the classical phi and tau.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernels
from .errors import DomainError, refuse_above, refuse_below

#: Largest integer the trial-division factorizer accepts.
FACTOR_BOUND = 10**7

#: Largest n accepted by the brute-force Klee counter (oracle scale).
BRUTE_BOUND = 10**5

#: Most factorizations kept, the most recently used (about 1.6 MB).  A sweep
#: asks for its moduli twice: every one in _admit (character grids and
#: cohen_partition), then each again in its job, with small divisors of it.
#: Past this many moduli the job's ask misses, a few microseconds each
#: (0.2 s over cohen_partition n <= 10^4, s = 1, 2); unbounded, the cache
#: would keep about 400 B per n for the rest of the process.
FACTOR_CACHE = 4096


@dataclass(frozen=True)
class Factorization:
    """Canonical prime-power decomposition: primes ascending, exponents >= 1."""

    value: int
    factors: tuple[tuple[int, int], ...]


@lru_cache(maxsize=FACTOR_CACHE)
def factorize(n: int) -> Factorization:
    """Factor 1 <= n <= FACTOR_BOUND by trial division (2, 3, then 6k+-1)."""
    if n < 1:
        raise DomainError(f"factorize requires n >= 1, got {n}")
    refuse_above(n, FACTOR_BOUND, "factorize")
    m = n
    factors = []
    for p in (2, 3):
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
    p = 5
    while p * p <= m:
        for cand in (p, p + 2):
            if m % cand == 0:
                e = 0
                while m % cand == 0:
                    m //= cand
                    e += 1
                factors.append((cand, e))
        p += 6
    if m > 1:
        factors.append((m, 1))
    return Factorization(n, tuple(factors))


def is_prime(n: int) -> bool:
    """Trial-division primality check for n <= FACTOR_BOUND."""
    if n < 2:
        return False
    f = factorize(n).factors
    return len(f) == 1 and f[0][1] == 1


def primes_upto(n: int) -> list[int]:
    """All primes <= n, by sieve."""
    if n < 2:
        return []
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(math.isqrt(n)) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return [int(p) for p in np.nonzero(sieve)[0]]


def power_divisors(n: int, s: int) -> list[int]:
    """Ascending list of the divisors of n that are exact s-th powers."""
    refuse_below(s, 1, "s")
    fac = factorize(n)
    divs = [1]
    for p, e in fac.factors:
        divs = [d * p ** (s * j) for d in divs for j in range(e // s + 1)]
    return sorted(divs)


def s_power_part(n: int, s: int) -> int:
    """Largest s-th-power divisor of n >= 1: product of p**(e - e % s)."""
    refuse_below(s, 1, "s")
    if s == 1:
        refuse_below(n, 1, "n")
        return n
    return math.prod(p ** (e - e % s) for p, e in factorize(n).factors)


def gen_gcd(a: int, b: int, s: int) -> int:
    """Generalized gcd (a, b)_s: the largest l**s dividing both a and b.

    b >= 1 is required; a = 0 is allowed with gcd(0, b) = b, so (0, b)_s is
    the s-power part of b.  The result is always an exact s-th power >= 1.
    """
    if b < 1:
        raise DomainError(f"gen_gcd requires b >= 1, got b={b}")
    if a < 0:
        raise DomainError(f"gen_gcd requires a >= 0, got a={a}")
    if s < 1:
        raise DomainError(f"gen_gcd requires s >= 1, got s={s}")
    return s_power_part(math.gcd(a, b), s)


def klee_phi(n: int, s: int) -> int:
    """Klee's totient Phi_s(n) = #{1 <= m <= n : (m, n)_s = 1}.

    Computed multiplicatively: Phi_s(p**a) = p**a - p**(a-s) when a >= s,
    and p**a otherwise.  klee_phi_bruteforce counts the set directly and
    guards this closed form.
    """
    refuse_below(s, 1, "s")
    out = 1
    for p, e in factorize(n).factors:
        pe = p**e
        out *= pe - pe // p**s if e >= s else pe
    return out


def klee_phi_bruteforce(n: int, s: int) -> int:
    """Phi_s(n) by direct count of m with (m, n)_s = 1; oracle for klee_phi."""
    refuse_below(n, 1, "n")
    refuse_below(s, 1, "s")
    refuse_above(n, BRUTE_BOUND, "brute-force")
    return int(kernels.klee_brute_count(n, s))


def tau_s(n: int, s: int) -> int:
    """Number of s-th powers dividing n: product of (floor(e/s) + 1)."""
    refuse_below(s, 1, "s")
    return math.prod(e // s + 1 for _, e in factorize(n).factors)


def euler_phi(n: int) -> int:
    """Euler's totient; the s = 1 case of klee_phi."""
    return klee_phi(n, 1)


def divisors(n: int) -> list[int]:
    """Ascending list of divisors of n; the s = 1 case of power_divisors."""
    return power_divisors(n, 1)


def divisor_tau(n: int) -> int:
    """Classical divisor count; the s = 1 case of tau_s."""
    return tau_s(n, 1)


def sigma(n: int, k: int = 1) -> int:
    """Divisor power sum sigma_k(n) = sum of d**k over divisors d of n."""
    refuse_below(k, 0, "sigma exponent")
    return sum(d**k for d in divisors(n))


def sgcd_table(n: int, s: int) -> np.ndarray:
    """int32 vector w with w[j] = (j, n)_s for 0 <= j < n (w[0] = s-power part of n)."""
    refuse_below(n, 1, "n")
    return kernels.sgcd_weights(n, power_divisors(n, s))
