"""Hot numeric kernels in numpy.

All kernels are pure functions of their arguments.  ``arith`` imports this
module, so nothing here may import ``arith`` back.
"""

import math

import numpy as np


def menon_gcd_sum(n: int) -> int:
    """sum of gcd(k-1, n) over 1 <= k <= n with gcd(k, n) = 1.

    w[j] = gcd(j, n) is the s = 1 case of ``sgcd_weights``.  Its ascending
    divisors are the j <= sqrt(n) that divide n and their cofactors, not a
    factorization of n, so this lhs shares nothing with the phi(n) * tau(n)
    it is checked against.  k is a unit exactly where w[k mod n] == 1, and
    roll(w, 1)[k] = w[k-1].
    """
    j = np.arange(1, math.isqrt(n) + 1, dtype=np.int64)
    small = j[n % j == 0]
    large = n // small[::-1]
    w = sgcd_weights(n, np.concatenate((small, large[large > small[-1]])))
    return int(np.roll(w, 1)[w == 1].sum())


def sgcd_weights(n: int, power_divisors: np.ndarray) -> np.ndarray:
    """w[j] = (j, n)_s for 0 <= j < n, given the ascending l**s divisors of n.

    Ascending order makes the last write per slot the largest divisor, which
    is exactly the generalized gcd.  w[0] ends up as the s-power part of n,
    matching the gcd(0, n) = n convention.
    """
    w = np.ones(n, dtype=np.int64)
    for d in power_divisors:
        w[::d] = d
    return w


def klee_brute_count(n: int, s: int) -> int:
    """Count of 1 <= m <= n whose gcd with n is divisible by no l**s > 1.

    Each gcd divides n, so only the l**s that divide n can divide one.
    """
    g = np.gcd(np.arange(1, n + 1, dtype=np.int64), n)
    if s == 1:
        return int((g == 1).sum())
    unit = np.ones(n, dtype=bool)
    l = 2
    while l**s <= n:
        if n % l**s == 0:
            unit &= g % (l**s) != 0
        l += 1
    return int(unit.sum())


def _powers(g: int, m: int, q: int) -> np.ndarray:
    """g**j mod q for 0 <= j < m, doubling the known prefix at each step.

    Entries and multipliers are below q, so products stay below q**2, which
    int64 holds for every q up to the 2**20 modulus bound.
    """
    out = np.empty(m, dtype=np.int64)
    out[0] = 1
    k = 1
    while k < m:
        step = min(k, m - k)
        out[k : k + step] = out[:step] * pow(g, k, q) % q
        k += step
    return out


def dlog_cyclic(q: int, g: int, order: int) -> np.ndarray:
    """table[x] = j for x = g**j mod q, j in [0, order); -1 elsewhere."""
    table = np.full(q, -1, dtype=np.int32)
    table[_powers(g, order, q)] = np.arange(order, dtype=np.int32)
    return table


def dlog_two_gens(q: int, order5: int) -> np.ndarray:
    """table[x] = (i, j) for x = (-1)**i * 5**j mod q; -1 rows elsewhere."""
    table = np.full((q, 2), -1, dtype=np.int32)
    x = _powers(5, order5, q)
    table[x, 0] = 0
    table[q - x, 0] = 1
    table[x, 1] = table[q - x, 1] = np.arange(order5, dtype=np.int32)
    return table
