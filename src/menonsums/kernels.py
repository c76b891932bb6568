"""Hot numeric kernels in numpy.

All kernels are pure functions of their arguments.  ``arith`` imports this
module, so nothing here may import ``arith`` back.
"""

import math

import numpy as np


def menon_gcd_sum(n: int) -> int:
    """sum of gcd(k-1, n) over 1 <= k <= n with gcd(k, n) = 1.

    w[j] = gcd(j, n) is the s = 1 case of ``sgcd_weights``, which starts w
    at 1, so the divisors it writes are the 1 < j <= sqrt(n) that divide n,
    their cofactors and n (none at n = 1): not a factorization of n, so this
    lhs shares nothing with the phi(n) * tau(n) it is checked against.  A
    k < n is a unit exactly where w[k] == 1 and adds w[k-1], so the sum is
    one integer dot of w[:-1] with the mask of w[1:]; k = n is a unit only
    at n = 1, where it adds gcd(0, 1) = 1.  No array is rolled or gathered.  einsum casts the mask to int32 in small
    buffered blocks; ``@`` would cast it whole into a second n-entry array,
    and with two of them live, malloc returns the freed heap top to the
    system after each n and faults it back in at the next (about 150 page
    faults per n near 10**5).  The dot accumulates in int32, which is
    exact: the sum is at most Pillai's sum of gcd(j, n) over j < n, which is
    at most n * tau(n), and that is at most 12,579,840 (at n = 98,280) for
    n up to ``identities.SUM_BOUND`` = 10**5.
    """
    # A trial scan in Python: at most 316 steps for n <= SUM_BOUND, cheaper than six numpy calls.
    small = [j for j in range(2, math.isqrt(n) + 1) if n % j == 0]
    w = sgcd_weights(n, small + [n // j for j in reversed(small) if j * j < n] + [n] * (n > 1))
    return int(np.einsum("i,i->", w[:-1], w[1:] == 1)) + (n == 1)


def sgcd_weights(n: int, power_divisors: list[int]) -> np.ndarray:
    """w[j] = (j, n)_s for 0 <= j < n, in int32, given the ascending l**s
    divisors of n as a list of ints (1 may be left out).

    One slice write per divisor: ascending order makes the last write per
    slot the largest divisor, which is exactly the generalized gcd.  w[0]
    ends up as the s-power part of n, matching the gcd(0, n) = n convention.
    Every entry divides n, so int32 holds it for every n below 2**31.
    """
    w = np.ones(n, dtype=np.int32)
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


def powers(g: int, m: int, q: int) -> np.ndarray:
    """g**j mod q for 0 <= j < m, doubling the known prefix at each step.

    Entries and multipliers are below q, so products stay below q**2, which
    int64 holds for every q = n <= ``characters.MODULUS_BOUND`` = 2**20,
    prime power or not.
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
    table[powers(g, order, q)] = np.arange(order, dtype=np.int32)
    return table


def dlog_two_gens(q: int, order5: int) -> np.ndarray:
    """table[x] = (i, j) for x = (-1)**i * 5**j mod q; -1 rows elsewhere."""
    table = np.full((q, 2), -1, dtype=np.int32)
    x = powers(5, order5, q)
    table[x, 0] = 0
    table[q - x, 0] = 1
    table[x, 1] = table[q - x, 1] = np.arange(order5, dtype=np.int32)
    return table
