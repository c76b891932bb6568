"""Factorization and multiplicative-function layer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from menonsums import (
    DomainError,
    divisor_tau,
    divisors,
    euler_phi,
    factorize,
    gen_gcd,
    klee_phi,
    klee_phi_bruteforce,
    power_divisors,
    s_power_part,
    sigma,
    tau_s,
)
from menonsums.arith import FACTOR_CACHE, sgcd_table


class TestFactorize:
    @pytest.mark.parametrize(
        "n,factors",
        [
            (12, ((2, 2), (3, 1))),
            (1, ()),
            (97, ((97, 1),)),
            (360, ((2, 3), (3, 2), (5, 1))),
            (9999991, ((9999991, 1),)),
        ],
    )
    def test_examples(self, n, factors):
        assert factorize(n).factors == factors

    def test_invariants_range(self):
        for n in range(1, 2001):
            fac = factorize(n)
            assert fac.value == n
            primes = [p for p, _ in fac.factors]
            assert primes == sorted(primes)
            assert len(set(primes)) == len(primes)
            assert all(e >= 1 for _, e in fac.factors)
            assert math.prod(p**e for p, e in fac.factors) == n

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            factorize(0)

    def test_cache_is_bounded(self):
        start = 10**6
        for n in range(start, start + FACTOR_CACHE + 100):
            assert factorize(n).value == n
        assert factorize.cache_info().maxsize == FACTOR_CACHE
        assert factorize.cache_info().currsize <= FACTOR_CACHE


class TestGenGcd:
    @pytest.mark.parametrize(
        "a,b,s,expected",
        [
            (0, 4, 2, 4),
            (2, 4, 2, 1),
            (12, 18, 1, 6),
            (72, 48, 2, 4),
        ],
    )
    def test_examples(self, a, b, s, expected):
        assert gen_gcd(a, b, s) == expected

    def test_errors(self):
        with pytest.raises(DomainError):
            gen_gcd(3, 0, 1)
        with pytest.raises(DomainError):
            gen_gcd(3, 4, 0)
        with pytest.raises(DomainError):
            gen_gcd(-1, 4, 1)

    def test_symmetry_and_reduction(self):
        for a in range(1, 201, 7):
            for b in range(1, 201, 5):
                for s in (1, 2, 3):
                    g = gen_gcd(a, b, s)
                    assert g == gen_gcd(b, a, s)
                    if s == 1:
                        assert g == math.gcd(a, b)

    def test_sth_power_shape(self):
        for a in range(0, 120):
            for b in range(1, 120, 3):
                for s in (2, 3):
                    g = gen_gcd(a, b, s)
                    root = round(g ** (1.0 / s))
                    assert root**s == g

    def test_first_variable_multiplicative(self):
        for a1 in range(1, 51):
            for a2 in range(1, 51):
                if math.gcd(a1, a2) != 1:
                    continue
                for b in (12, 36, 90, 100):
                    for s in (1, 2, 3):
                        assert gen_gcd(a1 * a2, b, s) == gen_gcd(a1, b, s) * gen_gcd(a2, b, s)

    def test_divisor_characterization(self):
        # (a, b)_s is the largest s-th-power divisor of gcd(a, b)
        for a in range(0, 150):
            for b in range(1, 150, 7):
                for s in (1, 2, 3):
                    g = math.gcd(a, b) if a else b
                    best = max(d for d in divisors(g) if round(d ** (1.0 / s)) ** s == d)
                    assert gen_gcd(a, b, s) == best

    @given(
        a=st.integers(min_value=0, max_value=10**6),
        b=st.integers(min_value=1, max_value=10**6),
        s=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=200, deadline=None)
    def test_divides_both_property(self, a, b, s):
        g = gen_gcd(a, b, s)
        assert g >= 1
        assert b % g == 0
        assert a % g == 0 or a == 0


class TestKleePhi:
    @pytest.mark.parametrize(
        "n,s,expected",
        [(16, 2, 12), (12, 1, 4), (4, 2, 3), (9, 3, 9), (1, 1, 1)],
    )
    def test_examples(self, n, s, expected):
        assert klee_phi(n, s) == expected
        assert klee_phi_bruteforce(n, s) == expected

    def test_oracle_equality_small(self):
        for n in range(1, 400):
            for s in (1, 2, 3, 4):
                assert klee_phi(n, s) == klee_phi_bruteforce(n, s), (n, s)

    def test_multiplicative(self):
        for m in range(1, 301, 3):
            for n in range(1, 301, 7):
                if math.gcd(m, n) != 1:
                    continue
                for s in (1, 2, 3):
                    assert klee_phi(m * n, s) == klee_phi(m, s) * klee_phi(n, s)
                    assert tau_s(m * n, s) == tau_s(m, s) * tau_s(n, s)

    def test_errors(self):
        with pytest.raises(DomainError):
            klee_phi(0, 1)
        with pytest.raises(DomainError):
            klee_phi_bruteforce(0, 2)


class TestTauSigma:
    @pytest.mark.parametrize("n,s,expected", [(4, 2, 2), (12, 1, 6), (64, 3, 3)])
    def test_tau_s_examples(self, n, s, expected):
        assert tau_s(n, s) == expected

    def test_tau_s_counts_power_divisors(self):
        for n in range(1, 500):
            for s in (1, 2, 3):
                assert tau_s(n, s) == len(power_divisors(n, s))

    def test_classical_specializations(self):
        for n in range(1, 200):
            assert euler_phi(n) == klee_phi(n, 1)
            assert divisor_tau(n) == tau_s(n, 1)
            assert sigma(n, 0) == divisor_tau(n)
            assert sigma(n, 1) == sum(divisors(n))

    def test_sigma_examples(self):
        assert sigma(4, 1) == 7
        assert euler_phi(4) * sigma(4, 1) == 14

    def test_errors(self):
        with pytest.raises(DomainError):
            tau_s(0, 1)
        with pytest.raises(DomainError):
            sigma(0)


class TestSgcdTable:
    def test_matches_gen_gcd(self):
        for n in (1, 2, 12, 16, 36, 97, 98280):
            for s in (1, 2, 3):
                w = sgcd_table(n, s).tolist()
                for j in range(n):
                    expected = gen_gcd(j, n, s) if j else s_power_part(n, s)
                    assert w[j] == expected, (n, s, j)

    def test_s_power_part(self):
        assert s_power_part(72, 2) == 36
        assert s_power_part(72, 3) == 8
        assert s_power_part(7, 2) == 1
