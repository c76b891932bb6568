"""Sum evaluators: contract examples, reduction chains, and cross-checks."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from menonsums import (
    CharValue,
    DomainError,
    IntegrityError,
    ResourceError,
    char_shift_sum,
    character_group,
    cohen_partition_check,
    conductor,
    divisor_tau,
    enumerate_characters,
    euler_phi,
    generalized_sum,
    gen_gcd,
    is_primitive,
    klee_phi,
    menon_sum,
    power_divisors,
    principal_character,
    round_exact,
    sigma,
    sury_sum,
    tau_s,
    unit_group_structure,
    zhao_cao_sum,
)
from menonsums import kernels
from menonsums.identities import cohen_partition_stats, generalized_weights, zhao_cao_weights


class TestMenon:
    @pytest.mark.parametrize("n,expected", [(1, 1), (4, 6), (10, 16)])
    def test_examples(self, n, expected):
        assert menon_sum(n) == expected

    def test_matches_direct_loop(self):
        for n in range(1, 200):
            direct = sum(math.gcd(m - 1, n) for m in range(1, n + 1) if math.gcd(m, n) == 1)
            assert menon_sum(n) == direct

    def test_errors(self):
        with pytest.raises(DomainError):
            menon_sum(0)
        with pytest.raises(ResourceError):
            menon_sum(10**5 + 1)


class TestSury:
    @pytest.mark.parametrize("n,s,expected", [(3, 1, 4), (4, 2, 14), (1, 7, 1)])
    def test_examples(self, n, s, expected):
        assert sury_sum(n, s) == expected

    def test_matches_tuple_enumeration(self):
        for n in range(1, 13):
            for s in (1, 2, 3):
                total = 0
                tuples = [(m1,) for m1 in range(1, n + 1) if math.gcd(m1, n) == 1]
                for _ in range(s - 1):
                    tuples = [t + (m,) for t in tuples for m in range(1, n + 1)]
                for t in tuples:
                    total += math.gcd(t[0] - 1, *t[1:], n) if len(t) > 1 else math.gcd(t[0] - 1, n)
                assert sury_sum(n, s) == total, (n, s)

    def test_reduces_to_menon(self):
        for n in range(1, 401):
            assert sury_sum(n, 1) == menon_sum(n)

    def test_tuple_bound(self):
        with pytest.raises(ResourceError):
            sury_sum(10**4, 2)

    @pytest.mark.parametrize("s", [66, 10**6, 2**31 - 1])
    def test_n1_work_does_not_grow_with_s(self, s):
        start = time.perf_counter()
        assert sury_sum(1, s) == 1
        assert time.perf_counter() - start < 0.5


class TestZhaoCao:
    def test_examples(self):
        assert zhao_cao_sum(4, principal_character(4)).rounded == 6
        for chi in enumerate_characters(9):
            if is_primitive(chi):
                assert zhao_cao_sum(9, chi).rounded == 6
        for chi in enumerate_characters(12):
            if conductor(chi) == 3:
                assert zhao_cao_sum(12, chi).rounded == 12

    def test_principal_reduces_to_menon(self):
        for n in range(1, 1001):
            assert zhao_cao_sum(n, principal_character(n)).rounded == menon_sum(n)

    def test_menon_gcd_table_and_fft_paths_agree(self):
        # Menon's identity is Zhao-Cao at the principal character (flat index 0, d = 1).
        for n in range(1, 501):
            group = character_group(n)
            assert group.conductors()[0] == 1
            fft = round(group.all_sums(zhao_cao_weights(n))[0].real)
            assert menon_sum(n) == fft == euler_phi(n) * divisor_tau(n)

    def test_modulus_mismatch(self):
        with pytest.raises(DomainError):
            zhao_cao_sum(8, principal_character(4))


class TestGeneralizedSum:
    def test_remark_example(self):
        assert generalized_sum(4, 2, principal_character(4)).rounded == 5

    def test_theorem1_examples(self):
        for chi in enumerate_characters(16):
            if is_primitive(chi):
                assert generalized_sum(16, 2, chi).rounded == 12
        for chi in enumerate_characters(9):
            if is_primitive(chi):
                assert generalized_sum(9, 1, chi).rounded == 6

    def test_theorem1_property_full_range(self):
        # every primitive chi on an s-th-power modulus up to 2**10
        from menonsums import run_sweep
        from menonsums.harness import SweepConfig

        report = run_sweep(SweepConfig(identity="theorem1", n_max=1024, s_values=(1, 2, 3)))
        assert report.summary["fail"] == 0
        assert report.worst_residual < 1e-6

    def test_s1_equals_zhao_cao(self):
        for n in range(1, 151):
            group = character_group(n)
            via_gen = group.all_sums(generalized_weights(n, 1))
            via_zc = group.all_sums(zhao_cao_weights(n))
            assert np.allclose(via_gen, via_zc, atol=1e-10)
            chi = enumerate_characters(n)[-1]
            assert generalized_sum(n, 1, chi).rounded == zhao_cao_sum(n, chi).rounded

    def test_direct_transcription(self):
        # literal sum over k with (k, n)_s = 1 of (k-1, n)_s * chi(k)
        from menonsums import eval_character

        for n in (4, 9, 12, 16, 18):
            for s in (1, 2, 3):
                for chi in enumerate_characters(n):
                    total = 0j
                    for k in range(1, n + 1):
                        if gen_gcd(k, n, s) != 1:
                            continue
                        total += gen_gcd(k - 1 if k > 1 else 0, n, s) * complex(eval_character(chi, k))
                    res = generalized_sum(n, s, chi)
                    assert abs(res.complex_value - total) < 1e-9, (n, s)

    def test_multiplicativity_small(self):
        # f(rt) = f(r) f(t) for coprime r, t under component factorization
        for s in (1, 2):
            for r, t in ((4, 9), (8, 3), (5, 9), (16, 9), (4, 25)):
                n = r * t
                gr, gt, gn = character_group(r), character_group(t), character_group(n)
                sums_r = gr.all_sums(generalized_weights(r, s))
                sums_t = gt.all_sums(generalized_weights(t, s))
                sums_n = gn.all_sums(generalized_weights(n, s))
                for flat, chi in enumerate(enumerate_characters(n)):
                    fr = sums_r[gr.flat_index(_restrict(chi, r))]
                    ft = sums_t[gt.flat_index(_restrict(chi, t))]
                    lhs = np.rint(sums_n[flat].real)
                    assert lhs == round((fr * ft).real), (s, r, t, flat)


def _restrict(chi, modulus):
    """The product of the components of chi living over the primes of modulus."""
    from menonsums import DirichletCharacter, factor_character

    comps = tuple((q, idx) for q, idx in chi.components if modulus % q == 0)
    return DirichletCharacter(modulus, comps)


class TestCharShiftSum:
    def test_primitive_examples(self):
        for chi in enumerate_characters(9):
            if is_primitive(chi):
                assert char_shift_sum(3, 2, 1, 1, chi).rounded == -1
        for chi in enumerate_characters(16):
            if is_primitive(chi):
                assert char_shift_sum(2, 4, 2, 2, chi).rounded == -1

    def test_conductor_example(self):
        for chi in enumerate_characters(9):
            if conductor(chi) == 3:
                assert char_shift_sum(3, 2, 1, 1, chi).rounded == 2  # Phi_1(3)

    def test_primitive_piecewise_grid(self):
        for p, n_exp, s in ((2, 4, 1), (2, 6, 2), (3, 3, 1), (3, 4, 2), (5, 2, 1)):
            for chi in enumerate_characters(p**n_exp):
                if not is_primitive(chi):
                    continue
                for m in range(s, n_exp, s):
                    got = char_shift_sum(p, n_exp, s, m, chi).rounded
                    assert got == (-1 if m == n_exp - s else 0), (p, n_exp, s, m)

    def test_parameter_validation(self):
        chi = principal_character(16)
        with pytest.raises(DomainError):
            char_shift_sum(4, 2, 1, 1, principal_character(16))  # p not prime
        with pytest.raises(DomainError):
            char_shift_sum(2, 4, 2, 1, chi)  # m not a multiple of s
        with pytest.raises(DomainError):
            char_shift_sum(2, 4, 2, 4, chi)  # m not < n_exp
        with pytest.raises(DomainError):
            char_shift_sum(2, 3, 2, 2, chi)  # n_exp not a multiple of s
        with pytest.raises(DomainError):
            char_shift_sum(2, 4, 2, 2, principal_character(8))  # modulus mismatch


class TestCohenPartition:
    def test_examples(self):
        assert cohen_partition_stats(16, 2, 4) == (True, 4, 4)
        assert cohen_partition_check(36, 2, 9)
        for n in (7, 20, 45):
            for s in (1, 2, 3):
                assert cohen_partition_check(n, s, 1)

    def test_explicit_partition_16(self):
        # the twelve 2-reduced residues mod 16 split into 4 classes of 3 mod 4
        members = [m for m in range(1, 17) if gen_gcd(m, 16, 2) == 1]
        assert len(members) == 12
        by_residue = {}
        for m in members:
            by_residue.setdefault(m % 4, []).append(m)
        assert sorted(by_residue) == [1, 2, 3]
        assert all(len(v) == 4 for v in by_residue.values())

    def test_full_grid(self):
        for n in range(1, 200):
            for s in (1, 2, 3):
                for d in power_divisors(n, s):
                    assert cohen_partition_check(n, s, d), (n, s, d)

    def test_errors(self):
        with pytest.raises(DomainError):
            cohen_partition_check(16, 2, 8)  # 8 is not a square
        with pytest.raises(DomainError):
            cohen_partition_check(16, 2, 3)  # 3 does not divide 16
        with pytest.raises(ResourceError):
            cohen_partition_check(10**4 + 1, 2, 1)


class TestRoundExact:
    def test_examples(self):
        res = round_exact([])
        assert (res.rounded, res.residual) == (0, 0.0)
        res = round_exact([CharValue.one(), CharValue.root(Fraction(1, 2))])
        assert res.rounded == 0
        chi = [c for c in enumerate_characters(12) if conductor(c) == 3][0]
        vals = [math.gcd(k - 1, 12) * complex(eval) for k, eval in _zc_terms(12, chi)]
        res = round_exact(vals)
        assert res.rounded == 12 and res.residual < 1e-9

    def test_integrity_error(self):
        with pytest.raises(IntegrityError):
            round_exact([CharValue.root(Fraction(1, 4))])  # sum = i, not an integer

    def test_residual_includes_imaginary(self):
        res = round_exact([complex(1, 1e-8)])
        assert res.rounded == 1
        assert res.residual == pytest.approx(1e-8)


def _zc_terms(n, chi):
    from menonsums import eval_character

    return [(k, eval_character(chi, k)) for k in range(1, n + 1)]


def _odd_prime_powers_upto(bound):
    for p in range(3, bound + 1, 2):
        if all(p % f for f in range(3, math.isqrt(p) + 1, 2)):
            a = 1
            while p**a <= bound:
                yield p, a
                a += 1


class TestKernelsMatchDefinitions:
    """Each kernel against a pure-Python statement of what it computes."""

    def test_menon_gcd_sum(self):
        for n in [*range(1, 1501), 65536, 83160, 99991]:
            direct = sum(math.gcd(k - 1, n) for k in range(1, n + 1) if math.gcd(k, n) == 1)
            assert kernels.menon_gcd_sum(n) == direct, n

    @staticmethod
    def _check_dlog(table, q, powers, logs):
        """table[x] == log for every (x, log) pair, and -1 at every non-unit."""
        assert np.array_equal(table[powers], logs), q
        assert (table[np.gcd(np.arange(q), q) != 1] == -1).all(), q

    def test_dlog_cyclic(self):
        cases = [(4, 3, 2)]
        for p, a in [*_odd_prime_powers_upto(5000), (3, 10)]:
            q = p**a
            cases.append((q, unit_group_structure(p, a).generators[0][0], q // p * (p - 1)))
        for q, g, order in cases:
            powers = [pow(g, j, q) for j in range(order)]
            self._check_dlog(kernels.dlog_cyclic(q, g, order), q, powers, np.arange(order))

    def test_dlog_two_gens(self):
        for a in range(3, 17):
            q = 1 << a
            pairs = [(i, j) for i in range(2) for j in range(q // 4)]
            powers = [(-1) ** i * pow(5, j, q) % q for i, j in pairs]
            self._check_dlog(kernels.dlog_two_gens(q, q // 4), q, powers, np.array(pairs))

    def test_sgcd_weights_and_klee_count(self):
        for n in (1, 12, 360):
            for s in (1, 2, 3):
                pds = np.array(power_divisors(n, s), dtype=np.int64)
                w = kernels.sgcd_weights(n, pds)
                for j in range(n):
                    g = math.gcd(j, n)
                    assert w[j] == max(l**s for l in range(1, g + 1) if g % l**s == 0)
                no_power = [
                    m for m in range(1, n + 1) if all(math.gcd(m, n) % l**s for l in range(2, n + 1))
                ]
                assert kernels.klee_brute_count(n, s) == len(no_power)
